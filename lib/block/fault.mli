(** First-class fault injection for the block layer.

    A fault handler installed on a device ({!Device.set_fault}) or a whole
    striped array ({!Striped.set_fault}) is consulted at every device
    submission and every charged device read ({!Device.collect_read};
    per fragment for a vectored {!Striped.submit_vec}).  A lookup served from
    memory, such as a radix leaf already resident in the object store's
    leaf cache ([Store.read_page]), issues no device read and never
    reaches the handler.  The handler decides what actually
    reaches the media — the caller's timing, statistics and acknowledgement
    are unchanged, exactly like a device that lies about persistence.

    All submissions across the devices sharing one handler draw from a
    single monotonically increasing submission counter, so an index
    identifies a global device-submission boundary; the crash-point
    enumerator ({!module:Aurora_faultsim.Torture}) replays a workload and
    stops it at each boundary by raising {!Crash_point} from [on_write]. *)

exception Io_error of string
(** Transient I/O failure surfaced to the reader.  The object store's read
    path retries with backoff (see {!Aurora_objstore.Store.set_read_policy}). *)

exception Crash_point of { index : int; now : int }
(** Raised by an [on_write] hook to stop a run at a submission boundary.
    Never raised by the block layer itself. *)

type write_outcome =
  | Land  (** the write reaches media normally *)
  | Drop  (** acknowledged but never reaches media *)
  | Torn of int
      (** partial landing: for a vectored extent, only the first [n]
          segments (in device order) land; for a plain write, only the
          first [n] sectors' worth of bytes land *)
  | Delay of int
      (** completion postponed by [ns]: the write becomes durable after
          later submissions, reordering inside the non-durable window *)

type read_outcome =
  | Clean
  | Flip of int list
      (** corrupt the returned data by flipping one bit (xor 0x40) at each
          listed byte offset within the read *)
  | Fail  (** raise {!Io_error} after charging the attempt's device time *)

type write_info = {
  w_dev : string;  (** device name *)
  w_index : int;  (** global submission index, 1-based *)
  w_now : int;  (** submission time *)
  w_off : int;  (** device offset *)
  w_len : int;  (** logical length charged *)
  w_segments : int;  (** segment count (1 for plain writes) *)
}

type read_info = { r_dev : string; r_now : int; r_off : int; r_len : int }

type t = {
  mutable on_write : write_info -> write_outcome;
  mutable on_complete : write_info -> completion:int -> unit;
      (** called after the submission is queued, with its completion time;
          recorders use it to build the crash-point timeline *)
  mutable on_read : read_info -> read_outcome;
  mutable submissions : int;
}

val create : unit -> t
(** A pass-through handler (every hook defaults to no-op). *)

val submissions : t -> int
(** Submissions observed so far. *)

(** {1 Device-side entry points} (called by {!Device}; not for injector use) *)

val write_outcome :
  t -> dev:string -> now:int -> off:int -> len:int -> segments:int ->
  write_outcome * write_info

val write_complete : t -> write_info -> completion:int -> unit
val read_outcome : t -> dev:string -> now:int -> off:int -> len:int -> read_outcome
