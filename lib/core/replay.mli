(** Record/replay on top of checkpoints (paper sections 1 and 10).

    Record/replay systems log every non-deterministic input; the log
    grows without bound.  Aurora bounds it: only inputs since the last
    checkpoint need retaining, because re-execution starts from the
    checkpoint, not from the beginning.

    {!Recorder} interposes on the non-deterministic sources (socket
    receives, clock reads), appending each value to a durable non-COW
    journal and truncating the journal at every checkpoint.  After a
    crash, {!recover} restores the checkpoint and parses the surviving
    log; {!Replayer} then feeds the application the exact recorded values,
    so deterministic re-execution reaches the pre-crash state. *)

type entry =
  | Recv_msg of int * string  (** (fd, payload) *)
  | Clock_read of int

val entry_codec : entry Aurora_objstore.Wire.codec
(** One log entry: a tag byte, then the fd and payload or the clock value.
    Decoding raises [Wire.Corrupt] on a bad tag or a short read. *)

module Recorder : sig
  type t

  val attach : Group.t -> t
  (** Opens the recording journal in the group's store. *)

  val recv_msg : t -> Aurora_kern.Process.t -> fd:int -> string option
  (** Receive from a socket, recording the payload. *)

  val read_clock : t -> int
  (** Sample the clock, recording the value. *)

  val on_checkpoint : t -> unit
  (** Call right after a checkpoint: inputs before it are no longer
      needed (the checkpoint supersedes them), so the log truncates —
      this is what keeps recording sustainable indefinitely. *)

  val log_length : t -> int
  (** Entries recorded since the last checkpoint. *)

  val journal_id : t -> int
end

val recover : store:Aurora_objstore.Store.t -> journal_id:int -> entry list
(** Parse the surviving log off the recovered store. *)

module Replayer : sig
  type t

  val create : entry list -> t

  val recv_msg : t -> fd:int -> string option
  (** The next recorded receive for this fd ([None] when the log is
      exhausted — live execution resumes there). *)

  val read_clock : t -> int option
  val remaining : t -> int
end
