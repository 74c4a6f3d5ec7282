(** Shared flush-bandwidth arbitration across consistency groups.

    Hundreds of tenants checkpointing against the same striped array all
    drain through one physical bus.  The arbiter models that bus as a
    single FCFS lane at the array's aggregate bandwidth, with per-tenant
    attribution (bytes, lane service time, lane wait time) and a weighted
    TDM schedule of per-tenant flush windows used for admission control:
    a tenant whose next epoch cannot fit the remaining budget of its own
    window is delayed to its next window, and an epoch that could never
    fit any window is rejected outright.

    The lane never reorders: each grant occupies it for
    [bytes / bandwidth] and the grant's completion lower-bounds the
    write's durability on the member devices.  A device with no arbiter
    installed behaves exactly as before, so single-tenant workloads (and
    every pre-fleet golden trace) are unchanged. *)

type t

type tenant
(** A registered consumer of the lane; carries its own attribution. *)

type decision =
  | Admit
  | Delay of int  (** wait this many ns for the tenant's next window *)
  | Reject  (** the epoch can never fit the tenant's window *)

val create : name:string -> bandwidth:int -> period_ns:int -> t
(** [bandwidth] is the aggregate array bandwidth in bytes/s; [period_ns]
    the fleet checkpoint period the TDM windows divide. *)

val register : t -> name:string -> ?weight:int -> unit -> tenant
(** Add a tenant with the given scheduling weight (default 1).  Window
    offsets and widths are recomputed over all registered tenants:
    tenant [i]'s window is [period * w_i / sum_w] wide, placed after the
    windows of the tenants registered before it. *)

val tenant_name : tenant -> string
val window : t -> tenant -> int * int
(** [(offset, width)] of the tenant's flush window within the period. *)

val submit : t -> tenant -> now:int -> bytes:int -> int
(** Occupy the shared lane for [bytes] at the lane bandwidth; returns the
    grant's completion time.  Queue wait (start - now) is billed to this
    tenant and no other. *)

val admit : t -> tenant -> now:int -> est_bytes:int -> decision
(** Admission control for an epoch expected to flush [est_bytes]: fits
    the remaining budget of the tenant's current window -> [Admit]; fits
    a full window -> [Delay] until the next window opens; larger than
    the window itself -> [Reject]. *)

val note_delayed : t -> tenant -> unit
val note_rejected : t -> tenant -> unit

(** {1 Attribution} *)

type tenant_stats = {
  ts_name : string;
  ts_weight : int;
  ts_grants : int;
  ts_bytes : int;
  ts_busy_ns : int;  (** lane service time consumed by this tenant *)
  ts_wait_ns : int;  (** lane queueing delay suffered by this tenant *)
  ts_delayed : int;  (** epochs pushed to a later window by admission *)
  ts_rejected : int;  (** epochs refused outright *)
}

val stats : t -> tenant -> tenant_stats

val lane_busy_ns : t -> int
(** Total service time the lane has granted. *)

val accounting_ok : t -> bool
(** The per-tenant attribution identity: the tenants' [ts_busy_ns] sum to
    exactly {!lane_busy_ns} (no lane time is billed twice or dropped). *)
