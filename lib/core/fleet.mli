(** Multi-tenant fleet checkpointing: N consistency groups interleaved on
    one virtual clock.

    Production SLS is not one group — it is hundreds of tenants
    continuously checkpointing against shared devices.  The fleet runs one
    {!Group} per tenant (each on its own machine and store, all machines
    sharing the fleet clock) with staggered per-tenant checkpoint phases:
    tenant [i]'s epoch is scheduled inside its own flush window of the
    weighted TDM schedule ({!Aurora_block.Arbiter}), so flush windows of
    distinct tenants partition the period instead of colliding.  Every
    tenant's device writes drain through the shared arbiter lane, which
    bills lane wait and service to the submitting tenant — the per-group
    queue-wait/service split the obs spans report.

    Admission control guards the shared flush budget: before an epoch
    starts, the tenant's previous flush footprint is checked against the
    remaining budget of its window — an epoch that no longer fits is
    delayed to the tenant's next window, and one that could never fit is
    rejected for this period. *)

type spec = {
  sp_name : string;
  sp_weight : int;  (** TDM window share (relative) *)
  sp_procs : int;
  sp_pipes_per_proc : int;
  sp_arena_pages : int;  (** anonymous pages per process *)
  sp_dirty_pipes : int;  (** pipes mutated per period (rotating) *)
  sp_dirty_pages : int;  (** arena pages touched per period (rotating) *)
}

val default_spec : string -> spec
(** 1 proc, 2 pipe pairs, a 4-page arena, 1 pipe + 1 page dirtied per
    period, weight 1. *)

type t

val create : ?bandwidth:int -> period_ns:int -> spec list -> t
(** Boot one machine + striped array + store + group per spec, all on one
    fresh fleet clock, registered in TDM order with a shared arbiter of
    the given aggregate [bandwidth] (default: the striped array's
    aggregate, [nvme_stripe_devices * nvme_device_bandwidth]). *)

val clock : t -> Aurora_sim.Clock.t
val tenant_name : t -> int -> string
val machine : t -> int -> Aurora_kern.Machine.t
val group : t -> int -> Group.t
val store : t -> int -> Aurora_objstore.Store.t
val device : t -> int -> Aurora_block.Striped.t

type proc_handle = {
  ph_proc : Aurora_kern.Process.t;
  ph_pipes : (int * int) array;  (** (read fd, write fd) pairs *)
  ph_arena_addr : int;  (** base address of the anonymous arena *)
}

val handles : t -> int -> proc_handle list
(** The tenant's workload surface, for callers driving their own mutation
    traces (the isolation tests). *)

val checkpoint_now : ?wait_durable:bool -> t -> int -> Group.ckpt_stats
(** Checkpoint tenant [i] immediately (no admission control), recording
    its stop time and flush span in the fleet accounting.  The
    building block for externally driven interleavings. *)

val run_for : t -> duration:int -> unit
(** The fleet scheduler: advance virtual time by [duration], running each
    tenant's periodic cycle at its staggered window offset — mutate its
    built-in workload, consult admission control, checkpoint (or delay /
    reject), and account the flush span.  Checkpoint staleness is
    bounded: an epoch deferred by admission for two consecutive windows
    is force-admitted, so an oversubscribed fleet degrades fairly
    instead of starving phase-unlucky tenants. *)

(** {1 Accounting} *)

type tenant_report = {
  tr_name : string;
  tr_epochs : int;
  tr_bytes : int;  (** device bytes this tenant's flushes wrote *)
  tr_stop_p50 : float;
  tr_stop_p99 : float;
  tr_stop_max : float;
  tr_delayed : int;
  tr_rejected : int;
  tr_lane_wait_ns : int;
  tr_lane_busy_ns : int;
}

type report = {
  r_elapsed_ns : int;
  r_epochs : int;
  r_bytes : int;
  r_ckpt_throughput : float;  (** aggregate checkpoint epochs per second *)
  r_bytes_per_s : float;
  r_jain : float;  (** fairness over per-tenant flushed bytes *)
  r_collisions : int;
      (** flush spans of distinct tenants that overlapped in time; the
          staggered schedule must keep this at zero *)
  r_accounting_ok : bool;  (** {!Aurora_block.Arbiter.accounting_ok} *)
  r_tenants : tenant_report list;
}

val report : t -> report

val jain : float list -> float
(** The Jain fairness index [(sum x)^2 / (n * sum x^2)]; 1.0 is perfectly
    fair, 1/n is maximally unfair.  Empty or all-zero input counts as
    perfectly fair. *)
