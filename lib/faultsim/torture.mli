(** Crash-consistency torture: systematic crash-point enumeration and
    randomized fault sweeps over the object store.

    {2 Enumeration}

    {!enumerate} takes one workload per tenant.  Each tenant gets its own
    store on its own striped array; all stores share one virtual clock and
    ONE counting fault handler, so a submission index names a global
    device-submission boundary across every tenant's devices.  The
    workloads are interleaved round-robin (tenant 0 first, a workload that
    runs out drops out) and recorded once fault-free, with each tenant's
    reference {!Model} applied op for op, noting every boundary and its
    acknowledged completion time.  The enumerator then replays the
    interleaved workload from scratch for every boundary [k] under three
    durability horizons — before submission [k] is issued ([pre-submit]),
    after it is issued but one tick before it completes ([pre-complete]),
    and exactly at its completion ([post-complete]) — cuts every device at
    that horizon ([Striped.crash]), runs [Store.recover] per tenant, and
    demands each recovered state byte-match one of that tenant's own model
    snapshots inside the window its durability guarantees allow.  Epoch
    and journal state may match different snapshots in that window:
    checkpoint durability is asynchronous while journal appends are
    synchronous, so journals legitimately run ahead of epochs.  Each
    recovered store then goes on living, without a second crash: its
    deferred recovery pass must leave the counts and the content index
    equal to a fresh walk ([Store.content_index_consistent]), and one
    more epoch committed on top (every object carried, one fresh paged
    object) must recover again as the observation plus that epoch; a
    failure there is reported as the recovery raising.

    A single store is the enumerator at one tenant.  With two or more, a
    crash planted mid-flush of tenant A must never leave tenant B
    unrecoverable; any such corruption shows up as a [tenant B] failure.

    Everything is deterministic: a failure names its boundary, mode and
    crash time, and re-running the same workloads reproduces it. *)

val observe : Aurora_objstore.Store.t -> string
(** Canonical render of the store's visible state (same format as
    {!Model.render}); reads go through the charged, retrying read path. *)

type failure = {
  f_boundary : int;  (** 1-based global device-submission index *)
  f_mode : string;  (** pre-submit | pre-complete | post-complete *)
  f_crash_time : int;  (** durability horizon passed to [Striped.crash] *)
  f_detail : string;
}

type report = {
  r_boundaries : int;  (** device submissions the workload issued *)
  r_crash_points : int;  (** crash scenarios executed (3 per boundary) *)
  r_failures : failure list;
}

val pp_failure : failure -> string

val enumerate : ?misorder:bool -> Workload.op list list -> report
(** Crash everywhere, recover everywhere, compare everywhere.  With two or
    more tenants, [f_detail] starts with the affected tenant ([tenant A:],
    [tenant B:], ...).  With [~misorder:true] every store's deliberate
    metadata-before-data bug knob
    ({!Aurora_objstore.Store.set_torture_misorder}) is switched on — the
    enumeration is then expected to return failures; that expectation is
    itself a test that the harness can catch ordering bugs. *)

(** {2 Randomized sweeps} *)

type sweep_report = {
  s_runs : int;
  s_final_matches : int;
  s_detected : int;
  s_degraded : int;
      (** parseable-but-different outcomes under silent write loss; counted
          rather than failed because the store has no block checksums *)
  s_read_faults : int;
}

val sweep : seed:int -> runs:int -> Injector.profile -> sweep_report
(** Run [runs] random workloads (deterministic from [seed]) under the
    given fault profile.  Read-only profiles observe the live store
    through the injector and must reproduce the model exactly (retries
    absorbing every transient error); write-loss profiles crash and
    recover, classifying each outcome. *)
