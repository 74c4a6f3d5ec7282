(** HA torture: checkpoint shipping and failover under network faults.

    Every run ships a primary service's epochs through
    {!Aurora_core.Replica_set} over {!Aurora_net.Link}s with injected
    fault profiles (drops, duplicates, reordering, corruption, hard
    partitions) and checks failover against a reference model.  The
    single-standby torture is the quorum torture at N = 1: one standby,
    no kills, and the election is plain failover to it; the primary
    sometimes dies abruptly with an unshipped epoch, leaving the standby
    lagging.  The recovered state must byte-match the reference model at
    exactly the primary epoch the failover reports, that epoch must be
    no older than the last acknowledged one, and nothing may escape as
    an uncaught exception.

    The negative control corrupts the standby's newest epoch after a
    clean replication and demands the epoch-fallback loop demonstrably
    skip it.  Everything is deterministic from the seed. *)

type control = Meta | Page

val negative_control : mode:control -> (unit, string) result
(** Replicate three rounds stop-and-wait to one standby (window 1,
    drained every round), corrupt the standby's newest epoch (object
    metadata or a page payload), fail over through
    {!Aurora_core.Replica_set.elect_and_failover}: [Ok ()] iff the
    corrupted epoch was skipped and the previous round's state came back
    intact. *)

(** {1 Quorum torture}

    A primary pipelines epochs through
    {!Aurora_core.Replica_set} to N standbys over independently faulty
    links (probabilistic faults plus scripted
    {!Aurora_net.Link.partition_at} windows), a random minority is
    killed at random rounds, evicted survivors rejoin via catch-up, and
    externally-synchronized messages buffer until quorum.  When the
    primary dies the survivors elect; the run passes only if the
    election converges on an epoch no older than the quorum commit
    point, every survivor's vote is no newer than the winner's, the
    winner restored exactly the epoch it voted for, the takeover paid
    one vote round trip plus the restore (however many survivors
    voted), the restored state matches the reference model, and no
    released message came from the discarded window. *)

type quorum_report = {
  qr_seed : int;
  qr_rate : float;
  qr_n : int;
  qr_rounds : int;
  qr_killed : int list;  (** standby indexes killed mid-run *)
  qr_quorum_epoch : int;  (** quorum commit point when the primary died *)
  qr_source_epoch : int;  (** primary epoch the election restored *)
  qr_winner : int;
  qr_votes : int;
  qr_evictions : int;
  qr_rejoins : int;
  qr_retransmits : int;
  qr_released : int;  (** outbox messages released at quorum *)
  qr_dropped : int;  (** outbox messages dropped with the lost window *)
  qr_one_round : bool;
      (** the takeover machine's clock moved by one vote round trip plus
          what restoring the winner's epoch alone moves a fresh machine
          by *)
  qr_prunes : int;
      (** the fewest prunes any store made: the primary's or a standby's
          that was not killed *)
  qr_space_excess : int;
      (** once the rounds are over, the most sectors any store (the
          primary's or a standby's, killed or not) holds beyond its
          allocated blocks and its freed blocks waiting for their
          discard ({!Aurora_objstore.Store.sectors_held}); at most 0
          when every freed block leaves the device *)
  qr_outcome : string;
  qr_ok : bool;
}

val quorum_run :
  ?speculative:bool ->
  ?pace_ns:int ->
  seed:int ->
  rounds:int ->
  rate:float ->
  n:int ->
  unit ->
  quorum_report
(** One deterministic run at the given link fault rate
    ({!Aurora_net.Link.lossy_profile}).  With [~speculative:true] the
    primary service holds 48 pipes and checkpoints in soft-quiesce mode,
    and a run hook mutates a scratch page and a pipe inside every
    speculation window, so each shipped epoch carries validated conflict
    splices; failover must still land on a model-consistent epoch —
    never a half-spliced image.  With [~pace_ns] the service runs for
    that much virtual time after every round but the last, pumping the
    replica set every 100 µs, so acks land and held messages release
    between checkpoints, as in a service that checkpoints periodically;
    without it the rounds run back to back. *)

val pp_quorum : quorum_report -> string

type quorum_sweep_report = {
  q_runs : int;
  q_ok : int;
  q_evictions : int;
  q_rejoins : int;
  q_retransmits : int;
  q_released : int;
  q_dropped : int;
  q_one_round : int;  (** runs whose takeover paid one vote round *)
  q_prunes : int;  (** the fewest [qr_prunes] of any run *)
  q_space_excess : int;  (** the largest [qr_space_excess] of any run *)
  q_failures : quorum_report list;
}

val quorum_sweep :
  ?speculative:bool ->
  ?pace_ns:int ->
  seed:int ->
  runs_per_cell:int ->
  rates:float list ->
  ns:int list ->
  rounds:int ->
  unit ->
  quorum_sweep_report
(** [runs_per_cell] independent runs for every (replica count, fault
    rate) cell; [ns = [1]] is the single-standby sweep. *)

(** {1 Pipelined vs stop-and-wait} *)

type pipeline_report = {
  pl_rounds : int;
  pl_n : int;
  pl_rate : float;
  pl_sw_plane_ns : int;  (** stop-and-wait: primary time blocked shipping *)
  pl_pipe_plane_ns : int;  (** pipelined: ship calls plus the final drain *)
  pl_sw_total_ns : int;
  pl_pipe_total_ns : int;
  pl_speedup : float;  (** plane-time ratio, the figure the gate checks *)
  pl_sw_ok : bool;  (** every stop-and-wait round drained, none evicted *)
  pl_pipe_ok : bool;  (** pipeline drained with no standby evicted *)
}

val pipeline_vs_stop_and_wait :
  seed:int -> rounds:int -> rate:float -> n:int -> pipeline_report
(** Same workload, same links and seeds, N standbys, one
    {!Aurora_core.Replica_set} code path run twice: replication-plane
    time (primary virtual time blocked in the shipping protocol) at
    window 1 draining every standby after every round (stop-and-wait)
    versus window 4 with non-blocking ships and one final drain
    (pipelined).  Checkpoint production is excluded — it is identical on
    both sides. *)

(** {1 Held messages} *)

type hold_report = {
  hr_releases : (int * int * int) list;
      (** (epoch, checkpoint start, release time) of every held message,
          in release order *)
  hr_retransmits : int;
}

val hold_run : pump_ns:int -> rounds:int -> n:int -> hold_report
(** A lossless paced cell: a service checkpoints every 10 ms, buffers one
    externally-synchronized message per epoch, ships each epoch to [n]
    standbys over fault-free links and pumps the replica set every
    [pump_ns] until the next round, then drains to quorum.  A message
    leaves at the arrival of the ack that completes its epoch's quorum,
    so its release time does not depend on [pump_ns]. *)

(** {1 Live migration} *)

type migration_check = {
  mc_report : Aurora_core.Replica_set.migration_report;
  mc_period_ns : int;  (** the group's checkpoint period, the gate unit *)
  mc_downtime_periods : float;
  mc_ok : bool;  (** identical, verified source, downtime ≤ 2 periods *)
  mc_outcome : string;
}

val migration_run : seed:int -> rate:float -> migration_check
(** One live migration of a service with a shrinking dirty set over a
    link at the given fault rate: pre-copy must converge, the cut-over
    downtime must fit in two checkpoint periods, and the migrated
    epoch must be byte-identical to the source. *)
