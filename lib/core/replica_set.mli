(** Quorum replication to N standbys with pipelined shipping, election
    failover and live migration (paper sections 3 and 10).  This is the
    one replication engine: a single hot standby is N = 1, and
    stop-and-wait shipping is [~window:1] followed by [drain t `All].

    One primary ships sequenced, sealed epoch deltas ({!Migrate.frame})
    to N standbys over independent faultable {!Aurora_net.Link}s.  Shipping is a
    sliding-window pipeline: up to [window] epochs are in flight per
    standby, acks are selective (the standby acks each epoch it installs,
    carrying its cumulative installed epoch), and retransmissions back
    off exponentially with per-standby seeded jitter so retries do not
    synchronize across replicas.  The receiver installs epochs strictly
    in order — a delta whose base it has not installed yet is buffered
    until the gap fills — and every install is verified against the
    shipped manifest digest before it is acked.

    {b Quorum.}  [quorum_epoch] is the newest primary epoch that
    ⌈(N+1)/2⌉ standbys have verified-acked; it advances monotonically
    and is the replication point failover can always recover: kill any
    minority of standbys and at least one survivor still holds every
    quorum-committed epoch.  When an external-synchrony [outbox] is
    attached, buffered messages are released only up to [quorum_epoch] —
    persistence is the protocol, not the local state.

    {b Health.}  Each standby runs a health state machine
    [Healthy → Degraded → Evicted → Rejoining]: consecutive ack
    timeouts degrade and then evict (eviction discards the standby's
    window so a dead or partitioned minority degrades throughput instead
    of stalling the pipeline); an evicted standby rejoins with a window
    of one frame — the cumulative catch-up delta from its last acked
    epoch (a full checkpoint stream if it never acked anything or the
    primary has pruned that epoch) — and
    returns to [Healthy] when the ack for it empties the window.  A standby that
    {e nacks} a composed epoch has diverged and is evicted immediately;
    retransmitting cannot help it.

    {b Retention.}  A replica set owns the history of its stores, the
    primary's included, and prunes each through
    {!Aurora_objstore.Store.prune_history} down to what the protocol can
    still ask for.  A store keeps at least its newest [K = 16] epochs,
    the depth a verified restore or a vote can fall back through, and
    prunes once it retains 10 epochs more than it must keep, so a prune's
    synchronous superblock write is paid once per 10 epochs.
    - The primary also keeps every epoch at or above the lowest epoch
      acked by a live, non-evicted standby (the base of that standby's
      catch-up, should it be evicted; a standby that acked nothing pins
      nothing) and the newest logged epoch (the next frame's base).  It
      prunes in {!pump} (so in {!ship} and {!drain} too), after the
      quorum release, and only while the outbox holds no message: no held
      message waits on the prune.
    - A standby keeps its newest [K] installed epochs, and its map from
      standby to primary epochs only theirs.  It prunes on its own store's
      clock right after an install's acks are on the wire, and only with
      no frame in its gap buffer.
    - The shipping log drops a frame once every live, non-evicted standby
      has acked it, and the entry itself once every standby not killed
      has (so a standby evicted and never rejoined keeps the entries, not
      the frames, above its acked epoch).
    An evicted standby pins nothing, so its acked epoch may be pruned;
    its rejoin then ships the full checkpoint stream (base 0).

    {b Failover.}  {!elect_and_failover} is the partition-tolerant
    election: the surviving standbys exchange their newest
    manifest-verified epochs in one round, the maximum wins (ties break
    to the lowest index), the winner restores it from the pages its vote
    verified via {!Restore.restore_verified} with epoch fallback, and
    the primary's outbox drops every buffered message from the
    discarded window ({!Extsync.drop_after}).  Because
    the winner's epoch is the maximum over a majority, it is never older
    than [quorum_epoch] — no released message can come from a window
    failover discards.

    {b Migration.}  {!migrate_live} reuses the same pipeline for the
    paper's live-migration use case: iterative pre-copy of epoch deltas
    to the target while the workload keeps running, then a final
    stop-and-copy delta and cut-over, reporting the measured
    virtual-time downtime and verifying the migrated machine restores
    byte-identically (objects, metadata and page CRCs). *)

type t

type health = Healthy | Degraded | Evicted | Rejoining

val create :
  ?window:int ->
  ?seed:int ->
  ?outbox:Extsync.t ->
  primary:Group.t ->
  standbys:(Aurora_objstore.Store.t * Aurora_net.Link.t) list ->
  unit ->
  t
(** [window] (default 4) bounds in-flight epochs per standby.  A frame
    gets 8 attempts before its standby is evicted; a standby degrades
    after 2 consecutive timeouts and is evicted after 6.  [seed]
    (default 1) drives the per-standby retransmit jitter.  From here on
    the set prunes the primary's store and every standby's (see
    Retention above), epochs checkpointed before [create] included.
    [outbox] is the primary's external-synchrony buffer: messages are
    released as [quorum_epoch] advances and dropped past the failover
    point. *)

val ship : t -> unit
(** Pick up every primary epoch checkpointed since the last call (each
    becomes one sequenced delta frame in the shared epoch log), then
    {!pump}.  Non-blocking — the primary's clock never waits on the
    network. *)

val pump : t -> unit
(** Apply every live standby's acks that have arrived by now, merged in
    arrival order (ties by standby index); after each ack that advances
    {!quorum_epoch}, release the outbox up to it at that ack's arrival,
    not at now, so how often the caller pumps moves no release.  A message
    the outbox first shows at this call is released no earlier than now
    ({!Extsync.observe}).  Then retransmit expired frames with jittered
    backoff and fill each standby's window, at now.  {!ship} calls it;
    call it alone when virtual time advanced for other reasons and acks
    may have landed. *)

val drain : t -> [ `Quorum | `All ] -> bool
(** Advance the primary's clock through ack arrivals and retransmit
    deadlines until the target is reached: [`Quorum] — [quorum_epoch]
    has caught up to the newest logged epoch; [`All] — every standby is
    either current or evicted.  Returns whether the target was met
    (false when too many standbys died to ever reach quorum). *)

val quorum_epoch : t -> int
(** Newest primary epoch verified-acked by a majority of standbys. *)

val last_logged_epoch : t -> int
(** Newest primary epoch entered into the shipping log by {!ship}. *)

val kill : t -> int -> unit
(** The standby's machine is gone (harness hook): its link goes dark,
    its window is discarded, and it is excluded from elections.  Distinct
    from eviction — an evicted standby can {!rejoin}, a killed one
    cannot. *)

val rejoin : t -> int -> unit
(** Bring an evicted standby back: state [Rejoining], and its window is
    one catch-up frame (cumulative delta from its last acked epoch, or the
    full checkpoint stream if it never acked or the primary has pruned
    that epoch; a full frame installs over whatever the standby holds),
    retransmitted like any other frame; the verified ack that empties the window returns it to
    [Healthy] and normal window shipping resumes.  No-op unless the
    standby is evicted and alive. *)

(** {1 Introspection} *)

type standby_view = {
  sv_idx : int;
  sv_health : health;
  sv_dead : bool;
  sv_acked_epoch : int;  (** newest primary epoch verified-acked *)
  sv_installed_epoch : int;  (** receiver side: newest epoch installed *)
  sv_lag_epochs : int;  (** logged epochs not yet acked *)
  sv_lag_bytes : int;  (** stream bytes not yet acked *)
  sv_window_occupancy : int;  (** frames currently in flight *)
  sv_consec_timeouts : int;
  sv_retransmits : int;
  sv_timeouts : int;
  sv_dup_acks : int;
  sv_verify_rejects : int;
  sv_shipped_bytes : int;  (** stream bytes verified-acked *)
  sv_prunes : int;  (** prunes of the standby's store by the set *)
}

val view : t -> int -> standby_view
val views : t -> standby_view list

type stats = {
  rs_epochs_logged : int;
  rs_acked_total : int;  (** epoch installs acked across all standbys *)
  rs_attempts : int;  (** frames sent, retransmissions included *)
  rs_retransmits : int;
  rs_timeouts : int;
  rs_dup_acks : int;
  rs_verify_rejects : int;
  rs_evictions : int;
  rs_rejoins : int;
  rs_released_msgs : int;  (** outbox messages released at quorum *)
  rs_primary_prunes : int;  (** prunes of the primary's store by the set *)
}

val stats : t -> stats

(** {1 Election and failover} *)

type vote = {
  vt_idx : int;
  vt_primary_epoch : int;  (** newest verified epoch it can serve *)
  vt_standby_epoch : int;  (** that epoch's local name in its store *)
}

type election_report = {
  el_votes : vote list;  (** every survivor's advertisement *)
  el_winner : int;  (** standby index that restores *)
  el_source_epoch : int;  (** primary epoch actually restored *)
  el_dropped_msgs : int;  (** outbox messages from the discarded window *)
  el_downtime_ns : int;
      (** virtual time from the start of the election to the winner
          serving: the takeover machine's clock advance across the call
          (one vote round trip plus the restore) plus the largest clock
          advance of any survivor's store during it (the slowest vote's
          verification) *)
  el_restore : Restore.verified;
}

val elect_and_failover :
  t ->
  survivors:int list ->
  machine:Aurora_kern.Machine.t ->
  (election_report, string) result
(** The primary is gone and [survivors] (standby indexes) can still talk
    to each other: exchange newest verified epochs, restore the maximum
    on the winner, drop the discarded outbox window.  The vote request
    goes to every live survivor at once: the takeover machine's clock
    pays one round trip ({!Aurora_net.Link.rtt} of 64 bytes), however
    many survive, and nothing when none does (a dead index costs
    nothing).  Each survivor verifies its vote ({!Restore.check_newest})
    on its own store's clock, so the votes run in parallel.  The winner
    restores exactly the epoch it voted for from the pages its vote
    verified ({!Restore.restore_verified} [~checked]), reading nothing
    again, and falls back to older epochs only if that rebuild fails.
    [Error] when no survivor holds any verified epoch. *)

(** {1 Live migration} *)

type migration_report = {
  mig_rounds : int;  (** pre-copy iterations before the cut-over *)
  mig_precopy_bytes : int;  (** stream bytes shipped while running *)
  mig_final_bytes : int;  (** stream bytes in the stop-and-copy delta *)
  mig_downtime_ns : int;
      (** virtual time from workload stop to the target restored *)
  mig_total_ns : int;  (** whole migration, first pre-copy included *)
  mig_source_epoch : int;  (** primary epoch the target came up from *)
  mig_identical : bool;
      (** target epoch byte-identical to the source: same objects, same
          metadata, same page CRCs *)
}

val migrate_live :
  ?link:Aurora_net.Link.t ->
  primary:Group.t ->
  target_store:Aurora_objstore.Store.t ->
  machine:Aurora_kern.Machine.t ->
  workload:(int -> unit) ->
  unit ->
  (migration_report, string) result
(** Iterative pre-copy: round [r] runs [workload r] (the still-live
    service dirtying state), checkpoints, and pipelines the delta to the
    target (window 4); rounds stop when the delta shrinks below 10% of
    the first full stream or after 8 rounds.  Cut-over: the workload stops, a final delta ships, and the
    target machine restores the verified epoch; downtime is that whole
    tail, measured in virtual time.  [Error] if the target store ends up
    evicted (link too hostile) or the restore fails. *)

val stores_identical :
  src:Aurora_objstore.Store.t ->
  src_epoch:int ->
  dst:Aurora_objstore.Store.t ->
  dst_epoch:int ->
  bool
(** Byte-identity of two checkpoints: equal object sets
    ({!Aurora_objstore.Store.objects_at}), equal kinds and metadata,
    equal page CRC sets. *)
