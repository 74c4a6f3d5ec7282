(** Restore: recreate a consistency group from a store checkpoint.

    Restore inverts the POSIX object model: each store object is recreated
    exactly once and the identifier references between them relink the
    sharing — two fd-table slots that named the same description oid share
    one description again, a description and a memory mapping that named
    the same vnode meet at the same vnode, UNIX socket pairs are re-paired,
    and in-flight SCM_RIGHTS descriptors come back inside their socket
    buffers.

    PIDs and TIDs are virtualized (section 5.3): the restored process
    keeps its checkpoint-time local pid while the machine assigns a fresh
    global pid.  Parents of ephemeral (unpersisted) children receive
    SIGCHLD.  Device mappings are re-injected fresh — the vDSO of the
    restoring platform, not the checkpointed one. *)

type result = {
  group : Group.t;
  procs : Aurora_kern.Process.t list;
  fs : Aurora_fs.Fs.t option;
  restore_ns : int;
      (** charged virtual time of the restore itself, the shadows the
          restored group interposes over its memory included *)
}

val groups_at :
  store:Aurora_objstore.Store.t -> epoch:int -> (int * int list) list
(** The consistency groups in a checkpoint: [(group oid, member process
    oids)].  A store hosts one group per application or container
    (paper section 3); list them to pick which to restore. *)

val restore :
  machine:Aurora_kern.Machine.t ->
  store:Aurora_objstore.Store.t ->
  ?epoch:int ->
  ?lazy_pages:bool ->
  ?group_oid:int ->
  unit ->
  result
(** Rebuild the group checkpointed in [epoch] (default: the last complete
    checkpoint) into [machine].  When the checkpoint holds several
    consistency groups, [group_oid] selects one (see {!groups_at}).
    Omitting it with multiple groups, or naming a group the epoch does
    not hold, raises [Invalid_argument] before [machine] is touched.

    Every file's pages come from one stream
    ({!Aurora_objstore.Store.stream_pages}: one leaf batch, one page
    batch), then every page of the memory objects the group reaches from
    another.  Eager restore takes them all before it touches [machine].
    With [lazy_pages] (default false) the restore charges only the OS
    state reconstruction, modeling Aurora's lazy restore (section 6,
    "Memory Overcommitment"): a fault installs its 16-page cluster from
    the stream on first touch, waiting only for it to arrive.  The
    stream's waits land on the store's clock.  Contents are identical
    either way, and a pruned epoch does not affect pages restored
    from it. *)

(** {1 Verified restore}

    Every committed epoch carries a manifest ({!Aurora_objstore.Manifest}:
    per-object metadata and page CRCs) that the store writes and checks.
    Verified restore checks an epoch against its manifest before touching
    it, and falls back epoch-by-epoch when the newest checkpoint fails
    verification — degraded recovery instead of a crash on a torn,
    corrupted or unreadable epoch. *)

type attempt = { at_epoch : int; at_reason : string }
(** An epoch that failed verification (or restore) and was skipped. *)

type restore_error =
  | No_checkpoints  (** the store holds no complete checkpoint at all *)
  | No_valid_epoch of attempt list
      (** every candidate epoch failed, newest first, with reasons *)

val pp_restore_error : restore_error -> string

val verify_epoch :
  store:Aurora_objstore.Store.t ->
  epoch:int ->
  (Aurora_objstore.Manifest.t, string) Stdlib.result
(** {!Aurora_objstore.Store.verify_epoch} with {!Serial.parse_check} as
    its metadata check: exactly one manifest object, its entry set
    matching the epoch's objects, each object's metadata CRC, page count,
    page-set fingerprint and on-disk page payload CRCs agreeing, and the
    metadata still parsing.  Read-only; never raises. *)

type verified = {
  vr_result : result;
  vr_epoch : int;  (** the epoch actually restored *)
  vr_manifest : Aurora_objstore.Manifest.t;  (** its verified manifest *)
  vr_skipped : attempt list;  (** newer epochs rejected on the way *)
}

type checked
(** An epoch that passed {!verify_epoch}, with its manifest, the page
    shares its verification read and decoded, and where the walk that
    found it stands: the newer epochs it rejected and the older ones it
    has not tried. *)

val check_newest :
  store:Aurora_objstore.Store.t ->
  ?eligible:(int -> bool) ->
  unit ->
  (checked, restore_error) Stdlib.result
(** The first step of {!restore_verified}'s walk: the newest retained
    epoch for which [eligible] (default: every epoch) holds and that
    passes {!verify_epoch}, trying them newest first.  An epoch that
    fails is recorded with its reason.  Read-only; never raises.  A
    replica's vote is this step: it restores exactly the epoch it voted
    for by handing the result to {!restore_verified}. *)

val checked_epoch : checked -> int
(** The epoch that passed. *)

val restore_verified :
  machine:Aurora_kern.Machine.t ->
  store:Aurora_objstore.Store.t ->
  ?lazy_pages:bool ->
  ?group_oid:int ->
  ?checked:checked ->
  unit ->
  (verified, restore_error) Stdlib.result
(** Restore the newest epoch that passes {!verify_epoch}, falling back to
    older epochs — every retained one, newest first — when verification
    (or the restore itself) fails, including on a read that still fails
    after the store's retries.  An epoch is read once: the restore takes
    every page from the streams its verification read and decoded.
    Never raises on corrupt state: a store with no recoverable epoch
    yields [Error].  A caller error in [group_oid] (see {!restore})
    raises [Invalid_argument] from the first epoch that verifies instead
    of falling back to an older one.

    With [checked] (from {!check_newest} on this [store]; otherwise
    [Invalid_argument]) the walk starts at its epoch, having already
    rejected what that step rejected: the restore rebuilds from its
    shares and reads, waits for and decodes nothing again.  If that
    rebuild fails, the walk goes on through every older retained epoch,
    as without [checked].  A [checked] serves one restore: a lazy
    restore takes its pages out of the shares. *)
