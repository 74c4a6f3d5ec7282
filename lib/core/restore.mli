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
    restoring platform, not the checkpointed one.

    Sockets come back on demand.  The process, its fd table, its
    descriptions, pipes, kqueues, ptys and shared memory are rebuilt and
    charged at restore.  Every socket gets its state back from its image
    there too (the epoch's check has already parsed it, so a corrupt
    image fails the restore before anything resumes), but comes back a
    {e shell} ({!Aurora_kern.Socket.restore}): its
    rebuild is charged at its first use, on the restoring machine's
    clock, at what an eager rebuild charges, and traced as a
    [restore/materialize] complete event (args [oid], [ns]).  Readiness
    polls and checkpoints rebuild nothing.  A socket whose peer this
    restore also rebuilds (a UNIX pair inside the group) is re-paired
    after every socket exists, which rebuilds both ends at restore; a
    socket whose recorded peer this restore does not rebuild (another
    group's, or a TCP client's) stays a shell with no peer.  The
    [restore] span's end carries [sockets_deferred]. *)

type result = {
  group : Group.t;
  procs : Aurora_kern.Process.t list;
  fs : Aurora_fs.Fs.t option;
  restore_ns : int;
      (** charged virtual time of the restore itself, the shadows the
          restored group interposes over its memory included; a shell's
          rebuild lands on the clock at its first use, not here *)
  sockets_deferred : int;  (** sockets left as shells *)
}

val socket_restore_ns : int
(** What rebuilding one socket charges, eagerly or at a shell's first
    use: Table 4's per-socket restore. *)

val groups_at :
  store:Aurora_objstore.Store.t -> epoch:int -> (int * int list) list
(** The consistency groups in a checkpoint: [(group oid, member process
    oids)].  A store hosts one group per application or container
    (paper section 3); list them to pick which to restore. *)

(** {1 Restore}

    Every committed epoch carries a manifest ({!Aurora_objstore.Manifest}:
    per-object metadata and page CRCs).  Every restore checks its epoch
    against it before touching [machine], and falls back epoch by epoch
    past one that fails: degraded recovery instead of a crash on a torn,
    corrupted or unreadable epoch.  Eager restore runs {!verify_epoch},
    reading and checking every page first.  Lazy restore runs only its
    up-front half ({!Aurora_objstore.Store.check_epoch}, no page read);
    a fault checks the pages it decodes, and one that fails its read or
    its CRC raises from the fault ({!Aurora_block.Fault.Io_error},
    {!Aurora_objstore.Store.Corrupt_store} naming the page): the process
    has run, so there is no fallback.  [restore_ns] is the restoring
    clock's advance over the whole call, checks included. *)

type attempt = { at_epoch : int; at_reason : string }
(** An epoch that failed verification (or restore) and was skipped. *)

type restore_error =
  | No_checkpoints  (** the store holds no complete checkpoint at all *)
  | No_valid_epoch of attempt list
      (** every candidate epoch failed, newest first, with reasons *)

val pp_restore_error : restore_error -> string

exception Unrestorable of restore_error
(** What {!restore} raises when no candidate epoch restores. *)

val restore :
  machine:Aurora_kern.Machine.t ->
  store:Aurora_objstore.Store.t ->
  ?epoch:int ->
  ?lazy_pages:bool ->
  ?group_oid:int ->
  unit ->
  result
(** Rebuild the group checkpointed in [epoch] into [machine], after
    checking that epoch alone; without [epoch], the newest epoch that
    passes, falling back as {!restore_verified} does.  Raises
    {!Unrestorable} when nothing restores, [machine] untouched if no
    epoch passed its check.  When the checkpoint holds
    several consistency groups, [group_oid] selects one (see
    {!groups_at}).  Omitting it with multiple groups, or naming a group
    the epoch does not hold, raises [Invalid_argument] before [machine]
    is touched.

    With [lazy_pages] (default false) the restore charges only the OS
    state reconstruction, modeling Aurora's lazy restore (section 6,
    "Memory Overcommitment"): the memory the group reaches streams in
    the background, and a fault installs its 16-page cluster from the
    stream on first touch, waiting only for it to arrive.  The stream's
    waits, like a check's reads, land on the store's clock.  Contents
    are identical either way, and a pruned epoch does not affect pages
    restored from it. *)

val verify_epoch :
  store:Aurora_objstore.Store.t ->
  epoch:int ->
  (Aurora_objstore.Manifest.t, string) Stdlib.result
(** {!Aurora_objstore.Store.verify_epoch} with {!Serial.parse_check} as
    its metadata check.  Read-only; never raises. *)

type verified = {
  vr_result : result;
  vr_epoch : int;  (** the epoch actually restored *)
  vr_manifest : Aurora_objstore.Manifest.t;  (** its verified manifest *)
  vr_skipped : attempt list;  (** newer epochs rejected on the way *)
}

type checked
(** An epoch that passed {!verify_epoch}, with its manifest and decoded
    page shares, and where the walk that found it stands. *)

val check_newest :
  store:Aurora_objstore.Store.t ->
  ?eligible:(int -> bool) ->
  unit ->
  (checked, restore_error) Stdlib.result
(** The first step of an eager {!restore_verified}'s walk: the newest
    retained epoch for which [eligible] (default: every epoch) holds and
    that passes {!verify_epoch}; each one that fails is recorded with its
    reason.  Read-only; never raises.  A replica's vote is this step: it
    restores the epoch it voted for by handing the result on. *)

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
(** {!restore} of the newest epoch that passes its check, falling back
    through every older retained epoch, newest first, when the check or
    the rebuild fails, a read that still fails after the store's retries
    included; a store with no recoverable epoch yields [Error].  An
    epoch is read once: an eager restore takes every page from the
    shares its verification decoded.  A caller error in [group_oid]
    raises [Invalid_argument] instead of falling back.

    With [checked] (from {!check_newest} on this [store]; otherwise
    [Invalid_argument]) the walk starts at its epoch, having already
    rejected what that step rejected: the restore rebuilds from its
    shares, reads nothing again, and its [restore_ns] is the rebuild's
    alone.  A [checked] serves one restore: the rebuild takes its pages
    out of the shares. *)
