(** Consistency groups and the checkpoint path — the SLS orchestrator.

    A consistency group is the unit of atomic persistence (paper section 3):
    a set of processes checkpointed together, by default 100 times per
    second.  {!checkpoint} implements the full continuous-checkpointing
    cycle:

    + collapse the previous epoch's flushed system shadows into their
      parents (Aurora's reverse collapse) — once that epoch is durable and
      before the stop window, as nothing in it needs the application
      stopped;
    + quiesce every thread at the kernel boundary (IPI; sleeping syscalls
      transparently restart);
    + serialize every POSIX object reachable from the group into its own
      store object — processes, threads, descriptions, pipes, sockets
      (in-flight SCM_RIGHTS descriptors included), kqueues, ptys, shared
      memory — deduplicated structurally by object identity;
    + interpose fresh system shadows above every writable anonymous VM
      object in the group (one shadow per object, shared mappings
      included, shm backmaps updated) and downgrade the dirty PTEs;
    + resume the group (end of the stop window);
    + flush the frozen shadows' pages and the file system's dirty vnodes
      into the store and commit the checkpoint asynchronously.

    The store's write ordering guarantees a crash during the flush leaves
    the previous checkpoint intact.

    A group keeps only what outlives a checkpoint: one identity table
    that names each process and kernel object it checkpoints once (its
    oid and the generation of its last persisted image), and one record
    per memory object.  Everything a cycle makes (the objects it reached,
    the speculation window's state, its counters) is created with the
    cycle and dropped with it. *)

type t

type ckpt_stats = {
  stop_ns : int;  (** application stop time *)
  quiesce_ns : int;  (** thread quiesce + orchestrator barrier *)
  collapse_ns : int;
      (** virtual time of the reverse collapse of the previous epoch's
          frozen shadows (Cost.collapse_page_move per page moved).  It
          runs at the top of the cycle, before the speculation window and
          the stop, so it is not part of [stop_ns]. *)
  os_serialize_ns : int;
  mem_mark_ns : int;  (** shadowing + PTE downgrades + TLB *)
  flush_ns : int;
      (** virtual time of the synchronous flush-submission phase (staging,
          commit); the asynchronous tail runs to [durable_at] *)
  pages_flushed : int;
  pages_serialized : int;
      (** distinct dirty pages whose payloads the store actually wrote
          this epoch (staged minus dedup hits); 0 for memory-only cycles *)
  pages_deduped : int;
      (** staged pages resolved against the store's content-addressed
          index — recorded as references, never re-flushed *)
  bytes_written : int;
      (** device bytes the epoch's flush wrote end to end: packed data
          extents, radix leaves, records and superblock *)
  epoch : int;
  durable_at : int;  (** virtual time the checkpoint is fully durable *)
  flush : Aurora_objstore.Store.flush_stats option;
      (** the store's coalesced-flush statistics for this epoch ([None]
          for memory-only checkpoints, which skip the store flush) *)
  objects_serialized : int;
      (** OS-state objects serialized and staged this cycle (the group
          object is bookkeeping, not counted) *)
  objects_skipped : int;
      (** OS-state objects whose generation stamp matched their last
          persisted image: dirty-checked and skipped, carried into the new
          epoch by the store's composed read path *)
  meta_bytes_written : int;
      (** serialized OS metadata staged this cycle (skipped objects
          contribute nothing) *)
  speculate_ns : int;
      (** virtual duration of the speculation window: soft
          serialize, page harvest and pre-stop refinement rounds, all
          concurrent with execution.  0 on stop-the-world cycles. *)
  validate_ns : int;
      (** in-stop time spent validating the speculative image: the
          conflict-set drain, the page splices and the file-backed
          capture.  0 on stop-the-world cycles.

          Semantics of the timing fields under speculation: [stop_ns]
          still measures the full application stop window, which now
          contains quiesce + {e validation} + shadow + resume
          instead of a full serialize — so
          [stop_ns >= quiesce_ns + validate_ns] always holds, and the
          conflict re-copy is bounded by the mutations the soft window
          admitted, not by the object count.  [os_serialize_ns] reports
          the serialize CPU's busy time on the spare core, not in-stop
          time. *)
  conflict_objects : int;
      (** OS objects re-serialized after the initial soft pass because
          they mutated underneath it (refinement rounds + final in-stop
          drain); 0 on stop-the-world cycles *)
  conflict_pages : int;
      (** pages re-copied over the speculative harvest because their
          speculative dirty bit was set after harvest; 0 on
          stop-the-world cycles *)
}

val attach :
  machine:Aurora_kern.Machine.t ->
  store:Aurora_objstore.Store.t ->
  ?fs:Aurora_fs.Fs.t ->
  ?period_ns:int ->
  ?group_oid:int ->
  Aurora_kern.Process.t list ->
  t
(** Create a consistency group over the given processes.  [period_ns]
    defaults to 10 ms (100 Hz).  [group_oid] is passed by the restore path
    so the restored group keeps its store identity. *)

val machine : t -> Aurora_kern.Machine.t
val store : t -> Aurora_objstore.Store.t
val clock : t -> Aurora_sim.Clock.t
val period_ns : t -> int

val add_process : t -> Aurora_kern.Process.t -> unit
val detach_process : t -> Aurora_kern.Process.t -> unit
(** [sls detach]: the process becomes ephemeral from the next checkpoint. *)

val set_ext_sync : t -> bool -> unit

val set_speculative : t -> bool -> unit
(** The group's checkpoint mode, the one way to choose it: [true] makes
    every later {!checkpoint} run the speculative soft-quiesce cycle,
    [false] (the default) the stop-the-world one.  A [~full:true] cycle
    runs stop-the-world in either mode. *)

val checkpoint : ?wait_durable:bool -> ?full:bool -> t -> ckpt_stats
(** One full checkpoint cycle.  With [wait_durable] (default false) the
    clock additionally advances until the checkpoint is on stable storage
    ([sls_barrier] semantics).

    The cycle first waits for the previous epoch to be durable, then
    reverse-collapses that epoch's frozen shadows into their parents
    ([collapse_ns]), and only then opens the speculation window and
    stops the application: the collapse is not part of [stop_ns], so a
    steady-state cycle stops as long as one with nothing to collapse.

    The OS-state pass is incremental by default: each object carries a
    monotonic generation stamp bumped at every mutation, and an object
    whose stamp matches its last persisted image is dirty-checked
    ([Cost.ckpt_dirty_check]) and skipped — not re-serialized, not
    re-staged; the store's epoch-composed read path resolves it from the
    prior epoch and the manifest folds in its cached checksums.
    [~full:true] forces every object to re-serialize and re-stage: the
    byte-identity oracle the incremental and speculative images are
    checked against, the cure for a mutation that bypassed its stamp, and
    the paired arm of [bench/main.exe ckpt-steady].  The paper tables (4 and 7
    included) run incremental cycles.

    In the speculative mode ({!set_speculative}), the cycle is the
    speculative soft-quiesce one: the serialize and harvest
    work happens {e before} the stop window, concurrent with execution
    (the workload keeps running through the machine's run hook on the
    virtual clock), and the stop window shrinks to quiesce + a
    validation pass that re-copies only what mutated underneath the
    speculation — conflicts detected through generation stamps, the
    kernel-object mutation log and the pmap's speculative dirty-bit
    plane.  The committed image is byte-identical to what a
    stop-the-world checkpoint at the same stop point would have written.
    Both modes run the same phase sequence; stop-the-world is the
    zero-length window, whose validation serializes the whole dirty set.
    The window is zero-length for [~full:true] and memory-only cycles,
    where stamps respectively carry no meaning or nothing is staged. *)

val checkpoint_mem_only : t -> ckpt_stats
(** Stop, serialize and shadow, but skip the store flush — the "Mem"
    checkpoint rows of Table 6 (used to isolate stop time from I/O).
    The pages its frozen shadows hold are carried into the next persisted
    epoch, which stages them unless a newer version supersedes them. *)

val checkpoint_region : t -> Aurora_vm.Vm_map.entry -> ckpt_stats
(** [sls_memckpt]: atomically checkpoint a single memory region without
    quiescing the whole group or serializing OS state — shadow the
    region's object and flush it asynchronously (Table 5's "Atomic"
    column).  On restore the region composes on top of the last full
    checkpoint.  The region's previous frozen shadow collapses before the
    timed window opens ([collapse_ns]); [stop_ns] covers the shadow and
    the flush. *)

val last_epoch : t -> int
val name_checkpoint : t -> string -> unit
(** [sls checkpoint <name>]: associate a name with the latest epoch. *)

val named_checkpoints : t -> (string * int) list

val suspend : t -> int
(** [sls suspend]: checkpoint the group durably, then remove its
    processes from the machine (the application exists only in the store).
    Returns the suspension epoch; {!Restore.restore} (or [sls resume])
    brings it back. *)

val run_for : t -> int -> unit
(** Advance virtual time by the given duration, taking periodic
    checkpoints on schedule (the transparent-persistence driver used when
    no workload is generating its own timeline). *)

(** {1 Memory overcommitment (paper section 6)}

    Aurora subsumes swap: pages already covered by a durable checkpoint
    are clean and can be evicted without I/O; a fault brings the most
    recent version back from the object store through the VM pager,
    together with the rest of its 16-page cluster
    ({!Aurora_objstore.Store.read_cluster}).  Lazy restore uses the same
    pager interface, served from a background stream
    ({!Aurora_objstore.Store.stream_pages}); evicting replaces it with
    this one. *)

val evict_clean_pages : t -> target:int -> int
(** Evict up to [target] clean resident pages (zero-copy: they are
    already in the store); waits for the covering checkpoint to be
    durable first.  Returns the number evicted. *)

val resident_group_pages : t -> int

(** {1 Used by the restore path and the API} *)

val group_oid : t -> int
val register_restored_memobj :
  t -> oid:int -> parent_oid:int option -> Aurora_vm.Vm_object.t -> unit
(** Seed the group's memory-object table after a restore, with the
    parent oid the object's image names, so subsequent checkpoints stay
    incremental. *)

val prepare_after_restore : t -> unit
(** Interpose clean system shadows above every restored writable object so
    post-restore writes are tracked incrementally.  Called by the restore
    path once the group is assembled. *)

val kind_proc : int
(** The identity table's tag for processes, which it keys by global pid;
    kernel objects are keyed by their [Genlog] kind and kernel id. *)

val seed_oids : t -> (int * int, int) Hashtbl.t -> unit
(** Fill the group's one identity table, [(kind, id) -> oid], which names
    every process ([kind_proc], global pid) and every kernel object
    ([Genlog] kind, kernel id) the group checkpoints.  Seeded objects have
    no persisted image yet, so the next checkpoint serializes them.  A
    checkpoint that walks the group (every one but {!checkpoint_region})
    forgets each entry it did not look up: an object that comes back after
    a cycle without it gets a fresh oid. *)

val set_named : t -> (string * int) list -> unit
(** Restore-path hooks: keep store identities stable across a restore so
    the next checkpoints stay incremental. *)
