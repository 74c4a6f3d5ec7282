(** The Aurora object store: a copy-on-write store of first-class objects.

    Every POSIX object, memory object and file checkpointed by the SLS
    becomes an object here, named by a 64-bit identifier.  Checkpoints map
    one-to-one onto application checkpoints (section 7): a checkpoint is a
    record listing every live object's current version; unchanged objects
    carry their previous version forward, and memory objects share
    unchanged data blocks between versions through per-object radix page
    maps — no log cleaning, no garbage-collection pauses on the write path.

    {2 On-store format}

    Every record the store writes is stated once, in {!Store_format}, as
    a type and one {!Wire.codec}: the same value writes the record and
    parses it back, so no writer and reader pair can disagree.  Block 0 holds
    the superblock (magic, last complete checkpoint and the location and
    size of its record, journal registry).  Each checkpoint
    record names its predecessor the same way, by first block and block
    count, and every live object's version record by its byte-granular
    location [(block, offset, length)]: version records are packed back to
    back into fresh extents, like page payloads, so an epoch's records
    take the bytes they hold, not a block each.  A packed extent never
    shares a block with an earlier commit, so a torn write cannot touch a
    durable record.  A checkpoint commit orders its writes like a real
    COW file
    system: object data and version records first, then the checkpoint
    record, then the superblock — so a crash anywhere leaves the previous
    checkpoint intact, and {!recover} finds the last complete checkpoint by
    reading exactly what is durable on the device.

    {2 Non-COW journals}

    [sls_journal] regions are preallocated block ranges updated in place
    with synchronous appends (a 4 KiB append costs ~28 µs, Table 5) and
    recovered by scanning self-describing records. *)

type t

exception Corrupt_store of string

val block_size : int
val leaf_span : int
(** Pages covered by one radix leaf block. *)

val decode : string -> 'a Wire.codec -> bytes -> 'a
(** [decode what codec data] parses one {!Store_format} record; a
    truncated or garbled one raises {!Corrupt_store}, never
    [Wire.Corrupt]. *)

(** {1 Lifecycle} *)

val format : dev:Aurora_block.Striped.t -> clock:Aurora_sim.Clock.t -> t
(** Initialize an empty store on the device (writes the superblock). *)

val recover : dev:Aurora_block.Striped.t -> clock:Aurora_sim.Clock.t -> t
(** Mount after a crash or reboot: parses the superblock and the retained
    checkpoints' records off the device.  The checkpoint records are read
    first, each once at the size its parent names; then every distinct
    version record they name, over all retained epochs, is loaded once,
    keyed by [(block, offset)]: the blocks covering the records are
    coalesced into charged runs, each run is read once, and each record
    is sliced out at its offset.  The cost is O(records + distinct
    versions), not O(epochs x objects).  Neither the per-block reference
    counts (see {!prune_history}) nor the free set is persisted: one
    uncharged walk counts every item the retained epochs and the
    journals hold, and every block below the frontier that no item
    covers (a block a prune freed, or an incomplete commit wrote) is
    freed, so {!blocks_allocated} survives a crash.  An empty store
    keeps numbering its epochs above the newest one a prune dropped.
    Raises {!Corrupt_store} if no
    valid superblock is found, a record is truncated, garbled or out of
    range, or a version entry has an offset past its block, a zero
    length, or a byte range past the allocated blocks. *)

val clock : t -> Aurora_sim.Clock.t
val device : t -> Aurora_block.Striped.t
val alloc_oid : t -> int

val reserve_oids : t -> upto:int -> unit
(** Ensure future allocations exceed [upto] (migration installs objects
    with their source identifiers). *)

(** {1 Checkpointing} *)

val begin_checkpoint : t -> int
(** Open a staging epoch; returns its number.  At most one staging epoch
    may be open. *)

val put_object : t -> oid:int -> kind:string -> meta:string -> unit
(** Stage the serialized state of an object for the open epoch. *)

val put_pages : t -> oid:int -> (int * bytes) list -> unit
(** Stage dirty page payloads [(page index, payload)] for a memory
    object.  Pages not mentioned carry over from the previous version
    (copy-on-write).  Staging the same index again — in the same call or a
    later one — replaces the payload in O(1): the newest staged version of
    a page wins, decided here rather than at commit time. *)

val abort_checkpoint : t -> unit
(** Drop the open staging epoch: nothing staged is written, and the
    epoch and oid counters return to their values at {!begin_checkpoint},
    so the next epoch takes the same number and a fresh {!alloc_oid}
    returns what it would have. *)

val commit_checkpoint : t -> int
(** Write out the staged epoch asynchronously; returns the virtual time at
    which the checkpoint is fully durable (superblock written).  The
    caller decides whether to wait (sls_barrier) or continue running.

    The flush is coalesced: each object's fresh data blocks are sorted,
    allocated as contiguous extents and submitted as a handful of
    stripe-spanning vectored writes ({!Aurora_block.Striped.write_vec});
    rewritten radix leaves ride extents of their own, and version records
    are packed back to back into exact-length writes.
    A 10k-dirty-page epoch issues O(extents) device submissions instead of
    O(pages). *)

type flush_stats = {
  fs_epoch : int;  (** epoch the stats describe *)
  fs_extents : int;  (** coalesced extents submitted *)
  fs_extent_blocks : int;  (** blocks carried by those extents *)
  fs_coalesced_bytes : int;  (** logical bytes submitted through extents *)
  fs_dev_writes : int;  (** device-queue submissions the commit issued *)
  fs_leaf_hits : int;  (** leaf-cache hits during the epoch *)
  fs_leaf_misses : int;  (** leaf-cache misses (device read + parse) *)
  fs_alloc_calls : int;  (** allocator invocations (extents count once) *)
  fs_pages : int;  (** distinct dirty pages flushed *)
  fs_pages_deduped : int;
      (** staged pages resolved against the content index (no data write) *)
  fs_bytes_written : int;
      (** device bytes the whole commit wrote: data, leaves, records,
          superblock *)
  fs_compress_ns : int;  (** modeled CPU time hashing + compressing *)
  fs_comp_in : int;  (** payload bytes entering the compressor *)
  fs_comp_out : int;  (** stored bytes after compression (incl. stores
          kept raw because coding did not shrink them) *)
}

val flush_stats : t -> flush_stats
(** Statistics of the most recently committed epoch's flush pipeline. *)

(** {1 Page-granular dedup and compression}

    The flush path keys every staged payload by its {!Aurora_util.Hash64}
    content hash: a page whose (hash, length, CRC) triple already names a
    stored location is recorded in the radix leaf as a reference to that
    location and never re-flushed.  The index is {e derived} state, kept
    beside per-block reference counts: commit adds what it writes to
    both, {!prune_history} drops every entry over a block it frees, and
    {!recover} rebuilds both from the durable leaves, so nothing about
    them needs to be crash-atomic.  An entry always lies in allocated
    blocks, but no live leaf need still reference it: blocks are
    immutable while allocated, and a leaf that dedups against the entry
    counts its blocks again.  Payloads that do flush are RLE-coded when
    that shrinks them, packed back-to-back into extents, and charged
    compression CPU time by compressibility class
    ({!Aurora_util.Rle.cls}). *)

val set_packed_layout : t -> bool -> unit
(** Default on.  Off restores the pre-dedup block-per-page layout — no
    content index, no compression, full-block write charges — as the
    benchmark A/B baseline and the round-trip reference store.  Turning
    it on rebuilds the index from the retained epochs; turning it off
    clears it.  It governs pages only: version records are packed in
    both layouts. *)

val content_index_size : t -> int
(** Distinct content hashes the index currently tracks. *)

val content_index_consistent : t -> bool
(** Check the state commit and prune keep incrementally against the walk
    {!recover} counts with: the per-block reference counts equal a fresh
    count block for block, the free set is exactly the uncounted blocks
    between the superblock and the frontier, and every index entry lies
    in counted blocks whose stored bytes (read uncharged) decode to a
    payload of the entry's hash, length and CRC.  Costs a walk of every
    live leaf plus one read per index entry.  Property tests, the fault
    simulator's prunes and the benchmark call it. *)

(** {1 Fault tolerance} *)

val set_read_policy : t -> retries:int -> backoff_ns:int -> unit
(** Transient-read-error policy: a charged read raising
    {!Aurora_block.Fault.Io_error} is retried up to [retries] times, with
    exponential backoff starting at [backoff_ns] of virtual time.  The
    default is 4 retries from 20 µs.  A range that keeps failing re-raises
    the error to the caller. *)

val read_faults : t -> int
(** Transient read errors absorbed by retries over the store's lifetime. *)

val set_torture_misorder : t -> bool -> unit
(** TESTING ONLY: when set, {!commit_checkpoint} submits the superblock at
    commit start instead of after the checkpoint record completes — the
    classic metadata-before-data ordering bug.  Exists so the
    crash-consistency torture harness can demonstrate that it catches the
    resulting corruption; never set it outside tests. *)

val durable_at : t -> int
(** Durability time of the most recently committed checkpoint. *)

val wait_durable : t -> unit
(** Advance the clock to {!durable_at}. *)

val last_complete_epoch : t -> int
(** 0 when no checkpoint has committed. *)

val checkpoint_epochs : t -> int list
(** All retained complete epochs, oldest first (the execution history). *)

(** {1 Reading} *)

val objects_at : t -> epoch:int -> (int * string) list
(** [(oid, kind)] of every object in the checkpoint, sorted by oid.  The
    epoch's manifest is store bookkeeping and is not listed. *)

val read_meta : t -> epoch:int -> oid:int -> string
val read_page : t -> epoch:int -> oid:int -> idx:int -> bytes option
(** One page, charged as one device read of its stored bytes, plus one
    read of its radix leaf block unless that leaf is already resident.
    A leaf becomes resident once a charged read of it (by [read_page] or
    {!read_pages}) succeeds, and stays so until its block is freed, the
    leaf cache is recycled, or the store is recovered: a leaf costs
    device time once, not once per page.  A read that raises leaves the
    leaf as it was. *)

val read_pages : t -> epoch:int -> oid:int -> (int * bytes) list
(** All stored pages: per leaf, the leaf block under the same residency
    rule as {!read_page}, then one streamed read of its pages' stored
    bytes. *)

val read_changed_pages : t -> base:int -> epoch:int -> oid:int -> (int * bytes) list
(** The pages of [oid] at [epoch] whose stored location differs from
    [base] (both epochs retained, [oid] in both), sorted by index.  The
    diff is read off copy-on-write metadata, never off page bytes: a
    version record shared by both epochs returns [[]] without a read; a
    leaf block shared by both is skipped without a read; every other leaf
    is read at both epochs under the residency rule of {!read_page}, and
    its entries are compared by stored location (block, offset, stored
    length).  The moved pages' stored bytes are then charged as one
    streamed read, plus decompression of the RLE-coded ones.  Same
    location means same bytes, so the result is a superset of the pages
    whose bytes changed: a page rewritten with identical bytes at a new
    location is returned, a dedup hit on its old location is not. *)

val page_indices : t -> epoch:int -> oid:int -> int list

(** {1 Manifests and verification}

    Every flushed page carries a CRC-32 in its radix-leaf entry, computed
    once at flush time.  Each epoch written through {!put_manifest}
    carries a {!Manifest.t} built from these checksums, stored as an
    object of kind {!Manifest.kind} that {!objects_at} does not list.
    {!verify_epoch} compares an epoch against both its manifest and a
    deep re-read of the data blocks. *)

val page_crcs : t -> epoch:int -> oid:int -> (int * int) list
(** [(page index, payload CRC-32)] of every stored page, from the leaf
    entries alone (no data-block reads, no device charge).  Being
    uncharged, it never makes a leaf resident, nor do recovery, commit or
    pruning: only a paid read does (see {!read_page}). *)

val staging_manifest_source : t -> (int * string * string * (int * int) list) list
(** [(oid, kind, meta, page_crcs)] of every object the open staging epoch
    will contain once committed — carried objects included, previous
    leaves merged with staged payloads exactly as commit merges them, the
    manifest left out.  Sorted by oid.  It reads the epoch table and the
    leaves, not the cache {!put_manifest} uses, so it is an independent
    reference for that cache.  Invalid outside [begin_checkpoint] ..
    [commit_checkpoint]. *)

val manifest_oid : t -> int
(** The oid the head epoch's manifest lives at, or a fresh {!alloc_oid}
    when the head epoch has none (or no epoch is committed). *)

val put_manifest : t -> oid:int -> Manifest.t
(** Stage the open epoch's manifest at [oid] as the last object before
    {!commit_checkpoint} and return it: its epoch is the staging epoch,
    its entries describe the same composed state as
    {!staging_manifest_source} (the manifest left out).  Carried objects
    come from a row cache maintained at commit in O(1) each; staged
    objects pay only for the leaves their dirty pages touch.  Uncharged.
    Future allocations exceed [oid]. *)

val manifest : t -> epoch:int -> (int * Manifest.t, string) result
(** [(oid, manifest)] of a committed epoch, or why it has no readable
    manifest. *)

val verify_epoch :
  t ->
  epoch:int ->
  check_meta:(kind:string -> string -> (unit, string) result) ->
  (Manifest.t, string) result
(** Check [epoch] against its own manifest, in this order: exactly one
    manifest object, its epoch id, its object count; then per entry,
    sorted by oid: presence, kind, metadata CRC, page count, page-set
    fingerprint, [check_meta ~kind meta], and every page re-read with
    {!read_pages} against its leaf CRC.  The first failure is the
    [Error] reason.  The re-reads are charged; nothing is mutated.  Never
    raises on corrupt or unreadable state: a read that still fails after
    the read policy's retries is [Error "read failed: ..."]. *)

val corrupt_meta_for_tests : t -> epoch:int -> oid:int -> unit
(** TESTING ONLY: flip a byte of the object's committed metadata in the
    given epoch's table (other epochs sharing the version are unharmed) —
    the negative control proving manifest verification detects it. *)

val corrupt_page_for_tests : t -> epoch:int -> oid:int -> unit
(** TESTING ONLY: overwrite the device block of one of the object's pages
    with garbage.  Data blocks are shared across epochs by COW, so
    corrupt a page that the target epoch wrote freshly. *)

(** {1 Journals} *)

type journal

val journal_create : t -> size:int -> journal
val journal_id : journal -> int
val journal_find : t -> int -> journal option
val journal_append : t -> journal -> string -> unit
(** Synchronous in-place append; the caller's clock advances to the
    flush's completion. *)

val journal_truncate : t -> journal -> unit
val journal_records : t -> journal -> string list
(** Parse the journal's records off the device (recovery path). *)

(** {1 History and space} *)

val prune_history : t -> keep:int -> int
(** Drop the oldest checkpoints beyond [keep] and return the number of
    blocks freed; [keep:0] drops them all.  Every block carries a
    reference count: the live items covering it, where an item is a
    retained checkpoint record, a distinct version record, a distinct
    leaf block, an entry of a distinct live leaf, or a journal.  Only
    what died is walked: the dropped epochs' records, the versions the
    oldest kept epoch no longer holds, and those versions' leaves that
    it does not hold at the same index, each with its entries.  Blocks
    reaching zero are freed in ascending order, and then the index
    forgets every location over a freed block.  The cost is O(dropped
    items): the dropped epochs' table entries and the dead items, plus
    one pass over the content index; the kept epochs are never walked. *)

val blocks_allocated : t -> int
