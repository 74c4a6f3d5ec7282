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
    the superblock (magic, last complete checkpoint, the location and
    size of every retained checkpoint record that fits, newest first,
    journal registry).  Each checkpoint
    record names its predecessor the same way, by first block and block
    count, and its epoch's manifest and every live object's version
    record by byte-granular location [(block, offset, length)]: version
    records are packed back to back into fresh extents, like page
    payloads, with the manifest after them, so an epoch's records take
    the bytes they hold, not a block each.  A packed extent never
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
    recovered by scanning self-describing records.

    {2 Modules}

    The store is split along its invariants: {!Allocator} (frontier,
    free set, per-block reference counts), {!Leaf_cache} (parsed leaves
    and their residency), {!Content_index} (the dedup index),
    {!Journal} (journals) and {!Page_stream} (how a stored page is read,
    decoded, checked and handed out) each own their state, and this
    module, their only caller, keeps the catalogue, staging and commit,
    recovery, prune, deltas, manifests, verification, and which pages a
    read needs.
    DESIGN.md, "Store module map", says which module owns which
    invariant and which may mutate what. *)

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
(** Mount after a crash or reboot, reading only what serving the newest
    epoch needs, in three round trips.  The superblock lists the
    retained checkpoint records, newest first, as many as fit in its one
    block; all of them are read in one vectored batch
    ({!Aurora_block.Striped.submit_vec}), each at its exact size, and
    past a full list the older ones are read one at a time along their
    prev pointers.  Each record's prev pointer must name the next listed
    record and epochs must strictly decrease.  Then the newest epoch's
    distinct version records are loaded, keyed by [(block, offset)], with
    its manifest's bytes: the blocks covering them are coalesced into
    runs, every run is read once in a single charged vectored batch, and
    each record is sliced out at its offset.  Traced as a [store/recover] span with
    [recover.superblock], [recover.records] and [recover.versions]
    children, the last with the batch's [ranges] and [bytes].

    The rest waits, charged, for whoever needs it.  An older epoch's
    versions and manifest are loaded at its first use (any call naming
    the epoch, in one batch of its manifest and the versions no loaded
    epoch shares), so a garbled version raises {!Corrupt_store} there
    ({!verify_epoch} returns it as [Error "corrupt store: ..."]), not
    here.  A manifest is parsed only by a check: garbled, it fails its
    own epoch's {!check_epoch} and {!verify_epoch}.  Neither the per-block
    reference counts (see {!prune_history}), the free set nor the
    content index is persisted: a deferred pass rebuilds them once, on
    the store's clock, at the first {!begin_checkpoint},
    {!prune_history}, {!journal_create}, {!set_packed_layout},
    {!blocks_allocated}, {!content_index_size} or
    {!content_index_consistent}.  It loads every older epoch's versions
    in one batch, reads every distinct leaf of the retained epochs that
    is not resident in one more (each becomes resident), and only once
    every leaf has parsed counts every item the retained epochs and the
    journals hold; every block below the frontier that no item covers (a
    block a prune freed, or an incomplete commit wrote) is freed, so
    {!blocks_allocated} survives a crash, and waits for its discard like
    a block a prune frees, under the same rule, counted from the
    superblock recovery read (see {!prune_history}); a block at or past
    that superblock's frontier, which an incomplete commit may have
    written, is not discarded.  The pass writes nothing, so a
    crash during it leaves the device as recovery found it; a read or
    parse that fails raises from the call that ran it and leaves the
    pass to the next one.  Traced as a [store/settle] complete event with
    the [versions] it loaded, the [leaves] it counted and the [bytes] it
    read.  A restore of the newest epoch, eager or lazy, waits for none
    of it.  An empty store keeps numbering its epochs above the newest
    one a prune dropped.  Raises {!Corrupt_store} if no valid superblock
    is found, a record is truncated, garbled, out of range or out of
    epoch order, the superblock's list disagrees with the prev pointers,
    a record's manifest location or a newest-epoch version entry has an
    offset past its block, a zero length, or a byte range past the
    allocated blocks. *)

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
    a page wins, decided here rather than at commit time.  The store
    keeps the payload bytes it is given, not a copy, until the next
    commit ({!read_delta} ships the newest epoch from them): a caller
    must not mutate a buffer once it has staged it. *)

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
    O(pages).  Every epoch gets its manifest here ({!Manifest.t}): its
    epoch is the staging epoch, and its entries describe the committed
    epoch exactly as {!staging_manifest_source} taken just before the
    commit does.  A carried object's row is the one its version carries,
    set when it was committed (a recovered version's is computed from its
    leaves at first need); a staged object's is its base row plus the
    deltas its flush computes.  Its bytes pack after the version records,
    and the checkpoint record names their location.

    Write order: two device round trips.  The checkpoint record is
    submitted once the flush thread has composed it, at the end of the
    hashing and compression pass, concurrently with the data, leaf and
    version-record writes still in flight: nothing names it until the
    superblock does.  The superblock, the commit point, is submitted when
    the latest of all those writes has completed, so a crash before it
    leaves the parent epoch intact. *)

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
    content hash.  The index maps a hash to the radix-leaf entry of a
    stored page, and it is filled as the commit's CPU pass plans each
    page: a page whose (hash, length, CRC) triple is indexed gets that
    entry at its own page index, a reference to the stored location, and
    is never re-flushed; any other page is placed and indexed at once, so
    a later identical page of the same commit, in the same object or
    another, references it.  The index is {e derived} state, kept
    beside per-block reference counts: commit adds what it writes to
    both, {!prune_history} drops every entry over a block it frees, and
    {!recover}'s deferred pass rebuilds both from the durable leaves, so
    nothing about them needs to be crash-atomic.  An entry always lies
    in allocated blocks, but no live leaf need still reference it:
    blocks are immutable while allocated, and a leaf that dedups against
    the entry counts its blocks again.  Payloads that do flush are RLE-coded when
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
    {!recover}'s deferred pass counts with: the per-block reference
    counts equal a fresh count block for block, the free set is exactly
    the uncounted blocks between the superblock and the frontier, and
    every index entry lies in counted blocks whose stored bytes (read
    uncharged) decode to a payload of the entry's hash, length and CRC.
    Costs a walk of every live leaf plus one read per index entry.
    Property tests, the fault simulator's prunes and recoveries, and the
    benchmark call it. *)

(** {1 Fault tolerance} *)

val set_read_policy : t -> retries:int -> backoff_ns:int -> unit
(** Transient-read-error policy: a charged read raising
    {!Aurora_block.Fault.Io_error} is retried up to [retries] times, with
    exponential backoff starting at [backoff_ns] of virtual time.  The
    default is 4 retries from 20 µs.  Retries are per range: when a
    vectored batch (version runs, a leaf batch) meets errors,
    only the failed ranges are resubmitted, each within its own budget.
    A range that keeps failing re-raises the error to the caller. *)

val read_faults : t -> int
(** Transient read errors absorbed by retries over the store's lifetime. *)

val set_torture_misorder : t -> bool -> unit
(** TESTING ONLY: when set, {!commit_checkpoint} submits the superblock at
    commit start instead of after the latest of the commit's other writes
    (data, leaves, version records, manifest, checkpoint record) completes
    — the classic metadata-before-data ordering bug.  Exists so the
    crash-consistency torture harness can demonstrate that it catches the
    resulting corruption; never set it outside tests. *)

val durable_at : t -> int
(** Durability time of the most recently committed checkpoint. *)

val wait_durable : t -> unit
(** Advance the clock to {!durable_at}, then discard the freed blocks
    that are due (see {!prune_history}). *)

val last_complete_epoch : t -> int
(** 0 when no checkpoint has committed. *)

val checkpoint_epochs : t -> int list
(** All retained complete epochs, oldest first (the execution history). *)

(** {1 Reading} *)

val objects_at : t -> epoch:int -> (int * string) list
(** [(oid, kind)] of every object in the checkpoint, sorted by oid. *)

val read_meta : t -> epoch:int -> oid:int -> string
val read_page : t -> epoch:int -> oid:int -> idx:int -> bytes option
(** One page, charged as one device read of its stored bytes, plus one
    read of its radix leaf block unless that leaf is already resident.
    Every charged path ([read_page], {!read_cluster}, {!read_pages},
    {!read_delta}, {!stream_pages}, {!verify_epoch}) reads its leaves
    through one batch rule: a leaf becomes resident once a read of it
    succeeds and its bytes parse, and stays so until its block is freed,
    the leaf cache is recycled, or the store is recovered.  A leaf costs
    device time once, whichever path pays, not once per page or per
    path.  A leaf whose read keeps failing, or whose bytes do not parse,
    stays as it was, and costs the next path a read again.  The one-page
    case of {!read_cluster}: the store looks the leaf up, and
    {!Page_stream.read_window} reads, decodes and checks the page. *)

val fault_cluster : int
(** Pages in a lazy page-in's window: 16, 64 KiB of 4 KiB pages — the
    paper's stripe unit and Linux's default fault-around size. *)

val read_cluster : t -> epoch:int -> oid:int -> idx:int -> (int * bytes) list
(** Fault-around, the swap path's pager: the pages this version stores
    in [idx]'s aligned window of {!fault_cluster} pages, clipped to
    [idx]'s radix leaf, sorted by index.  It pays {!read_page}'s charged
    leaf lookup, then reads every stored page of the window in one
    vectored batch (per-range retries, see {!set_read_policy}) and
    charges decompression once per distinct coded range, so the window costs
    about one device round trip.  [[]], with no data read, when [idx]
    itself is not stored.  Neighbours are best-effort: one whose read
    still fails after the retries, or whose payload raises
    {!Corrupt_store}, is left out, and its error surfaces at the call
    that demands it.  Only [idx]'s own read raises
    ({!Aurora_block.Fault.Io_error}) or its own payload
    ({!Corrupt_store}).  The window rule and the decoding are the ones
    a {!stream_pages} {!pager} uses. *)

type stream
(** One object's share of a {!stream_pages} stream. *)

val stream_pages : t -> epoch:int -> int list -> (int * stream) list
(** [stream_pages t ~epoch oids] starts reading every stored page of the
    distinct objects [oids] at [epoch] in the background, and returns
    each oid with its share ({!Page_stream.stream}): the store's one
    bulk page reader.  The clock does not move: the leaves not yet
    resident are read in one vectored batch submitted now (they become
    resident, as under {!read_page}), and every page they list in one
    vectored batch submitted when the last leaf arrives, retried per
    range under {!set_read_policy}.  A share outlives a prune of [epoch]; its
    consumers, {!pager} and {!take_all}, issue no device read.  The
    first consumer to wait for a stored range waits for its arrival and
    charges its decompression, once however many pages name it; each
    page gets a buffer of its own, checked against its leaf CRC, and
    one that fails it ("oid N page I payload corrupt") or does not
    decode raises {!Corrupt_store} from the call that demands it. *)

val pager : stream -> int -> (int * bytes) list
(** Lazy restore's fault pager ({!Aurora_vm.Vm_object.set_pager}), over
    a share of the stream its {!check_epoch} (or {!verify_epoch}) passed:
    {!read_cluster} served from the stream, errors included
    ({!Page_stream.pager}).  It waits for [idx]'s window, decodes it,
    and returns the window's pages it has not returned before, dropping
    them from the share.  A fault in the range of a leaf the stream could
    not read or parse raises its error. *)

val pager_stores : stream -> int -> bool
(** The {!pager}'s [stores] query ({!Aurora_vm.Vm_object.set_pager}),
    uncharged: whether the share still holds page [idx], or [idx] lies
    under a leaf the stream could not read (its fault raises).  A page
    the pager has returned is no longer held: it is resident at the
    pager's level. *)

val take_all : stream -> (int * bytes) list
(** Every page left in the share, sorted by index, decoded as {!pager}
    decodes, and dropped from the share.  An unlisted leaf raises first,
    then the first page whose read kept failing or whose payload fails. *)

val read_pages : t -> epoch:int -> oid:int -> (int * bytes) list
(** All stored pages of one object: {!take_all} of a one-object
    {!stream_pages}. *)

val read_delta :
  t -> base:int -> epoch:int -> (int * string * string * (int * bytes) list) list
(** The delta from [base] to [epoch] (both retained; [base = 0] is the
    empty epoch): [(oid, kind, meta, pages)], in oid order, for every
    object of [epoch] that is new since [base], has new metadata, or has
    pages whose stored location moved; [pages] are those pages (all of a
    new object's), sorted by index.  The diff is read off copy-on-write
    metadata: a version record or leaf block both epochs share is
    skipped without a read.  Every other leaf, at both epochs and over
    every object, is made resident in one vectored batch under the rule
    of {!read_page}; entries are compared by stored location (block,
    offset, stored length) without device time, and every moved page,
    over every object, is read in one more vectored batch, plus
    decompression of the RLE-coded ones.  Both batches retry per range;
    a range that keeps failing raises {!Aurora_block.Fault.Io_error}.
    Same location means same bytes, so the pages
    are a superset of those whose bytes changed: a page rewritten with
    identical bytes at a new location is returned, a dedup hit on its old
    location is not.

    The newest epoch against its parent costs none of that.
    {!commit_checkpoint} keeps each epoch's delta against the head it
    committed over until the next commit, worked out in its leaf merge
    by the same location rule, with the staged payloads as pages.  When
    [epoch] is the newest committed epoch and [base] its parent, both
    retained, that delta is returned: no leaf is looked up, no device
    read is made and the clock does not move.  Every other pair takes the
    device path above: [base = 0], a base older than the parent, and any
    call on a recovered store before its first commit.  The two paths
    return equal deltas, page bytes included, unless a staged page dedups
    onto a stored one that collides with it on both the content hash and
    the CRC-32: the kept delta then holds the staged bytes.  Its pages are
    the store's own buffers, not copies: a caller must not mutate them. *)

(** {1 Manifests and verification}

    Every flushed page carries a CRC-32 in its radix-leaf entry, computed
    once at flush time.  Every epoch carries a {!Manifest.t} built from
    these checksums, composed once by {!commit_checkpoint} and stored
    beside the epoch's version records, not as an object of the epoch:
    its checkpoint record locates it.  {!verify_epoch} compares an epoch
    against both its manifest and a deep re-read of the data blocks, and
    {!check_epoch} against its manifest alone. *)

val page_crcs : t -> epoch:int -> oid:int -> (int * int) list
(** [(page index, payload CRC-32)] of every stored page, sorted by page
    index, from the leaf entries alone (no data-block reads, no device
    charge).  Being
    uncharged, it never makes a leaf resident, nor do commit or pruning:
    only a charged read path, or {!recover}'s deferred pass, does, by
    the rule of {!read_page}. *)

val staging_manifest_source : t -> (int * string * string * (int * int) list) list
(** [(oid, kind, meta, page_crcs)] of every object the open staging epoch
    will contain once committed — carried objects included, previous
    leaves merged with staged payloads exactly as commit merges them.
    Sorted by oid.  It reads the epoch table and the
    leaves, not the manifest rows the versions carry, which
    {!commit_checkpoint} composes the manifest from, so it is an
    independent reference for the committed manifest.
    Invalid outside [begin_checkpoint] .. [commit_checkpoint]. *)

val manifest : t -> epoch:int -> (Manifest.t, string) result
(** The manifest of a committed epoch, or why it does not parse
    (["manifest unreadable: ..."]). *)

val check_epoch :
  t ->
  epoch:int ->
  check_meta:(kind:string -> string -> (unit, string) result) ->
  (Manifest.t * (int list -> (int * stream) list), string) result
(** {!verify_epoch} without its page check: no page read, and no clock
    movement (leaves are parsed uncharged, as by {!page_crcs}) but an
    older epoch's versions at its first use on a recovered store (see
    {!recover}).  [Ok]
    carries the manifest and the epoch's {!stream_pages}, whose decoder
    checks each page's CRC.  Never raises. *)

val verify_epoch :
  t ->
  epoch:int ->
  check_meta:(kind:string -> string -> (unit, string) result) ->
  (Manifest.t * (int * stream) list, string) result
(** Check [epoch] against its own manifest, in this order: the manifest
    parses (else ["malformed manifest: ..."]), its epoch id, its object
    count; then per entry, sorted by oid: presence, kind, metadata CRC,
    page count, page-set fingerprint, [check_meta ~kind meta], and every
    page re-read off the device against its leaf CRC.  The first failure is the [Error]
    reason.  Once the epoch-level checks pass, the whole epoch is
    streamed once ({!stream_pages}), and each entry's page check decodes
    its share.  [Ok] carries the manifest and every object's share by
    oid, each page decoded, so a restore from them reads, waits for and
    decompresses nothing again.  Nothing else is mutated.  Never
    raises: a read that still fails after the read policy's retries is
    [Error "read failed: ..."]. *)

val corrupt_meta_for_tests : t -> epoch:int -> oid:int -> unit
(** TESTING ONLY: flip a byte of the object's committed metadata in the
    given epoch's table (other epochs sharing the version are unharmed) —
    the negative control proving manifest verification detects it.  Drops
    the kept delta, so {!read_delta} reads what the store holds. *)

val corrupt_page_for_tests : t -> epoch:int -> oid:int -> unit
(** TESTING ONLY: overwrite the device block of one of the object's pages
    with garbage.  Data blocks are shared across epochs by COW, so
    corrupt a page that the target epoch wrote freshly.  Drops the kept
    delta, as {!corrupt_meta_for_tests} does. *)

val recycle_leaf_cache_for_tests : t -> unit
(** TESTING ONLY: recycle the leaf cache, as a full cache is, so the next
    charged read of a leaf parses the bytes it reads (the negative
    control for a leaf that no longer parses). *)

(** {1 Journals} *)

type journal

val journal_create : t -> size:int -> journal
val journal_id : journal -> int
val journal_find : t -> int -> journal option
val journal_append : t -> journal -> string -> unit
(** Synchronous in-place append after the journal's last record; the
    caller's clock advances to the flush's completion.  A recovered
    journal's first append (or {!journal_records}) finds that record
    with one charged read of the journal. *)

val journal_truncate : t -> journal -> unit
val journal_records : t -> journal -> string list
(** Parse the journal's records of the current generation off the
    device, with one charged read (recovery path). *)

(** {1 History and space} *)

val prune_history : t -> keep:int -> int
(** Drop the oldest checkpoints beyond [keep] and return the number of
    blocks freed; [keep:0] drops them all, and a negative [keep] raises
    [Invalid_argument] before anything changes.  Every block carries a
    reference count: the live items covering it, where an item is a
    retained checkpoint record with its manifest's bytes, a distinct
    version record, a distinct
    leaf block, an entry of a distinct live leaf, or a journal.  Only
    what died is walked: the dropped epochs' records, the versions the
    oldest kept epoch no longer holds, and those versions' leaves that
    it does not hold at the same index, each with its entries.  Blocks
    reaching zero are freed in ascending order, and then the index
    forgets every location over a freed block.  The cost is O(dropped
    items): the dropped epochs' table entries and the dead items, plus
    the index entries over the freed blocks; the kept epochs and the
    rest of the index are never walked.

    Freed blocks leave the device one superblock behind.  The prune's
    own superblock, written synchronously, is the first that names none
    of them; they wait on a pending list until one more superblock,
    written after it, is acknowledged durable (its completion has
    passed on the store's clock), so a lost prune superblock leaves the
    previous one naming blocks that still hold their bytes.  The store
    then issues one {!Aurora_block.Striped.discard} per run of
    contiguous blocks, at its clock's time, never earlier, at the next
    {!begin_checkpoint}, {!wait_durable} or {!prune_history}; a block an allocation holds
    again by then is skipped, and a block freed again waits for its
    newest batch only.  A discard moves no clock and no counter, so
    freeing changes no virtual time. *)

val blocks_allocated : t -> int
(** Blocks below the frontier outside the free set, the superblock
    included. *)

val pending_discards : t -> int
(** Freed blocks, still free, that wait for their discard. *)

val sectors_held : t -> int
(** The committed sectors the store's device holds once every write and
    discard completed by the store's clock is folded in
    ({!Aurora_block.Striped.sectors_held}).  Without a crash this is at
    most {!blocks_allocated} plus {!pending_discards}: every block
    written is allocated, pending or discarded. *)
