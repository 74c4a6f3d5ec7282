module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Crc32 = Aurora_util.Crc32
module Hash64 = Aurora_util.Hash64
module Rle = Aurora_util.Rle
module Resource = Aurora_sim.Resource
module Striped = Aurora_block.Striped
module IntMap = Map.Make (Int)
module Otrace = Aurora_obs.Trace
module Ometrics = Aurora_obs.Metrics
open Store_format

let m_store_commits = Ometrics.counter "store.commits"
let m_store_pages = Ometrics.counter "store.pages_staged"
let m_store_deduped = Ometrics.counter "store.pages_deduped"
let m_store_extents = Ometrics.counter "store.extents"
let h_store_flush_window = Ometrics.histogram "store.flush_window_ns"

exception Corrupt_store of string

let block_size = 4096
(* 100 entries x 37 bytes + header fits one 4 KiB block. *)
let leaf_span = 100
let superblock_block = 0

(* Largest coalesced extent, in blocks (Cost.nvme_max_extent_bytes). *)
let max_extent_blocks = max 1 (Cost.nvme_max_extent_bytes / block_size)

(* Parsed-leaf cache entries kept before the cache is recycled wholesale. *)
let leaf_cache_capacity = 65_536

(* In-memory view of one committed object version.  [leaves] maps leaf
   index -> leaf block; pruning finds a dead version's blocks through
   its leaves, so versions carry no ownership lists. *)
type version = {
  v_kind : string;
  v_meta : string;
  v_blk : int; (* where the serialized version record is packed: block, *)
  v_off : int; (* byte offset in that block, *)
  v_len : int; (* and exact length *)
  v_leaves : int IntMap.t;
}

type epoch_info = {
  e_epoch : int;
  e_record_block : int;
  e_record_nblocks : int;
  e_table : (int, version) Hashtbl.t; (* oid -> version *)
}

type staged = {
  mutable s_kind : string;
  mutable s_meta : string;
  s_pages : (int, bytes) Hashtbl.t; (* page index -> newest payload *)
}

type journal = {
  j_id : int;
  j_start : int; (* first block *)
  j_blocks : int;
  mutable j_head : int; (* append offset in bytes within the journal *)
  mutable j_gen : int;
      (* truncation generation: records from earlier generations that
         survive beyond the new head are stale and must not be replayed *)
}

type flush_stats = {
  fs_epoch : int;
  fs_extents : int;
  fs_extent_blocks : int;
  fs_coalesced_bytes : int;
  fs_dev_writes : int;
  fs_leaf_hits : int;
  fs_leaf_misses : int;
  fs_alloc_calls : int;
  fs_pages : int;
  fs_pages_deduped : int;
  fs_bytes_written : int;
  fs_compress_ns : int;
  fs_comp_in : int;
  fs_comp_out : int;
}

let empty_flush_stats =
  {
    fs_epoch = 0;
    fs_extents = 0;
    fs_extent_blocks = 0;
    fs_coalesced_bytes = 0;
    fs_dev_writes = 0;
    fs_leaf_hits = 0;
    fs_leaf_misses = 0;
    fs_alloc_calls = 0;
    fs_pages = 0;
    fs_pages_deduped = 0;
    fs_bytes_written = 0;
    fs_compress_ns = 0;
    fs_comp_in = 0;
    fs_comp_out = 0;
  }

(* The manifest row of an object with no committed version.  Rows are
   cached per object at commit (see [committed_row]), so staging a
   manifest never re-walks the leaves of carried (unchanged) objects. *)
let zero_row =
  { Manifest.me_oid = 0; me_kind = "memory"; me_meta_crc = 0; me_pages = 0; me_pages_crc = 0 }

(* Last block covered by [len] bytes stored at byte [off] of block [blk]:
   a packed page or version record may straddle block boundaries inside
   its extent.  The one block-liveness rule: every block of
   [blk .. span_end] is live while the bytes are. *)
let span_end blk off len = blk + ((off + Int.max 1 len - 1) / block_size)

let span_blocks blk off len f =
  for b = blk to span_end blk off len do
    f b
  done

(* A cached leaf: its parsed entries, and whether a charged device read
   of the block has brought it into memory.  Only a resident leaf serves
   a charged lookup without device time. *)
type cleaf = { entries : leaf_entry list; mutable resident : bool }

(* One content-index entry: a stored page location keyed by content hash.
   It names allocated blocks only (a prune drops the entries over blocks
   it frees), though no live leaf need still reference it: blocks are
   immutable while allocated, and a leaf that dedups against the entry
   counts its blocks again. *)
type centry = {
  c_blk : int;
  c_off : int;
  c_clen : int;
  c_olen : int;
  c_comp : bool;
  c_crc : int;
}

type t = {
  dev : Striped.t;
  clk : Clock.t;
  jqueue : Resource.t; (* serializes synchronous journal appends *)
  mutable next_oid : int;
  mutable next_block : int;
  free_set : (int, unit) Hashtbl.t; (* reusable single blocks, O(1) dedup *)
  mutable free_stack : int list; (* LIFO over [free_set]; may hold stale ids *)
  mutable freed : int;
  mutable refs : int array;
      (* block -> live items covering it: each retained checkpoint record,
         distinct version record, distinct leaf block, entry of a distinct
         live leaf (over its span) and journal extent.  Commit and
         journal creation count what they write, prune uncounts what died
         and frees a block at zero, recovery counts from scratch. *)
  leaf_cache : (int, cleaf) Hashtbl.t;
      (* leaf block -> parsed entries and residency.  Leaf blocks are COW
         (written once), so the cache is exact as long as freed blocks are
         invalidated before reuse (free_block) and a recovered instance
         starts cold. *)
  content : (int, centry) Hashtbl.t;
      (* content hash -> stored location: the content-addressed page
         index.  A flush-path page whose (hash, olen, crc) triple already
         appears here is recorded as a leaf reference to the existing
         location and never re-written. *)
  mutable packed : bool;
      (* content-addressed packed layout (dedup index + RLE coding +
         packed extents); false is the pre-dedup block-per-page layout *)
  rows : (int, Manifest.entry) Hashtbl.t;
      (* oid -> manifest row of the newest committed epoch; updated at
         commit_checkpoint (the single choke point every epoch passes
         through, including migration installs), recomputed lazily from
         the version's leaves when cold (post-recovery). *)
  mutable epochs : epoch_info list; (* oldest first *)
  mutable current_epoch : int;
  mutable staging : (int, staged) Hashtbl.t option;
  mutable staging_epoch : int;
  mutable staging_next_oid : int; (* [next_oid] at begin_checkpoint *)
  mutable data_done : int; (* completion time of staged data writes *)
  mutable durable : int; (* completion time of the last superblock write *)
  mutable journals : journal list;
  mutable oldest_retained : int; (* chain-walk bound after pruning; 0 = all *)
  (* Flush-pipeline statistics, reset at begin_checkpoint and snapshotted
     into [last_flush] by commit_checkpoint. *)
  mutable stat_extents : int;
  mutable stat_extent_blocks : int;
  mutable stat_coalesced_bytes : int;
  mutable stat_leaf_hits : int;
  mutable stat_leaf_misses : int;
  mutable stat_alloc_calls : int;
  mutable stat_pages : int;
  mutable stat_pages_deduped : int;
  mutable stat_compress_ns : int;
  mutable stat_comp_in : int;
  mutable stat_comp_out : int;
  mutable stat_dev_base : int;
  mutable stat_bytes_base : int;
  mutable last_flush : flush_stats;
  (* Transient-read-error policy: a charged read that raises
     Fault.Io_error is retried up to [read_retries] times, backing off
     exponentially from [read_backoff] ns of virtual time. *)
  mutable read_retries : int;
  mutable read_backoff : int;
  mutable stat_read_faults : int;
  (* DELIBERATE BUG KNOB, for torture-harness validation only: submit the
     superblock at commit start instead of after the checkpoint record
     completes, breaking the data -> record -> superblock write ordering. *)
  mutable torture_misorder : bool;
}

(* Block allocation -------------------------------------------------------- *)

let alloc_block t =
  t.stat_alloc_calls <- t.stat_alloc_calls + 1;
  let rec pop () =
    match t.free_stack with
    | [] ->
        let b = t.next_block in
        t.next_block <- t.next_block + 1;
        b
    | b :: rest ->
        t.free_stack <- rest;
        (* Stale stack entries (absorbed into the frontier) are skipped:
           membership lives in [free_set]. *)
        if b < t.next_block && Hashtbl.mem t.free_set b then begin
          Hashtbl.remove t.free_set b;
          b
        end
        else pop ()
  in
  pop ()

(* Extents carve from the frontier only: every free-set block lies below
   the frontier, so an extent can never overlap the single-block reuse
   path. *)
let alloc_extent t n =
  t.stat_alloc_calls <- t.stat_alloc_calls + 1;
  let b = t.next_block in
  t.next_block <- t.next_block + n;
  b

let free_block t b =
  (* Double frees and out-of-range blocks are dropped: the free set is a
     set, and handing the same block to two allocations would corrupt the
     store. *)
  if b > 0 && b < t.next_block && not (Hashtbl.mem t.free_set b) then begin
    Hashtbl.remove t.leaf_cache b;
    if b = t.next_block - 1 then begin
      (* Reclaim the frontier (and any free run below it): keeps future
         extents long and contiguous. *)
      t.next_block <- b;
      let rec absorb () =
        let a = t.next_block - 1 in
        if a > 0 && Hashtbl.mem t.free_set a then begin
          Hashtbl.remove t.free_set a;
          t.next_block <- a;
          absorb ()
        end
      in
      absorb ()
    end
    else begin
      Hashtbl.replace t.free_set b ();
      t.free_stack <- b :: t.free_stack
    end;
    t.freed <- t.freed + 1
  end

(* [counts] with block [b] counted once more, grown as needed. *)
let bump counts b =
  let n = Array.length counts in
  let counts =
    if b < n then counts
    else begin
      let grown = Array.make (Int.max (b + 1) (2 * n)) 0 in
      Array.blit counts 0 grown 0 n;
      grown
    end
  in
  counts.(b) <- counts.(b) + 1;
  counts

let ref_block t b = t.refs <- bump t.refs b
let ref_count counts b = if b < Array.length counts then counts.(b) else 0

let off_of_block b = b * block_size

(* Records that do not parse are store corruption, reported as such: a
   truncated or garbled record must never escape as a [Wire.Corrupt]. *)
let decode what codec data =
  try Wire.decode codec data with Wire.Corrupt msg -> raise (Corrupt_store (what ^ ": " ^ msg))

(* With no epoch retained, [oldest_retained] is the newest epoch ever
   committed (0, or the last one a prune dropped), so a recovered store
   numbers its epochs above every record the chain bound stops at. *)
let write_superblock t ~now head =
  let sb_epoch, sb_record_block, sb_record_nblocks =
    match head with
    | Some e -> (e.e_epoch, e.e_record_block, e.e_record_nblocks)
    | None -> (t.oldest_retained, 0, 0)
  in
  Striped.write t.dev ~now ~off:(off_of_block superblock_block)
    (Wire.encode superblock_codec
       {
         sb_epoch;
         sb_record_block;
         sb_record_nblocks;
         sb_next_block = t.next_block;
         sb_next_oid = t.next_oid;
         sb_oldest_retained = t.oldest_retained;
         sb_journals = List.map (fun j -> (j.j_id, j.j_start, j.j_blocks, j.j_gen)) t.journals;
       })

let read_block_nocharge t blk = Striped.read_nocharge t.dev ~off:(off_of_block blk) ~len:block_size

(* Charged reads retry transient device errors with exponential backoff in
   virtual time; a persistently failing range surfaces the last error. *)
let retried_read t f =
  let rec go attempt backoff =
    try f ()
    with Aurora_block.Fault.Io_error _ when attempt < t.read_retries ->
      t.stat_read_faults <- t.stat_read_faults + 1;
      Clock.advance t.clk backoff;
      go (attempt + 1) (2 * backoff)
  in
  go 0 t.read_backoff

let read_blocks t ~blk ~nblocks =
  retried_read t (fun () ->
      Striped.read t.dev ~clock:t.clk ~off:(off_of_block blk) ~len:(nblocks * block_size))

(* Leaf cache ----------------------------------------------------------------- *)

let cache_leaf t blk leaf =
  if Hashtbl.length t.leaf_cache >= leaf_cache_capacity then
    Hashtbl.reset t.leaf_cache;
  Hashtbl.replace t.leaf_cache blk leaf

(* Parsed entries of leaf [blk].  A [~charged] lookup (the page-read
   paths) pays one retried device read of the block unless it is already
   resident, and leaves it resident once a read succeeds: a leaf costs
   device time once, not once per page.  Uncharged lookups (recovery,
   verification CRCs, commit, prune) parse without charging and never make
   a leaf resident, so no read path is ever served by a read nobody paid
   for. *)
let leaf_entries t ~charged blk =
  match Hashtbl.find_opt t.leaf_cache blk with
  | Some c ->
      t.stat_leaf_hits <- t.stat_leaf_hits + 1;
      if charged && not c.resident then begin
        ignore (read_blocks t ~blk ~nblocks:1);
        c.resident <- true
      end;
      c.entries
  | None ->
      t.stat_leaf_misses <- t.stat_leaf_misses + 1;
      let data =
        if charged then read_blocks t ~blk ~nblocks:1 else read_block_nocharge t blk
      in
      let entries = decode "leaf" leaf_codec data in
      cache_leaf t blk { entries; resident = charged };
      entries

(* [(page index, CRC-32)] of a version's stored pages, unsorted, off its
   leaves without a charge. *)
let version_crcs t v =
  IntMap.fold
    (fun _ leaf_blk acc ->
      List.fold_left
        (fun acc p -> (p.p_idx, p.p_crc) :: acc)
        acc (leaf_entries t ~charged:false leaf_blk))
    v.v_leaves []

(* Lifecycle ------------------------------------------------------------------ *)

let fresh dev clk =
  {
    dev;
    clk;
    jqueue = Resource.create ~name:"journal";
    next_oid = 0;
    next_block = 1;
    free_set = Hashtbl.create 1024;
    free_stack = [];
    freed = 0;
    refs = Array.make 1024 0;
    leaf_cache = Hashtbl.create 1024;
    content = Hashtbl.create 4096;
    packed = true;
    rows = Hashtbl.create 1024;
    epochs = [];
    current_epoch = 0;
    staging = None;
    staging_epoch = 0;
    staging_next_oid = 0;
    data_done = 0;
    durable = 0;
    journals = [];
    oldest_retained = 0;
    stat_extents = 0;
    stat_extent_blocks = 0;
    stat_coalesced_bytes = 0;
    stat_leaf_hits = 0;
    stat_leaf_misses = 0;
    stat_alloc_calls = 0;
    stat_pages = 0;
    stat_pages_deduped = 0;
    stat_compress_ns = 0;
    stat_comp_in = 0;
    stat_comp_out = 0;
    stat_dev_base = 0;
    stat_bytes_base = 0;
    last_flush = empty_flush_stats;
    read_retries = 4;
    read_backoff = 20_000;
    stat_read_faults = 0;
    torture_misorder = false;
  }

let format ~dev ~clock =
  let t = fresh dev clock in
  let c = write_superblock t ~now:(Clock.now clock) None in
  Clock.advance_to clock c;
  Striped.settle dev ~clock;
  t

let clock t = t.clk
let device t = t.dev

let alloc_oid t =
  t.next_oid <- t.next_oid + 1;
  t.next_oid

let reserve_oids t ~upto = if upto > t.next_oid then t.next_oid <- upto

let blocks_of_len len = max 1 ((len + block_size - 1) / block_size)

(* Write [items : (payload, nblocks) array] as one coalesced extent carved
   from the frontier; returns (first block, completion time). *)
let write_extent t ~now items =
  let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 items in
  let base = alloc_extent t total in
  let segments = Array.make (Array.length items) (0, Bytes.empty) in
  let blkoff = ref 0 in
  Array.iteri
    (fun i (payload, n) ->
      segments.(i) <- (!blkoff * block_size, payload);
      blkoff := !blkoff + n)
    items;
  let c =
    Striped.write_vec t.dev ~now ~off:(off_of_block base)
      ~len:(total * block_size) segments
  in
  t.stat_extents <- t.stat_extents + 1;
  t.stat_extent_blocks <- t.stat_extent_blocks + total;
  t.stat_coalesced_bytes <- t.stat_coalesced_bytes + (total * block_size);
  (base, c)

(* Write [items] as a run of coalesced extents split at [max_extent_blocks];
   [emit i blk] reports the first block assigned to item [i].  Returns the
   latest completion time.  Radix leaves and the unpacked page layout use
   it; page payloads and version records otherwise go through
   [write_packed]. *)
let write_extents_chunked t ~now items emit =
  let n = Array.length items in
  let completion = ref now in
  let i = ref 0 in
  while !i < n do
    let j = ref !i and blks = ref 0 in
    while
      !j < n && (!blks = 0 || !blks + snd items.(!j) <= max_extent_blocks)
    do
      blks := !blks + snd items.(!j);
      incr j
    done;
    let base, c = write_extent t ~now (Array.sub items !i (!j - !i)) in
    if c > !completion then completion := c;
    let blkoff = ref 0 in
    for k = !i to !j - 1 do
      emit k (base + !blkoff);
      blkoff := !blkoff + snd items.(k)
    done;
    i := !j
  done;
  !completion

(* Write a variable-length record into freshly allocated contiguous blocks;
   returns (first block, completion time, blocks used). *)
let write_record t ~now data =
  let n = blocks_of_len (Bytes.length data) in
  let blk = if n = 1 then alloc_block t else alloc_extent t n in
  let c = Striped.write t.dev ~now ~off:(off_of_block blk) data in
  (blk, c, n)

let last_epoch_info t =
  match List.rev t.epochs with [] -> None | e :: _ -> Some e

let head_table t =
  match last_epoch_info t with Some e -> e.e_table | None -> Hashtbl.create 0

let begin_checkpoint t =
  if t.staging <> None then invalid_arg "Store.begin_checkpoint: already staging";
  (* Housekeeping: fold already-durable writes into the committed device
     state so the in-flight lists stay short on long runs. *)
  Striped.apply_durable t.dev ~now:(Clock.now t.clk);
  t.current_epoch <- t.current_epoch + 1;
  t.staging <- Some (Hashtbl.create 64);
  t.staging_epoch <- t.current_epoch;
  t.staging_next_oid <- t.next_oid;
  t.data_done <- Clock.now t.clk;
  t.stat_extents <- 0;
  t.stat_extent_blocks <- 0;
  t.stat_coalesced_bytes <- 0;
  t.stat_leaf_hits <- 0;
  t.stat_leaf_misses <- 0;
  t.stat_alloc_calls <- 0;
  t.stat_pages <- 0;
  t.stat_pages_deduped <- 0;
  t.stat_compress_ns <- 0;
  t.stat_comp_in <- 0;
  t.stat_comp_out <- 0;
  t.stat_dev_base <- Striped.write_ops t.dev;
  t.stat_bytes_base <- Striped.bytes_written t.dev;
  Otrace.instant ~cat:"store" "begin_checkpoint"
    ~args:[ ("epoch", Otrace.Int t.current_epoch) ];
  t.current_epoch

let staging_exn t =
  match t.staging with
  | Some s -> s
  | None -> invalid_arg "Store: no checkpoint in progress"

(* Nothing reaches the device or the committed state before commit, so
   dropping the staging epoch and winding the epoch and oid counters back
   leaves the store as [begin_checkpoint] found it. *)
let abort_checkpoint t =
  ignore (staging_exn t);
  t.staging <- None;
  t.current_epoch <- t.staging_epoch - 1;
  t.next_oid <- t.staging_next_oid

let staged_for t oid =
  let s = staging_exn t in
  match Hashtbl.find_opt s oid with
  | Some st -> st
  | None ->
      let st = { s_kind = ""; s_meta = ""; s_pages = Hashtbl.create 64 } in
      Hashtbl.replace s oid st;
      st

let put_object t ~oid ~kind ~meta =
  let st = staged_for t oid in
  st.s_kind <- kind;
  st.s_meta <- meta

(* Newest-wins dedup happens here, at staging time: re-staging a page index
   replaces its payload in O(1), so commit never scans for duplicates. *)
let put_pages t ~oid pages =
  let st = staged_for t oid in
  List.iter (fun (idx, payload) -> Hashtbl.replace st.s_pages idx payload) pages

(* Plan of one staged page after the flush path's CPU pass. *)
type page_plan =
  | P_ref of centry (* content already durable: leaf reference only *)
  | P_alias of int (* identical to plan slot [k] of this same batch *)
  | P_write of { stored : bytes; comp : bool }

let class_bandwidth = function
  | Rle.Zero -> Cost.compress_zero_bandwidth
  | Rle.Text -> Cost.compress_text_bandwidth
  | Rle.Binary -> Cost.compress_binary_bandwidth
  | Rle.Random -> Cost.compress_random_bandwidth

(* Write [stored.(k)] payloads packed back-to-back at byte granularity
   into frontier extents sealed at the max extent size; a payload never
   straddles two separately allocated extents, so every stored page is
   device-contiguous.  Returns per-payload (block, byte offset) and the
   latest completion. *)
let write_packed t ~now stored =
  let n = Array.length stored in
  let locs = Array.make n (0, 0) in
  let completion = ref now in
  let i = ref 0 in
  while !i < n do
    let j = ref !i and bytes = ref 0 in
    while
      !j < n
      && (!bytes = 0 || !bytes + Bytes.length stored.(!j) <= Cost.nvme_max_extent_bytes)
    do
      bytes := !bytes + Bytes.length stored.(!j);
      incr j
    done;
    let nblocks = blocks_of_len !bytes in
    let base = alloc_extent t nblocks in
    let buf = Bytes.create !bytes in
    let off = ref 0 in
    for k = !i to !j - 1 do
      let p = stored.(k) in
      Bytes.blit p 0 buf !off (Bytes.length p);
      locs.(k) <- (base + (!off / block_size), !off mod block_size);
      off := !off + Bytes.length p
    done;
    let c = Striped.write t.dev ~now ~off:(off_of_block base) buf in
    if c > !completion then completion := c;
    t.stat_extents <- t.stat_extents + 1;
    t.stat_extent_blocks <- t.stat_extent_blocks + nblocks;
    t.stat_coalesced_bytes <- t.stat_coalesced_bytes + !bytes;
    i := !j
  done;
  (locs, !completion)

(* Merge staged dirty pages into the previous version's leaves.  The CPU
   pass hashes every payload, probes the content-addressed index (a hit
   — same hash, original length and CRC — becomes a leaf reference to
   the already-stored bytes and is never re-flushed) and RLE-codes the
   misses; the surviving payloads are packed into byte-granular frontier
   extents and submitted only once that CPU work is done, so the flush
   window models compress-then-write.  Only the touched leaves are
   rebuilt (from the leaf cache when warm) and go out as one coalesced
   extent. *)
(* Besides the merged leaves, data completion time and the CPU-pass end
   time (threaded into the next object's submissions: one flush thread),
   returns the object's manifest deltas: the XOR-fold fingerprint
   adjustment (replaced carried entries folded out, fresh entries folded
   in) and the net page-count change, so commit can update the
   manifest-row cache without re-walking untouched leaves. *)
let build_version t ~now ~prev st =
  let prev_leaves = match prev with Some v -> v.v_leaves | None -> IntMap.empty in
  let npages = Hashtbl.length st.s_pages in
  if npages = 0 then (prev_leaves, now, now, 0, 0)
  else begin
    let fp_delta = ref 0 in
    let n_delta = ref 0 in
    let completion = ref now in
    (* 1. Sort the fresh pages in place (no list churn on the hot path). *)
    let fresh = Array.make npages (0, Bytes.empty) in
    let fill = ref 0 in
    Hashtbl.iter
      (fun idx payload ->
        fresh.(!fill) <- (idx, payload);
        incr fill)
      st.s_pages;
    Array.sort (fun (a, _) (b, _) -> compare (a : int) b) fresh;
    t.stat_pages <- t.stat_pages + npages;
    (* 2. CPU pass: hash, dedup-probe, compress. *)
    let cpu = ref now in
    let idents = Array.make npages (0, 0, 0) in
    let plans = Array.make npages (P_alias 0) in
    let batch = Hashtbl.create 16 in
    Array.iteri
      (fun k (_, payload) ->
        let olen = Bytes.length payload in
        let crc = Crc32.of_bytes payload in
        let hash = Hash64.of_bytes payload in
        idents.(k) <- (hash, olen, crc);
        let write stored comp =
          t.stat_comp_in <- t.stat_comp_in + olen;
          t.stat_comp_out <- t.stat_comp_out + Bytes.length stored;
          plans.(k) <- P_write { stored; comp }
        in
        if not t.packed then write payload false
        else begin
          cpu := !cpu + Cost.transfer_time ~bandwidth:Cost.page_hash_bandwidth olen;
          match Hashtbl.find_opt t.content hash with
          | Some ce when ce.c_olen = olen && ce.c_crc = crc ->
              t.stat_pages_deduped <- t.stat_pages_deduped + 1;
              plans.(k) <- P_ref ce
          | Some _ | None -> (
              match Hashtbl.find_opt batch (hash, olen, crc) with
              | Some k0 ->
                  t.stat_pages_deduped <- t.stat_pages_deduped + 1;
                  plans.(k) <- P_alias k0
              | None -> (
                  Hashtbl.replace batch (hash, olen, crc) k;
                  cpu :=
                    !cpu
                    + Cost.transfer_time
                        ~bandwidth:(class_bandwidth (Rle.classify payload))
                        olen;
                  match Rle.compress payload with
                  | Some c -> write c true
                  | None -> write payload false))
        end)
      fresh;
    t.stat_compress_ns <- t.stat_compress_ns + (!cpu - now);
    (* 3. Submit the surviving payloads once the CPU pass is done.  With
       the packed layout off the legacy block-per-page layout (and its
       full-block device charge) is kept, as the pre-dedup baseline. *)
    let write_slots = ref [] in
    Array.iteri
      (fun k plan -> match plan with P_write _ -> write_slots := k :: !write_slots | _ -> ())
      plans;
    let write_slots = Array.of_list (List.rev !write_slots) in
    let stored_of k =
      match plans.(k) with
      | P_write { stored; _ } -> stored
      | P_ref _ | P_alias _ -> assert false
    in
    let locs = Array.make (Array.length write_slots) (0, 0) in
    if Array.length write_slots > 0 then begin
      if t.packed then begin
        let c, ls =
          let stored = Array.map stored_of write_slots in
          let ls, c = write_packed t ~now:!cpu stored in
          (c, ls)
        in
        Array.blit ls 0 locs 0 (Array.length ls);
        if c > !completion then completion := c
      end
      else begin
        let items = Array.map (fun k -> (stored_of k, 1)) write_slots in
        let c =
          write_extents_chunked t ~now:!cpu items (fun i blk -> locs.(i) <- (blk, 0))
        in
        if c > !completion then completion := c
      end
    end;
    (* Resolve every plan slot to its stored location and register fresh
       locations in the content index. *)
    let slot_of = Hashtbl.create 16 in
    Array.iteri (fun i k -> Hashtbl.replace slot_of k i) write_slots;
    let loc_of k =
      match plans.(k) with
      | P_ref ce -> (ce.c_blk, ce.c_off, ce.c_clen, ce.c_comp)
      | P_alias k0 ->
          let blk, off = locs.(Hashtbl.find slot_of k0) in
          let stored = stored_of k0 in
          let comp = match plans.(k0) with P_write { comp; _ } -> comp | _ -> assert false in
          (blk, off, Bytes.length stored, comp)
      | P_write { stored; comp } ->
          let blk, off = locs.(Hashtbl.find slot_of k) in
          (blk, off, Bytes.length stored, comp)
    in
    if t.packed then
      Array.iter
        (fun k ->
          let hash, olen, crc = idents.(k) in
          let blk, off, clen, comp = loc_of k in
          Hashtbl.replace t.content hash
            { c_blk = blk; c_off = off; c_clen = clen; c_olen = olen; c_comp = comp;
              c_crc = crc })
        write_slots;
    (* 4. Rebuild the touched leaves.  [fresh] is sorted by page index, so
       each leaf's dirty pages are one contiguous run of the array, and
       dirty-membership for carried-entry filtering is a binary search in
       that run. *)
    let mem_run lo hi idx =
      let l = ref lo and h = ref hi in
      let found = ref false in
      while (not !found) && !l < !h do
        let m = (!l + !h) / 2 in
        let v = fst fresh.(m) in
        if v = idx then found := true
        else if v < idx then l := m + 1
        else h := m
      done;
      !found
    in
    let rebuilt = ref [] in
    let i = ref 0 in
    while !i < npages do
      let leaf_idx = fst fresh.(!i) / leaf_span in
      let j = ref !i in
      while !j < npages && fst fresh.(!j) / leaf_span = leaf_idx do incr j done;
      (* Carry over this leaf's unchanged entries; replaced entries are
         simply dropped (the old leaf still counts their blocks until
         a prune finds it dead). *)
      let old_entries =
        match IntMap.find_opt leaf_idx prev_leaves with
        | None -> []
        | Some blk -> leaf_entries t ~charged:false blk
      in
      let carried =
        List.filter
          (fun p ->
            let replaced = mem_run !i !j p.p_idx in
            if replaced then begin
              (* Fold the old entry's contribution back out. *)
              fp_delta := !fp_delta lxor Manifest.page_fp p.p_idx p.p_crc;
              decr n_delta
            end;
            not replaced)
          old_entries
      in
      let fresh_entries = ref [] in
      for k = !j - 1 downto !i do
        let idx, _ = fresh.(k) in
        let hash, olen, crc = idents.(k) in
        let blk, off, clen, comp = loc_of k in
        fp_delta := !fp_delta lxor Manifest.page_fp idx crc;
        incr n_delta;
        fresh_entries :=
          { p_idx = idx; p_blk = blk; p_off = off; p_clen = clen; p_olen = olen;
            p_comp = comp; p_crc = crc; p_hash = hash }
          :: !fresh_entries
      done;
      (* Both runs ascend by page index and share none: merge them. *)
      let rec merge ps qs =
        match (ps, qs) with
        | [], l | l, [] -> l
        | p :: ps', q :: qs' ->
            if p.p_idx < q.p_idx then p :: merge ps' qs else q :: merge ps qs'
      in
      let entries = merge carried !fresh_entries in
      rebuilt := (leaf_idx, entries) :: !rebuilt;
      i := !j
    done;
    let rebuilt = Array.of_list (List.rev !rebuilt) in
    (* 5. Coalesced extents for the rewritten leaves (write-through into
       the cache).  A new leaf is a new item, and so is every entry it
       holds, fresh and carried alike: each counts the blocks it covers. *)
    let leaf_items =
      Array.map (fun (_, entries) -> (Wire.encode leaf_codec entries, 1)) rebuilt
    in
    let leaves = ref prev_leaves in
    let c =
      write_extents_chunked t ~now:!cpu leaf_items (fun k blk ->
          let leaf_idx, entries = rebuilt.(k) in
          cache_leaf t blk { entries; resident = false };
          ref_block t blk;
          List.iter (fun p -> span_blocks p.p_blk p.p_off p.p_clen (ref_block t)) entries;
          leaves := IntMap.add leaf_idx blk !leaves)
    in
    if c > !completion then completion := c;
    (!leaves, !completion, !cpu, !fp_delta, !n_delta)
  end

(* Manifest row of a committed version, from the cache when warm.  The cold
   path (first touch after recovery) walks the version's leaves once and
   memoizes the result. *)
let committed_row t oid v =
  match Hashtbl.find_opt t.rows oid with
  | Some r -> r
  | None ->
      let r = Manifest.entry_of_source (oid, v.v_kind, v.v_meta, version_crcs t v) in
      Hashtbl.replace t.rows oid r;
      r

let commit_checkpoint t =
  let s = staging_exn t in
  let now = Clock.now t.clk in
  let epoch = t.staging_epoch in
  let prev_table = head_table t in
  let new_table : (int, version) Hashtbl.t = Hashtbl.copy prev_table in
  let data_done = ref now in
  (* One flush thread does the hashing and compression: each object's
     submissions go out when the CPU pass reaches it. *)
  let cpu_now = ref now in
  (* Data and leaf extents for every staged object, in oid order. *)
  let staged_list =
    Hashtbl.fold (fun oid st acc -> (oid, st) :: acc) s [] |> List.sort compare
  in
  let pending =
    Otrace.with_span ~cat:"store" ~name:"commit.data"
      ~args:[ ("epoch", Otrace.Int epoch); ("staged", Otrace.Int (List.length staged_list)) ]
    @@ fun () ->
    List.map
      (fun (oid, st) ->
        let prev = Hashtbl.find_opt prev_table oid in
        let kind =
          if st.s_kind <> "" then st.s_kind
          else match prev with Some v -> v.v_kind | None -> "memory"
        in
        let meta =
          if st.s_meta <> "" then st.s_meta
          else match prev with Some v -> v.v_meta | None -> ""
        in
        (* Base row first (it may lazily walk the previous version), then
           apply this commit's deltas so the cache tracks the new epoch. *)
        let base =
          match prev with Some v -> committed_row t oid v | None -> zero_row
        in
        let leaves, c, cpu_end, fp_delta, n_delta =
          build_version t ~now:!cpu_now ~prev st
        in
        cpu_now := cpu_end;
        if c > !data_done then data_done := c;
        Hashtbl.replace t.rows oid
          {
            Manifest.me_oid = oid;
            me_kind = kind;
            me_meta_crc =
              (if st.s_meta <> "" then Crc32.of_string st.s_meta
               else base.me_meta_crc);
            me_pages = base.me_pages + n_delta;
            me_pages_crc = base.me_pages_crc lxor fp_delta;
          };
        (oid, { v_kind = kind; v_meta = meta; v_blk = 0; v_off = 0; v_len = 0; v_leaves = leaves }))
      staged_list
  in
  (* Version records pack back to back into fresh extents, like page
     payloads and in either page layout: one exact-length submission covers
     many objects' records. *)
  Otrace.with_span ~cat:"store" ~name:"commit.records" (fun () ->
      let pending = Array.of_list pending in
      let records =
        Array.map
          (fun (oid, v) ->
            Wire.encode version_codec
              { vr_oid = oid; vr_epoch = epoch; vr_kind = v.v_kind; vr_meta = v.v_meta;
                vr_leaves = IntMap.bindings v.v_leaves })
          pending
      in
      let locs, c = write_packed t ~now records in
      Array.iteri
        (fun i (oid, v) ->
          let blk, off = locs.(i) and v_len = Bytes.length records.(i) in
          span_blocks blk off v_len (ref_block t);
          Hashtbl.replace new_table oid { v with v_blk = blk; v_off = off; v_len })
        pending;
      if c > !data_done then data_done := c);
  (* Checkpoint record after all object data (write ordering). *)
  let table_list =
    Hashtbl.fold (fun oid v acc -> (oid, v) :: acc) new_table []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  in
  let cr_prev_block, cr_prev_nblocks =
    match last_epoch_info t with
    | Some e -> (e.e_record_block, e.e_record_nblocks)
    | None -> (0, 0)
  in
  let record =
    Wire.encode checkpoint_codec
      {
        cr_epoch = epoch;
        cr_prev_block;
        cr_prev_nblocks;
        cr_table = List.map (fun (oid, v) -> (oid, v.v_blk, v.v_off, v.v_len)) table_list;
      }
  in
  let rblock, rc, rnblocks =
    Otrace.with_span ~cat:"store" ~name:"commit.record" (fun () ->
        write_record t ~now:!data_done record)
  in
  span_blocks rblock 0 (rnblocks * block_size) (ref_block t);
  let head =
    { e_epoch = epoch; e_record_block = rblock; e_record_nblocks = rnblocks;
      e_table = new_table }
  in
  (* Superblock strictly after the record.  The torture knob submits it at
     commit start instead — metadata racing ahead of data — so the
     crash-point enumerator can demonstrate it catches ordering bugs. *)
  let sb_submit = if t.torture_misorder then now else rc in
  let sc =
    Otrace.with_span ~cat:"store" ~name:"commit.superblock" (fun () ->
        write_superblock t ~now:sb_submit (Some head))
  in
  t.epochs <- t.epochs @ [ head ];
  t.staging <- None;
  t.durable <- sc;
  t.last_flush <-
    {
      fs_epoch = epoch;
      fs_extents = t.stat_extents;
      fs_extent_blocks = t.stat_extent_blocks;
      fs_coalesced_bytes = t.stat_coalesced_bytes;
      fs_dev_writes = Striped.write_ops t.dev - t.stat_dev_base;
      fs_leaf_hits = t.stat_leaf_hits;
      fs_leaf_misses = t.stat_leaf_misses;
      fs_alloc_calls = t.stat_alloc_calls;
      fs_pages = t.stat_pages;
      fs_pages_deduped = t.stat_pages_deduped;
      fs_bytes_written = Striped.bytes_written t.dev - t.stat_bytes_base;
      fs_compress_ns = t.stat_compress_ns;
      fs_comp_in = t.stat_comp_in;
      fs_comp_out = t.stat_comp_out;
    };
  if Otrace.is_on () || Ometrics.is_enabled () then begin
    Ometrics.incr m_store_commits;
    Ometrics.incr ~by:t.stat_pages m_store_pages;
    Ometrics.incr ~by:t.stat_pages_deduped m_store_deduped;
    Ometrics.incr ~by:t.stat_extents m_store_extents;
    Ometrics.observe_ns h_store_flush_window (sc - now);
    Otrace.instant ~cat:"store" "dedup"
      ~args:
        [
          ("epoch", Otrace.Int epoch);
          ("staged", Otrace.Int t.stat_pages);
          ("deduped", Otrace.Int t.stat_pages_deduped);
        ];
    Otrace.instant ~cat:"store" "compress"
      ~args:
        [
          ("epoch", Otrace.Int epoch);
          ("bytes_in", Otrace.Int t.stat_comp_in);
          ("bytes_out", Otrace.Int t.stat_comp_out);
          ("cpu_ns", Otrace.Int t.stat_compress_ns);
        ];
    (* The asynchronous durability tail: submissions went out at [now],
       the epoch is on stable storage at [sc]. *)
    Otrace.complete ~ts:now ~dur:(sc - now) ~cat:"store" "flush_window"
      ~args:
        [
          ("epoch", Otrace.Int epoch);
          ("pages", Otrace.Int t.stat_pages);
          ("deduped", Otrace.Int t.stat_pages_deduped);
          ("extents", Otrace.Int t.stat_extents);
          ("dev_writes", Otrace.Int t.last_flush.fs_dev_writes);
          ("bytes", Otrace.Int t.last_flush.fs_bytes_written);
        ]
  end;
  sc

let flush_stats t = t.last_flush
let durable_at t = t.durable
let wait_durable t = Clock.advance_to t.clk t.durable

let set_read_policy t ~retries ~backoff_ns =
  if retries < 0 || backoff_ns < 0 then invalid_arg "Store.set_read_policy";
  t.read_retries <- retries;
  t.read_backoff <- backoff_ns

let read_faults t = t.stat_read_faults
let set_torture_misorder t flag = t.torture_misorder <- flag

let last_complete_epoch t =
  match last_epoch_info t with Some e -> e.e_epoch | None -> 0

let checkpoint_epochs t = List.map (fun e -> e.e_epoch) t.epochs

(* Live items and the content index ----------------------------------------- *)

(* Walk every item the retained epochs and journals hold, as [f b] once
   per block of each item: journal extents, checkpoint records, then
   each distinct version record and each distinct leaf block with its
   entries ([entry p] too).  Commit copies the version table, so the same
   version, and the same leaf block, appears under several epochs; each is
   visited once.  Recovery counts blocks with this walk, and
   [content_index_consistent] recounts with it. *)
let iter_items t ~entry f =
  List.iter (fun j -> span_blocks j.j_start 0 (j.j_blocks * block_size) f) t.journals;
  List.iter (fun e -> span_blocks e.e_record_block 0 (e.e_record_nblocks * block_size) f) t.epochs;
  let versions = Hashtbl.create 1024 and leaves = Hashtbl.create 1024 in
  let leaf leaf_blk =
    if not (Hashtbl.mem leaves leaf_blk) then begin
      Hashtbl.replace leaves leaf_blk ();
      f leaf_blk;
      List.iter
        (fun p ->
          span_blocks p.p_blk p.p_off p.p_clen f;
          entry p)
        (leaf_entries t ~charged:false leaf_blk)
    end
  in
  List.iter
    (fun e ->
      Hashtbl.iter
        (fun _ v ->
          let key = (v.v_blk * block_size) + v.v_off in
          if not (Hashtbl.mem versions key) then begin
            Hashtbl.replace versions key ();
            span_blocks v.v_blk v.v_off v.v_len f;
            IntMap.iter (fun _ leaf_blk -> leaf leaf_blk) v.v_leaves
          end)
        e.e_table)
    t.epochs

(* The first live entry seen for a hash names its location. *)
let index_entry t p =
  if not (Hashtbl.mem t.content p.p_hash) then
    Hashtbl.replace t.content p.p_hash
      { c_blk = p.p_blk; c_off = p.p_off; c_clen = p.p_clen; c_olen = p.p_olen;
        c_comp = p.p_comp; c_crc = p.p_crc }

(* Rebuild the content index purely from the durable leaves: entries
   carry the hash, so no data blocks are read. *)
let rebuild_content_index t =
  Hashtbl.reset t.content;
  if t.packed then iter_items t ~entry:(index_entry t) ignore

let set_packed_layout t flag =
  if flag <> t.packed then begin
    t.packed <- flag;
    rebuild_content_index t
  end
let content_index_size t = Hashtbl.length t.content

(* Check the incrementally kept counts, free set and index against a
   fresh walk: the counts must be equal block for block, the free set
   must be exactly the uncounted blocks between the superblock and the
   frontier, and every index entry must lie in counted blocks whose bytes
   (read uncharged) decode to a payload of its hash, length and CRC. *)
let content_index_consistent t =
  let fresh = ref [||] in
  iter_items t ~entry:ignore (fun b -> fresh := bump !fresh b);
  let ok = ref true and free = ref 0 in
  for b = 0 to Int.max (Array.length t.refs) (Array.length !fresh) - 1 do
    let n = ref_count t.refs b in
    if n <> ref_count !fresh b then ok := false;
    if b > superblock_block && b < t.next_block && n = 0 then
      if Hashtbl.mem t.free_set b then incr free else ok := false
  done;
  let holds hash ce =
    let counted = ref true in
    span_blocks ce.c_blk ce.c_off ce.c_clen (fun b ->
        if ref_count t.refs b = 0 then counted := false);
    !counted
    &&
    let stored =
      Striped.read_nocharge t.dev ~off:(off_of_block ce.c_blk + ce.c_off) ~len:ce.c_clen
    in
    match if ce.c_comp then Rle.decompress ~olen:ce.c_olen stored else stored with
    | payload ->
        Bytes.length payload = ce.c_olen && Crc32.of_bytes payload = ce.c_crc
        && Hash64.of_bytes payload = hash
    | exception Invalid_argument _ -> false
  in
  !ok && !free = Hashtbl.length t.free_set
  && Hashtbl.fold (fun hash ce ok -> ok && holds hash ce) t.content true

(* Recovery ---------------------------------------------------------------------- *)

(* Recovery reads what the record chain names, once each.  Commit copies
   the version table, so consecutive epochs share most version records:
   each distinct version is loaded once (the rebuilt tables share version
   values exactly as they did before the crash), and the blocks its packed
   bytes cover are read in block order, coalesced into runs of at most
   [max_extent_blocks], each one charged, retried read.  The cost is
   O(records + distinct versions) in device time and parse work, not
   O(epochs x objects). *)

(* A location read off the device must name allocated blocks. *)
let check_extent t what blk nblocks =
  if blk <= superblock_block || nblocks < 1 || blk + nblocks > t.next_block then
    raise
      (Corrupt_store
         (Printf.sprintf "%s at block %d (+%d) outside the store (%d blocks)" what blk
            nblocks t.next_block))

(* Load every distinct version [entries] name, as a (blk, off) -> (oid,
   version) table.  The blocks covering the records are read in runs
   (records sharing a block or in adjacent blocks join one run), each run
   once, and every record is sliced out at its offset. *)
let load_versions t entries =
  let loaded = Hashtbl.create 1024 and want = Hashtbl.create 1024 in
  List.iter
    (fun (_, blk, off, len) ->
      if off >= block_size || len < 1 then
        raise
          (Corrupt_store
             (Printf.sprintf "version record at block %d: offset %d, length %d" blk off len));
      check_extent t "version record" blk (span_end blk off len - blk + 1);
      Hashtbl.replace want (blk, off) len)
    entries;
  let todo =
    Hashtbl.fold (fun (blk, off) len acc -> (blk, off, len) :: acc) want [] |> Array.of_list
  in
  Array.sort compare todo;
  let last k =
    let blk, off, len = todo.(k) in
    span_end blk off len
  in
  let n = Array.length todo in
  let i = ref 0 in
  while !i < n do
    let base, _, _ = todo.(!i) in
    let j = ref (!i + 1) and run_end = ref (last !i) in
    while
      !j < n
      && (let blk, _, _ = todo.(!j) in blk <= !run_end + 1)
      && last !j - base < max_extent_blocks
    do
      run_end := max !run_end (last !j);
      incr j
    done;
    let data = read_blocks t ~blk:base ~nblocks:(!run_end - base + 1) in
    for k = !i to !j - 1 do
      let blk, off, len = todo.(k) in
      let vr =
        decode "version record" version_codec
          (Bytes.sub data (((blk - base) * block_size) + off) len)
      in
      Hashtbl.replace loaded (blk, off)
        (vr.vr_oid, { v_kind = vr.vr_kind; v_meta = vr.vr_meta; v_blk = blk; v_off = off;
                      v_len = len; v_leaves = IntMap.of_seq (List.to_seq vr.vr_leaves) })
    done;
    i := !j
  done;
  loaded

(* Neither the counts nor the free set is persisted, so recovery counts
   every live item afresh.  A block between the superblock and the
   frontier that no item covers was freed before the crash, or taken by a
   commit that never completed.  The dead top of the store folds back
   into the frontier; the rest is freed highest first, so the lowest free
   block is reused first.  The counts grow with the highest block
   counted, never with a frontier read off the device. *)
let rebuild_free_set t =
  let top = ref superblock_block in
  iter_items t ~entry:(index_entry t) (fun b ->
      if b > superblock_block && b < t.next_block then begin
        ref_block t b;
        if b > !top then top := b
      end);
  t.next_block <- !top + 1;
  for b = !top - 1 downto superblock_block + 1 do
    if ref_count t.refs b = 0 then free_block t b
  done

let recover ~dev ~clock =
  let t = fresh dev clock in
  let sb =
    retried_read t (fun () ->
        Striped.read dev ~clock ~off:(off_of_block superblock_block) ~len:block_size)
  in
  let sb = decode "superblock" superblock_codec sb in
  t.next_block <- sb.sb_next_block;
  t.next_oid <- sb.sb_next_oid;
  t.oldest_retained <- sb.sb_oldest_retained;
  t.journals <-
    List.map
      (fun (j_id, j_start, j_blocks, j_gen) -> { j_id; j_start; j_blocks; j_head = 0; j_gen })
      sb.sb_journals;
  t.current_epoch <- sb.sb_epoch;
  (* Walk the record chain, oldest last.  Epochs strictly decrease along
     the chain, so a garbled prev pointer cannot loop. *)
  let rec walk (block, nblocks) ~below acc =
    if block = 0 then acc
    else begin
      check_extent t "checkpoint record" block nblocks;
      let r = decode "checkpoint record" checkpoint_codec (read_blocks t ~blk:block ~nblocks) in
      let epoch = r.cr_epoch and prev = (r.cr_prev_block, r.cr_prev_nblocks) in
      if epoch >= below then
        raise (Corrupt_store (Printf.sprintf "checkpoint record of epoch %d out of order" epoch));
      (* Pruned epochs' blocks may have been reused: stop at the oldest
         retained record instead of following its prev pointer. *)
      let prev = if epoch <= t.oldest_retained then (0, 0) else prev in
      walk prev ~below:epoch ((epoch, block, nblocks, r.cr_table) :: acc)
    end
  in
  let chain = walk (sb.sb_record_block, sb.sb_record_nblocks) ~below:(sb.sb_epoch + 1) [] in
  (* Then every retained epoch's versions in one pass, so a block shared
     by several epochs' records is read once. *)
  let loaded = load_versions t (List.concat_map (fun (_, _, _, tl) -> tl) chain) in
  t.epochs <-
    List.map
      (fun (epoch, block, nblocks, table_list) ->
        let table = Hashtbl.create (List.length table_list) in
        List.iter
          (fun (oid, blk, off, len) ->
            let v_oid, v = Hashtbl.find loaded (blk, off) in
            if v_oid <> oid || v.v_len <> len then
              raise (Corrupt_store "version/oid mismatch");
            Hashtbl.replace table oid v)
          table_list;
        { e_epoch = epoch; e_record_block = block; e_record_nblocks = nblocks;
          e_table = table })
      chain;
  (* The counts, the free set and the content index come from one
     uncharged walk over what the retained epochs reach: every distinct
     leaf is parsed once, which also warms the leaf cache for the first
     post-recovery incremental commit, and none becomes resident, so the
     first page read after recovery still pays its leaf read.  The index
     is rebuilt from the durable leaves, so dedup after a crash only ever
     references durable pages. *)
  rebuild_free_set t;
  (* Journal heads are recovered lazily by scanning; see journal_records. *)
  t

(* Reading ------------------------------------------------------------------------- *)

let epoch_info t epoch =
  match List.find_opt (fun e -> e.e_epoch = epoch) t.epochs with
  | Some e -> e
  | None -> raise (Corrupt_store (Printf.sprintf "unknown epoch %d" epoch))

let version_exn t ~epoch ~oid =
  match Hashtbl.find_opt (epoch_info t epoch).e_table oid with
  | Some v -> v
  | None -> raise (Corrupt_store (Printf.sprintf "oid %d not in epoch %d" oid epoch))

let objects_at t ~epoch =
  Hashtbl.fold
    (fun oid v acc -> if v.v_kind = Manifest.kind then acc else (oid, v.v_kind) :: acc)
    (epoch_info t epoch).e_table []
  |> List.sort compare

let read_meta t ~epoch ~oid = (version_exn t ~epoch ~oid).v_meta

(* Recover a page's original payload from its stored (possibly RLE-coded)
   bytes; a stream that does not decode cleanly is store corruption, not
   a programming error — restore verification catches it as such. *)
let decode_payload p stored =
  if not p.p_comp then stored
  else
    try Rle.decompress ~olen:p.p_olen stored
    with Invalid_argument _ ->
      raise (Corrupt_store (Printf.sprintf "page %d: corrupt coded payload" p.p_idx))

let read_page t ~epoch ~oid ~idx =
  let v = version_exn t ~epoch ~oid in
  match IntMap.find_opt (idx / leaf_span) v.v_leaves with
  | None -> None
  | Some leaf_blk -> (
      match
        List.find_opt (fun p -> p.p_idx = idx) (leaf_entries t ~charged:true leaf_blk)
      with
      | None -> None
      | Some p ->
          let stored =
            retried_read t (fun () ->
                Striped.read t.dev ~clock:t.clk
                  ~off:(off_of_block p.p_blk + p.p_off)
                  ~len:p.p_clen)
          in
          if p.p_comp then
            Clock.advance t.clk
              (Cost.transfer_time ~bandwidth:Cost.decompress_bandwidth p.p_olen);
          Some (decode_payload p stored))

(* Bulk page reads are issued at depth (restore, migration): [entries]
   cost one streamed read of their stored bytes instead of a full device
   round trip per page, and decompression is charged once over the coded
   pages' original bytes.  The pages are pushed onto [acc] in reverse. *)
let stream_entries t entries acc =
  Striped.charge_read t.dev ~clock:t.clk
    ~bytes:(List.fold_left (fun a p -> a + p.p_clen) 0 entries);
  let coded_olen =
    List.fold_left (fun a p -> if p.p_comp then a + p.p_olen else a) 0 entries
  in
  if coded_olen > 0 then
    Clock.advance t.clk
      (Cost.transfer_time ~bandwidth:Cost.decompress_bandwidth coded_olen);
  List.fold_left
    (fun acc p ->
      let stored =
        Striped.read_nocharge t.dev ~off:(off_of_block p.p_blk + p.p_off) ~len:p.p_clen
      in
      (p.p_idx, decode_payload p stored) :: acc)
    acc entries

(* One leaf I/O (unless resident) and one streamed read per leaf. *)
let read_pages t ~epoch ~oid =
  let v = version_exn t ~epoch ~oid in
  IntMap.fold
    (fun _ leaf_blk acc -> stream_entries t (leaf_entries t ~charged:true leaf_blk) acc)
    v.v_leaves []
  |> List.sort compare

(* Leaf and data blocks are copy-on-write and [base] keeps its blocks
   live, so an entry at the same location in both epochs holds the same
   bytes, and a version record or leaf block shared by both epochs
   changed nothing beneath it.  Only the leaves that differ are read
   (each under the residency rule of [read_page]); the pages whose
   location moved are then fetched as one streamed read. *)
let read_changed_pages t ~base ~epoch ~oid =
  let v = version_exn t ~epoch ~oid in
  let b = version_exn t ~epoch:base ~oid in
  if v.v_blk = b.v_blk && v.v_off = b.v_off then []
  else begin
    let same p q = p.p_blk = q.p_blk && p.p_off = q.p_off && p.p_clen = q.p_clen in
    (* Both entry lists are sorted by page index; [acc] collects moved
       entries in descending index order, across leaves too, so the
       streamed pages come back ascending. *)
    let rec moved acc news olds =
      match (news, olds) with
      | [], _ -> acc
      | _, [] -> List.rev_append news acc
      | n :: ns, o :: os ->
          if o.p_idx < n.p_idx then moved acc news os
          else if o.p_idx > n.p_idx then moved (n :: acc) ns olds
          else moved (if same n o then acc else n :: acc) ns os
    in
    let changed =
      IntMap.fold
        (fun leaf_idx leaf_blk acc ->
          match IntMap.find_opt leaf_idx b.v_leaves with
          | Some base_blk when base_blk = leaf_blk -> acc
          | base_blk ->
              let olds =
                match base_blk with
                | Some blk -> leaf_entries t ~charged:true blk
                | None -> []
              in
              moved acc (leaf_entries t ~charged:true leaf_blk) olds)
        v.v_leaves []
    in
    stream_entries t changed []
  end

let page_indices t ~epoch ~oid =
  let v = version_exn t ~epoch ~oid in
  IntMap.fold
    (fun _ leaf_blk acc ->
      List.fold_left
        (fun acc p -> p.p_idx :: acc)
        acc (leaf_entries t ~charged:false leaf_blk))
    v.v_leaves []
  |> List.sort compare

(* Journals --------------------------------------------------------------------------- *)

let journal_id j = j.j_id
let journal_find t id = List.find_opt (fun j -> j.j_id = id) t.journals

let journal_create t ~size =
  let nblocks = blocks_of_len size in
  let start = alloc_extent t nblocks in
  span_blocks start 0 (nblocks * block_size) (ref_block t);
  let id = List.length t.journals + 1 in
  let j = { j_id = id; j_start = start; j_blocks = nblocks; j_head = 0; j_gen = 0 } in
  t.journals <- t.journals @ [ j ];
  (* The registry lives in the superblock; persist it synchronously so the
     journal survives a crash that happens before the next checkpoint. *)
  let c = write_superblock t ~now:(Clock.now t.clk) (last_epoch_info t) in
  Clock.advance_to t.clk c;
  j

let journal_capacity j = j.j_blocks * block_size

let journal_append t j data =
  let payload = Wire.encode journal_record_codec (j.j_gen, data) in
  let len = Bytes.length payload in
  if j.j_head + len > journal_capacity j then invalid_arg "journal full";
  let now = Clock.now t.clk in
  (* The device write carries the real bytes; the visible latency is the
     synchronous single-stream append path (26 us + bytes at ~2.6 GiB/s,
     the Table 5 journal column).  Synchronous appends ride the device's
     priority lane: they do not wait behind queued background checkpoint
     flushes, and the payload becomes durable exactly at the acknowledged
     sync completion (write_priority), so a crash can never catch a
     sync-acknowledged record still volatile — the crash-point enumerator
     checks precisely this. *)
  let sync_done =
    Resource.submit t.jqueue ~now
      ~duration:
        (Cost.nvme_sync_write_latency
        + Cost.transfer_time ~bandwidth:Cost.journal_stream_bandwidth len)
  in
  ignore
    (Striped.write_priority t.dev ~now ~off:(off_of_block j.j_start + j.j_head)
       payload ~completion:sync_done);
  j.j_head <- j.j_head + len;
  Clock.advance_to t.clk sync_done

let journal_truncate t j =
  j.j_head <- 0;
  (* Bump the generation so stale records beyond the new head are never
     replayed, and persist it (superblock) before invalidating the first
     header — the standard WAL-reset ordering. *)
  j.j_gen <- j.j_gen + 1;
  let sb_done = write_superblock t ~now:(Clock.now t.clk) (last_epoch_info t) in
  Clock.advance_to t.clk sb_done;
  let c =
    Striped.write t.dev ~now:(Clock.now t.clk) ~off:(off_of_block j.j_start)
      (Bytes.make 8 '\000')
  in
  Clock.advance_to t.clk c

let journal_records t j =
  let data =
    retried_read t (fun () ->
        Striped.read t.dev ~clock:t.clk ~off:(off_of_block j.j_start)
          ~len:(journal_capacity j))
  in
  let r = Wire.reader data in
  let rec scan acc =
    if Wire.remaining r < 9 then List.rev acc
    else
      match Wire.read journal_record_codec r with
      | gen, s when gen = j.j_gen -> scan (s :: acc)
      | _ -> List.rev acc
      | exception Wire.Corrupt _ -> List.rev acc
  in
  scan []

(* History ------------------------------------------------------------------------------- *)

(* Only what died is walked.  Tables are copied at every commit and never
   lose an oid, so a version, or a leaf block, that any kept epoch holds
   is held by the oldest kept epoch under the same oid (and leaf index):
   every other version a dropped epoch names is dead, and so is each of
   its leaves the oid's oldest kept version does not hold.  Each dead
   item, counted once, gives back its blocks; a block at zero is freed,
   in ascending order, and the index forgets every location over a freed
   block before anything can dedup against it. *)
let prune_history t ~keep =
  let n = List.length t.epochs in
  if n <= keep then 0
  else begin
    Otrace.with_span ~cat:"store" ~name:"prune"
      ~args:[ ("keep", Otrace.Int keep); ("epochs", Otrace.Int n) ]
    @@ fun () ->
    let drop = n - keep in
    let dropped, kept =
      let rec split i acc = function
        | rest when i = drop -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | e :: rest -> split (i + 1) (e :: acc) rest
      in
      split 0 [] t.epochs
    in
    let oldest = match kept with e :: _ -> e.e_table | [] -> Hashtbl.create 0 in
    let dead = ref [] in
    let unref b =
      t.refs.(b) <- t.refs.(b) - 1;
      if t.refs.(b) = 0 then dead := b :: !dead
    in
    let versions = Hashtbl.create 64 and leaves = Hashtbl.create 256 in
    List.iter
      (fun e ->
        span_blocks e.e_record_block 0 (e.e_record_nblocks * block_size) unref;
        Hashtbl.iter
          (fun oid v ->
            let keeper = Hashtbl.find_opt oldest oid in
            let key = (v.v_blk * block_size) + v.v_off in
            let live =
              match keeper with Some k -> (k.v_blk * block_size) + k.v_off = key | None -> false
            in
            if not (live || Hashtbl.mem versions key) then begin
              Hashtbl.replace versions key ();
              span_blocks v.v_blk v.v_off v.v_len unref;
              IntMap.iter
                (fun idx leaf_blk ->
                  let held =
                    match Option.bind keeper (fun k -> IntMap.find_opt idx k.v_leaves) with
                    | Some b -> b = leaf_blk
                    | None -> false
                  in
                  if not (held || Hashtbl.mem leaves leaf_blk) then begin
                    Hashtbl.replace leaves leaf_blk ();
                    unref leaf_blk;
                    List.iter
                      (fun p -> span_blocks p.p_blk p.p_off p.p_clen unref)
                      (leaf_entries t ~charged:false leaf_blk)
                  end)
                v.v_leaves
            end)
          e.e_table)
      dropped;
    (* free_block also invalidates the leaf cache for each block, so a
       reused block can never serve stale parsed entries or a stale
       residency. *)
    List.iter (free_block t) (List.sort Int.compare !dead);
    if !dead <> [] then begin
      let gone = ref [] in
      Hashtbl.iter
        (fun hash ce ->
          let b = ref ce.c_blk and last = span_end ce.c_blk ce.c_off ce.c_clen in
          while !b <= last && t.refs.(!b) > 0 do incr b done;
          if !b <= last then gone := hash :: !gone)
        t.content;
      List.iter (Hashtbl.remove t.content) !gone
    end;
    t.epochs <- kept;
    (* Persist the new chain bound so recovery never follows a prev
       pointer into reused blocks.  With nothing kept it is the newest
       dropped epoch, which also numbers the next one (see
       [write_superblock]). *)
    t.oldest_retained <- (match kept with e :: _ -> e | [] -> List.nth dropped (drop - 1)).e_epoch;
    let c = write_superblock t ~now:(Clock.now t.clk) (last_epoch_info t) in
    Clock.advance_to t.clk c;
    List.length !dead
  end

let blocks_allocated t = t.next_block - Hashtbl.length t.free_set

(* Verification ------------------------------------------------------------------------ *)

let page_crcs t ~epoch ~oid = List.sort compare (version_crcs t (version_exn t ~epoch ~oid))

(* Manifests ---------------------------------------------------------------------------- *)

(* The manifest is store bookkeeping, not an object of its epoch:
   [objects_at], [staging_manifest_source] and the manifest's own entries
   leave it out.  These are an epoch's manifest objects, lowest oid first;
   a sound epoch has exactly one. *)
let manifest_oids e =
  Hashtbl.fold
    (fun oid v acc -> if v.v_kind = Manifest.kind then oid :: acc else acc)
    e.e_table []
  |> List.sort compare

(* What the open staging epoch will contain once committed: carried
   objects included, with per-page checksums merged the same way
   [commit_checkpoint] merges leaves (previous leaves overridden by staged
   payloads).  Reads the epoch table and the leaves, never the row cache,
   so it is the reference [put_manifest] is checked against and the
   independent composition a verified install checks a frame with. *)
let staging_manifest_source t =
  let s = staging_exn t in
  let prev_table = head_table t in
  let oids = Hashtbl.create 64 in
  Hashtbl.iter (fun oid _ -> Hashtbl.replace oids oid ()) prev_table;
  Hashtbl.iter (fun oid _ -> Hashtbl.replace oids oid ()) s;
  Hashtbl.fold
    (fun oid () acc ->
      let st = Hashtbl.find_opt s oid in
      let prev = Hashtbl.find_opt prev_table oid in
      let kind =
        match st with
        | Some st when st.s_kind <> "" -> st.s_kind
        | _ -> ( match prev with Some v -> v.v_kind | None -> "memory")
      in
      if kind = Manifest.kind then acc
      else begin
        let meta =
          match st with
          | Some st when st.s_meta <> "" -> st.s_meta
          | _ -> ( match prev with Some v -> v.v_meta | None -> "")
        in
        let crcs = Hashtbl.create 16 in
        Option.iter
          (fun v -> List.iter (fun (idx, crc) -> Hashtbl.replace crcs idx crc) (version_crcs t v))
          prev;
        (match st with
        | None -> ()
        | Some st ->
            Hashtbl.iter
              (fun idx payload -> Hashtbl.replace crcs idx (Crc32.of_bytes payload))
              st.s_pages);
        let pages =
          Hashtbl.fold (fun idx crc acc -> (idx, crc) :: acc) crcs []
          |> List.sort compare
        in
        (oid, kind, meta, pages) :: acc
      end)
    oids []
  |> List.sort compare

(* Delta-aware manifest entries: the same composed state as
   [staging_manifest_source], summarized.  Carried objects cost O(1) via
   the manifest-row cache; staged objects pay only for the leaves their
   dirty pages touch.  This is what makes the manifest affordable when an
   incremental checkpoint skips most of the group: the full source walk
   is O(union of all objects' pages). *)
let staging_manifest_entries t =
  let s = staging_exn t in
  let prev_table = head_table t in
  let acc = ref [] in
  let add (e : Manifest.entry) = if e.me_kind <> Manifest.kind then acc := e :: !acc in
  Hashtbl.iter
    (fun oid v -> if not (Hashtbl.mem s oid) then add (committed_row t oid v))
    prev_table;
  Hashtbl.iter
    (fun oid st ->
      let prev = Hashtbl.find_opt prev_table oid in
      let base =
        match prev with Some v -> committed_row t oid v | None -> zero_row
      in
      let fp = ref base.me_pages_crc and npages = ref base.me_pages in
      if Hashtbl.length st.s_pages > 0 then begin
        (* Group the staged page indexes per leaf so each touched leaf of
           the previous version is walked once to fold out the entries the
           staged pages replace. *)
        let by_leaf = Hashtbl.create 8 in
        Hashtbl.iter
          (fun idx _ ->
            let l = idx / leaf_span in
            let idxs =
              match Hashtbl.find_opt by_leaf l with
              | Some idxs -> idxs
              | None ->
                  let idxs = Hashtbl.create 16 in
                  Hashtbl.replace by_leaf l idxs;
                  idxs
            in
            Hashtbl.replace idxs idx ())
          st.s_pages;
        Hashtbl.iter
          (fun leaf_idx idxs ->
            match prev with
            | None -> ()
            | Some v -> (
                match IntMap.find_opt leaf_idx v.v_leaves with
                | None -> ()
                | Some blk ->
                    List.iter
                      (fun p ->
                        if Hashtbl.mem idxs p.p_idx then begin
                          fp := !fp lxor Manifest.page_fp p.p_idx p.p_crc;
                          decr npages
                        end)
                      (leaf_entries t ~charged:false blk)))
          by_leaf;
        Hashtbl.iter
          (fun idx payload ->
            fp := !fp lxor Manifest.page_fp idx (Crc32.of_bytes payload);
            incr npages)
          st.s_pages
      end;
      add
        {
          me_oid = oid;
          me_kind = (if st.s_kind <> "" then st.s_kind else base.me_kind);
          me_meta_crc =
            (if st.s_meta <> "" then Crc32.of_string st.s_meta else base.me_meta_crc);
          me_pages = !npages;
          me_pages_crc = !fp;
        })
    s;
  List.sort (fun a b -> compare a.Manifest.me_oid b.Manifest.me_oid) !acc

(* One stable manifest oid per store: the one the head epoch's manifest
   carries, so a restored or failed-over store keeps writing its manifest
   where it found it. *)
let manifest_oid t =
  match Option.map manifest_oids (last_epoch_info t) with
  | Some (oid :: _) -> oid
  | Some [] | None -> alloc_oid t

(* Stage the epoch's manifest as the last object before commit, so the
   manifest is part of the very epoch it describes. *)
let put_manifest t ~oid =
  let entries = staging_manifest_entries t in
  let m =
    {
      Manifest.m_epoch = t.staging_epoch;
      m_count = List.length entries;
      m_entries = entries;
    }
  in
  reserve_oids t ~upto:oid;
  put_object t ~oid ~kind:Manifest.kind ~meta:(Wire.to_string Manifest.codec m);
  m

let manifest t ~epoch =
  match manifest_oids (epoch_info t epoch) with
  | [] -> Error (Printf.sprintf "epoch %d carries no manifest" epoch)
  | moid :: _ -> (
      match Manifest.of_string (read_meta t ~epoch ~oid:moid) with
      | Ok m -> Ok (moid, m)
      | Error msg -> Error ("manifest unreadable: " ^ msg))

(* The check order and reason strings are part of the contract (see the
   .mli); the last check re-reads the payloads on disk, not just the CRCs
   the leaves recorded at write time. *)
let verify_epoch t ~epoch ~check_meta =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  try
    let e = epoch_info t epoch in
    match manifest_oids e with
    | [] -> Error "no manifest object"
    | _ :: _ :: _ -> Error "several manifest objects"
    | [ moid ] -> (
        let objects = Hashtbl.length e.e_table - 1 in
        match Manifest.of_string (Hashtbl.find e.e_table moid).v_meta with
        | Error msg -> Error ("malformed manifest: " ^ msg)
        | Ok m when m.Manifest.m_epoch <> epoch ->
            fail "manifest written for epoch %d, found in epoch %d" m.Manifest.m_epoch epoch
        | Ok m when objects <> m.Manifest.m_count ->
            fail "epoch holds %d objects, manifest says %d" objects m.Manifest.m_count
        | Ok m ->
            let check (me : Manifest.entry) =
              let oid = me.Manifest.me_oid in
              match if oid = moid then None else Hashtbl.find_opt e.e_table oid with
              | None -> fail "oid %d named but absent" oid
              | Some v when v.v_kind <> me.Manifest.me_kind ->
                  fail "oid %d is %S, manifest says %S" oid v.v_kind me.Manifest.me_kind
              | Some v when Crc32.of_string v.v_meta <> me.Manifest.me_meta_crc ->
                  fail "oid %d metadata CRC mismatch" oid
              | Some v -> (
                  let crcs = page_crcs t ~epoch ~oid in
                  let npages = List.length crcs in
                  if npages <> me.Manifest.me_pages then
                    fail "oid %d has %d pages, manifest says %d" oid npages me.Manifest.me_pages
                  else if Manifest.fingerprint crcs <> me.Manifest.me_pages_crc then
                    fail "oid %d page-set fingerprint mismatch" oid
                  else
                    match check_meta ~kind:v.v_kind v.v_meta with
                    | Error msg -> fail "oid %d metadata unparseable: %s" oid msg
                    | Ok () -> (
                        let want = Hashtbl.create npages in
                        List.iter (fun (idx, crc) -> Hashtbl.replace want idx crc) crcs;
                        let corrupt (idx, payload) =
                          match Hashtbl.find_opt want idx with
                          | Some crc -> Crc32.of_bytes payload <> crc
                          | None -> true
                        in
                        match List.find_opt corrupt (read_pages t ~epoch ~oid) with
                        | Some (idx, _) -> fail "oid %d page %d payload corrupt" oid idx
                        | None -> Ok ()))
            in
            let rec all = function
              | [] -> Ok m
              | me :: rest -> ( match check me with Ok () -> all rest | Error _ as err -> err)
            in
            all m.Manifest.m_entries)
  with
  | Corrupt_store msg -> Error ("corrupt store: " ^ msg)
  | Aurora_block.Fault.Io_error msg -> Error ("read failed: " ^ msg)
  | Failure msg -> Error msg

(* Deliberate-corruption knobs, torture-harness counterparts of
   [set_torture_misorder]: they exist so the negative-control tests can
   prove that manifest verification and epoch fallback actually fire. *)

let corrupt_meta_for_tests t ~epoch ~oid =
  let e = epoch_info t epoch in
  match Hashtbl.find_opt e.e_table oid with
  | None -> raise (Corrupt_store (Printf.sprintf "oid %d not in epoch %d" oid epoch))
  | Some v ->
      let meta =
        if v.v_meta = "" then "\x01"
        else begin
          let b = Bytes.of_string v.v_meta in
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
          Bytes.to_string b
        end
      in
      (* Version records are shared across epoch tables by commit's
         table copy; replacing the binding corrupts this epoch only. *)
      Hashtbl.replace e.e_table oid { v with v_meta = meta }

let corrupt_page_for_tests t ~epoch ~oid =
  let v = version_exn t ~epoch ~oid in
  let entry =
    IntMap.fold
      (fun _ leaf_blk acc ->
        match acc with
        | Some _ -> acc
        | None -> (
            match leaf_entries t ~charged:false leaf_blk with
            | e :: _ -> Some e
            | [] -> None))
      v.v_leaves None
  in
  match entry with
  | None -> invalid_arg "Store.corrupt_page_for_tests: object has no pages"
  | Some p ->
      let garbage =
        Bytes.init (max p.p_clen 1) (fun i -> Char.chr ((i * 7 + 0xEE) land 0xFF))
      in
      let c =
        Striped.write t.dev ~now:(Clock.now t.clk)
          ~off:(off_of_block p.p_blk + p.p_off)
          garbage
      in
      Clock.advance_to t.clk c
