module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Crc32 = Aurora_util.Crc32
module Hash64 = Aurora_util.Hash64
module Rle = Aurora_util.Rle
module Striped = Aurora_block.Striped
module Fault = Aurora_block.Fault
module IntMap = Map.Make (Int)
module Otrace = Aurora_obs.Trace
open Store_format

exception Corrupt_store = Store_format.Corrupt_store

let block_size = block_size
let leaf_span = leaf_span
let decode = decode

(* Largest coalesced extent, in blocks (Cost.nvme_max_extent_bytes). *)
let max_extent_blocks = max 1 (Cost.nvme_max_extent_bytes / block_size)

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
  mutable v_row : Manifest.entry option; (* its manifest row, once known ([committed_row]) *)
}

type epoch_info = {
  e_epoch : int;
  e_record_block : int;
  e_record_nblocks : int;
  e_manifest : int * int * int; (* (block, offset, length) of its manifest's bytes *)
  mutable e_versions : versions;
}

(* An epoch's version table, oid -> version: an immutable map that a
   commit extends from its parent's, so retained epochs share structure
   and every version value an unchanged object carries, with the epoch's
   manifest as its [Manifest.codec] bytes, parsed only by a check.  A
   recovered store keeps an older epoch's checkpoint-record entries
   [(oid, blk, off, len)] until the epoch's first use loads them and its
   manifest ([contents]). *)
and versions = Loaded of version IntMap.t * string | Listed of (int * int * int * int) list

type staged = {
  mutable s_kind : string;
  mutable s_meta : string;
  s_pages : (int, bytes) Hashtbl.t; (* page index -> newest payload *)
}

type journal = Journal.t

(* Blocks freed together, waiting for their discard.  The durable
   superblock already names none of them; they may leave the device once
   the next superblock is acknowledged durable.  [ready] is that
   superblock's completion, [max_int] until it is written. *)
type discard_batch = { mutable ready : int; blocks : int list }

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

(* The manifest row of an object with no committed version.  Each
   version carries its row (see [committed_row]), so composing a manifest
   never re-walks the leaves of carried (unchanged) objects. *)
let zero_row =
  { Manifest.me_oid = 0; me_kind = "memory"; me_meta_crc = 0; me_pages = 0; me_pages_crc = 0 }

(* [(oid, kind, meta, (page index, payload) list)] per object, as
   [read_delta] returns it. *)
type delta = (int * string * string * (int * bytes) list) list

(* The one location rule: leaf and data blocks are copy-on-write, so two
   entries at the same (block, offset, stored length) hold the same bytes
   while either epoch keeps them live. *)
let same_location p q = p.p_blk = q.p_blk && p.p_off = q.p_off && p.p_clen = q.p_clen

(* A live item: what a block's reference count counts. *)
type item =
  | Record of epoch_info (* a retained checkpoint record, and its manifest's bytes *)
  | Version of version (* a distinct version record *)
  | Leaf of int * leaf_entry list (* a distinct leaf block, with its entries *)
  | Journal of journal

(* The one block-coverage rule, [f b] for every block an item covers:
   commit, journal creation and recovery count with it, the oracle
   recounts with it and prune uncounts with it.  A leaf covers its own
   block and, through each entry, every block the entry's stored bytes
   touch. *)
let covers item f =
  match item with
  | Record e ->
      span_blocks e.e_record_block 0 (e.e_record_nblocks * block_size) f;
      let blk, off, len = e.e_manifest in
      span_blocks blk off len f
  | Version v -> span_blocks v.v_blk v.v_off v.v_len f
  | Leaf (blk, entries) ->
      f blk;
      List.iter (fun p -> span_blocks p.p_blk p.p_off p.p_clen f) entries
  | Journal j ->
      let start, blocks = Journal.extent j in
      span_blocks start 0 (blocks * block_size) f

type t = {
  dev : Striped.t;
  clk : Clock.t;
  alloc : Allocator.t;
      (* frontier, free set and per-block counts of the live items
         covering each block (see [covers]): commit and journal creation
         count what they write, prune uncounts what died and frees a
         block at zero, [settle] counts from scratch *)
  leaves : Leaf_cache.t;
  index : Content_index.t;
  mutable journals : Journal.registry;
  mutable next_oid : int;
  mutable packed : bool;
      (* content-addressed packed layout (dedup index + RLE coding +
         packed extents); false is the pre-dedup block-per-page layout *)
  mutable epochs : epoch_info list; (* oldest first *)
  mutable unsettled : (int * int, int * version) Hashtbl.t option;
      (* a recovered store until [settle]: every version loaded so far, as
         (blk, off) -> (oid, version), so an older epoch's first use reads
         only the versions no loaded epoch shares.  None once settled, and
         on a formatted store. *)
  mutable kept : (int * int * delta) option;
      (* (parent, epoch, delta) of the last commit: its delta against the
         head it committed over, from the staged bytes, until the next
         commit ([read_delta]).  None before a commit with a parent, and
         on a recovered store until it commits. *)
  mutable current_epoch : int;
  mutable staging : (int, staged) Hashtbl.t option;
  mutable staging_epoch : int;
  mutable staging_next_oid : int; (* [next_oid] at begin_checkpoint *)
  mutable durable : int; (* completion time of the last superblock write *)
  mutable discards : discard_batch list;
      (* freed blocks not yet discarded, oldest batch first: the rule
         is one superblock behind the one that stopped naming them
         ([defer_discards], [issue_discards]) *)
  mutable oldest_retained : int; (* chain-walk bound after pruning; 0 = all *)
  mutable window : flush_stats;
      (* the open flush window, from begin_checkpoint: the packer and the
         CPU pass add to it as they go, and the lifetime counters of the
         device, the allocator and the leaf cache enter it as differences
         ([with_lifetime]); commit_checkpoint closes it into [last_flush] *)
  mutable last_flush : flush_stats;
  (* Transient-read-error policy: a charged read that raises
     Fault.Io_error is retried up to [read_retries] times, backing off
     exponentially from [read_backoff] ns of virtual time. *)
  mutable read_retries : int;
  mutable read_backoff : int;
  mutable read_faults : int;
  (* DELIBERATE BUG KNOB, for torture-harness validation only: submit the
     superblock at commit start instead of after the checkpoint record
     completes, breaking the data -> record -> superblock write ordering. *)
  mutable torture_misorder : bool;
}

let last_epoch_info t =
  match List.rev t.epochs with [] -> None | e :: _ -> Some e

(* Directory entries that fit in the superblock's block beside
   [journals] journals: the magic, the four counters and the two list
   counts take 52 bytes, a journal 32 and an entry 12.  The head is
   always listed. *)
let directory_capacity ~journals = max 1 ((block_size - 52 - (32 * journals)) / 12)

(* The superblock over the retained epochs: their records, newest first,
   as many as fit.  With no epoch retained, [oldest_retained] is the
   newest epoch ever committed (0, or the last one a prune dropped), so a
   recovered store numbers its epochs above every record the chain bound
   stops at. *)
let write_superblock t ~now =
  let sb_journals = Journal.entries t.journals in
  let listed = directory_capacity ~journals:(List.length sb_journals) in
  let newest_first = List.rev t.epochs in
  let sb_epoch = match newest_first with e :: _ -> e.e_epoch | [] -> t.oldest_retained in
  let c =
    Striped.write t.dev ~now ~off:(off_of_block superblock_block)
      (Wire.encode superblock_codec
         {
           sb_epoch;
           sb_next_block = Allocator.frontier t.alloc;
           sb_next_oid = t.next_oid;
           sb_oldest_retained = t.oldest_retained;
           sb_records =
             List.filteri (fun i _ -> i < listed)
               (List.map (fun e -> (e.e_record_block, e.e_record_nblocks)) newest_first);
           sb_journals;
         })
  in
  List.iter (fun d -> if d.ready = max_int then d.ready <- c) t.discards;
  c

(* The superblock, written synchronously. *)
let sync_superblock t = Clock.advance_to t.clk (write_superblock t ~now:(Clock.now t.clk))

(* Freed blocks leave the device one superblock behind: [blocks], freed
   and named by no superblock written since, wait until the next
   superblock is acknowledged durable.  Until then the device's durable
   superblock may still name them, as when the one that stopped naming
   them is lost.  A block freed again is only in its newest batch, so an
   older batch never discards it early. *)
let defer_discards t blocks =
  if blocks <> [] then begin
    if t.discards <> [] then begin
      let refreed = Hashtbl.create (List.length blocks) in
      List.iter (fun b -> Hashtbl.replace refreed b ()) blocks;
      t.discards <-
        List.map
          (fun d -> { d with blocks = List.filter (fun b -> not (Hashtbl.mem refreed b)) d.blocks })
          t.discards
    end;
    t.discards <- t.discards @ [ { ready = max_int; blocks } ]
  end

(* Discard, at the clock's time, every batch whose superblock is
   acknowledged durable by now, contiguous blocks as one range.  A block
   an allocation holds again is skipped: its new bytes stay. *)
let issue_discards t =
  let now = Clock.now t.clk in
  let ready, waiting = List.partition (fun d -> d.ready <= now) t.discards in
  if ready <> [] then begin
    t.discards <- waiting;
    let runs =
      List.fold_left
        (fun runs b ->
          match runs with
          | (first, n) :: rest when b = first + n -> (first, n + 1) :: rest
          | _ -> (b, 1) :: runs)
        []
        (List.filter (Allocator.is_free t.alloc)
           (List.sort Int.compare (List.concat_map (fun d -> d.blocks) ready)))
    in
    List.iter
      (fun (first, n) ->
        Striped.discard t.dev ~now ~off:(off_of_block first) ~len:(n * block_size))
      (List.rev runs)
  end

(* The latest of [now] and the arrivals of a batch's ranges. *)
let last_arrival now arrived = Array.fold_left (fun m (c, _) -> max m c) now arrived

(* Charged reads of byte ranges [(off, len)], submitted at [now] as one
   vectored batch without waiting, with each range's arrival and result.
   Transient errors are retried per range: only the ranges that failed
   are resubmitted, once the batch's last read has arrived and a backoff
   has passed, up to [read_retries] times, backing off exponentially from
   [read_backoff] ns of virtual time.  A range in retry round r failed in
   every earlier round, so r is its own attempt count.  A range that
   keeps failing is left as its last error, arriving with its last
   attempt. *)
let submit_ranges t ~now ranges =
  let out = Array.make (Array.length ranges) (now, Ok Bytes.empty) in
  let rec go pending now attempt backoff =
    let arrived = Striped.submit_vec t.dev ~now (Array.map (fun i -> ranges.(i)) pending) in
    let failed = ref [] in
    Array.iteri
      (fun k r ->
        out.(pending.(k)) <- r;
        if Result.is_error (snd r) then failed := pending.(k) :: !failed)
      arrived;
    if !failed <> [] && attempt < t.read_retries then begin
      t.read_faults <- t.read_faults + List.length !failed;
      go (Array.of_list (List.rev !failed)) (last_arrival now arrived + backoff) (attempt + 1)
        (2 * backoff)
    end
  in
  go (Array.init (Array.length ranges) Fun.id) now 0 t.read_backoff;
  out

(* [submit_ranges] at the clock's time, waiting for the last arrival;
   any range that keeps failing surfaces its error, the first in range
   order. *)
let read_ranges t ranges =
  let arrived = submit_ranges t ~now:(Clock.now t.clk) ranges in
  Clock.advance_to t.clk (last_arrival (Clock.now t.clk) arrived);
  Array.map (function _, Ok data -> data | _, Error msg -> raise (Fault.Io_error msg)) arrived

let read_range t ~off ~len = (read_ranges t [| (off, len) |]).(0)

let read_blocks t ~blk ~nblocks =
  read_range t ~off:(off_of_block blk) ~len:(nblocks * block_size)

(* Version tables ------------------------------------------------------------ *)

(* A location read off the device must name blocks below the [frontier]
   the superblock names. *)
let check_extent ~frontier what blk nblocks =
  if blk <= superblock_block || nblocks < 1 || blk + nblocks > frontier then
    raise
      (Corrupt_store
         (Printf.sprintf "%s at block %d (+%d) outside the store (%d blocks)" what blk
            nblocks frontier))

(* A byte range [(blk, off, len)] read off the device, a version record
   or a manifest, must start inside its first block, hold a byte, and end
   below the [frontier]. *)
let check_range ~frontier what (blk, off, len) =
  if off >= block_size || len < 1 then
    raise
      (Corrupt_store (Printf.sprintf "%s at block %d: offset %d, length %d" what blk off len));
  check_extent ~frontier what blk (span_end blk off len - blk + 1)

(* The distinct byte ranges [locs], each sliced out at its offset, read
   in one charged vectored batch (in a [span] with its ranges and bytes,
   when named): the blocks covering them coalesce into runs of at most
   [max_extent_blocks] (ranges sharing a block or in adjacent blocks join
   one run), each read once. *)
let read_packed ?span t locs =
  let todo = Array.of_list (List.sort_uniq compare locs) in
  let last k =
    let blk, off, len = todo.(k) in
    span_end blk off len
  in
  let n = Array.length todo in
  let runs = ref [] and i = ref 0 in
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
    runs := (!i, !j, base, !run_end - base + 1) :: !runs;
    i := !j
  done;
  let runs = Array.of_list (List.rev !runs) in
  let read () =
    read_ranges t
      (Array.map (fun (_, _, base, nblocks) -> (off_of_block base, nblocks * block_size)) runs)
  in
  let data =
    match span with
    | None -> read ()
    | Some name ->
        let bytes =
          Array.fold_left (fun n (_, _, _, nblocks) -> n + (nblocks * block_size)) 0 runs
        in
        Otrace.with_span ~cat:"store" ~name
          ~args:[ ("ranges", Otrace.Int (Array.length runs)); ("bytes", Otrace.Int bytes) ]
          read
  in
  let got = Hashtbl.create n in
  Array.iteri
    (fun r (first, stop, base, _) ->
      for k = first to stop - 1 do
        let ((blk, off, len) as loc) = todo.(k) in
        Hashtbl.replace got loc (Bytes.sub data.(r) (((blk - base) * block_size) + off) len)
      done)
    runs;
  got

(* Give the [Listed] epochs of [es] their tables and manifests: every
   entry is checked first, then the manifests and the versions [loaded]
   lacks are read in one batch ([read_packed]), each version is added to
   [loaded] by (blk, off), and the tables share version values with every
   epoch loaded before, as they did before the crash.  Every entry must
   name a version of its oid and length, else [Corrupt_store], and then
   no epoch of [es] changes.  Returns the versions read. *)
let load_tables ?span t loaded es =
  let listed =
    List.filter_map
      (fun e -> match e.e_versions with Listed l -> Some (e, l) | Loaded _ -> None)
      es
  in
  let frontier = Allocator.frontier t.alloc in
  let wanted =
    List.concat_map
      (fun (_, entries) ->
        List.filter_map
          (fun (_, blk, off, len) ->
            check_range ~frontier "version record" (blk, off, len);
            if Hashtbl.mem loaded (blk, off) then None else Some (blk, off, len))
          entries)
      listed
    |> List.sort_uniq compare
  in
  let got = read_packed ?span t (List.map (fun (e, _) -> e.e_manifest) listed @ wanted) in
  List.iter
    (fun ((blk, off, len) as loc) ->
      let vr = decode "version record" version_codec (Hashtbl.find got loc) in
      Hashtbl.replace loaded (blk, off)
        (vr.vr_oid, { v_kind = vr.vr_kind; v_meta = vr.vr_meta; v_blk = blk; v_off = off;
                      v_len = len; v_leaves = IntMap.of_seq (List.to_seq vr.vr_leaves);
                      v_row = None }))
    wanted;
  let tables =
    List.map
      (fun (e, entries) ->
        ( e,
          List.fold_left
            (fun table (oid, blk, off, len) ->
              let v_oid, v = Hashtbl.find loaded (blk, off) in
              if v_oid <> oid || v.v_len <> len then raise (Corrupt_store "version/oid mismatch");
              IntMap.add oid v table)
            IntMap.empty entries,
          Bytes.to_string (Hashtbl.find got e.e_manifest) ))
      listed
  in
  List.iter (fun (e, table, manifest) -> e.e_versions <- Loaded (table, manifest)) tables;
  List.length wanted

(* An epoch's version table and manifest bytes, loaded on first use
   (charged). *)
let rec contents t e =
  match e.e_versions with
  | Loaded (table, manifest) -> (table, manifest)
  | Listed _ ->
      ignore (load_tables t (Option.get t.unsettled) [ e ]);
      contents t e

let table t e = fst (contents t e)

let head_table t =
  match last_epoch_info t with Some e -> table t e | None -> IntMap.empty

(* The leaf blocks of version [v], pushed onto [acc]. *)
let leaf_blocks v acc = IntMap.fold (fun _ blk acc -> blk :: acc) v.v_leaves acc

(* [Leaf_cache.resident] on the store's clock and read policy. *)
let resident_leaves t blks = Leaf_cache.resident t.leaves t.clk ~submit:(submit_ranges t) blks

(* [(page index, CRC-32)] of a version's stored pages, unsorted, off its
   leaves without a charge. *)
let version_crcs t v =
  IntMap.fold
    (fun _ leaf_blk acc ->
      List.fold_left
        (fun acc p -> (p.p_idx, p.p_crc) :: acc)
        acc (Leaf_cache.entries t.leaves leaf_blk))
    v.v_leaves []

(* Live items ------------------------------------------------------------------ *)

let version_key v = (v.v_blk * block_size) + v.v_off

(* Each distinct item of [epochs] that [except] does not hold, as [f item]:
   each epoch's checkpoint record, then each of its versions in oid
   order, and each of their leaves, not visited before, with the entries
   [leaf] gives.  Epochs share the versions their commits carried, so the
   same version, and the same leaf block, appears under several epochs;
   each is visited once.  A version [except] holds under the same oid,
   and a leaf it holds at the same index, is skipped. *)
let walk_items t ~leaf ~except epochs f =
  let versions = Hashtbl.create 1024 and leaves = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      f (Record e);
      IntMap.iter
        (fun oid v ->
          let keeper = IntMap.find_opt oid except in
          let key = version_key v in
          let held = match keeper with Some k -> version_key k = key | None -> false in
          if not (held || Hashtbl.mem versions key) then begin
            Hashtbl.replace versions key ();
            f (Version v);
            IntMap.iter
              (fun idx blk ->
                let held =
                  match Option.bind keeper (fun k -> IntMap.find_opt idx k.v_leaves) with
                  | Some b -> b = blk
                  | None -> false
                in
                if not (held || Hashtbl.mem leaves blk) then begin
                  Hashtbl.replace leaves blk ();
                  f (Leaf (blk, leaf blk))
                end)
              v.v_leaves
          end)
        (table t e))
    epochs

(* Every item the journals and the retained epochs hold, once each, with
   [leaf]'s entries: [settle] counts blocks and indexes entries with this
   walk, and [content_index_consistent] recounts with it. *)
let iter_items t ~leaf f =
  List.iter (fun j -> f (Journal j)) (Journal.all t.journals);
  walk_items t ~leaf ~except:IntMap.empty t.epochs f

let leaf_entries_of item note = match item with Leaf (_, es) -> List.iter note es | _ -> ()

(* The deferred half of recovery, run once, at the first call that
   writes or reads the derived state ([begin_checkpoint],
   [prune_history], [journal_create], [set_packed_layout],
   [blocks_allocated], [content_index_size], [content_index_consistent]),
   on the store's clock.  It loads the older epochs' versions in one
   charged batch, reads every distinct leaf the retained epochs hold that
   is not resident in one more, and only once every leaf has parsed
   counts the blocks every item covers and rebuilds the content index
   from the durable leaves, so dedup after a crash only ever references
   durable pages.  It writes nothing: a crash during it leaves the device
   as recovery found it, and a read or parse that fails raises and
   leaves the pass to the next call.  Traced as a [store/settle]
   complete event with the versions it loaded, the leaves it counted and
   the bytes it read. *)
let settle t =
  match t.unsettled with
  | None -> ()
  | Some loaded ->
      let ts = Clock.now t.clk and read0 = Striped.bytes_read t.dev in
      let versions = load_tables t loaded t.epochs in
      let blks = ref [] in
      walk_items t ~leaf:(fun _ -> []) ~except:IntMap.empty t.epochs (function
        | Leaf (blk, _) -> blks := blk :: !blks
        | _ -> ());
      let leaf = resident_leaves t !blks in
      (* A leaf that does not parse raises here, before anything is counted. *)
      List.iter (fun blk -> ignore (leaf blk)) !blks;
      let uncounted = ref [] in
      Content_index.rebuild t.index (fun note ->
          uncounted :=
            Allocator.recount t.alloc (fun count ->
                iter_items t ~leaf (fun item ->
                    covers item count;
                    leaf_entries_of item note)));
      (* The durable superblock recovery read names none of them. *)
      defer_discards t !uncounted;
      t.unsettled <- None;
      if Otrace.is_on () then
        Otrace.complete ~ts ~dur:(Clock.now t.clk - ts) ~cat:"store" "settle"
          ~args:
            [
              ("versions", Otrace.Int versions);
              ("leaves", Otrace.Int (List.length !blks));
              ("bytes", Otrace.Int (Striped.bytes_read t.dev - read0));
            ]

(* Lifecycle ------------------------------------------------------------------ *)

let fresh dev clk =
  {
    dev;
    clk;
    alloc = Allocator.create ();
    leaves = Leaf_cache.create dev;
    index = Content_index.create ();
    journals = Journal.registry [];
    next_oid = 0;
    packed = true;
    epochs = [];
    unsettled = None;
    kept = None;
    current_epoch = 0;
    staging = None;
    staging_epoch = 0;
    staging_next_oid = 0;
    durable = 0;
    discards = [];
    oldest_retained = 0;
    window = empty_flush_stats;
    last_flush = empty_flush_stats;
    read_retries = 4;
    read_backoff = 20_000;
    read_faults = 0;
    torture_misorder = false;
  }

let format ~dev ~clock =
  let t = fresh dev clock in
  Clock.advance_to clock (write_superblock t ~now:(Clock.now clock));
  Striped.settle dev ~clock;
  t

let clock t = t.clk
let device t = t.dev

let alloc_oid t =
  t.next_oid <- t.next_oid + 1;
  t.next_oid

let reserve_oids t ~upto = if upto > t.next_oid then t.next_oid <- upto

let blocks_of_len len = max 1 ((len + block_size - 1) / block_size)

(* The one placement routine for what a commit writes, its checkpoint
   record aside: page payloads, radix leaves and version records.
   [place] returns an item's (block, byte offset) at once.  The open
   extent is sealed before an item that would push it past
   [Cost.nvme_max_extent_bytes], so an item never straddles two
   separately allocated extents and every stored page is
   device-contiguous.  A sealed extent is carved from the frontier, which
   its locations assumed when its first item was placed: nothing else may
   allocate between a run's first placement and its seal.  Byte-packed
   items lie back to back and an extent goes out as one [Striped.write];
   block-aligned items (leaves, and pages in the block-per-page layout)
   start a block each and an extent goes out as one [Striped.write_vec]. *)
type packer = {
  pk_store : t;
  pk_aligned : bool;
  mutable pk_base : int; (* the frontier at the open extent's first item *)
  mutable pk_fill : int; (* bytes placed in the open extent *)
  mutable pk_items : (int * bytes) list; (* its (byte offset, item), newest first *)
  mutable pk_sealed : (int * int * (int * bytes) list) list;
      (* (first block, bytes, items ascending) per sealed extent, newest first *)
}

let packer t ~aligned =
  { pk_store = t; pk_aligned = aligned; pk_base = 0; pk_fill = 0; pk_items = []; pk_sealed = [] }

let seal k =
  if k.pk_items <> [] then begin
    let t = k.pk_store in
    let nblocks = blocks_of_len k.pk_fill in
    let base = Allocator.alloc_extent t.alloc nblocks in
    assert (base = k.pk_base);
    let w = t.window in
    t.window <-
      {
        w with
        fs_extents = w.fs_extents + 1;
        fs_extent_blocks = w.fs_extent_blocks + nblocks;
        fs_coalesced_bytes = w.fs_coalesced_bytes + k.pk_fill;
      };
    k.pk_sealed <- (base, k.pk_fill, List.rev k.pk_items) :: k.pk_sealed;
    k.pk_fill <- 0;
    k.pk_items <- []
  end

let place k item =
  let len = Bytes.length item in
  let len = if k.pk_aligned then blocks_of_len len * block_size else len in
  if k.pk_items <> [] && k.pk_fill + len > Cost.nvme_max_extent_bytes then seal k;
  if k.pk_items = [] then k.pk_base <- Allocator.frontier k.pk_store.alloc;
  let off = k.pk_fill in
  k.pk_items <- (off, item) :: k.pk_items;
  k.pk_fill <- off + len;
  (k.pk_base + (off / block_size), off mod block_size)

(* Seal the open extent and write every sealed one, submitted at [now];
   returns the latest completion, [now] when nothing was placed. *)
let submit k ~now =
  seal k;
  let t = k.pk_store in
  let write c (base, len, items) =
    let off = off_of_block base in
    max c
      (if k.pk_aligned then Striped.write_vec t.dev ~now ~off ~len (Array.of_list items)
       else begin
         let buf = Bytes.create len in
         List.iter (fun (o, item) -> Bytes.blit item 0 buf o (Bytes.length item)) items;
         Striped.write t.dev ~now ~off buf
       end)
  in
  let c = List.fold_left write now (List.rev k.pk_sealed) in
  k.pk_sealed <- [];
  c

(* Write a variable-length record into freshly allocated contiguous blocks;
   returns (first block, completion time, blocks used). *)
let write_record t ~now data =
  let n = blocks_of_len (Bytes.length data) in
  let blk = if n = 1 then Allocator.alloc_block t.alloc else Allocator.alloc_extent t.alloc n in
  let c = Striped.write t.dev ~now ~off:(off_of_block blk) data in
  (blk, c, n)

(* [w] with [k] times the lifetime counts of the device's writes, the
   allocator's calls and the leaf cache's lookups added: a window opens
   at minus them ([k = -1]) and closes by adding them back. *)
let with_lifetime t k w =
  {
    w with
    fs_dev_writes = w.fs_dev_writes + (k * Striped.write_ops t.dev);
    fs_bytes_written = w.fs_bytes_written + (k * Striped.bytes_written t.dev);
    fs_leaf_hits = w.fs_leaf_hits + (k * Leaf_cache.hits t.leaves);
    fs_leaf_misses = w.fs_leaf_misses + (k * Leaf_cache.misses t.leaves);
    fs_alloc_calls = w.fs_alloc_calls + (k * Allocator.calls t.alloc);
  }

let begin_checkpoint t =
  if t.staging <> None then invalid_arg "Store.begin_checkpoint: already staging";
  settle t;
  (* Housekeeping: discard what is due, then fold already-durable writes
     and discards into the committed device state so the in-flight lists
     stay short on long runs. *)
  issue_discards t;
  Striped.apply_durable t.dev ~now:(Clock.now t.clk);
  t.current_epoch <- t.current_epoch + 1;
  t.staging <- Some (Hashtbl.create 64);
  t.staging_epoch <- t.current_epoch;
  t.staging_next_oid <- t.next_oid;
  t.window <- with_lifetime t (-1) { empty_flush_stats with fs_epoch = t.current_epoch };
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

let class_bandwidth = function
  | Rle.Zero -> Cost.compress_zero_bandwidth
  | Rle.Text -> Cost.compress_text_bandwidth
  | Rle.Binary -> Cost.compress_binary_bandwidth
  | Rle.Random -> Cost.compress_random_bandwidth

(* Merge staged dirty pages into the previous version's leaves.  One CPU
   pass gives every page its final leaf entry: it hashes the payload and
   probes the content-addressed index (a hit — same hash, original length
   and CRC — is a leaf reference to the already-stored bytes and is never
   re-flushed), and RLE-codes, places and indexes a miss at once, so a
   later identical page, in this object or a later one of the same
   commit, hits the index.  The placed payloads are submitted only once
   that CPU work is done, so the flush window models compress-then-write.
   Only the touched leaves are rebuilt (from the leaf cache when warm) and
   go out as coalesced extents. *)
(* Besides the merged leaves, data completion time and the CPU-pass end
   time (threaded into the next object's submissions: one flush thread),
   returns the object's manifest deltas: the XOR-fold fingerprint
   adjustment (replaced carried entries folded out, fresh entries folded
   in) and the net page-count change, so commit can give the new version
   its manifest row without re-walking untouched leaves.  Last come the
   moved pages with their staged payloads, by index: every fresh entry
   but one that replaces a carried entry at its own location, which is
   [read_delta]'s rule. *)
let build_version t ~now ~prev st =
  let prev_leaves = match prev with Some v -> v.v_leaves | None -> IntMap.empty in
  let npages = Hashtbl.length st.s_pages in
  if npages = 0 then (prev_leaves, now, now, 0, 0, [])
  else begin
    (* 1. Sort the fresh pages in place (no list churn on the hot path). *)
    let fresh = Array.make npages (0, Bytes.empty) in
    let fill = ref 0 in
    Hashtbl.iter
      (fun idx payload ->
        fresh.(!fill) <- (idx, payload);
        incr fill)
      st.s_pages;
    Array.sort (fun (a, _) (b, _) -> compare (a : int) b) fresh;
    (* 2. CPU pass: hash, dedup-probe, compress and place.  With the
       packed layout off the legacy block-per-page layout (and its
       full-block device charge) is kept, as the pre-dedup baseline. *)
    let cpu = ref now and deduped = ref 0 and comp_in = ref 0 and comp_out = ref 0 in
    let data = packer t ~aligned:(not t.packed) in
    let entries =
      Array.map
        (fun (idx, payload) ->
          let olen = Bytes.length payload in
          let crc = Crc32.of_bytes payload in
          let hash = Hash64.of_bytes payload in
          let stored_as stored comp =
            comp_in := !comp_in + olen;
            comp_out := !comp_out + Bytes.length stored;
            let blk, off = place data stored in
            { p_idx = idx; p_blk = blk; p_off = off; p_clen = Bytes.length stored; p_olen = olen;
              p_comp = comp; p_crc = crc; p_hash = hash }
          in
          if not t.packed then stored_as payload false
          else begin
            cpu := !cpu + Cost.transfer_time ~bandwidth:Cost.page_hash_bandwidth olen;
            match Content_index.probe t.index ~hash ~olen ~crc with
            | Some e ->
                incr deduped;
                { e with p_idx = idx }
            | None ->
                cpu :=
                  !cpu
                  + Cost.transfer_time ~bandwidth:(class_bandwidth (Rle.classify payload)) olen;
                let e =
                  match Rle.compress payload with
                  | Some c -> stored_as c true
                  | None -> stored_as payload false
                in
                Content_index.insert t.index e;
                e
          end)
        fresh
    in
    let w = t.window in
    t.window <-
      {
        w with
        fs_pages = w.fs_pages + npages;
        fs_pages_deduped = w.fs_pages_deduped + !deduped;
        fs_compress_ns = w.fs_compress_ns + (!cpu - now);
        fs_comp_in = w.fs_comp_in + !comp_in;
        fs_comp_out = w.fs_comp_out + !comp_out;
      };
    let data_done = submit data ~now:!cpu in
    (* 3. Rebuild the touched leaves.  [entries] is sorted by page index,
       so each leaf's dirty pages are one contiguous run of it, merged
       with the leaf's carried entries in one pass by index.  A replaced
       carried entry is folded out of the manifest deltas and dropped (the
       old leaf still counts its blocks until a prune finds it dead); each
       fresh entry is folded in, and has moved unless the entry it
       replaces lies at its location. *)
    let fp_delta = ref 0 and n_delta = ref 0 in
    let moved = Array.make npages true in
    let fold p n =
      fp_delta := !fp_delta lxor Manifest.page_fp p.p_idx p.p_crc;
      n_delta := !n_delta + n
    in
    let rebuilt = ref [] in
    let i = ref 0 in
    while !i < npages do
      let leaf_idx = entries.(!i).p_idx / leaf_span in
      let j = ref !i in
      while !j < npages && entries.(!j).p_idx / leaf_span = leaf_idx do incr j done;
      let rec merge carried k =
        if k = !j then carried
        else
          let q = entries.(k) in
          match carried with
          | p :: ps when p.p_idx < q.p_idx -> p :: merge ps k
          | p :: ps when p.p_idx = q.p_idx ->
              fold p (-1);
              if same_location p q then moved.(k) <- false;
              merge ps k
          | _ ->
              fold q 1;
              q :: merge carried (k + 1)
      in
      let carried =
        match IntMap.find_opt leaf_idx prev_leaves with
        | None -> []
        | Some blk -> Leaf_cache.entries t.leaves blk
      in
      rebuilt := (leaf_idx, merge carried !i) :: !rebuilt;
      i := !j
    done;
    (* 4. Place the rewritten leaves (write-through into the cache).  A
       new leaf is a new item, and so is every entry it holds, fresh and
       carried alike: each counts the blocks it covers. *)
    let leaf_pk = packer t ~aligned:true in
    let leaves =
      List.fold_left
        (fun leaves (leaf_idx, entries) ->
          let blk, _ = place leaf_pk (Wire.encode leaf_codec entries) in
          Leaf_cache.add t.leaves blk entries;
          covers (Leaf (blk, entries)) (Allocator.retain t.alloc);
          IntMap.add leaf_idx blk leaves)
        prev_leaves (List.rev !rebuilt)
    in
    ( leaves,
      max data_done (submit leaf_pk ~now:!cpu),
      !cpu,
      !fp_delta,
      !n_delta,
      List.filteri (fun k _ -> moved.(k)) (Array.to_list fresh) )
  end

(* Manifest row of a committed version: the one its commit set from its
   base row and its flush's deltas or, on a recovered version, a walk of
   its leaves at first need, memoized on the version (shared by every
   epoch that carries it). *)
let committed_row t oid v =
  match v.v_row with
  | Some r -> r
  | None ->
      let r = Manifest.entry_of_source (oid, v.v_kind, v.v_meta, version_crcs t v) in
      v.v_row <- Some r;
      r

let commit_checkpoint t =
  let s = staging_exn t in
  let now = Clock.now t.clk in
  let epoch = t.staging_epoch in
  let parent = last_epoch_info t in
  let prev_table = head_table t in
  (* The epoch's delta against [parent], newest oid first: what
     [read_delta] would find, with the staged bytes as payloads. *)
  let delta = ref [] in
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
        let prev = IntMap.find_opt oid prev_table in
        let kind =
          if st.s_kind <> "" then st.s_kind
          else match prev with Some v -> v.v_kind | None -> "memory"
        in
        let meta =
          if st.s_meta <> "" then st.s_meta
          else match prev with Some v -> v.v_meta | None -> ""
        in
        (* Base row first (it may lazily walk the previous version), then
           this commit's deltas give the new version's row. *)
        let base =
          match prev with Some v -> committed_row t oid v | None -> zero_row
        in
        let leaves, c, cpu_end, fp_delta, n_delta, moved =
          build_version t ~now:!cpu_now ~prev st
        in
        if not (moved = [] && Option.map (fun v -> v.v_meta) prev = Some meta) then
          delta := (oid, kind, meta, moved) :: !delta;
        cpu_now := cpu_end;
        if c > !data_done then data_done := c;
        let row =
          {
            Manifest.me_oid = oid;
            me_kind = kind;
            me_meta_crc =
              (if st.s_meta <> "" then Crc32.of_string st.s_meta
               else base.me_meta_crc);
            me_pages = base.me_pages + n_delta;
            me_pages_crc = base.me_pages_crc lxor fp_delta;
          }
        in
        (oid, { v_kind = kind; v_meta = meta; v_blk = 0; v_off = 0; v_len = 0; v_leaves = leaves;
                v_row = Some row }))
      staged_list
  in
  (* Version records pack back to back into fresh extents, like page
     payloads and in either page layout: one exact-length submission covers
     many objects' records.  The epoch's table is its parent's with each
     placed version added.  The epoch's manifest packs after them: the row
     of every version the table holds, in oid order. *)
  let table, manifest, mloc =
    Otrace.with_span ~cat:"store" ~name:"commit.records" (fun () ->
        let records = packer t ~aligned:false in
        let table =
          List.fold_left
            (fun table (oid, v) ->
              let record =
                Wire.encode version_codec
                  { vr_oid = oid; vr_epoch = epoch; vr_kind = v.v_kind; vr_meta = v.v_meta;
                    vr_leaves = IntMap.bindings v.v_leaves }
              in
              let blk, off = place records record and v_len = Bytes.length record in
              let v = { v with v_blk = blk; v_off = off; v_len } in
              covers (Version v) (Allocator.retain t.alloc);
              IntMap.add oid v table)
            prev_table pending
        in
        let entries =
          List.rev (IntMap.fold (fun oid v acc -> committed_row t oid v :: acc) table [])
        in
        let manifest =
          Wire.to_string Manifest.codec
            { Manifest.m_epoch = epoch; m_count = List.length entries; m_entries = entries }
        in
        let blk, off = place records (Bytes.of_string manifest) in
        let c = submit records ~now in
        if c > !data_done then data_done := c;
        (table, manifest, (blk, off, String.length manifest)))
  in
  (* The checkpoint record goes out as soon as the flush thread has
     composed it, at the end of the CPU pass, racing the data, leaf and
     version-record writes still in flight: nothing names it until the
     superblock does, so a crash before the superblock leaves it an
     unreferenced block either way. *)
  let cr_prev_block, cr_prev_nblocks =
    match parent with
    | Some e -> (e.e_record_block, e.e_record_nblocks)
    | None -> (0, 0)
  in
  let record =
    Wire.encode checkpoint_codec
      {
        cr_epoch = epoch;
        cr_prev_block;
        cr_prev_nblocks;
        cr_manifest = mloc;
        cr_table =
          List.rev
            (IntMap.fold (fun oid v acc -> (oid, v.v_blk, v.v_off, v.v_len) :: acc) table []);
      }
  in
  let rblock, rc, rnblocks =
    Otrace.with_span ~cat:"store" ~name:"commit.record" (fun () ->
        write_record t ~now:!cpu_now record)
  in
  let head =
    { e_epoch = epoch; e_record_block = rblock; e_record_nblocks = rnblocks; e_manifest = mloc;
      e_versions = Loaded (table, manifest) }
  in
  covers (Record head) (Allocator.retain t.alloc);
  t.epochs <- t.epochs @ [ head ];
  (* The superblock is the commit point: it goes out once the latest of
     the commit's writes (data, leaves, version records, manifest and the
     checkpoint record) has completed.  The torture knob submits it at
     commit start instead — metadata racing ahead of data — so the
     crash-point enumerator can demonstrate it catches ordering bugs. *)
  let sb_submit = if t.torture_misorder then now else max rc !data_done in
  let sc =
    Otrace.with_span ~cat:"store" ~name:"commit.superblock" (fun () ->
        write_superblock t ~now:sb_submit)
  in
  t.kept <- Option.map (fun p -> (p.e_epoch, epoch, List.rev !delta)) parent;
  t.staging <- None;
  t.durable <- sc;
  t.last_flush <- with_lifetime t 1 t.window;
  let f = t.last_flush in
  if Otrace.is_on () then begin
    Otrace.instant ~cat:"store" "dedup"
      ~args:
        [
          ("epoch", Otrace.Int epoch);
          ("staged", Otrace.Int f.fs_pages);
          ("deduped", Otrace.Int f.fs_pages_deduped);
        ];
    Otrace.instant ~cat:"store" "compress"
      ~args:
        [
          ("epoch", Otrace.Int epoch);
          ("bytes_in", Otrace.Int f.fs_comp_in);
          ("bytes_out", Otrace.Int f.fs_comp_out);
          ("cpu_ns", Otrace.Int f.fs_compress_ns);
        ];
    (* The asynchronous durability tail: submissions went out at [now],
       the epoch is on stable storage at [sc]. *)
    Otrace.complete ~ts:now ~dur:(sc - now) ~cat:"store" "flush_window"
      ~args:
        [
          ("epoch", Otrace.Int epoch);
          ("pages", Otrace.Int f.fs_pages);
          ("deduped", Otrace.Int f.fs_pages_deduped);
          ("extents", Otrace.Int f.fs_extents);
          ("dev_writes", Otrace.Int f.fs_dev_writes);
          ("bytes", Otrace.Int f.fs_bytes_written);
        ]
  end;
  sc

let flush_stats t = t.last_flush
let durable_at t = t.durable
let wait_durable t =
  Clock.advance_to t.clk t.durable;
  issue_discards t

let set_read_policy t ~retries ~backoff_ns =
  if retries < 0 || backoff_ns < 0 then invalid_arg "Store.set_read_policy";
  t.read_retries <- retries;
  t.read_backoff <- backoff_ns

let read_faults t = t.read_faults
let set_torture_misorder t flag = t.torture_misorder <- flag

let last_complete_epoch t =
  match last_epoch_info t with Some e -> e.e_epoch | None -> 0

let checkpoint_epochs t = List.map (fun e -> e.e_epoch) t.epochs

(* The content index ----------------------------------------------------------- *)

let set_packed_layout t flag =
  settle t;
  if flag <> t.packed then begin
    t.packed <- flag;
    Content_index.rebuild t.index (fun note ->
        if flag then
          iter_items t ~leaf:(Leaf_cache.entries t.leaves) (fun item ->
              leaf_entries_of item note))
  end

let content_index_size t =
  settle t;
  Content_index.size t.index

let content_index_consistent t =
  settle t;
  Allocator.consistent t.alloc (fun count ->
      iter_items t ~leaf:(Leaf_cache.entries t.leaves) (fun item -> covers item count))
  && Content_index.consistent t.index t.alloc ~payload:(fun p ->
         let off = off_of_block p.p_blk + p.p_off in
         Page_stream.payload p (Striped.read_nocharge t.dev ~off ~len:p.p_clen))

(* Recovery ---------------------------------------------------------------------- *)

(* Recovery reads what serving the newest epoch needs, in three round
   trips: the superblock, the checkpoint records it lists, and the
   newest epoch's distinct versions and its manifest, their blocks
   coalesced into runs read in one charged vectored batch.  An older
   epoch's versions and manifest wait for its first use ([contents]), and
   the counts, the free set and the content index for [settle]. *)

let recover ~dev ~clock =
  let t = fresh dev clock in
  Otrace.with_span ~cat:"store" ~name:"recover" @@ fun () ->
  let sb =
    Otrace.with_span ~cat:"store" ~name:"recover.superblock" (fun () ->
        decode "superblock" superblock_codec (read_blocks t ~blk:superblock_block ~nblocks:1))
  in
  let frontier = sb.sb_next_block in
  (* Until [settle] counts, the frontier is the superblock's, so a
     superblock written before then names it too. *)
  let t = { t with alloc = Allocator.create ~frontier () } in
  t.next_oid <- sb.sb_next_oid;
  t.oldest_retained <- sb.sb_oldest_retained;
  t.journals <- Journal.registry sb.sb_journals;
  t.current_epoch <- sb.sb_epoch;
  (* The retained records, newest first: every record the directory lists
     in one batch, then, past a full directory, one prev pointer at a
     time.  Each record's prev pointer must name the next listed one, and
     epochs strictly decrease, so a garbled directory or chain cannot go
     unnoticed or loop. *)
  let rec walk locs ~below acc =
    if locs = [] then acc
    else begin
      List.iter
        (fun (block, nblocks) -> check_extent ~frontier "checkpoint record" block nblocks)
        locs;
      let data =
        read_ranges t
          (Array.of_list
             (List.map (fun (block, nblocks) -> (off_of_block block, nblocks * block_size)) locs))
      in
      check (List.combine locs (Array.to_list data)) ~below acc
    end
  and check records ~below acc =
    match records with
    | [] -> acc
    | ((block, nblocks), data) :: rest -> (
        let r = decode "checkpoint record" checkpoint_codec data in
        let epoch = r.cr_epoch in
        if epoch >= below then
          raise (Corrupt_store (Printf.sprintf "checkpoint record of epoch %d out of order" epoch));
        check_range ~frontier "manifest" r.cr_manifest;
        let acc = (epoch, block, nblocks, r.cr_manifest, r.cr_table) :: acc in
        (* Pruned epochs' blocks may have been reused: stop at the oldest
           retained record instead of following its prev pointer. *)
        let prev =
          if epoch <= t.oldest_retained then (0, 0) else (r.cr_prev_block, r.cr_prev_nblocks)
        in
        match rest with
        | ((next_block, _) as next, _) :: _ when next <> prev ->
            raise
              (Corrupt_store
                 (Printf.sprintf "superblock lists block %d after epoch %d, whose prev is %d"
                    next_block epoch (fst prev)))
        | _ :: _ -> check rest ~below:epoch acc
        | [] -> walk (if fst prev = 0 then [] else [ prev ]) ~below:epoch acc)
  in
  let chain =
    Otrace.with_span ~cat:"store" ~name:"recover.records" (fun () ->
        walk sb.sb_records ~below:(sb.sb_epoch + 1) [])
  in
  t.epochs <-
    List.map
      (fun (epoch, block, nblocks, manifest, entries) ->
        { e_epoch = epoch; e_record_block = block; e_record_nblocks = nblocks;
          e_manifest = manifest; e_versions = Listed entries })
      chain;
  let loaded = Hashtbl.create 1024 in
  t.unsettled <- Some loaded;
  ignore
    (load_tables ~span:"recover.versions" t loaded (Option.to_list (last_epoch_info t)));
  t

(* Reading ------------------------------------------------------------------------- *)

let retained_exn t epoch =
  match List.find_opt (fun e -> e.e_epoch = epoch) t.epochs with
  | Some e -> e
  | None -> raise (Corrupt_store (Printf.sprintf "unknown epoch %d" epoch))

(* A retained epoch's version table and manifest bytes: an older epoch's
   first use on a recovered store loads them, charged. *)
let epoch_contents t epoch = contents t (retained_exn t epoch)
let epoch_table t epoch = fst (epoch_contents t epoch)

let version_exn t ~epoch ~oid =
  match IntMap.find_opt oid (epoch_table t epoch) with
  | Some v -> v
  | None -> raise (Corrupt_store (Printf.sprintf "oid %d not in epoch %d" oid epoch))

let objects_at t ~epoch =
  List.rev (IntMap.fold (fun oid v acc -> (oid, v.v_kind) :: acc) (epoch_table t epoch) [])

let read_meta t ~epoch ~oid = (version_exn t ~epoch ~oid).v_meta

(* The stored pages of [oid] at [epoch] in [idx]'s window of [span]
   pages: one paid leaf lookup, then the window's read. *)
let read_window t ~epoch ~oid ~idx ~span =
  let v = version_exn t ~epoch ~oid in
  match IntMap.find_opt (idx / leaf_span) v.v_leaves with
  | None -> []
  | Some leaf_blk ->
      Page_stream.read_window ~submit:(submit_ranges t) t.clk ~oid ~idx ~span
        (resident_leaves t [ leaf_blk ] leaf_blk)

let read_page t ~epoch ~oid ~idx =
  List.assoc_opt idx (read_window t ~epoch ~oid ~idx ~span:1)

let fault_cluster = Page_stream.fault_cluster
let read_cluster t ~epoch ~oid ~idx = read_window t ~epoch ~oid ~idx ~span:fault_cluster

type stream = Page_stream.share

(* Every stored page of the distinct [oids] at [epoch], read in the
   background: the leaves not yet resident in one batch submitted now,
   then the stream of every page they list; the clock does not move. *)
let stream_pages t ~epoch oids =
  let now = Clock.now t.clk in
  let versions = List.map (fun oid -> (oid, version_exn t ~epoch ~oid)) oids in
  let listed =
    Leaf_cache.paid t.leaves ~submit:(submit_ranges t) ~now
      (List.fold_left (fun acc (_, v) -> leaf_blocks v acc) [] versions)
  in
  Page_stream.stream ~submit:(submit_ranges t) t.clk ~now listed
    (List.map (fun (oid, v) -> (oid, v.v_leaves)) versions)

let pager = Page_stream.pager
let pager_stores = Page_stream.pager_stores
let take_all = Page_stream.take_all
let read_pages t ~epoch ~oid = take_all (List.assoc oid (stream_pages t ~epoch [ oid ]))

(* Leaf and data blocks are copy-on-write and [base] keeps its blocks
   live, so an entry at the same location in both epochs holds the same
   bytes, and a version record or leaf block shared by both epochs
   changed nothing beneath it.  [plan] holds, per object whose version
   record [base] does not share, the leaves [base] does not share,
   ascending, each with [base]'s leaf at its index. *)
let device_delta t ~base ~epoch =
  let base_table = if base = 0 then IntMap.empty else epoch_table t base in
  let plan =
    List.filter_map
      (fun (oid, kind) ->
        let v = version_exn t ~epoch ~oid in
        match IntMap.find_opt oid base_table with
        | Some b when v.v_blk = b.v_blk && v.v_off = b.v_off -> None
        | b ->
            let old i = Option.bind b (fun b -> IntMap.find_opt i b.v_leaves) in
            let leaves =
              IntMap.fold
                (fun i blk acc -> if old i = Some blk then acc else (blk, old i) :: acc)
                v.v_leaves []
            in
            Some (oid, kind, v.v_meta, Option.map (fun b -> b.v_meta) b, List.rev leaves))
      (objects_at t ~epoch)
  in
  let entries =
    resident_leaves t
      (List.concat_map
         (fun (_, _, _, _, leaves) ->
           List.concat_map (fun (blk, old) -> blk :: Option.to_list old) leaves)
         plan)
  in
  (* Both entry lists are sorted by page index; [acc] collects moved
     entries in descending index order, across leaves too. *)
  let rec moved acc news olds =
    match (news, olds) with
    | [], _ -> acc
    | _, [] -> List.rev_append news acc
    | n :: ns, o :: os ->
        if o.p_idx < n.p_idx then moved acc news os
        else if o.p_idx > n.p_idx then moved (n :: acc) ns olds
        else moved (if same_location n o then acc else n :: acc) ns os
  in
  let deltas =
    List.filter_map
      (fun (oid, kind, meta, base_meta, leaves) ->
        let changed =
          List.fold_left
            (fun acc (blk, old) -> moved acc (entries blk) (Option.fold ~none:[] ~some:entries old))
            [] leaves
        in
        if changed = [] && base_meta = Some meta then None else Some (oid, kind, meta, changed))
      plan
  in
  (* Every moved page, in object then index order, in one batch. *)
  List.map2
    (fun (oid, kind, meta, _) ps -> (oid, kind, meta, ps))
    deltas
    (Page_stream.read ~submit:(submit_ranges t) t.clk
       (List.map (fun (oid, _, _, changed) -> (oid, List.rev changed)) deltas))

(* The newest epoch's delta against its parent is the one its commit
   kept, while the parent is retained (a prune drops oldest first, so the
   newest epoch is then retained too); any other pair is read off the
   device. *)
let read_delta t ~base ~epoch =
  match t.kept with
  | Some (parent, newest, delta)
    when parent = base && newest = epoch && List.exists (fun e -> e.e_epoch = base) t.epochs ->
      delta
  | _ -> device_delta t ~base ~epoch

let page_crcs t ~epoch ~oid = List.sort compare (version_crcs t (version_exn t ~epoch ~oid))

(* Journals --------------------------------------------------------------------------- *)

let journal_id = Journal.id
let journal_find t id = Journal.find t.journals id

(* The registry lives in the superblock: it is persisted synchronously,
   so the journal survives a crash that happens before the next
   checkpoint. *)
let journal_create t ~size =
  settle t;
  let blocks = blocks_of_len size in
  let j = Journal.create t.journals ~start:(Allocator.alloc_extent t.alloc blocks) ~blocks in
  covers (Journal j) (Allocator.retain t.alloc);
  sync_superblock t;
  j

let journal_append t j data =
  Journal.append t.journals j ~dev:t.dev ~clock:t.clk ~read:(read_range t) data

let journal_truncate t j =
  Journal.truncate j ~dev:t.dev ~clock:t.clk ~persist:(fun () -> sync_superblock t)

let journal_records t j = Journal.records j ~read:(read_range t)

(* History ------------------------------------------------------------------------------- *)

(* Only what died is walked.  A commit adds to its parent's table and
   never removes an oid, so a version, or a leaf block, that any kept
   epoch holds is held by the oldest kept epoch under the same oid (and
   leaf index): every other version a dropped epoch names is dead, and so
   is each of its leaves the oid's oldest kept version does not hold.
   Each dead item, counted once, gives back its blocks; a block at zero is
   freed, in ascending order, and the index forgets every location over a
   freed block before anything can dedup against it. *)
let prune_history t ~keep =
  if keep < 0 then invalid_arg "Store.prune_history: negative keep";
  settle t;
  let n = List.length t.epochs in
  if n <= keep then 0
  else begin
    Otrace.with_span ~cat:"store" ~name:"prune"
      ~args:[ ("keep", Otrace.Int keep); ("epochs", Otrace.Int n) ]
    @@ fun () ->
    let drop = n - keep in
    let dropped = List.filteri (fun i _ -> i < drop) t.epochs
    and kept = List.filteri (fun i _ -> i >= drop) t.epochs in
    let oldest = match kept with e :: _ -> table t e | [] -> IntMap.empty in
    let dead = ref [] in
    walk_items t ~leaf:(Leaf_cache.entries t.leaves) ~except:oldest dropped (fun item ->
        covers item (fun b -> if Allocator.release t.alloc b then dead := b :: !dead));
    let dead = List.sort Int.compare !dead in
    (* A freed block also leaves the leaf cache, so a reused block can
       never serve stale parsed entries or a stale residency. *)
    List.iter
      (fun b ->
        Allocator.free t.alloc b;
        Leaf_cache.forget t.leaves b)
      dead;
    Content_index.forget_freed t.index dead;
    t.epochs <- kept;
    (* Persist the new chain bound so recovery never follows a prev
       pointer into reused blocks.  With nothing kept it is the newest
       dropped epoch, which also numbers the next one (see
       [write_superblock]). *)
    t.oldest_retained <- (match kept with e :: _ -> e | [] -> List.nth dropped (drop - 1)).e_epoch;
    (* This superblock stops naming the freed blocks; they leave the
       device once the one after it is durable. *)
    sync_superblock t;
    defer_discards t dead;
    issue_discards t;
    List.length dead
  end

let blocks_allocated t =
  settle t;
  Allocator.allocated t.alloc

let pending_discards t =
  List.fold_left
    (fun n d -> n + List.length (List.filter (Allocator.is_free t.alloc) d.blocks))
    0 t.discards

let sectors_held t =
  Striped.apply_durable t.dev ~now:(Clock.now t.clk);
  Striped.sectors_held t.dev

(* Manifests ---------------------------------------------------------------------------- *)

(* What the open staging epoch will contain once committed: carried
   objects included, with per-page checksums merged the same way
   [commit_checkpoint] merges leaves (previous leaves overridden by staged
   payloads).  Reads the epoch table and the leaves, never a version's
   manifest row, so it is the reference the committed manifest is checked
   against and the independent composition a verified install checks a
   frame with. *)
let staging_manifest_source t =
  let staged = Hashtbl.fold IntMap.add (staging_exn t) IntMap.empty in
  IntMap.merge
    (fun oid prev st ->
      let kind =
        match st with
        | Some st when st.s_kind <> "" -> st.s_kind
        | _ -> ( match prev with Some v -> v.v_kind | None -> "memory")
      in
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
        Hashtbl.fold (fun idx crc acc -> (idx, crc) :: acc) crcs [] |> List.sort compare
      in
      Some (oid, kind, meta, pages))
    (head_table t) staged
  |> IntMap.bindings |> List.map snd

let manifest t ~epoch =
  Result.map_error
    (fun msg -> "manifest unreadable: " ^ msg)
    (Manifest.of_string (snd (epoch_contents t epoch)))

(* The check order and reason strings are part of the contract (see the
   .mli).  With [pages], the whole epoch is streamed once the epoch-level
   checks pass, and each entry's last check decodes its share, each page
   against its leaf CRC; without, the walk reads nothing. *)
let check_walk t ~epoch ~check_meta ~pages =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  try
    let table, manifest = epoch_contents t epoch in
    let oids = List.rev (IntMap.fold (fun oid _ acc -> oid :: acc) table []) in
    let objects = List.length oids in
    match Manifest.of_string manifest with
    | Error msg -> Error ("malformed manifest: " ^ msg)
    | Ok m when m.Manifest.m_epoch <> epoch ->
        fail "manifest written for epoch %d, found in epoch %d" m.Manifest.m_epoch epoch
    | Ok m when objects <> m.Manifest.m_count ->
        fail "epoch holds %d objects, manifest says %d" objects m.Manifest.m_count
    | Ok m ->
        let streams = if pages then stream_pages t ~epoch oids else [] in
        let check (me : Manifest.entry) =
          let oid = me.Manifest.me_oid in
          match IntMap.find_opt oid table with
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
                | Ok () when not pages -> Ok ()
                | Ok () -> (
                    (* A CRC failure's reason is the decoder's wording. *)
                    try Ok (Page_stream.check (List.assoc oid streams))
                    with
                    | Corrupt_store msg when String.ends_with ~suffix:"payload corrupt" msg ->
                        Error msg))
        in
        let rec all = function
          | [] -> Ok (m, streams)
          | me :: rest -> ( match check me with Ok () -> all rest | Error _ as err -> err)
        in
        all m.Manifest.m_entries
  with
  | Corrupt_store msg -> Error ("corrupt store: " ^ msg)
  | Fault.Io_error msg -> Error ("read failed: " ^ msg)
  | Failure msg -> Error msg

let check_epoch t ~epoch ~check_meta =
  check_walk t ~epoch ~check_meta ~pages:false
  |> Result.map (fun (m, _) -> (m, stream_pages t ~epoch))

let verify_epoch t ~epoch ~check_meta = check_walk t ~epoch ~check_meta ~pages:true

(* Deliberate-corruption knobs, torture-harness counterparts of
   [set_torture_misorder]: they exist so the negative-control tests can
   prove that manifest verification and epoch fallback actually fire. *)

let corrupt_meta_for_tests t ~epoch ~oid =
  let e = retained_exn t epoch in
  let table, manifest = contents t e in
  match IntMap.find_opt oid table with
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
      (* Epochs share their tables' structure and version values;
         rebinding the oid in this epoch's own map corrupts this epoch
         only.  The kept delta is dropped, so a frame ships what the store
         holds. *)
      e.e_versions <- Loaded (IntMap.add oid { v with v_meta = meta } table, manifest);
      t.kept <- None

let corrupt_page_for_tests t ~epoch ~oid =
  let v = version_exn t ~epoch ~oid in
  let entry =
    IntMap.fold
      (fun _ leaf_blk acc ->
        match acc with
        | Some _ -> acc
        | None -> (
            match Leaf_cache.entries t.leaves leaf_blk with
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
      Clock.advance_to t.clk c;
      t.kept <- None

let recycle_leaf_cache_for_tests t = Leaf_cache.recycle t.leaves
