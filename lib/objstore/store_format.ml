(* The object store's on-store format: every record [Store] writes,
   stated once, as a type and the one [Wire.codec] that both writes and
   reads it, with the block geometry every store module shares.  The
   types, codecs and layout rules are this module's whole interface, so
   it has no .mli that would restate each record. *)

exception Corrupt_store of string

let block_size = 4096

(* 100 entries x 37 bytes + header fits one 4 KiB block. *)
let leaf_span = 100
let superblock_block = 0
let off_of_block b = b * block_size

(* Last block covered by [len] bytes stored at byte [off] of block [blk]:
   a packed page or version record may straddle block boundaries inside
   its extent.  Every block of [blk .. span_end] is live while the bytes
   are. *)
let span_end blk off len = blk + ((off + Int.max 1 len - 1) / block_size)

let span_blocks blk off len f =
  for b = blk to span_end blk off len do
    f b
  done

(* One stored page: where its bytes live ([p_blk] + byte offset [p_off],
   [p_clen] stored bytes, possibly RLE-coded), and the identity of the
   original payload ([p_olen], CRC-32, content hash).  The checksum and
   hash are always over the ORIGINAL payload, so manifests, restore
   verification and the incremental-vs-full oracle are unaffected by how
   the bytes happen to be stored. *)
type leaf_entry = {
  p_idx : int;
  p_blk : int;
  p_off : int;
  p_clen : int;
  p_olen : int;
  p_comp : bool;
  p_crc : int;
  p_hash : int;
}

type version_record = {
  vr_oid : int;
  vr_epoch : int;
  vr_kind : string;
  vr_meta : string;
  vr_leaves : (int * int) list;
}

type checkpoint_record = {
  cr_epoch : int;
  cr_prev_block : int;
  cr_prev_nblocks : int;
  cr_manifest : int * int * int;
  cr_table : (int * int * int * int) list;
}

type superblock = {
  sb_epoch : int;
  sb_next_block : int;
  sb_next_oid : int;
  sb_oldest_retained : int;
  sb_records : (int * int) list;
  sb_journals : (int * int * int * int) list;
}

(* A version record names its object's kind, metadata and leaves, as
   (leaf index, leaf block) pairs. *)
let version_codec =
  Wire.Codec.(
    record (fun vr_oid vr_epoch vr_kind vr_meta vr_leaves ->
        { vr_oid; vr_epoch; vr_kind; vr_meta; vr_leaves })
    |> magic u8 0xA2 "version magic"
    |> field u64 (fun v -> v.vr_oid)
    |> field u64 (fun v -> v.vr_epoch)
    |> field str (fun v -> v.vr_kind)
    |> field str (fun v -> v.vr_meta)
    |> field (list (pair u32 u64)) (fun v -> v.vr_leaves)
    |> seal)

(* Leaf blocks: a leaf covers page indices [k*leaf_span, (k+1)*leaf_span)
   and holds one entry per resident page: its packed location, coding
   flag and the original payload's length, CRC-32 and content hash.
   Payloads are variable-sized (compact for anonymous memory, full for
   file pages); the checksum, computed once when the page is flushed, is
   what checkpoint manifests and restore verification compare against
   without re-reading data blocks, and the hash is what lets recovery
   rebuild the content-addressed index without any data reads. *)
let leaf_codec =
  Wire.Codec.(
    let entry =
      record (fun p_idx p_blk p_off p_clen p_olen p_comp p_crc p_hash ->
          { p_idx; p_blk; p_off; p_clen; p_olen; p_comp; p_crc; p_hash })
      |> field u32 (fun p -> p.p_idx)
      |> field u64 (fun p -> p.p_blk)
      |> field u32 (fun p -> p.p_off)
      |> field u32 (fun p -> p.p_clen)
      |> field u32 (fun p -> p.p_olen)
      |> field bool (fun p -> p.p_comp)
      |> field u32 (fun p -> p.p_crc)
      |> field u64 (fun p -> p.p_hash)
      |> seal
    in
    record Fun.id |> magic u8 0xA3 "leaf magic" |> field (list entry) Fun.id |> seal)

(* A checkpoint record names its predecessor by (first block, blocks),
   its epoch's manifest ([Manifest.codec] bytes, packed after the epoch's
   version records) by (block, offset, length), and every live object's
   version record by (oid, block, offset, length), so recovery reads each
   record once and no more than the store wrote.  The
   prev pointers form a chain, newest to oldest, that the superblock's
   directory restates: recovery checks one against the other, and
   follows the chain alone past a full directory. *)
let checkpoint_codec =
  Wire.Codec.(
    record (fun cr_epoch cr_prev_block cr_prev_nblocks cr_manifest cr_table ->
        { cr_epoch; cr_prev_block; cr_prev_nblocks; cr_manifest; cr_table })
    |> magic u8 0xA1 "record magic"
    |> field u64 (fun c -> c.cr_epoch)
    |> field u64 (fun c -> c.cr_prev_block)
    |> field u32 (fun c -> c.cr_prev_nblocks)
    |> field (triple u64 u32 u32) (fun c -> c.cr_manifest)
    |> field (list (quad u64 u64 u32 u32)) (fun c -> c.cr_table)
    |> seal)

(* The superblock lists the retained checkpoint records, newest first,
   as (first block, blocks): a directory whose first entry is the head
   record (none when no epoch is retained), so recovery reads every
   listed record in one batch at its exact size.  Each listed record's
   prev pointer names the next entry, which recovery checks.  It also
   lists the journals as (id, first block, blocks, generation).  The
   superblock is one block, the device's atomic write: a one-epoch
   superblock without journals takes 64 bytes, and the directory holds
   the newest records that fit in the block after the journals
   ([Store.write_superblock]); older ones are reached through prev
   pointers. *)
let superblock_codec =
  Wire.Codec.(
    record
      (fun sb_epoch sb_next_block sb_next_oid sb_oldest_retained sb_records sb_journals ->
        { sb_epoch; sb_next_block; sb_next_oid; sb_oldest_retained; sb_records; sb_journals })
    |> magic str "AURSTORE" "superblock magic"
    |> field u64 (fun b -> b.sb_epoch)
    |> field u64 (fun b -> b.sb_next_block)
    |> field u64 (fun b -> b.sb_next_oid)
    |> field u64 (fun b -> b.sb_oldest_retained)
    |> field (list (pair u64 u32)) (fun b -> b.sb_records)
    |> field (list (quad u64 u64 u64 u64)) (fun b -> b.sb_journals)
    |> seal)

(* A journal record: (truncation generation, payload). *)
let journal_record_codec =
  Wire.Codec.(record Fun.id |> magic u8 0xA4 "journal magic" |> field (pair u32 str) Fun.id |> seal)

(* Records that do not parse are store corruption, reported as such: a
   truncated or garbled record must never escape as a [Wire.Corrupt]. *)
let decode what codec data =
  try Wire.decode codec data with Wire.Corrupt msg -> raise (Corrupt_store (what ^ ": " ^ msg))
