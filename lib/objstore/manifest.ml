module Crc32 = Aurora_util.Crc32
module Hash64 = Aurora_util.Hash64

type entry = {
  me_oid : int;
  me_kind : string;
  me_meta_crc : int;
  me_pages : int;
  me_pages_crc : int;
}

type t = { m_epoch : int; m_count : int; m_entries : entry list }

(* One page's contribution to an order-independent fingerprint.  Each
   (index, CRC) pair is mixed through Hash64 before the XOR fold: a plain
   XOR of the raw values is zeroed by duplicate pages and blind to
   permutations with colliding sums.  The store's cached manifest rows
   fold this same term, so they stay bit-identical to [fingerprint]. *)
let page_fp idx crc = Hash64.pair idx crc

let fingerprint crcs = List.fold_left (fun acc (idx, crc) -> acc lxor page_fp idx crc) 0 crcs

let entry_of_source (oid, kind, meta, crcs) =
  {
    me_oid = oid;
    me_kind = kind;
    me_meta_crc = Crc32.of_string meta;
    me_pages = List.length crcs;
    me_pages_crc = fingerprint crcs;
  }

(* v2: pages fingerprint widened to the 62-bit Hash64 fold. *)
let entry_codec =
  Wire.Codec.(
    record (fun me_oid me_kind me_meta_crc me_pages me_pages_crc ->
        { me_oid; me_kind; me_meta_crc; me_pages; me_pages_crc })
    |> field u64 (fun e -> e.me_oid)
    |> field str (fun e -> e.me_kind)
    |> field u32 (fun e -> e.me_meta_crc)
    |> field u32 (fun e -> e.me_pages)
    |> field u64 (fun e -> e.me_pages_crc)
    |> seal)

let codec =
  Wire.Codec.(
    record (fun m_epoch m_count m_entries -> { m_epoch; m_count; m_entries })
    |> magic str "AURMANF2" "manifest magic"
    |> field u64 (fun m -> m.m_epoch)
    |> field u32 (fun m -> m.m_count)
    |> field (list entry_codec) (fun m -> m.m_entries)
    |> seal)

let of_string s =
  match Wire.of_string codec s with
  | m -> Ok m
  | exception (Wire.Corrupt msg | Failure msg | Invalid_argument msg) ->
      Error ("sls.manifest: " ^ msg)

(* Whole-manifest digest: shipped in the replication frame (a few bytes)
   so the receiver can check its freshly composed epoch against the
   sender's manifest without the manifest itself crossing the wire. *)
let summary entries =
  List.fold_left (fun acc e -> acc lxor Crc32.of_bytes (Wire.encode entry_codec e)) 0 entries
