module Crc32 = Aurora_util.Crc32
module Hash64 = Aurora_util.Hash64

let kind = "sls.manifest"

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

let write_entry w e =
  Wire.u64 w e.me_oid;
  Wire.str w e.me_kind;
  Wire.u32 w e.me_meta_crc;
  Wire.u32 w e.me_pages;
  Wire.u64 w e.me_pages_crc

(* v2: pages fingerprint widened to the 62-bit Hash64 fold. *)
let magic = "AURMANF2"

let to_string m =
  let w = Wire.writer () in
  Wire.str w magic;
  Wire.u64 w m.m_epoch;
  Wire.u32 w m.m_count;
  Wire.list w (write_entry w) m.m_entries;
  Bytes.to_string (Wire.contents w)

let of_string s =
  let parse () =
    let r = Wire.reader (Bytes.of_string s) in
    (match Wire.rstr r with
    | m when m = magic -> ()
    | m -> raise (Wire.Corrupt (Printf.sprintf "bad manifest magic %S" m)));
    let m_epoch = Wire.ru64 r in
    let m_count = Wire.ru32 r in
    let m_entries =
      Wire.rlist r (fun r ->
          let me_oid = Wire.ru64 r in
          let me_kind = Wire.rstr r in
          let me_meta_crc = Wire.ru32 r in
          let me_pages = Wire.ru32 r in
          let me_pages_crc = Wire.ru64 r in
          { me_oid; me_kind; me_meta_crc; me_pages; me_pages_crc })
    in
    { m_epoch; m_count; m_entries }
  in
  match parse () with
  | m -> Ok m
  | exception (Wire.Corrupt msg | Failure msg | Invalid_argument msg) ->
      Error (kind ^ ": " ^ msg)

(* Whole-manifest digest: shipped in the replication frame (a few bytes)
   so the receiver can check its freshly composed epoch against the
   sender's manifest without the manifest itself crossing the wire. *)
let summary entries =
  List.fold_left
    (fun acc e ->
      let w = Wire.writer () in
      write_entry w e;
      acc lxor Crc32.of_bytes (Wire.contents w))
    0 entries
