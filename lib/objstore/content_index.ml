open Store_format

type t = (int, leaf_entry) Hashtbl.t

let create () = Hashtbl.create 4096
let size = Hashtbl.length
let insert t p = Hashtbl.replace t p.p_hash p

let probe t ~hash ~olen ~crc =
  match Hashtbl.find_opt t hash with
  | Some e when e.p_olen = olen && e.p_crc = crc -> Some e
  | Some _ | None -> None

let rebuild t walk =
  Hashtbl.reset t;
  walk (fun p -> if not (Hashtbl.mem t p.p_hash) then insert t p)

(* [p]'s first block that no live item covers, past its span if none. *)
let first_uncounted alloc p =
  let b = ref p.p_blk and last = span_end p.p_blk p.p_off p.p_clen in
  while !b <= last && Allocator.count alloc !b > 0 do incr b done;
  (!b, last)

let forget_freed t alloc =
  let gone = ref [] in
  Hashtbl.iter
    (fun hash p ->
      let b, last = first_uncounted alloc p in
      if b <= last then gone := hash :: !gone)
    t;
  List.iter (Hashtbl.remove t) !gone

let consistent t alloc ~payload =
  let holds hash p =
    (let b, last = first_uncounted alloc p in
     b > last)
    &&
    match payload p with
    | Some b ->
        Bytes.length b = p.p_olen
        && Aurora_util.Crc32.of_bytes b = p.p_crc
        && Aurora_util.Hash64.of_bytes b = hash
    | None -> false
  in
  Hashtbl.fold (fun hash p ok -> ok && holds hash p) t true
