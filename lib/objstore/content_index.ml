open Store_format

type t = {
  by_hash : (int, leaf_entry) Hashtbl.t;
  mutable by_block : int list array;
      (* block -> the hashes inserted over it; a hash whose entry has
         since moved stays listed until the block is freed *)
}

let create () = { by_hash = Hashtbl.create 4096; by_block = Array.make 1024 [] }
let size t = Hashtbl.length t.by_hash

let spans p b = p.p_blk <= b && b <= span_end p.p_blk p.p_off p.p_clen
let hashes_over t b = if b < Array.length t.by_block then t.by_block.(b) else []

let insert t p =
  Hashtbl.replace t.by_hash p.p_hash p;
  let last = span_end p.p_blk p.p_off p.p_clen in
  let n = Array.length t.by_block in
  if last >= n then begin
    let grown = Array.make (Int.max (last + 1) (2 * n)) [] in
    Array.blit t.by_block 0 grown 0 n;
    t.by_block <- grown
  end;
  for b = p.p_blk to last do
    t.by_block.(b) <- p.p_hash :: t.by_block.(b)
  done

let probe t ~hash ~olen ~crc =
  match Hashtbl.find_opt t.by_hash hash with
  | Some e when e.p_olen = olen && e.p_crc = crc -> Some e
  | Some _ | None -> None

let rebuild t walk =
  Hashtbl.reset t.by_hash;
  Array.fill t.by_block 0 (Array.length t.by_block) [];
  walk (fun p -> if not (Hashtbl.mem t.by_hash p.p_hash) then insert t p)

(* Whether [ok b] holds for every block [p] spans. *)
let all_blocks p ok =
  let b = ref p.p_blk and last = span_end p.p_blk p.p_off p.p_clen in
  while !b <= last && ok !b do incr b done;
  !b > last

let forget_freed t freed =
  List.iter
    (fun b ->
      List.iter
        (fun hash ->
          match Hashtbl.find_opt t.by_hash hash with
          | Some p when spans p b -> Hashtbl.remove t.by_hash hash
          | Some _ | None -> ())
        (hashes_over t b);
      if b < Array.length t.by_block then t.by_block.(b) <- [])
    freed

let consistent t alloc ~payload =
  let holds hash p =
    all_blocks p (fun b -> Allocator.count alloc b > 0)
    && all_blocks p (fun b -> List.mem hash (hashes_over t b))
    &&
    match payload p with
    | Some b ->
        Bytes.length b = p.p_olen
        && Aurora_util.Crc32.of_bytes b = p.p_crc
        && Aurora_util.Hash64.of_bytes b = hash
    | None -> false
  in
  Hashtbl.fold (fun hash p ok -> ok && holds hash p) t.by_hash true
