let superblock_block = Store_format.superblock_block

type t = {
  mutable frontier : int;
  free_set : (int, unit) Hashtbl.t; (* reusable single blocks, O(1) dedup *)
  mutable free_stack : int list; (* LIFO over [free_set]; may hold stale ids *)
  mutable refs : int array; (* block -> live items covering it *)
  mutable calls : int;
}

let create ?(frontier = 1) () =
  { frontier; free_set = Hashtbl.create 1024; free_stack = []; refs = Array.make 1024 0;
    calls = 0 }

let frontier t = t.frontier
let calls t = t.calls
let allocated t = t.frontier - Hashtbl.length t.free_set
let is_free t b = b >= t.frontier || Hashtbl.mem t.free_set b

let alloc_block t =
  t.calls <- t.calls + 1;
  let rec pop () =
    match t.free_stack with
    | [] ->
        let b = t.frontier in
        t.frontier <- t.frontier + 1;
        b
    | b :: rest ->
        t.free_stack <- rest;
        (* Stale stack entries (absorbed into the frontier) are skipped:
           membership lives in [free_set]. *)
        if b < t.frontier && Hashtbl.mem t.free_set b then begin
          Hashtbl.remove t.free_set b;
          b
        end
        else pop ()
  in
  pop ()

let alloc_extent t n =
  t.calls <- t.calls + 1;
  let b = t.frontier in
  t.frontier <- t.frontier + n;
  b

let free t b =
  if b > superblock_block && b < t.frontier && not (Hashtbl.mem t.free_set b) then begin
    if b = t.frontier - 1 then begin
      t.frontier <- b;
      let rec absorb () =
        let a = t.frontier - 1 in
        if a > superblock_block && Hashtbl.mem t.free_set a then begin
          Hashtbl.remove t.free_set a;
          t.frontier <- a;
          absorb ()
        end
      in
      absorb ()
    end
    else begin
      Hashtbl.replace t.free_set b ();
      t.free_stack <- b :: t.free_stack
    end
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

let count_in counts b = if b < Array.length counts then counts.(b) else 0
let count t b = count_in t.refs b
let retain t b = t.refs <- bump t.refs b

let release t b =
  t.refs.(b) <- t.refs.(b) - 1;
  t.refs.(b) = 0

let recount t walk =
  let top = ref superblock_block and frontier = t.frontier in
  walk (fun b ->
      if b > superblock_block && b < frontier then begin
        retain t b;
        if b > !top then top := b
      end);
  t.frontier <- !top + 1;
  let uncounted = ref [] in
  for b = frontier - 1 downto superblock_block + 1 do
    if count t b = 0 then begin
      uncounted := b :: !uncounted;
      if b < !top then free t b
    end
  done;
  !uncounted

let consistent t walk =
  let fresh = ref [||] in
  walk (fun b -> fresh := bump !fresh b);
  let ok = ref true and free = ref 0 in
  for b = 0 to Int.max (Array.length t.refs) (Array.length !fresh) - 1 do
    let n = count t b in
    if n <> count_in !fresh b then ok := false;
    if b > superblock_block && b < t.frontier && n = 0 then
      if Hashtbl.mem t.free_set b then incr free else ok := false
  done;
  !ok && !free = Hashtbl.length t.free_set
