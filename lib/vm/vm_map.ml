type prot = { read : bool; write : bool; exec : bool }

let prot_rw = { read = true; write = true; exec = false }
let prot_ro = { read = true; write = false; exec = false }

type entry = {
  mutable start_vpn : int;
  mutable npages : int;
  mutable prot : prot;
  mutable obj : Vm_object.t;
  mutable obj_pgoff : int;
  mutable shared : bool;
  mutable excluded : bool;
  mutable evict_first : bool;
  mutable e_gen : int;
}

type t = {
  mutable ents : entry list; (* ascending by start_vpn *)
  mutable map_gen : int;
}

let create () = { ents = []; map_gen = 0 }
let entries t = t.ents
let entry_count t = List.length t.ents
let generation t = t.map_gen

let touch_entry e = e.e_gen <- e.e_gen + 1

let set_excluded e v =
  if e.excluded <> v then touch_entry e;
  e.excluded <- v

let overlaps a_start a_n b_start b_n =
  a_start < b_start + b_n && b_start < a_start + a_n

let map ?(shared = false) t ~vpn ~npages ~prot ~obj ~obj_pgoff =
  assert (npages > 0);
  if List.exists (fun e -> overlaps vpn npages e.start_vpn e.npages) t.ents then
    invalid_arg "Vm_map.map: overlapping mapping";
  let e =
    {
      start_vpn = vpn;
      npages;
      prot;
      obj;
      obj_pgoff;
      shared;
      excluded = false;
      evict_first = false;
      e_gen = 0;
    }
  in
  let rec insert = function
    | [] -> [ e ]
    | hd :: tl when hd.start_vpn < vpn -> hd :: insert tl
    | rest -> e :: rest
  in
  t.ents <- insert t.ents;
  t.map_gen <- t.map_gen + 1;
  e

let unmap t entry =
  Vm_object.unref entry.obj;
  t.ents <- List.filter (fun e -> e != entry) t.ents;
  (* Absorb the departing entry's stamp so the space-level sum of
     [map_gen + Σ e_gen] stays monotonic across unmaps. *)
  t.map_gen <- t.map_gen + 1 + entry.e_gen

let find t vpn =
  List.find_opt (fun e -> vpn >= e.start_vpn && vpn < e.start_vpn + e.npages) t.ents

let find_free_range t ~npages =
  ignore npages;
  let top =
    List.fold_left (fun acc e -> max acc (e.start_vpn + e.npages)) 0x1000 t.ents
  in
  top
