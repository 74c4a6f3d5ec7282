module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost

exception Fault of string

type stats = {
  mutable soft_faults : int;
  mutable cow_faults : int;
  mutable zero_fills : int;
  mutable stale_refaults : int;
  mutable pageins : int;
  mutable mapped_around : int;
}

type t = {
  clk : Clock.t;
  vmap : Vm_map.t;
  phys : Pmap.t;
  st : stats;
  (* Speculative-checkpoint epoch: while set, structural address-space
     changes (fork's shadow swing, unmap discarding spec-dirty PTEs)
     cannot be expressed as per-page conflicts, so they latch
     [spec_structural] and the validator falls back to a full re-copy of
     the harvested objects. *)
  mutable spec_epoch : bool;
  mutable spec_structural : bool;
  (* The pages the current fault's pager installed, as (index, page),
     collected by [on_pagein]; empty between faults.  The hook is built
     once per space, so a fault that pages nothing in allocates nothing
     for fault-around. *)
  mutable paged_in : (int * Page.t) list;
  on_pagein : int -> Page.t -> unit;
}

let create ~clock =
  let rec t =
    {
      clk = clock;
      vmap = Vm_map.create ();
      phys = Pmap.create ();
      st =
        {
          soft_faults = 0;
          cow_faults = 0;
          zero_fills = 0;
          stale_refaults = 0;
          pageins = 0;
          mapped_around = 0;
        };
      spec_epoch = false;
      spec_structural = false;
      paged_in = [];
      on_pagein =
        (fun i page ->
          t.st.pageins <- t.st.pageins + 1;
          t.paged_in <- (i, page) :: t.paged_in);
    }
  in
  t

let clock t = t.clk
let map t = t.vmap
let pmap t = t.phys
let stats t = t.st

let map_anonymous t ~npages ~prot =
  let obj = Vm_object.create Vm_object.Anonymous in
  let vpn = Vm_map.find_free_range t.vmap ~npages in
  Vm_map.map t.vmap ~vpn ~npages ~prot ~obj ~obj_pgoff:0

let map_object ?shared t ~obj ~obj_pgoff ~npages ~prot =
  Vm_object.ref_ obj;
  let vpn = Vm_map.find_free_range t.vmap ~npages in
  Vm_map.map ?shared t.vmap ~vpn ~npages ~prot ~obj ~obj_pgoff

let unmap t entry =
  if t.spec_epoch then t.spec_structural <- true;
  Pmap.remove_range t.phys ~vpn:entry.Vm_map.start_vpn ~npages:entry.Vm_map.npages;
  Vm_map.unmap t.vmap entry

let addr_of_entry (e : Vm_map.entry) = e.start_vpn * Page.logical_size

(* Uncharged chain walk used to validate cached PTEs; the charged walk in
   Vm_object.lookup models the fault path only. *)
let lookup_nocharge obj idx =
  let rec walk o =
    match Vm_object.find_local o idx with
    | Some page -> Some (page, o)
    | None -> ( match Vm_object.parent o with None -> None | Some p -> walk p)
  in
  walk obj

let entry_of_vpn t vpn =
  match Vm_map.find t.vmap vpn with
  | Some e -> e
  | None -> raise (Fault (Printf.sprintf "no mapping at vpn %#x" vpn))

let obj_index (e : Vm_map.entry) vpn = vpn - e.start_vpn + e.obj_pgoff

(* Would the charged walk for [idx] from [obj] end at [page] without a
   pager returning it?  A nearer level that holds the index, or whose
   pager stores it, resolves it elsewhere: a COW sibling's newer version.
   A nearer pager that does not store it returns nothing, and the walk
   descends past it. *)
let rec resolves_to obj idx page =
  match Vm_object.find_local obj idx with
  | Some p -> p == page
  | None -> (
      (not (Vm_object.pager_stores obj idx))
      &&
      match Vm_object.parent obj with
      | Some p -> resolves_to p idx page
      | None -> false)

(* Fault-around's mapping half (Linux's [filemap_map_pages], FreeBSD's
   [vm_fault_prefault]): map the other pages this fault's pager
   installed, read-only and clean, one PTE write each, so their first
   read takes no fault and a write still refaults through the
   downgraded-PTE path.  A page is mapped only inside the faulting entry,
   where it has no PTE yet, and where the walk would resolve to it. *)
let map_around t (e : Vm_map.entry) ~fault_idx =
  List.iter
    (fun (idx, page) ->
      let off = idx - e.obj_pgoff in
      let vpn = e.start_vpn + off in
      if
        idx <> fault_idx && off >= 0 && off < e.npages
        && Option.is_none (Pmap.find t.phys vpn)
        && resolves_to e.obj idx page
      then begin
        Pmap.install t.phys vpn page ~writable:false;
        t.st.mapped_around <- t.st.mapped_around + 1;
        Clock.advance t.clk Cost.cow_mark_page
      end)
    t.paged_in;
  t.paged_in <- []

(* Resolve a fault: find or create the page, map whatever else the pager
   brought in, install a PTE, charge the appropriate cost.  Returns the
   page the access should hit. *)
let handle_fault t (e : Vm_map.entry) vpn ~write =
  let idx = obj_index e vpn in
  (match Vm_object.kind e.obj with
  | Vm_object.Device_backed _ when write -> raise (Fault "write to device mapping")
  | Vm_object.Anonymous | Vm_object.Vnode_backed _ | Vm_object.Device_backed _ -> ());
  (* A pager that raised left its walk's earlier installs behind. *)
  t.paged_in <- [];
  let found = Vm_object.lookup ~on_pagein:t.on_pagein ~clock:t.clk e.obj idx in
  (match t.paged_in with [] -> () | _ :: _ -> map_around t e ~fault_idx:idx);
  match found with
  | Some (page, src) when src == e.obj ->
      (* Resident in the top object: plain soft fault. *)
      t.st.soft_faults <- t.st.soft_faults + 1;
      Clock.advance t.clk Cost.soft_fault;
      Pmap.install t.phys vpn page ~writable:(write && e.prot.write) ~dirty:write;
      page
  | Some (page, _ancestor) ->
      if write then begin
        (* COW: copy into the top object. *)
        t.st.cow_faults <- t.st.cow_faults + 1;
        Clock.advance t.clk Cost.cow_fault;
        let private_page = Page.copy page in
        Vm_object.insert_page e.obj idx private_page;
        Pmap.install t.phys vpn private_page ~writable:true ~dirty:true;
        private_page
      end
      else begin
        (* Ancestor pages map read-only so a later write still faults. *)
        t.st.soft_faults <- t.st.soft_faults + 1;
        Clock.advance t.clk Cost.soft_fault;
        Pmap.install t.phys vpn page ~writable:false;
        page
      end
  | None ->
      (* Nothing resident or paged anywhere on the chain: zero-fill into
         the top object. *)
      t.st.zero_fills <- t.st.zero_fills + 1;
      Clock.advance t.clk Cost.soft_fault;
      let page = Page.alloc () in
      Vm_object.insert_page e.obj idx page;
      Pmap.install t.phys vpn page ~writable:(write && e.prot.write) ~dirty:write;
      page

let access t ~vpn ~write =
  let e = entry_of_vpn t vpn in
  if write && not e.prot.write then raise (Fault "write to read-only mapping");
  if (not write) && not e.prot.read then raise (Fault "read from PROT_NONE mapping");
  match Pmap.find t.phys vpn with
  | Some pte -> (
      (* Validate the cached translation: a sharer's COW or a checkpoint
         collapse may have changed which page backs this address. *)
      let idx = obj_index e vpn in
      match lookup_nocharge e.obj idx with
      | Some (page, _) when Page.id page = Page.id pte.page ->
          if write && not pte.writable then
            (* Downgraded by checkpoint shadowing or fork: refault. *)
            handle_fault t e vpn ~write:true
          else begin
            if write then begin
              pte.dirty <- true;
              pte.spec_dirty <- true
            end;
            pte.page
          end
      | Some _ | None ->
          t.st.stale_refaults <- t.st.stale_refaults + 1;
          Pmap.remove t.phys vpn;
          handle_fault t e vpn ~write)
  | None ->
      (* handle_fault stamps the dirty bit on write-fault installs. *)
      handle_fault t e vpn ~write

let split_addr addr = (addr / Page.logical_size, addr mod Page.logical_size)

let write_byte t ~addr c =
  let vpn, off = split_addr addr in
  let page = access t ~vpn ~write:true in
  Page.set page off c

let read_byte t ~addr =
  let vpn, off = split_addr addr in
  let page = access t ~vpn ~write:false in
  Page.get page off

let write_string t ~addr s =
  String.iteri (fun i c -> write_byte t ~addr:(addr + i) c) s

let read_string t ~addr ~len = String.init len (fun i -> read_byte t ~addr:(addr + i))

let touch_write t ~addr ~len =
  let first = addr / Page.logical_size
  and last = (addr + len - 1) / Page.logical_size in
  for vpn = first to last do
    let page = access t ~vpn ~write:true in
    (* One byte per page keeps content checks meaningful without paying a
       per-byte loop on multi-MiB regions. *)
    Page.set page 0 'd'
  done

let touch_read t ~addr ~len =
  let first = addr / Page.logical_size
  and last = (addr + len - 1) / Page.logical_size in
  for vpn = first to last do
    ignore (access t ~vpn ~write:false)
  done

(* Layout stamp for incremental checkpoints: moves on any map/unmap and on
   any in-place entry mutation (mprotect, sls_mctl exclusion, fork's object
   swing).  Shadow interposition via [replace_object] deliberately does not
   move it — the serialized image names the stable memory-object oid. *)
let layout_generation t =
  List.fold_left
    (fun acc (e : Vm_map.entry) -> acc + e.Vm_map.e_gen)
    (Vm_map.generation t.vmap)
    (Vm_map.entries t.vmap)

let shadowable (e : Vm_map.entry) =
  (not e.excluded) && e.prot.write
  &&
  match Vm_object.kind e.obj with
  | Vm_object.Anonymous -> true
  | Vm_object.Vnode_backed _ | Vm_object.Device_backed _ ->
      (* The Aurora FS provides COW for file-backed memory; devices are
         read-only. *)
      false

let unique_objects t =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun acc (e : Vm_map.entry) ->
      if shadowable e && not (Hashtbl.mem seen (Vm_object.id e.obj)) then begin
        Hashtbl.replace seen (Vm_object.id e.obj) ();
        e.obj :: acc
      end
      else acc)
    [] (Vm_map.entries t.vmap)
  |> List.rev

let replace_object t ~old_obj ~new_obj =
  let downgraded = ref 0 in
  List.iter
    (fun (e : Vm_map.entry) ->
      if e.obj == old_obj then begin
        e.obj <- new_obj;
        (* The page-table walk that clears writable bits is the stop-time
           marking cost... *)
        downgraded :=
          !downgraded
          + Pmap.downgrade_range t.phys ~clock:t.clk ~vpn:e.start_vpn
              ~npages:e.npages;
        (* ...and the accompanying TLB flush invalidates every cached
           translation of the region: reads refault too after a
           checkpoint ("applications frequently fault in pages because
           system shadowing flushes the TLB", section 6). *)
        Pmap.remove_range t.phys ~vpn:e.start_vpn ~npages:e.npages
      end)
    (Vm_map.entries t.vmap);
  !downgraded

let fork t =
  if t.spec_epoch then t.spec_structural <- true;
  let child = create ~clock:t.clk in
  List.iter
    (fun (e : Vm_map.entry) ->
      if e.shared then begin
        Vm_object.ref_ e.obj;
        ignore
          (Vm_map.map ~shared:true child.vmap ~vpn:e.start_vpn ~npages:e.npages
             ~prot:e.prot ~obj:e.obj ~obj_pgoff:e.obj_pgoff)
      end
      else if not e.prot.write then begin
        (* Read-only private regions (text) can alias the same object. *)
        Vm_object.ref_ e.obj;
        ignore
          (Vm_map.map child.vmap ~vpn:e.start_vpn ~npages:e.npages ~prot:e.prot
             ~obj:e.obj ~obj_pgoff:e.obj_pgoff)
      end
      else begin
        (* Symmetric shadowing: the old object becomes a shared read-only
           backing object; parent and child each write into a private
           shadow above it. *)
        let backing = e.obj in
        let parent_shadow = Vm_object.shadow ~clock:t.clk backing in
        Vm_object.ref_ backing;
        let child_shadow = Vm_object.shadow ~clock:t.clk backing in
        e.obj <- parent_shadow;
        (* Unlike checkpoint shadow rotation, fork changes which memory
           object this entry is recorded against: stamp it. *)
        Vm_map.touch_entry e;
        ignore
          (Pmap.downgrade_range t.phys ~clock:t.clk ~vpn:e.start_vpn
             ~npages:e.npages);
        ignore
          (Vm_map.map child.vmap ~vpn:e.start_vpn ~npages:e.npages ~prot:e.prot
             ~obj:child_shadow ~obj_pgoff:e.obj_pgoff)
      end)
    (Vm_map.entries t.vmap);
  child

let resident_pages t =
  let seen = Hashtbl.create 16 in
  let total = ref 0 in
  let rec count_chain obj =
    if not (Hashtbl.mem seen (Vm_object.id obj)) then begin
      Hashtbl.replace seen (Vm_object.id obj) ();
      total := !total + Vm_object.resident_pages obj;
      match Vm_object.parent obj with None -> () | Some p -> count_chain p
    end
  in
  List.iter (fun (e : Vm_map.entry) -> count_chain e.obj) (Vm_map.entries t.vmap);
  !total

let dirty_top_pages t =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun acc (e : Vm_map.entry) ->
      if
        e.prot.write
        && (not e.excluded)
        && not (Hashtbl.mem seen (Vm_object.id e.obj))
      then begin
        Hashtbl.replace seen (Vm_object.id e.obj) ();
        acc + Vm_object.resident_pages e.obj
      end
      else acc)
    0 (Vm_map.entries t.vmap)

(* Speculative-checkpoint epoch ------------------------------------------ *)

let spec_begin t =
  t.spec_epoch <- true;
  t.spec_structural <- false;
  Pmap.spec_clear t.phys

let spec_drain t = Pmap.spec_drain t.phys
let spec_structural t = t.spec_structural

let spec_end t =
  t.spec_epoch <- false;
  t.spec_structural <- false
