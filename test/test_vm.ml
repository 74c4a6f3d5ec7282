module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Page = Aurora_vm.Page
module Vm_object = Aurora_vm.Vm_object
module Pmap = Aurora_vm.Pmap
module Vm_map = Aurora_vm.Vm_map
module Vm_space = Aurora_vm.Vm_space

let test_page_roundtrip () =
  let p = Page.alloc () in
  Page.set p 0 'a';
  Page.set p 4095 'z';
  Alcotest.(check char) "first byte" 'a' (Page.get p 0);
  Alcotest.(check char) "folded offset" 'z' (Page.get p (4095 mod 64 + 64 * 10));
  let q = Page.copy p in
  Alcotest.(check bool) "copy content equal" true (Page.equal_content p q);
  Alcotest.(check bool) "copy identity differs" false (Page.id p = Page.id q);
  Page.set q 0 'b';
  Alcotest.(check char) "copies independent" 'a' (Page.get p 0)

let test_page_payload () =
  let p = Page.alloc_init (fun i -> Char.chr (i mod 256)) in
  let payload = Page.blit_payload p in
  Alcotest.(check int) "payload size" Page.payload_size (Bytes.length payload);
  let q = Page.alloc () in
  Page.load_payload q payload;
  Alcotest.(check bool) "load restores content" true (Page.equal_content p q)

let test_object_shadow_lookup () =
  let clock = Clock.create () in
  let base = Vm_object.create Vm_object.Anonymous in
  let p0 = Page.alloc () in
  Page.set p0 0 'b';
  Vm_object.insert_page base 0 p0;
  let shadow = Vm_object.shadow ~clock base in
  Alcotest.(check int) "chain length" 2 (Vm_object.chain_length shadow);
  (match Vm_object.lookup ~clock shadow 0 with
  | Some (p, src) ->
      Alcotest.(check bool) "found in parent" true (src == base);
      Alcotest.(check char) "content" 'b' (Page.get p 0)
  | None -> Alcotest.fail "page not found through shadow");
  (* A private page in the shadow wins over the parent's. *)
  let priv = Page.alloc () in
  Page.set priv 0 's';
  Vm_object.insert_page shadow 0 priv;
  match Vm_object.lookup ~clock shadow 0 with
  | Some (p, src) ->
      Alcotest.(check bool) "found in shadow" true (src == shadow);
      Alcotest.(check char) "shadow content wins" 's' (Page.get p 0)
  | None -> Alcotest.fail "page not found"

let test_object_lookup_charges_hops () =
  let clock = Clock.create () in
  let base = Vm_object.create Vm_object.Anonymous in
  Vm_object.insert_page base 3 (Page.alloc ());
  let s1 = Vm_object.shadow ~clock base in
  let s2 = Vm_object.shadow ~clock s1 in
  let before = Clock.now clock in
  ignore (Vm_object.lookup ~clock s2 3);
  Alcotest.(check int) "two hops charged" (2 * Cost.shadow_chain_hop)
    (Clock.now clock - before)

(* A level's pager is consulted before the walk descends to a page already
   resident in an ancestor, and the paged-in page lands at that level. *)
let test_object_lookup_pager_before_ancestor () =
  let clock = Clock.create () in
  let base = Vm_object.create Vm_object.Anonymous in
  let old_page = Page.alloc () in
  Page.set old_page 0 'o';
  Vm_object.insert_page base 3 old_page;
  let s1 = Vm_object.shadow ~clock base in
  let s2 = Vm_object.shadow ~clock s1 in
  let newer = Page.alloc () in
  Page.set newer 0 'n';
  Vm_object.set_pager s1
    (Some (fun idx -> if idx = 3 then [ (3, Page.blit_payload newer) ] else []));
  let pageins = ref 0 in
  let on_pagein _ _ = incr pageins in
  let before = Clock.now clock in
  (match Vm_object.lookup ~on_pagein ~clock s2 3 with
  | Some (p, src) ->
      Alcotest.(check bool) "paged in at the pager's level" true (src == s1);
      Alcotest.(check char) "pager's version wins" 'n' (Page.get p 0)
  | None -> Alcotest.fail "page not found");
  Alcotest.(check int) "one page-in" 1 !pageins;
  Alcotest.(check int) "one hop charged" Cost.shadow_chain_hop (Clock.now clock - before);
  (* The paged-in page is now resident: a second walk does not page in. *)
  ignore (Vm_object.lookup ~on_pagein ~clock s2 3);
  Alcotest.(check int) "resident after page-in" 1 !pageins;
  (* A pager with nothing for the index lets the walk descend. *)
  match Vm_object.lookup ~on_pagein ~clock s2 7 with
  | None -> Alcotest.(check int) "miss does not page in" 1 !pageins
  | Some _ -> Alcotest.fail "unexpected page"

let marked c =
  let p = Page.alloc () in
  Page.set p 0 c;
  p

(* A pager's cluster: every page it returns lands at the pager's level,
   not the top; a page resident there (written since the checkpoint) is
   never replaced; [on_pagein] counts the pages installed; and a pager
   that does not store the faulting index lets the walk descend. *)
let test_object_lookup_pager_cluster () =
  let clock = Clock.create () in
  let base = Vm_object.create Vm_object.Anonymous in
  Vm_object.insert_page base 5 (marked 'a');
  let s1 = Vm_object.shadow ~clock base in
  let top = Vm_object.shadow ~clock s1 in
  Vm_object.insert_page s1 2 (marked 'd');
  let calls = ref 0 in
  Vm_object.set_pager s1
    (Some
       (fun idx ->
         incr calls;
         if idx < 4 then List.map (fun i -> (i, Page.blit_payload (marked 'p'))) [ 0; 1; 2; 3 ]
         else []));
  let pageins = ref 0 in
  let on_pagein _ _ = incr pageins in
  (match Vm_object.lookup ~on_pagein ~clock top 1 with
  | Some (p, src) ->
      Alcotest.(check bool) "faulting page at the pager's level" true (src == s1);
      Alcotest.(check char) "pager's bytes" 'p' (Page.get p 0)
  | None -> Alcotest.fail "page not found");
  Alcotest.(check int) "one page-in per page installed" 3 !pageins;
  Alcotest.(check int) "nothing lands at the top" 0 (Vm_object.resident_pages top);
  Alcotest.(check int) "the cluster lands at the pager's level" 4
    (Vm_object.resident_pages s1);
  (match Vm_object.find_local s1 2 with
  | Some p -> Alcotest.(check char) "resident page not replaced" 'd' (Page.get p 0)
  | None -> Alcotest.fail "resident page dropped");
  (match Vm_object.lookup ~on_pagein ~clock top 3 with
  | Some (p, src) ->
      Alcotest.(check bool) "neighbour resident at the pager's level" true (src == s1);
      Alcotest.(check char) "neighbour's bytes" 'p' (Page.get p 0)
  | None -> Alcotest.fail "neighbour not found");
  Alcotest.(check int) "a neighbour's fault does not ask the pager" 1 !calls;
  (match Vm_object.lookup ~on_pagein ~clock top 5 with
  | Some (p, src) ->
      Alcotest.(check bool) "unstored index descends to the ancestor" true (src == base);
      Alcotest.(check char) "ancestor's bytes" 'a' (Page.get p 0)
  | None -> Alcotest.fail "ancestor page not found");
  Alcotest.(check int) "an empty cluster pages nothing in" 3 !pageins

let make_chain ~parent_pages ~shadow_pages =
  let clock = Clock.create () in
  let base = Vm_object.create Vm_object.Anonymous in
  for i = 0 to parent_pages - 1 do
    Vm_object.insert_page base i (Page.alloc ())
  done;
  let shadow = Vm_object.shadow ~clock base in
  for i = 0 to shadow_pages - 1 do
    let p = Page.alloc () in
    Page.set p 0 'S';
    Vm_object.insert_page shadow i p
  done;
  (clock, base, shadow)

let test_collapse_stock_direction () =
  let clock, _base, shadow = make_chain ~parent_pages:100 ~shadow_pages:3 in
  let survivor = Vm_object.collapse ~clock ~direction:Vm_object.Stock_freebsd shadow in
  Alcotest.(check bool) "shadow survives" true (survivor == shadow);
  (* Moves = parent pages without a shadow version. *)
  Alcotest.(check int) "moves" 97 (Vm_object.pages_moved_by_last_collapse ());
  Alcotest.(check int) "all pages present" 100 (Vm_object.resident_pages survivor);
  Alcotest.(check int) "chain collapsed" 1 (Vm_object.chain_length survivor)

let test_collapse_aurora_direction () =
  let clock, base, shadow = make_chain ~parent_pages:100 ~shadow_pages:3 in
  let survivor = Vm_object.collapse ~clock ~direction:Vm_object.Aurora_reverse shadow in
  Alcotest.(check bool) "parent survives" true (survivor == base);
  Alcotest.(check int) "moves only shadow pages" 3 (Vm_object.pages_moved_by_last_collapse ());
  Alcotest.(check int) "all pages present" 100 (Vm_object.resident_pages survivor);
  (* The shadow's version of overlapping pages wins in both directions. *)
  match Vm_object.lookup ~clock survivor 0 with
  | Some (p, _) -> Alcotest.(check char) "shadow version wins" 'S' (Page.get p 0)
  | None -> Alcotest.fail "page missing after collapse"

let test_collapse_directions_agree () =
  let content survivor clock n =
    List.init n (fun i ->
        match Vm_object.lookup ~clock survivor i with
        | Some (p, _) -> Some (Page.get p 0)
        | None -> None)
  in
  let clock1, _, sh1 = make_chain ~parent_pages:20 ~shadow_pages:7 in
  let s1 = Vm_object.collapse ~clock:clock1 ~direction:Vm_object.Stock_freebsd sh1 in
  let clock2, _, sh2 = make_chain ~parent_pages:20 ~shadow_pages:7 in
  let s2 = Vm_object.collapse ~clock:clock2 ~direction:Vm_object.Aurora_reverse sh2 in
  Alcotest.(check bool)
    "both directions yield the same logical content" true
    (content s1 clock1 20 = content s2 clock2 20)

let test_collapse_cost_asymmetry () =
  (* The paper's optimization: with a big parent and a small shadow, the
     reverse collapse is much cheaper. *)
  let clock1, _, sh1 = make_chain ~parent_pages:10_000 ~shadow_pages:10 in
  let t0 = Clock.now clock1 in
  ignore (Vm_object.collapse ~clock:clock1 ~direction:Vm_object.Stock_freebsd sh1);
  let stock_cost = Clock.now clock1 - t0 in
  let clock2, _, sh2 = make_chain ~parent_pages:10_000 ~shadow_pages:10 in
  let t0 = Clock.now clock2 in
  ignore (Vm_object.collapse ~clock:clock2 ~direction:Vm_object.Aurora_reverse sh2);
  let aurora_cost = Clock.now clock2 - t0 in
  Alcotest.(check bool)
    (Printf.sprintf "reverse collapse cheaper (%d vs %d)" aurora_cost stock_cost)
    true
    (aurora_cost * 100 < stock_cost)

let test_pmap_downgrade () =
  let clock = Clock.create () in
  let pm = Pmap.create () in
  for v = 0 to 9 do
    Pmap.install pm v (Page.alloc ()) ~writable:(v mod 2 = 0)
  done;
  let before = Clock.now clock in
  let n = Pmap.downgrade_range pm ~clock ~vpn:0 ~npages:10 in
  Alcotest.(check int) "downgraded the writable half" 5 n;
  Alcotest.(check int) "charged per page" (5 * Cost.cow_mark_page) (Clock.now clock - before);
  Alcotest.(check int) "no writable PTEs left" 0 (Pmap.writable_count pm)

let test_space_write_read () =
  let clock = Clock.create () in
  let s = Vm_space.create ~clock in
  let e = Vm_space.map_anonymous s ~npages:4 ~prot:Vm_map.prot_rw in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.write_string s ~addr "hello vm";
  Alcotest.(check string) "roundtrip" "hello vm" (Vm_space.read_string s ~addr ~len:8)

let test_space_zero_fill () =
  let clock = Clock.create () in
  let s = Vm_space.create ~clock in
  let e = Vm_space.map_anonymous s ~npages:1 ~prot:Vm_map.prot_rw in
  let addr = Vm_space.addr_of_entry e in
  Alcotest.(check char) "zero filled" '\000' (Vm_space.read_byte s ~addr);
  Alcotest.(check int) "zero fill counted" 1 (Vm_space.stats s).Vm_space.zero_fills

let test_space_fault_on_unmapped () =
  let clock = Clock.create () in
  let s = Vm_space.create ~clock in
  Alcotest.check_raises "unmapped faults" (Vm_space.Fault "no mapping at vpn 0")
    (fun () -> ignore (Vm_space.read_byte s ~addr:42))

let test_space_write_to_readonly_faults () =
  let clock = Clock.create () in
  let s = Vm_space.create ~clock in
  let e = Vm_space.map_anonymous s ~npages:1 ~prot:Vm_map.prot_ro in
  let addr = Vm_space.addr_of_entry e in
  Alcotest.check_raises "read-only faults"
    (Vm_space.Fault "write to read-only mapping") (fun () ->
      Vm_space.write_byte s ~addr 'x')

let test_space_cow_isolation_after_fork () =
  let clock = Clock.create () in
  let parent = Vm_space.create ~clock in
  let e = Vm_space.map_anonymous parent ~npages:2 ~prot:Vm_map.prot_rw in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.write_string parent ~addr "orig";
  let child = Vm_space.fork parent in
  (* Child sees the parent's pre-fork data... *)
  Alcotest.(check string) "inherited" "orig" (Vm_space.read_string child ~addr ~len:4);
  (* ...and writes diverge both ways. *)
  Vm_space.write_string child ~addr "kid!";
  Alcotest.(check string) "parent unaffected" "orig" (Vm_space.read_string parent ~addr ~len:4);
  Vm_space.write_string parent ~addr "dad!";
  Alcotest.(check string) "child unaffected" "kid!" (Vm_space.read_string child ~addr ~len:4);
  Alcotest.(check bool) "cow faults happened" true ((Vm_space.stats child).Vm_space.cow_faults > 0)

let test_space_shared_mapping_fork () =
  let clock = Clock.create () in
  let parent = Vm_space.create ~clock in
  let obj = Vm_object.create Vm_object.Anonymous in
  let e =
    Vm_space.map_object ~shared:true parent ~obj ~obj_pgoff:0 ~npages:1
      ~prot:Vm_map.prot_rw
  in
  let addr = Vm_space.addr_of_entry e in
  let child = Vm_space.fork parent in
  Vm_space.write_string parent ~addr "shared";
  Alcotest.(check string) "child sees parent write" "shared"
    (Vm_space.read_string child ~addr ~len:6)

let test_space_shared_stale_pte_refault () =
  (* Two spaces map the same object; after a system shadow is interposed,
     a write by one must become visible to the other even though it had a
     cached PTE. *)
  let clock = Clock.create () in
  let a = Vm_space.create ~clock and b = Vm_space.create ~clock in
  let obj = Vm_object.create Vm_object.Anonymous in
  let ea = Vm_space.map_object ~shared:true a ~obj ~obj_pgoff:0 ~npages:1 ~prot:Vm_map.prot_rw in
  let eb = Vm_space.map_object ~shared:true b ~obj ~obj_pgoff:0 ~npages:1 ~prot:Vm_map.prot_rw in
  let addr_a = Vm_space.addr_of_entry ea and addr_b = Vm_space.addr_of_entry eb in
  Vm_space.write_byte a ~addr:addr_a 'x';
  Alcotest.(check char) "b caches PTE" 'x' (Vm_space.read_byte b ~addr:addr_b);
  (* Interpose a shadow above the shared object in both spaces. *)
  let shadow = Vm_object.shadow ~clock obj in
  ignore (Vm_space.replace_object a ~old_obj:obj ~new_obj:shadow);
  ignore (Vm_space.replace_object b ~old_obj:obj ~new_obj:shadow);
  Vm_space.write_byte a ~addr:addr_a 'y';
  Alcotest.(check char) "b sees post-shadow write" 'y' (Vm_space.read_byte b ~addr:addr_b);
  Alcotest.(check bool) "b paid a refault" true
    ((Vm_space.stats b).Vm_space.stale_refaults > 0
    || (Vm_space.stats b).Vm_space.soft_faults > 1)

let test_space_replace_object_charges_marking () =
  let clock = Clock.create () in
  let s = Vm_space.create ~clock in
  let e = Vm_space.map_anonymous s ~npages:64 ~prot:Vm_map.prot_rw in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.touch_write s ~addr ~len:(64 * Page.logical_size);
  let obj = e.Vm_map.obj in
  let shadow = Vm_object.shadow ~clock obj in
  let before = Clock.now clock in
  let n = Vm_space.replace_object s ~old_obj:obj ~new_obj:shadow in
  Alcotest.(check int) "all dirty PTEs downgraded" 64 n;
  Alcotest.(check bool) "charged" true (Clock.now clock - before >= 64 * Cost.cow_mark_page)

let test_space_dirty_top_pages () =
  let clock = Clock.create () in
  let s = Vm_space.create ~clock in
  let e = Vm_space.map_anonymous s ~npages:16 ~prot:Vm_map.prot_rw in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.touch_write s ~addr ~len:(5 * Page.logical_size);
  Alcotest.(check int) "five dirty pages" 5 (Vm_space.dirty_top_pages s);
  (* After interposing a shadow, the top is clean again. *)
  let obj = e.Vm_map.obj in
  let shadow = Vm_object.shadow ~clock obj in
  ignore (Vm_space.replace_object s ~old_obj:obj ~new_obj:shadow);
  Alcotest.(check int) "clean after shadowing" 0 (Vm_space.dirty_top_pages s);
  Vm_space.touch_write s ~addr ~len:(2 * Page.logical_size);
  Alcotest.(check int) "two new dirty pages" 2 (Vm_space.dirty_top_pages s)

let test_space_excluded_entries_not_shadowed () =
  let clock = Clock.create () in
  let s = Vm_space.create ~clock in
  let e1 = Vm_space.map_anonymous s ~npages:1 ~prot:Vm_map.prot_rw in
  let e2 = Vm_space.map_anonymous s ~npages:1 ~prot:Vm_map.prot_rw in
  e2.Vm_map.excluded <- true;
  ignore e1;
  Alcotest.(check int) "only one object to shadow" 1 (List.length (Vm_space.unique_objects s))

let test_map_object_nonzero_pgoff () =
  (* A window into the middle of an object: index translation must hold
     for reads, writes and COW. *)
  let clock = Clock.create () in
  let s = Vm_space.create ~clock in
  let obj = Vm_object.create Vm_object.Anonymous in
  let p5 = Page.alloc () in
  Page.set p5 0 'F';
  Vm_object.insert_page obj 5 p5;
  let e = Vm_space.map_object s ~obj ~obj_pgoff:4 ~npages:4 ~prot:Vm_map.prot_rw in
  let addr = Vm_space.addr_of_entry e in
  (* Entry page 1 = object page 5. *)
  Alcotest.(check char) "window translation" 'F'
    (Vm_space.read_byte s ~addr:(addr + Page.logical_size));
  Vm_space.write_byte s ~addr:(addr + (2 * Page.logical_size)) 'W';
  Alcotest.(check bool) "write landed at object page 6" true
    (match Vm_object.find_local obj 6 with
    | Some p -> Page.get p 0 = 'W'
    | None -> false)

let test_unmap_drops_translations () =
  let clock = Clock.create () in
  let s = Vm_space.create ~clock in
  let e = Vm_space.map_anonymous s ~npages:2 ~prot:Vm_map.prot_rw in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.write_byte s ~addr 'x';
  Vm_space.unmap s e;
  Alcotest.(check bool) "faults after unmap" true
    (try
       ignore (Vm_space.read_byte s ~addr);
       false
     with Vm_space.Fault _ -> true);
  Alcotest.(check int) "no stale PTEs" 0 (Pmap.resident (Vm_space.pmap s))

(* Fault-around's mapping half.  A pager that returns the faulting
   page's aligned window of [window] pages, each marked [c]. *)
let window = 16

let window_pager c idx =
  let first = idx / window * window in
  List.init window (fun k -> (first + k, Page.blit_payload (marked c)))

(* One page-in maps the window's other pages read-only and clean at one
   PTE write each: their reads cost nothing, and a write to one refaults,
   copies on write and dirties both planes like any other write. *)
let test_fault_around_maps_window () =
  let clock = Clock.create () in
  let s = Vm_space.create ~clock in
  let base = Vm_object.create Vm_object.Anonymous in
  Vm_object.set_pager base (Some (window_pager 'p'));
  (* A restored group's layout: the paged level under a checkpoint shadow. *)
  let top = Vm_object.shadow ~clock base in
  let e = Vm_space.map_object s ~obj:top ~obj_pgoff:0 ~npages:window ~prot:Vm_map.prot_rw in
  let page_addr i = Vm_space.addr_of_entry e + (i * Page.logical_size) in
  let pmap = Vm_space.pmap s in
  let st = Vm_space.stats s in
  let before = Clock.now clock in
  Alcotest.(check char) "faulting page" 'p' (Vm_space.read_byte s ~addr:(page_addr 0));
  Alcotest.(check int) "the window paged in" window st.Vm_space.pageins;
  Alcotest.(check int) "its other pages mapped" (window - 1) st.Vm_space.mapped_around;
  Alcotest.(check int) "one soft fault, one hop, one PTE write per neighbour"
    (Cost.soft_fault + Cost.shadow_chain_hop + ((window - 1) * Cost.cow_mark_page))
    (Clock.now clock - before);
  Alcotest.(check int) "every page has a PTE" window (Pmap.resident pmap);
  Alcotest.(check int) "none writable" 0 (Pmap.writable_count pmap);
  Alcotest.(check (list int)) "none dirty" [] (Pmap.dirty_vpns pmap);
  let faults = st.Vm_space.soft_faults in
  let before = Clock.now clock in
  for i = 1 to window - 1 do
    Alcotest.(check char)
      (Printf.sprintf "neighbour %d" i)
      'p'
      (Vm_space.read_byte s ~addr:(page_addr i))
  done;
  Alcotest.(check int) "the other touches take no soft fault" faults
    st.Vm_space.soft_faults;
  Alcotest.(check int) "the other touches cost 0 ns" 0 (Clock.now clock - before);
  Vm_space.spec_begin s;
  let vpn = e.Vm_map.start_vpn + 5 in
  Vm_space.write_byte s ~addr:(page_addr 5) 'w';
  Alcotest.(check int) "a write to a mapped neighbour copies on write" 1
    st.Vm_space.cow_faults;
  (match Pmap.find pmap vpn with
  | Some pte -> Alcotest.(check bool) "now writable" true pte.Pmap.writable
  | None -> Alcotest.fail "written page lost its PTE");
  Alcotest.(check (list int)) "in the dirty plane" [ vpn ] (Pmap.dirty_vpns pmap);
  Alcotest.(check (list int)) "in the speculative plane" [ vpn ] (Vm_space.spec_drain s);
  Alcotest.(check char) "the write landed in the shadow" 'w'
    (match Vm_object.find_local top 5 with Some p -> Page.get p 0 | None -> '?');
  Alcotest.(check char) "the paged level keeps its copy" 'p'
    (match Vm_object.find_local base 5 with Some p -> Page.get p 0 | None -> '?')

(* Only the faulting entry's pages are mapped: another entry over the same
   object keeps no PTE, and the window's pages outside both stay unmapped. *)
let test_fault_around_clipped_to_entry () =
  let clock = Clock.create () in
  let s = Vm_space.create ~clock in
  let obj = Vm_object.create Vm_object.Anonymous in
  Vm_object.set_pager obj (Some (window_pager 'p'));
  let e1 = Vm_space.map_object s ~obj ~obj_pgoff:4 ~npages:8 ~prot:Vm_map.prot_rw in
  let e2 = Vm_space.map_object s ~obj ~obj_pgoff:12 ~npages:4 ~prot:Vm_map.prot_rw in
  let pmap = Vm_space.pmap s in
  let st = Vm_space.stats s in
  ignore (Vm_space.read_byte s ~addr:(Vm_space.addr_of_entry e1));
  Alcotest.(check int) "the whole window paged in" window st.Vm_space.pageins;
  Alcotest.(check int) "the entry's other pages mapped" 7 st.Vm_space.mapped_around;
  for i = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "entry page %d mapped" i)
      true
      (Option.is_some (Pmap.find pmap (e1.Vm_map.start_vpn + i)))
  done;
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "other entry's page %d not mapped" i)
      true
      (Option.is_none (Pmap.find pmap (e2.Vm_map.start_vpn + i)))
  done;
  Alcotest.(check int) "only the faulting entry's PTEs" 8 (Pmap.resident pmap);
  let faults = st.Vm_space.soft_faults in
  Alcotest.(check char) "the other entry faults in the resident page" 'p'
    (Vm_space.read_byte s ~addr:(Vm_space.addr_of_entry e2));
  Alcotest.(check int) "with a soft fault" (faults + 1) st.Vm_space.soft_faults;
  Alcotest.(check int) "and no page-in" window st.Vm_space.pageins

(* A neighbour whose walk would stop above the paged level is left for
   its own fault: a nearer resident page resolves that index instead, and
   a nearer level with a pager of its own (a COW sibling's level) might
   hold a newer version, so nothing under it is mapped unless its pager
   says it does not store the index. *)
let test_fault_around_respects_nearer_levels () =
  let setup ?stores ~mid_pager () =
    let clock = Clock.create () in
    let s = Vm_space.create ~clock in
    let base = Vm_object.create Vm_object.Anonymous in
    Vm_object.set_pager base (Some (window_pager 'p'));
    let mid = Vm_object.shadow ~clock base in
    Vm_object.insert_page mid 3 (marked 'd');
    if mid_pager then
      Vm_object.set_pager mid ?stores
        (Some (fun idx -> if idx = 5 then [ (5, Page.blit_payload (marked 'n')) ] else []));
    let top = Vm_object.shadow ~clock mid in
    let e = Vm_space.map_object s ~obj:top ~obj_pgoff:0 ~npages:window ~prot:Vm_map.prot_rw in
    let page_addr i = Vm_space.addr_of_entry e + (i * Page.logical_size) in
    ignore (Vm_space.read_byte s ~addr:(page_addr 0));
    let mapped i = Option.is_some (Pmap.find (Vm_space.pmap s) (e.Vm_map.start_vpn + i)) in
    (s, page_addr, mapped)
  in
  let s, page_addr, mapped = setup ~mid_pager:false () in
  let st = Vm_space.stats s in
  Alcotest.(check int) "the paged level's window" window st.Vm_space.pageins;
  Alcotest.(check int) "all but the nearer resident index mapped" (window - 2)
    st.Vm_space.mapped_around;
  Alcotest.(check bool) "nearer resident page not mapped" false (mapped 3);
  Alcotest.(check char) "the nearer page wins" 'd' (Vm_space.read_byte s ~addr:(page_addr 3));
  Alcotest.(check int) "no stale refault" 0 st.Vm_space.stale_refaults;
  let s, page_addr, mapped = setup ~mid_pager:true () in
  let st = Vm_space.stats s in
  Alcotest.(check int) "the paged level's window, under a nearer pager" window
    st.Vm_space.pageins;
  Alcotest.(check int) "nothing mapped under a nearer pager" 0 st.Vm_space.mapped_around;
  Alcotest.(check bool) "the nearer pager's index not mapped" false (mapped 5);
  Alcotest.(check char) "the nearer pager's version wins" 'n'
    (Vm_space.read_byte s ~addr:(page_addr 5));
  Alcotest.(check int) "no stale refault under a nearer pager" 0 st.Vm_space.stale_refaults;
  let s, page_addr, mapped = setup ~stores:(( = ) 5) ~mid_pager:true () in
  let st = Vm_space.stats s in
  Alcotest.(check int) "mapped past a nearer pager, but for its stored index" (window - 3)
    st.Vm_space.mapped_around;
  Alcotest.(check bool) "the stored index not mapped" false (mapped 5);
  Alcotest.(check bool) "an index it does not store mapped" true (mapped 6);
  Alcotest.(check char) "its version still wins" 'n' (Vm_space.read_byte s ~addr:(page_addr 5));
  Alcotest.(check char) "the paged level's page under it" 'p'
    (Vm_space.read_byte s ~addr:(page_addr 6));
  Alcotest.(check int) "no stale refault past a nearer pager" 0 st.Vm_space.stale_refaults

let qcheck_tests =
  [
    (* A fork FAMILY, not just one parent/child pair: random interleavings
       of forks (of any member), writes (to any member) and
       checkpoint-style shadow rotations must leave every member's bytes
       exactly its own write history resolved through however many COW
       shadow levels the run built up.  Rotation is the checkpoint
       pipeline's interposition and must be content-transparent. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"fork family: COW byte identity under random forks/writes/rotations"
         ~count:60
         QCheck.(
           list_of_size (Gen.int_range 1 60)
             (triple (int_range 0 9) (int_range 0 5) (int_range 0 (8 * 4096 - 1))))
         (fun ops ->
           let clock = Clock.create () in
           let root = Vm_space.create ~clock in
           let e = Vm_space.map_anonymous root ~npages:8 ~prot:Vm_map.prot_rw in
           let base = Vm_space.addr_of_entry e in
           (* Shadow model per member: folded page slot -> last char written
              there.  Pages hold [Page.payload_size] real bytes and fold
              larger offsets onto them, so two offsets in one page can
              alias — the model must key on the folded slot. *)
           let key off =
             ((off / Page.logical_size) * Page.payload_size)
             + (off mod Page.payload_size)
           in
           let addr_of_key k =
             base
             + ((k / Page.payload_size) * Page.logical_size)
             + (k mod Page.payload_size)
           in
           let family = ref [ (root, Hashtbl.create 64) ] in
           List.iteri
             (fun i (tag, who, off) ->
               let space, model = List.nth !family (who mod List.length !family) in
               match tag with
               | 0 | 1 when List.length !family < 6 ->
                   let child = Vm_space.fork space in
                   family := !family @ [ (child, Hashtbl.copy model) ]
               | 2 -> (
                   (* Checkpoint rotation: interpose a fresh shadow above
                      this member's top object. *)
                   match Vm_space.unique_objects space with
                   | obj :: _ ->
                       let sh = Vm_object.shadow ~clock obj in
                       ignore (Vm_space.replace_object space ~old_obj:obj ~new_obj:sh)
                   | [] -> ())
               | _ ->
                   let c = Char.chr (Char.code 'a' + (i mod 26)) in
                   Vm_space.write_byte space ~addr:(base + off) c;
                   Hashtbl.replace model (key off) c)
             ops;
           List.for_all
             (fun (space, model) ->
               Hashtbl.fold
                 (fun k c ok ->
                   ok && Vm_space.read_byte space ~addr:(addr_of_key k) = c)
                 model true)
             !family));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"space write/read roundtrip at random offsets" ~count:200
         QCheck.(pair (int_range 0 (16 * 4096 - 32)) (string_of_size (Gen.int_range 1 32)))
         (fun (off, data) ->
           let clock = Clock.create () in
           let s = Vm_space.create ~clock in
           let e = Vm_space.map_anonymous s ~npages:16 ~prot:Vm_map.prot_rw in
           let addr = Vm_space.addr_of_entry e + off in
           Vm_space.write_string s ~addr data;
           Vm_space.read_string s ~addr ~len:(String.length data) = data));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"collapse preserves content for random overlaps" ~count:200
         QCheck.(pair (list_of_size (Gen.int_range 0 30) (int_range 0 49)) bool)
         (fun (shadow_idxs, stock) ->
           let clock = Clock.create () in
           let base = Vm_object.create Vm_object.Anonymous in
           for i = 0 to 49 do
             let p = Page.alloc () in
             Page.set p 0 'P';
             Vm_object.insert_page base i p
           done;
           let shadow = Vm_object.shadow ~clock base in
           List.iter
             (fun i ->
               let p = Page.alloc () in
               Page.set p 0 'S';
               Vm_object.insert_page shadow i p)
             shadow_idxs;
           let expected =
             List.init 50 (fun i -> if List.mem i shadow_idxs then 'S' else 'P')
           in
           let direction =
             if stock then Vm_object.Stock_freebsd else Vm_object.Aurora_reverse
           in
           let survivor = Vm_object.collapse ~clock ~direction shadow in
           let got =
             List.init 50 (fun i ->
                 match Vm_object.lookup ~clock survivor i with
                 | Some (p, _) -> Page.get p 0
                 | None -> '?')
           in
           got = expected));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fork isolation under random write interleavings" ~count:100
         QCheck.(list_of_size (Gen.int_range 1 40) (pair bool (int_range 0 (4 * 4096 - 1))))
         (fun writes ->
           let clock = Clock.create () in
           let parent = Vm_space.create ~clock in
           let e = Vm_space.map_anonymous parent ~npages:4 ~prot:Vm_map.prot_rw in
           let base = Vm_space.addr_of_entry e in
           let child = Vm_space.fork parent in
           (* Model of expected contents: parent and child byte maps. *)
           let pmodel = Hashtbl.create 64 and cmodel = Hashtbl.create 64 in
           List.iter
             (fun (to_child, off) ->
               let c = if to_child then 'c' else 'p' in
               let space, model = if to_child then (child, cmodel) else (parent, pmodel) in
               Vm_space.write_byte space ~addr:(base + off) c;
               Hashtbl.replace model off c)
             writes;
           let check space model =
             Hashtbl.fold
               (fun off c ok -> ok && Vm_space.read_byte space ~addr:(base + off) = c)
               model true
           in
           check parent pmodel && check child cmodel));
    (* The dirty-bit harvest feeding incremental checkpoints is only as
       good as the PTE transitions that stamp it: every path that installs
       a writable translation on a write fault must set the bit (a soft
       fault, a COW copy, a zero fill, a refault after fork/shadow
       downgrade), reads must not, and a mutation that bypasses the fault
       path entirely — the unstamped poke — must stay invisible, which is
       exactly why the serializer treats it as the negative control. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"pmap dirty bits: fork/COW/shm/rotation leave the exact dirty set"
         ~count:100
         QCheck.(
           list_of_size (Gen.int_range 1 40)
             (pair (int_range 0 8) (int_range 0 7)))
         (fun ops ->
           let clock = Clock.create () in
           let s = Vm_space.create ~clock in
           let e = Vm_space.map_anonymous s ~npages:8 ~prot:Vm_map.prot_rw in
           let base = Vm_space.addr_of_entry e in
           let model = Hashtbl.create 8 in
           (* Parallel model of the double-buffered speculation plane:
              writes stamp both planes, but harvesting one must never
              disturb the other. *)
           let smodel = Hashtbl.create 8 in
           let ok = ref true in
           let dirty_now () = Pmap.dirty_vpns (Vm_space.pmap s) in
           let spec_now () = Pmap.spec_dirty_vpns (Vm_space.pmap s) in
           let sorted tbl =
             Hashtbl.fold (fun v () acc -> v :: acc) tbl [] |> List.sort compare
           in
           let model_sorted () = sorted model in
           List.iter
             (fun (op, pg) ->
               let vpn = e.Vm_map.start_vpn + pg in
               match op with
               | 0 ->
                   (* Write: whichever fault path resolves it (soft, COW,
                      zero-fill, downgrade refault) must stamp the bit. *)
                   Vm_space.write_byte s ~addr:(base + (pg * 4096)) 'w';
                   Hashtbl.replace model vpn ();
                   Hashtbl.replace smodel vpn ()
               | 1 ->
                   (* Read: never dirties, even when it installs a PTE. *)
                   ignore (Vm_space.read_byte s ~addr:(base + (pg * 4096)))
               | 2 ->
                   (* Harvest: the hardware-set bits are exactly the model. *)
                   if dirty_now () <> model_sorted () then ok := false;
                   Pmap.clear_dirty (Vm_space.pmap s);
                   Hashtbl.reset model;
                   (* The incremental harvest must not disturb the spec
                      plane. *)
                   if spec_now () <> sorted smodel then ok := false
               | 3 ->
                   (* Fork downgrades the parent's PTEs but keeps their
                      dirty bits: the pre-fork dirty set must survive. *)
                   ignore (Vm_space.fork s);
                   if dirty_now () <> model_sorted () then ok := false
               | 4 ->
                   (* Checkpoint shadow rotation: downgrade + TLB flush
                      drop the region's translations, and their dirty bits
                      with them (the harvest runs before rotation in a
                      real checkpoint cycle). *)
                   let obj = e.Vm_map.obj in
                   let sh = Vm_object.shadow ~clock obj in
                   ignore (Vm_space.replace_object s ~old_obj:obj ~new_obj:sh);
                   for v = e.Vm_map.start_vpn to e.Vm_map.start_vpn + 7 do
                     Hashtbl.remove model v;
                     Hashtbl.remove smodel v
                   done
               | 5 ->
                   (* shm map/write/unmap: the shared window dirties while
                      mapped and takes its bits away when unmapped. *)
                   let obj = Vm_object.create Vm_object.Anonymous in
                   let she =
                     Vm_space.map_object ~shared:true s ~obj ~obj_pgoff:0
                       ~npages:1 ~prot:Vm_map.prot_rw
                   in
                   let svpn = she.Vm_map.start_vpn in
                   Vm_space.write_byte s ~addr:(svpn * 4096) 's';
                   if not (List.mem svpn (dirty_now ())) then ok := false;
                   if not (List.mem svpn (spec_now ())) then ok := false;
                   Vm_space.unmap s she;
                   if List.mem svpn (dirty_now ()) then ok := false;
                   if List.mem svpn (spec_now ()) then ok := false
               | 7 ->
                   (* Speculative harvest: drains exactly the spec model
                      and leaves the incremental plane untouched — the
                      double-buffering the checkpoint pipeline relies on
                      when speculation and incremental harvests
                      interleave. *)
                   let before = dirty_now () in
                   if Pmap.spec_drain (Vm_space.pmap s) <> sorted smodel then
                     ok := false;
                   Hashtbl.reset smodel;
                   if dirty_now () <> before then ok := false
               | 8 ->
                   (* Re-arming speculation clears only the spec plane. *)
                   let before = dirty_now () in
                   Pmap.spec_clear (Vm_space.pmap s);
                   Hashtbl.reset smodel;
                   if dirty_now () <> before then ok := false
               | _ ->
                   (* Unstamped poke: mutate the resolved page behind the
                      pmap's back.  The dirty bit must NOT appear — this
                      is the mutation class incremental harvests cannot
                      see, so it must never look like they could. *)
                   ignore (Vm_space.read_byte s ~addr:(base + (pg * 4096)));
                   (match Pmap.find (Vm_space.pmap s) vpn with
                   | Some pte -> Page.set pte.Pmap.page 5 '!'
                   | None -> ok := false);
                   if (not (Hashtbl.mem model vpn)) && List.mem vpn (dirty_now ())
                   then ok := false;
                   if (not (Hashtbl.mem smodel vpn)) && List.mem vpn (spec_now ())
                   then ok := false)
             ops;
           !ok));
  ]

let () =
  Alcotest.run "aurora_vm"
    [
      ( "page",
        [
          Alcotest.test_case "roundtrip" `Quick test_page_roundtrip;
          Alcotest.test_case "payload" `Quick test_page_payload;
        ] );
      ( "vm_object",
        [
          Alcotest.test_case "shadow lookup" `Quick test_object_shadow_lookup;
          Alcotest.test_case "lookup charges hops" `Quick test_object_lookup_charges_hops;
          Alcotest.test_case "lookup pages in before ancestor" `Quick
            test_object_lookup_pager_before_ancestor;
          Alcotest.test_case "lookup installs a pager's cluster" `Quick
            test_object_lookup_pager_cluster;
          Alcotest.test_case "collapse stock" `Quick test_collapse_stock_direction;
          Alcotest.test_case "collapse aurora" `Quick test_collapse_aurora_direction;
          Alcotest.test_case "directions agree" `Quick test_collapse_directions_agree;
          Alcotest.test_case "cost asymmetry" `Quick test_collapse_cost_asymmetry;
        ] );
      ("pmap", [ Alcotest.test_case "downgrade" `Quick test_pmap_downgrade ]);
      ( "vm_space",
        [
          Alcotest.test_case "write/read" `Quick test_space_write_read;
          Alcotest.test_case "zero fill" `Quick test_space_zero_fill;
          Alcotest.test_case "unmapped faults" `Quick test_space_fault_on_unmapped;
          Alcotest.test_case "read-only faults" `Quick test_space_write_to_readonly_faults;
          Alcotest.test_case "fork COW isolation" `Quick test_space_cow_isolation_after_fork;
          Alcotest.test_case "fork shared mapping" `Quick test_space_shared_mapping_fork;
          Alcotest.test_case "shared stale PTE refault" `Quick test_space_shared_stale_pte_refault;
          Alcotest.test_case "replace charges marking" `Quick test_space_replace_object_charges_marking;
          Alcotest.test_case "dirty top pages" `Quick test_space_dirty_top_pages;
          Alcotest.test_case "excluded not shadowed" `Quick test_space_excluded_entries_not_shadowed;
          Alcotest.test_case "nonzero pgoff window" `Quick test_map_object_nonzero_pgoff;
          Alcotest.test_case "unmap drops PTEs" `Quick test_unmap_drops_translations;
          Alcotest.test_case "fault-around maps the window it pages in" `Quick
            test_fault_around_maps_window;
          Alcotest.test_case "fault-around clipped to the faulting entry" `Quick
            test_fault_around_clipped_to_entry;
          Alcotest.test_case "fault-around not where a nearer level resolves" `Quick
            test_fault_around_respects_nearer_levels;
        ] );
      ("properties", qcheck_tests);
    ]
