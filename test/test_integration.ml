(* Full-system integration tests: scenarios that cross every layer —
   kernel, VM, object store, file system, orchestrator — plus the
   memory-overcommit (swap) and external-synchrony paths. *)

module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Vm_object = Aurora_vm.Vm_object
module Vm_map = Aurora_vm.Vm_map
module Page = Aurora_vm.Page
module Store = Aurora_objstore.Store
module Wire = Aurora_objstore.Wire
module Striped = Aurora_block.Striped
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Api = Aurora_core.Api
module Restore = Aurora_core.Restore
module Migrate = Aurora_core.Migrate
module Replica_set = Aurora_core.Replica_set
module Memcached_bench = Aurora_apps.Memcached_bench

(* The frame carrying [epoch] as a delta from [base], and its body size. *)
let frame ~store ~base ~epoch =
  match Migrate.frame ~store ~base ~epoch with
  | Ok sent -> sent
  | Error e -> Alcotest.fail e

(* Receive a frame the way every store does: open it, check it against
   the sender's manifest digest, commit.  Returns the installed epoch. *)
let recv ~store frame =
  match Result.bind (Migrate.open_shipment frame) (Migrate.install_verified ~store) with
  | Ok epoch -> epoch
  | Error e -> Alcotest.fail e

(* Swap / memory overcommitment (paper section 6) ------------------------- *)

let test_swap_evict_and_fault_back () =
  let sys = Sls.boot () in
  let p = Syscall.spawn sys.Sls.machine ~name:"bigapp" in
  let e = Syscall.mmap_anon p ~npages:256 in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.write_string p.Process.space ~addr "swap me out";
  Vm_space.touch_write p.Process.space ~addr:(addr + 4096) ~len:(255 * 4096);
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  (* The next checkpoint collapses the flushed pages into the logical
     object, making them evictable. *)
  ignore (Group.checkpoint ~wait_durable:true group);
  let before = Group.resident_group_pages group in
  let evicted = Group.evict_clean_pages group ~target:200 in
  Alcotest.(check int) "evicted the target" 200 evicted;
  Alcotest.(check int) "resident set shrank" (before - 200)
    (Group.resident_group_pages group);
  (* Faulting the data back is transparent and correct. *)
  let stats_before = (Vm_space.stats p.Process.space).Vm_space.pageins in
  Alcotest.(check string) "content pages back in" "swap me out"
    (Vm_space.read_string p.Process.space ~addr ~len:11);
  Alcotest.(check bool) "pager was used" true
    ((Vm_space.stats p.Process.space).Vm_space.pageins > stats_before)

let test_swap_eviction_is_zero_copy () =
  (* Evicting clean pages issues no device writes: they are already in
     the checkpoint (the paper's unified data path). *)
  let sys = Sls.boot () in
  let p = Syscall.spawn sys.Sls.machine ~name:"app" in
  let e = Syscall.mmap_anon p ~npages:64 in
  Vm_space.touch_write p.Process.space ~addr:(Vm_space.addr_of_entry e) ~len:(64 * 4096);
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  ignore (Group.checkpoint ~wait_durable:true group);
  Striped.settle sys.Sls.device ~clock:sys.Sls.machine.Machine.clock;
  let written_before = Striped.bytes_written sys.Sls.device in
  ignore (Group.evict_clean_pages group ~target:64);
  Alcotest.(check int) "no write IO for eviction" written_before
    (Striped.bytes_written sys.Sls.device)

let test_swapped_pages_survive_checkpoint_and_crash () =
  let sys = Sls.boot () in
  let p = Syscall.spawn sys.Sls.machine ~name:"app" in
  let e = Syscall.mmap_anon p ~npages:32 in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.write_string p.Process.space ~addr "evicted but durable";
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  ignore (Group.checkpoint ~wait_durable:true group);
  ignore (Group.evict_clean_pages group ~target:32);
  (* More checkpoints with the pages evicted: the store versions must
     carry the content forward untouched. *)
  Vm_space.write_string p.Process.space ~addr:(addr + 8192) "new data";
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "evicted page content survived" "evicted but durable"
        (Vm_space.read_string p'.Process.space ~addr ~len:19);
      Alcotest.(check string) "post-eviction write survived" "new data"
        (Vm_space.read_string p'.Process.space ~addr:(addr + 8192) ~len:8)
  | _ -> Alcotest.fail "expected 1 process"

let test_lazy_restore_demand_pages_through_pager () =
  let sys = Sls.boot () in
  let p = Syscall.spawn sys.Sls.machine ~name:"app" in
  let e = Syscall.mmap_anon p ~npages:128 in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.touch_write p.Process.space ~addr ~len:(128 * 4096);
  Vm_space.write_string p.Process.space ~addr "demand paged";
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore ~lazy_pages:true sys in
  match result.Restore.procs with
  | [ p' ] ->
      let space = p'.Process.space in
      (* The page indices resident anywhere along the mapping's chain. *)
      let resident () =
        match Vm_map.find (Vm_space.map space) (addr / Page.logical_size) with
        | None -> Alcotest.fail "mapping not restored"
        | Some e ->
            let rec walk obj acc =
              let acc = ref acc in
              Vm_object.iter_local obj (fun i _ -> acc := i :: !acc);
              match Vm_object.parent obj with None -> !acc | Some p -> walk p !acc
            in
            List.sort_uniq compare (walk e.Vm_map.obj [])
      in
      let cluster first = List.init Store.fault_cluster (fun i -> first + i) in
      (* Nothing resident until touched. *)
      Alcotest.(check int) "no pages resident after lazy restore" 0
        (Vm_space.resident_pages space);
      Alcotest.(check string) "fault brings the page in" "demand paged"
        (Vm_space.read_string space ~addr ~len:12);
      Alcotest.(check (list int)) "the touched page's cluster came in, nothing else"
        (cluster 0) (resident ());
      Vm_space.touch_read space ~addr:(addr + (Store.fault_cluster * Page.logical_size)) ~len:1;
      Alcotest.(check (list int)) "the next cluster comes in on its first touch"
        (cluster 0 @ cluster Store.fault_cluster) (resident ())
  | _ -> Alcotest.fail "expected 1 process"

let test_madvise_guides_eviction () =
  let sys = Sls.boot () in
  let p = Syscall.spawn sys.Sls.machine ~name:"app" in
  let keep = Syscall.mmap_anon p ~npages:32 in
  let scratch = Syscall.mmap_anon p ~npages:32 in
  Vm_space.touch_write p.Process.space ~addr:(Vm_space.addr_of_entry keep) ~len:(32 * 4096);
  Vm_space.touch_write p.Process.space ~addr:(Vm_space.addr_of_entry scratch)
    ~len:(32 * 4096);
  Syscall.madvise_dontneed p scratch true;
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  ignore (Group.checkpoint ~wait_durable:true group);
  ignore (Group.evict_clean_pages group ~target:32);
  (* The madvised region was drained first; the other stayed resident.
     (After two checkpoints each region's logical object holds its 32
     pages.) *)
  let resident_of (e : Vm_map.entry) =
    let rec bottom o =
      match Vm_object.parent o with None -> o | Some q -> bottom q
    in
    Vm_object.resident_pages (bottom e.Vm_map.obj)
  in
  Alcotest.(check int) "scratch evicted" 0 (resident_of scratch);
  Alcotest.(check int) "keep untouched" 32 (resident_of keep)

(* External synchrony end to end ------------------------------------------- *)

let test_ext_sync_delays_sets_only () =
  let run ext_sync =
    Memcached_bench.run
      {
        Memcached_bench.period_ns = Some 10_000_000;
        load = Memcached_bench.Open_poisson 50_000.0;
        duration_ns = 100_000_000;
        nkeys = 50_000;
        seed = 5;
        ext_sync;
      }
  in
  let off = run false and on = run true in
  Alcotest.(check bool)
    (Printf.sprintf "SETs wait ~period/2 (%.0f vs %.0f ns)"
       on.Memcached_bench.avg_set_latency_ns off.Memcached_bench.avg_set_latency_ns)
    true
    (on.Memcached_bench.avg_set_latency_ns
    > 10.0 *. off.Memcached_bench.avg_set_latency_ns);
  let get_ratio =
    on.Memcached_bench.avg_get_latency_ns /. off.Memcached_bench.avg_get_latency_ns
  in
  Alcotest.(check bool)
    (Printf.sprintf "GETs unaffected (ratio %.2f)" get_ratio)
    true
    (get_ratio > 0.8 && get_ratio < 1.2)

(* A multi-process application across every object kind ------------------- *)

let test_kitchen_sink_application () =
  (* A parent with a worker child, shared memory between them, a pipe, a
     UNIX socket pair with an in-flight message, open files (one
     anonymous), and a kqueue — checkpoint, crash, restore, verify it all
     still works and still shares. *)
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let parent = Syscall.spawn m ~name:"main" in
  let heap = Syscall.mmap_anon parent ~npages:32 in
  let heap_addr = Vm_space.addr_of_entry heap in
  Vm_space.write_string parent.Process.space ~addr:heap_addr "heap state";
  let shm_fd = Syscall.shm_open m parent ~name:"/bus" ~npages:4 in
  let shm_map = Syscall.mmap_shm parent ~fd:shm_fd in
  let shm_addr = Vm_space.addr_of_entry shm_map in
  let rd, wr = Syscall.pipe m parent in
  let sock_a, sock_b = Syscall.socketpair m parent in
  let log_fd = Syscall.open_file m parent ~path:"/log" ~create:true in
  ignore (Syscall.write m parent ~fd:log_fd "log line\n");
  let tmp_fd = Syscall.open_file m parent ~path:"/tmpdata" ~create:true in
  ignore (Syscall.write m parent ~fd:tmp_fd "scratch");
  ignore (Syscall.unlink m ~path:"/tmpdata");
  let child = Syscall.fork m parent in
  let shm_fd_child = Syscall.shm_open m child ~name:"/bus" ~npages:4 in
  let shm_map_child = Syscall.mmap_shm child ~fd:shm_fd_child in
  Vm_space.write_string child.Process.space
    ~addr:(Vm_space.addr_of_entry shm_map_child)
    "from child";
  ignore (Syscall.write m child ~fd:wr "pipe msg");
  Syscall.send_msg m parent ~fd:sock_a "in flight";
  let group = Sls.attach sys [ parent; child ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let sys', result = Sls.reboot_and_restore sys in
  let m' = sys'.Sls.machine in
  match result.Restore.procs with
  | [ parent'; child' ] ->
      Alcotest.(check string) "heap" "heap state"
        (Vm_space.read_string parent'.Process.space ~addr:heap_addr ~len:10);
      Alcotest.(check string) "shared memory written by child" "from child"
        (Vm_space.read_string parent'.Process.space ~addr:shm_addr ~len:10);
      (* Sharing is still live: parent writes, child reads. *)
      Vm_space.write_string parent'.Process.space ~addr:shm_addr "rt sharing";
      Alcotest.(check string) "shm still shared" "rt sharing"
        (Vm_space.read_string child'.Process.space
           ~addr:(Vm_space.addr_of_entry shm_map_child)
           ~len:10);
      Alcotest.(check string) "pipe payload" "pipe msg"
        (Syscall.read m' parent' ~fd:rd ~len:64);
      (match Syscall.recv_msg m' parent' ~fd:sock_b with
      | Some (data, _) -> Alcotest.(check string) "socket message" "in flight" data
      | None -> Alcotest.fail "socket message lost");
      ignore (Syscall.lseek parent' ~fd:log_fd ~off:0);
      Alcotest.(check string) "named file" "log line\n"
        (Syscall.read m' parent' ~fd:log_fd ~len:64);
      ignore (Syscall.lseek parent' ~fd:tmp_fd ~off:0);
      Alcotest.(check string) "anonymous file" "scratch"
        (Syscall.read m' parent' ~fd:tmp_fd ~len:64);
      (* And the restored tree keeps running: fork a new child. *)
      let grandchild = Syscall.fork m' parent' in
      Syscall.exit m' grandchild ~code:0;
      Alcotest.(check bool) "restored app can fork and reap" true
        (Syscall.waitpid m' parent' <> None)
  | l -> Alcotest.failf "expected 2 processes, got %d" (List.length l)

let test_continuous_operation_across_crashes () =
  (* Three generations of crash/restore, each making progress; every
     generation's writes must be visible at the end. *)
  let sys = ref (Sls.boot ()) in
  let p = Syscall.spawn !sys.Sls.machine ~name:"journal-keeper" in
  let e = Syscall.mmap_anon p ~npages:16 in
  let addr = Vm_space.addr_of_entry e in
  let group = ref (Sls.attach !sys [ p ]) in
  let current = ref p in
  for generation = 0 to 2 do
    Vm_space.write_string !current.Process.space ~addr:(addr + (generation * 100))
      (Printf.sprintf "gen-%d" generation);
    ignore (Group.checkpoint ~wait_durable:true !group);
    let sys', result = Sls.reboot_and_restore !sys in
    sys := sys';
    group := result.Restore.group;
    current := List.hd result.Restore.procs
  done;
  for generation = 0 to 2 do
    Alcotest.(check string)
      (Printf.sprintf "generation %d visible" generation)
      (Printf.sprintf "gen-%d" generation)
      (Vm_space.read_string !current.Process.space ~addr:(addr + (generation * 100)) ~len:5)
  done

let test_restore_keeps_groups_apart () =
  (* Two machines attached to one store: each machine's first process
     has local pid 1.  Restoring B and checkpointing it must write B's
     process object, never A's. *)
  let sys = Sls.boot () in
  let clock = sys.Sls.machine.Machine.clock in
  let second = Machine.create ~clock () in
  let mk machine name text =
    let p = Syscall.spawn machine ~name in
    let addr = Vm_space.addr_of_entry (Syscall.mmap_anon p ~npages:4) in
    Vm_space.write_string p.Process.space ~addr text;
    (p, addr)
  in
  let pa, addr_a = mk sys.Sls.machine "group-A" "alpha" in
  let pb, addr_b = mk second "group-B" "bravo" in
  Alcotest.(check int) "local pids collide" pa.Process.pid_local pb.Process.pid_local;
  let ga = Sls.attach sys [ pa ] in
  let gb = Group.attach ~machine:second ~store:sys.Sls.store [ pb ] in
  ignore (Group.checkpoint ~wait_durable:true ga);
  ignore (Group.checkpoint ~wait_durable:true gb);
  let restore group =
    Restore.restore ~machine:(Machine.create ~clock ()) ~store:sys.Sls.store
      ~group_oid:(Group.group_oid group) ()
  in
  let rb = restore gb in
  Vm_space.write_string (List.hd rb.Restore.procs).Process.space ~addr:addr_b "bravo v2";
  ignore (Group.checkpoint ~wait_durable:true rb.Restore.group);
  match (restore ga).Restore.procs with
  | [ p ] ->
      Alcotest.(check string) "A's process" "group-A" p.Process.name;
      Alcotest.(check string) "A's memory" "alpha"
        (Vm_space.read_string p.Process.space ~addr:addr_a ~len:5)
  | _ -> Alcotest.fail "expected 1 process"

let test_pid_collision_scoped_signals () =
  (* Two restored groups can both contain "local pid 1"; a signal sent by
     a member must reach its own group's process (paper section 5.3's
     virtualization). *)
  let make_image () =
    let sys = Sls.boot () in
    let parent = Syscall.spawn sys.Sls.machine ~name:"leader" in
    Syscall.setsid parent;
    let child = Syscall.fork sys.Sls.machine parent in
    let group = Sls.attach sys [ parent; child ] in
    ignore (Group.checkpoint ~wait_durable:true group);
    fst
      (frame ~store:sys.Sls.store ~base:0
         ~epoch:(Store.last_complete_epoch sys.Sls.store))
  in
  let img_a = make_image () and img_b = make_image () in
  (* Install both applications on one machine. *)
  let host = Sls.boot () in
  let ea = recv ~store:host.Sls.store img_a in
  let ra = Restore.restore ~machine:host.Sls.machine ~store:host.Sls.store ~epoch:ea () in
  let eb = recv ~store:host.Sls.store img_b in
  let rb = Restore.restore ~machine:host.Sls.machine ~store:host.Sls.store ~epoch:eb () in
  let parent_a = List.hd ra.Restore.procs and child_a = List.nth ra.Restore.procs 1 in
  let parent_b = List.hd rb.Restore.procs and child_b = List.nth rb.Restore.procs 1 in
  Alcotest.(check int) "local pids collide" parent_a.Process.pid_local
    parent_b.Process.pid_local;
  (* A's parent signals A's child by local pid; B's child stays clean. *)
  ignore child_a;
  Alcotest.(check bool) "signal delivered" true
    (Syscall.kill ~by:parent_a host.Sls.machine ~pid:child_a.Process.pid_local ~signo:10);
  Alcotest.(check (option int)) "A's child got it" (Some 10) (Process.take_signal child_a);
  Alcotest.(check (option int)) "B's child did not" None (Process.take_signal child_b);
  ignore parent_b

let test_attach_new_process_to_running_group () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let a = Syscall.spawn m ~name:"first" in
  let group = Sls.attach sys [ a ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  (* A new worker joins the group mid-flight. *)
  let b = Syscall.spawn m ~name:"joined" in
  let e = Syscall.mmap_anon b ~npages:4 in
  Vm_space.write_string b.Process.space ~addr:(Vm_space.addr_of_entry e) "late joiner";
  Group.add_process group b;
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore sys in
  Alcotest.(check int) "both restored" 2 (List.length result.Restore.procs);
  let b' =
    List.find (fun p -> p.Process.name = "joined") result.Restore.procs
  in
  Alcotest.(check string) "joiner's state" "late joiner"
    (Vm_space.read_string b'.Process.space ~addr:(Vm_space.addr_of_entry e) ~len:11)

let test_bounded_history_under_continuous_checkpointing () =
  (* Continuous 100 Hz persistence with periodic pruning keeps the store
     footprint bounded — the "history limited only by available storage"
     knob exercised the other way. *)
  let sys = Sls.boot () in
  let p = Syscall.spawn sys.Sls.machine ~name:"app" in
  let e = Syscall.mmap_anon p ~npages:64 in
  let addr = Vm_space.addr_of_entry e in
  let group = Sls.attach sys [ p ] in
  let high_water = ref 0 in
  for round = 1 to 30 do
    Vm_space.touch_write p.Process.space ~addr:(addr + (round mod 8 * 4096)) ~len:4096;
    ignore (Group.checkpoint ~wait_durable:true group);
    if round mod 5 = 0 then ignore (Store.prune_history sys.Sls.store ~keep:3);
    high_water := max !high_water (Store.blocks_allocated sys.Sls.store)
  done;
  let final = Store.blocks_allocated sys.Sls.store in
  Alcotest.(check bool)
    (Printf.sprintf "space bounded (final %d vs high water %d)" final !high_water)
    true
    (final <= !high_water && !high_water < 4000);
  (* And the latest state still restores. *)
  let _sys', result = Sls.reboot_and_restore sys in
  Alcotest.(check int) "restorable" 1 (List.length result.Restore.procs)

(* A long run holds only live blocks: 200 checkpoints of a process
   rewriting eight pages with fresh bytes each round, pruned to 16
   epochs every 10.  The device never holds more sectors than the
   allocated blocks plus the freed ones waiting for their discard, and
   the bytes it holds stop growing with the run. *)
let test_long_run_holds_live_blocks () =
  let sys = Sls.boot () in
  let store = sys.Sls.store in
  let p = Syscall.spawn sys.Sls.machine ~name:"app" in
  let e = Syscall.mmap_anon p ~npages:64 in
  let addr = Vm_space.addr_of_entry e in
  let group = Sls.attach sys [ p ] in
  let held_at = Hashtbl.create 2 in
  for round = 1 to 200 do
    for i = 0 to 7 do
      Vm_space.write_string p.Process.space
        ~addr:(addr + ((((round * 8) + i) mod 64) * 4096))
        (Printf.sprintf "round %d page %d" round i)
    done;
    ignore (Group.checkpoint ~wait_durable:true group);
    if round mod 10 = 0 then ignore (Store.prune_history store ~keep:16);
    let held = Store.sectors_held store in
    let bound = Store.blocks_allocated store + Store.pending_discards store in
    if held > bound then
      Alcotest.failf "round %d: %d sectors held, %d allocated or pending" round held bound;
    if round = 50 || round = 200 then
      Hashtbl.replace held_at round (Striped.bytes_held (Store.device store))
  done;
  let at50 = Hashtbl.find held_at 50 and at200 = Hashtbl.find held_at 200 in
  Alcotest.(check bool)
    (Printf.sprintf "bytes held flat (%d at round 50, %d at round 200)" at50 at200)
    true
    (float_of_int (abs (at200 - at50)) <= 0.1 *. float_of_int at50)

let test_mmap_file_unified_page_cache () =
  (* Files and memory are one: a store through a MAP_SHARED mapping is
     visible to read(2), persists with the checkpoint, and the restored
     process sees it both ways. *)
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"editor" in
  let fd = Syscall.open_file m p ~path:"/doc" ~create:true in
  ignore (Syscall.write m p ~fd (String.make 8192 '.'));
  let e = Syscall.mmap_file p ~fd ~npages:2 in
  let addr = Vm_space.addr_of_entry e in
  (* Store through memory... *)
  Vm_space.write_string p.Process.space ~addr "mmap wrote this";
  (* ...visible to read(2) immediately. *)
  ignore (Syscall.lseek p ~fd ~off:0);
  Alcotest.(check string) "unified page cache" "mmap wrote this"
    (Syscall.read m p ~fd ~len:15);
  (* And write(2) is visible through the mapping. *)
  ignore (Syscall.lseek p ~fd ~off:4096);
  ignore (Syscall.write m p ~fd "syscall wrote");
  Alcotest.(check string) "other direction" "syscall wrote"
    (Vm_space.read_string p.Process.space ~addr:(addr + 4096) ~len:13);
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      (* The memory store survived through the file object. *)
      ignore (Syscall.lseek p' ~fd ~off:0);
      Alcotest.(check string) "mmap store persisted" "mmap wrote this"
        (Syscall.read sys'.Sls.machine p' ~fd ~len:15);
      (* The mapping is back and still unified. *)
      Alcotest.(check string) "mapping restored" "mmap wrote this"
        (Vm_space.read_string p'.Process.space ~addr ~len:15);
      Vm_space.write_string p'.Process.space ~addr "post-restore edit";
      ignore (Syscall.lseek p' ~fd ~off:0);
      Alcotest.(check string) "still unified after restore" "post-restore edit"
        (Syscall.read sys'.Sls.machine p' ~fd ~len:17)
  | _ -> Alcotest.fail "expected 1 process"

let test_suspend_resume () =
  (* sls suspend: the application exists only in the store; sls resume
     brings it back on the same machine. *)
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"suspended-app" in
  let e = Syscall.mmap_anon p ~npages:8 in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.write_string p.Process.space ~addr "parked state";
  let group = Sls.attach sys [ p ] in
  let epoch = Group.suspend group in
  Alcotest.(check bool) "gone from the machine" true
    (Machine.proc m p.Process.pid_global = None);
  let result = Restore.restore ~machine:m ~store:sys.Sls.store ~epoch () in
  (match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "resumed with its state" "parked state"
        (Vm_space.read_string p'.Process.space ~addr ~len:12);
      Alcotest.(check int) "same local pid" p.Process.pid_local p'.Process.pid_local;
      Alcotest.(check bool) "fresh global pid" true
        (p'.Process.pid_global <> p.Process.pid_global)
  | _ -> Alcotest.fail "expected 1 process")

(* Chaos: random application lifecycles against a model ---------------------- *)

type chaos_op =
  | C_write of int * int  (* region index, slot *)
  | C_fork
  | C_open_write of int  (* file index *)
  | C_checkpoint
  | C_crash_restore

let chaos_gen =
  QCheck.Gen.(
    list_size (int_range 5 25)
      (frequency
         [
           (5, map2 (fun r s -> C_write (r, s)) (int_range 0 2) (int_range 0 31));
           (1, return C_fork);
           (2, map (fun f -> C_open_write f) (int_range 0 3));
           (3, return C_checkpoint);
           (1, return C_crash_restore);
         ]))

let chaos_prop ops =
  (* A model tracks what every durable byte should be; after every crash
     the restored world must match the model at the last checkpoint. *)
  let sys = ref (Sls.boot ()) in
  let root = Syscall.spawn !sys.Sls.machine ~name:"chaos-root" in
  let regions =
    List.init 3 (fun _ -> Vm_space.addr_of_entry (Syscall.mmap_anon root ~npages:32))
  in
  let group = ref (Sls.attach !sys [ root ]) in
  let current = ref root in
  let live_model = Hashtbl.create 64 in (* (region, slot) -> char *)
  let file_model = Hashtbl.create 8 in (* file index -> content *)
  let durable_mem = ref [] and durable_files = ref [] in
  let counter = ref 0 in
  let ok = ref true in
  let apply = function
    | C_write (r, slot) ->
        incr counter;
        let c = Char.chr (33 + (!counter mod 90)) in
        Vm_space.write_byte !current.Process.space
          ~addr:(List.nth regions r + (slot * Page.logical_size))
          c;
        Hashtbl.replace live_model (r, slot) c
    | C_fork ->
        (* Forked children stay out of the group: ephemeral workers. *)
        let child = Syscall.fork !sys.Sls.machine !current in
        Syscall.exit !sys.Sls.machine child ~code:0;
        ignore (Syscall.waitpid !sys.Sls.machine !current)
    | C_open_write f ->
        incr counter;
        let path = Printf.sprintf "/chaos/file%d" f in
        let content = Printf.sprintf "content-%d" !counter in
        let fd = Syscall.open_file !sys.Sls.machine !current ~path ~create:true in
        ignore (Syscall.write !sys.Sls.machine !current ~fd content);
        Syscall.close !current fd;
        Hashtbl.replace file_model f content
    | C_checkpoint ->
        ignore (Group.checkpoint ~wait_durable:true !group);
        durable_mem := Hashtbl.fold (fun k v acc -> (k, v) :: acc) live_model [];
        durable_files := Hashtbl.fold (fun k v acc -> (k, v) :: acc) file_model []
    | C_crash_restore ->
        if Store.last_complete_epoch !sys.Sls.store > 0 then begin
          let sys', result = Sls.reboot_and_restore !sys in
          sys := sys';
          group := result.Restore.group;
          (match result.Restore.procs with
          | p :: _ -> current := p
          | [] -> ok := false);
          (* The world reverts to the last durable point. *)
          Hashtbl.reset live_model;
          List.iter (fun (k, v) -> Hashtbl.replace live_model k v) !durable_mem;
          Hashtbl.reset file_model;
          List.iter (fun (k, v) -> Hashtbl.replace file_model k v) !durable_files;
          (* Verify memory... *)
          Hashtbl.iter
            (fun (r, slot) c ->
              if
                Vm_space.read_byte !current.Process.space
                  ~addr:(List.nth regions r + (slot * Page.logical_size))
                <> c
              then ok := false)
            live_model;
          (* ...and files. *)
          Hashtbl.iter
            (fun f content ->
              let path = Printf.sprintf "/chaos/file%d" f in
              try
                let fd = Syscall.open_file !sys.Sls.machine !current ~path ~create:false in
                if Syscall.read !sys.Sls.machine !current ~fd ~len:100 <> content then
                  ok := false
              with Syscall.Err _ -> ok := false)
            file_model
        end
  in
  List.iter apply ops;
  !ok

(* TCP across checkpoints (paper section 5.3) ------------------------------- *)

let test_tcp_accept_queue_dropped_established_kept () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let server = Syscall.spawn m ~name:"server" in
  let listen_fd = Syscall.socket m server Aurora_kern.Socket.Inet Aurora_kern.Socket.Tcp in
  Syscall.bind server ~fd:listen_fd { Aurora_kern.Socket.host = "10.0.0.1"; port = 80 };
  Syscall.listen server ~fd:listen_fd;
  let client = Syscall.spawn m ~name:"client" in
  (* One connection is fully established before the checkpoint... *)
  let c1 = Syscall.socket m client Aurora_kern.Socket.Inet Aurora_kern.Socket.Tcp in
  Alcotest.(check bool) "syn accepted" true
    (Syscall.tcp_connect m client ~fd:c1 { Aurora_kern.Socket.host = "10.0.0.1"; port = 80 });
  let conn_fd =
    match Syscall.accept m server ~fd:listen_fd with
    | Some fd -> fd
    | None -> Alcotest.fail "accept failed"
  in
  ignore (Syscall.write m server ~fd:conn_fd "hello client");
  (* ...another is still sitting in the accept queue (SYN only). *)
  let c2 = Syscall.socket m client Aurora_kern.Socket.Inet Aurora_kern.Socket.Tcp in
  ignore
    (Syscall.tcp_connect m client ~fd:c2 { Aurora_kern.Socket.host = "10.0.0.1"; port = 80 });
  let group = Sls.attach sys [ server; client ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let sys', result = Sls.reboot_and_restore sys in
  let m' = sys'.Sls.machine in
  match result.Restore.procs with
  | [ server'; client' ] ->
      (* The established connection survived with its buffers and its
         sequence state. *)
      Alcotest.(check string) "established data" "hello client"
        (Syscall.read m' client' ~fd:c1 ~len:64);
      (match (Syscall.fd_exn server' conn_fd).Aurora_kern.Fdesc.kind with
      | Aurora_kern.Fdesc.Socket_fd s -> (
          match Aurora_kern.Socket.tcp_state s with
          | Aurora_kern.Socket.Tcp_established _ -> ()
          | _ -> Alcotest.fail "connection lost its established state")
      | _ -> Alcotest.fail "wrong fd kind");
      (* The pending SYN was dropped: accept finds nothing, and the client
         simply retries, as real clients do. *)
      Alcotest.(check (option int)) "accept queue dropped" None
        (Syscall.accept m' server' ~fd:listen_fd);
      Alcotest.(check bool) "client retry succeeds" true
        (Syscall.tcp_connect m' client' ~fd:c2
           { Aurora_kern.Socket.host = "10.0.0.1"; port = 80 });
      Alcotest.(check bool) "retried connection accepted" true
        (Syscall.accept m' server' ~fd:listen_fd <> None)
  | _ -> Alcotest.fail "expected 2 processes"

(* Restore on demand: sockets come back as shells ---------------------------- *)

(* Restore the server, poll its kqueue and read one request: the restoring
   clock's advance from the start of the restore to the end of the read,
   what the poll reported, what the read returned, and the sockets left
   as shells. *)
let first_response ~eager path (l : Server_image.layout) =
  let machine, store = Server_image.boot path in
  let clock = machine.Machine.clock in
  let t0 = Clock.now clock in
  let r = Server_image.restore ~eager machine store in
  let server = List.hd r.Restore.procs in
  let ready =
    List.map (fun e -> e.Aurora_kern.Kqueue.ident) (Syscall.kevent_poll machine server ~fd:l.kq)
  in
  let data = Syscall.read machine server ~fd:(List.hd ready) ~len:64 in
  (Clock.now clock - t0, ready, data, Server_image.shells server)

module Otrace = Aurora_obs.Trace

(* The restore span's end counts the shells; a rebuild at first use is
   one [restore/materialize] event of the socket restore charge. *)
let test_restore_traces_deferred_sockets () =
  Server_image.with_image ~conns:8 @@ fun path l ->
  let machine, store = Server_image.boot path in
  Otrace.enable ~clock:machine.Machine.clock ();
  Fun.protect ~finally:Otrace.disable @@ fun () ->
  let r = Restore.restore ~machine ~store () in
  ignore (Syscall.read machine (List.hd r.Restore.procs) ~fd:(List.hd l.Server_image.conns) ~len:64);
  let events = Otrace.events () in
  let args ph cat name =
    List.filter_map
      (fun (e : Otrace.event) ->
        if e.Otrace.ev_ph = ph && e.Otrace.ev_cat = cat && e.Otrace.ev_name = name then
          Some (e.Otrace.ev_dur, e.Otrace.ev_args)
        else None)
      events
  in
  Alcotest.(check int) "the listener and every connection deferred" 9 r.Restore.sockets_deferred;
  Alcotest.(check bool) "the restore span ends with sockets_deferred" true
    (args Otrace.End "restore" "restore" = [ (0, [ ("sockets_deferred", Otrace.Int 9) ]) ]);
  match args Otrace.Complete "restore" "materialize" with
  | [ (dur, [ ("oid", Otrace.Int _); ("ns", Otrace.Int ns) ]) ] ->
      Alcotest.(check (pair int int)) "one rebuild, charged"
        (Restore.socket_restore_ns, Restore.socket_restore_ns) (dur, ns)
  | l -> Alcotest.failf "%d materialize events" (List.length l)

(* Restore pairs a socket only with a peer the same restore rebuilds: a
   socketpair inside one group comes back paired and rebuilt, and the
   end of a pair whose peer another group holds comes back a shell with
   no peer, in either group's restore. *)
let test_restore_pairs_within_group () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let pa = Syscall.spawn m ~name:"a" in
  let inner_a, inner_b = Syscall.socketpair m pa in
  let cross_a, cross_b = Syscall.socketpair m pa in
  let pb = Syscall.fork m pa in
  Syscall.close pa cross_b;
  List.iter (Syscall.close pb) [ inner_a; inner_b; cross_a ];
  Syscall.send_msg m pa ~fd:inner_a "inside";
  let ga = Sls.attach sys [ pa ] and gb = Sls.attach sys [ pb ] in
  ignore (Group.checkpoint ~wait_durable:true ga);
  ignore (Group.checkpoint ~wait_durable:true gb);
  Sls.crash sys;
  let restored group =
    let machine = Machine.create () in
    let store = Store.recover ~dev:sys.Sls.device ~clock:machine.Machine.clock in
    let r = Restore.restore ~machine ~store ~group_oid:(Group.group_oid group) () in
    (machine, List.hd r.Restore.procs, r.Restore.sockets_deferred)
  in
  let state p fd =
    let s = Server_image.socket_at p fd in
    (Aurora_kern.Socket.is_shell s, Aurora_kern.Socket.peer s <> None)
  in
  let ma, pa', deferred_a = restored ga in
  let _, pb', deferred_b = restored gb in
  Alcotest.(check (list (pair bool bool))) "group A: the inner pair rebuilt and paired"
    [ (false, true); (false, true) ]
    [ state pa' inner_a; state pa' inner_b ];
  Alcotest.(check (pair bool bool)) "group A: the cross end a shell, unpaired" (true, false)
    (state pa' cross_a);
  Alcotest.(check (pair bool bool)) "group B: the cross end a shell, unpaired" (true, false)
    (state pb' cross_b);
  Alcotest.(check (pair int int)) "sockets deferred per group" (1, 1) (deferred_a, deferred_b);
  Alcotest.(check string) "the inner pair still carries its message" "inside"
    (Syscall.read ma pa' ~fd:inner_b ~len:64)

(* A connection's sequence numbers come from its machine: the same
   server, built twice in one process, checkpoints the same socket
   metadata byte for byte. *)
let test_sequence_numbers_per_machine () =
  let socket_meta () =
    let sys, _ = Server_image.build ~conns:4 ~extras:false in
    let store = sys.Sls.store in
    let epoch = List.hd (List.rev (Store.checkpoint_epochs store)) in
    List.filter_map
      (fun (oid, kind) ->
        if kind = Aurora_core.Serial.kind_socket then Some (oid, Store.read_meta store ~epoch ~oid)
        else None)
      (Store.objects_at store ~epoch)
  in
  let first = socket_meta () in
  Alcotest.(check int) "the listener and four connections" 5 (List.length first);
  Alcotest.(check (list (pair int string))) "the second build's socket images" first
    (socket_meta ())

let test_first_response_after_restore () =
  let conns = 64 in
  Server_image.with_image ~conns @@ fun path l ->
  let lazy_ns, lazy_ready, lazy_data, lazy_shells = first_response ~eager:false path l in
  let eager_ns, eager_ready, eager_data, eager_shells = first_response ~eager:true path l in
  (* Newest registration first: the last connection holding a request. *)
  Alcotest.(check (list int)) "the poll reports the connections holding a request"
    (List.rev (List.filteri (fun i _ -> i mod 3 = 0) l.Server_image.conns))
    lazy_ready;
  Alcotest.(check (list int)) "eager poll agrees" eager_ready lazy_ready;
  Alcotest.(check string) "the newest request" "GET /63" lazy_data;
  Alcotest.(check string) "eager read agrees" eager_data lazy_data;
  if 3 * lazy_ns > eager_ns then
    Alcotest.failf "restore to first response %d ns, over a third of eager's %d ns" lazy_ns
      eager_ns;
  Alcotest.(check int) "eager restore leaves no shell" 0 eager_shells;
  (* Every socket but the one read stays a shell, the listener included. *)
  Alcotest.(check int) "exactly one connection materialized" conns lazy_shells

(* One schedule step on a restored server: a syscall on a socket (by index
   into the listener, the connections and the socketpair ends), a poll,
   a close, a checkpoint, or a client's SYN to the listener. *)
type demand_op = D_read of int | D_write of int | D_poll | D_close of int | D_ckpt | D_syn

let demand_gen =
  QCheck.Gen.(
    list_size (int_range 1 25)
      (frequency
         [
           (4, map (fun i -> D_read i) (int_bound 15));
           (3, map (fun i -> D_write i) (int_bound 15));
           (2, return D_poll);
           (2, map (fun i -> D_close i) (int_bound 15));
           (2, return D_ckpt);
           (1, return D_syn);
         ]))

let print_demand_op = function
  | D_read i -> Printf.sprintf "read %d" i
  | D_write i -> Printf.sprintf "write %d" i
  | D_poll -> "poll"
  | D_close i -> Printf.sprintf "close %d" i
  | D_ckpt -> "checkpoint"
  | D_syn -> "syn"

(* Restore the same image with shells and with every socket eager, run
   [ops] on both, then touch every socket still open.  Every step returns
   the same on both, every checkpoint stages the same metadata and page
   CRCs at the same stop and serialization times, and the clocks end
   equal but for the rebuilds of shells closed untouched. *)
let demand_prop path (l : Server_image.layout) ops =
  let restored ~eager =
    let machine, store = Server_image.boot path in
    let r = Server_image.restore ~eager machine store in
    (machine, store, r.Restore.group, List.hd r.Restore.procs, Syscall.spawn machine ~name:"client")
  in
  let lz = restored ~eager:false and eg = restored ~eager:true in
  let socks = Array.of_list ((l.Server_image.listener :: l.Server_image.conns) @ l.Server_image.extras) in
  let fd i = socks.(i mod Array.length socks) in
  let closed = Hashtbl.create 8 and closed_shells = ref 0 in
  let check what a b = if a <> b then failwith what in
  let both f = check "results differ" (f lz) (f eg) in
  let step op =
    match op with
    | D_read i when not (Hashtbl.mem closed (fd i)) ->
        both (fun (m, _, _, p, _) -> Syscall.read m p ~fd:(fd i) ~len:64)
    | D_write i when not (Hashtbl.mem closed (fd i)) ->
        both (fun (m, _, _, p, _) -> string_of_int (Syscall.write m p ~fd:(fd i) "resp"))
    | D_poll ->
        both (fun (m, _, _, p, _) ->
            String.concat ","
              (List.map
                 (fun e -> string_of_int e.Aurora_kern.Kqueue.ident)
                 (Syscall.kevent_poll m p ~fd:l.Server_image.kq)))
    | D_close i when not (Hashtbl.mem closed (fd i)) ->
        let _, _, _, p, _ = lz in
        if Aurora_kern.Socket.is_shell (Server_image.socket_at p (fd i)) then incr closed_shells;
        Hashtbl.replace closed (fd i) ();
        both (fun (_, _, _, p, _) ->
            Syscall.close p (fd i);
            "")
    | D_ckpt ->
        let ckpt (_, store, g, _, _) =
          let st = Group.checkpoint ~wait_durable:true g in
          ( (st.Group.stop_ns, st.Group.os_serialize_ns),
            Server_image.epoch_contents store ~epoch:st.Group.epoch )
        in
        let (times_l, contents_l), (times_e, contents_e) = (ckpt lz, ckpt eg) in
        check "staged metadata or page CRCs differ" contents_l contents_e;
        check "stop or serialization time differs" times_l times_e
    | D_syn ->
        both (fun (m, _, _, _, c) ->
            let s = Syscall.socket m c Aurora_kern.Socket.Inet Aurora_kern.Socket.Tcp in
            string_of_bool (Syscall.tcp_connect m c ~fd:s Server_image.addr))
    | D_read _ | D_write _ | D_close _ -> ()
  in
  List.iter step ops;
  Array.iter (fun i -> step (D_read i)) (Array.init (Array.length socks) Fun.id);
  let clock (m, _, _, _, _) = Clock.now m.Machine.clock in
  let shells (_, _, _, p, _) = Server_image.shells p in
  check "a touched socket is still a shell" (shells lz) 0;
  check "the clocks differ by other than the shells closed untouched"
    (clock lz + (!closed_shells * Restore.socket_restore_ns))
    (clock eg);
  step D_ckpt;
  true

let test_on_demand_equals_eager () =
  Server_image.with_image ~conns:12 ~extras:true @@ fun path l ->
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"on-demand restore equals eager" ~count:40
       (QCheck.make ~print:(QCheck.Print.list print_demand_op) demand_gen)
       (demand_prop path l))

let test_multithreaded_process_roundtrip () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"threads" in
  for i = 1 to 7 do
    let thr = Syscall.spawn_thread m p in
    Aurora_kern.Thread.set_rip thr (0x1000 * i);
    Aurora_kern.Thread.set_sigmask thr i
  done;
  (* One thread is asleep in a syscall at checkpoint time. *)
  (List.nth p.Process.threads 3).Aurora_kern.Thread.state <-
    Aurora_kern.Thread.Sleeping_syscall "poll";
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check int) "all threads restored" 8 (List.length p'.Process.threads);
      List.iteri
        (fun i (thr : Aurora_kern.Thread.t) ->
          if i > 0 then begin
            Alcotest.(check int)
              (Printf.sprintf "thread %d rip" i)
              ((0x1000 * i) - if i = 3 then Aurora_kern.Thread.syscall_insn_len else 0)
              thr.Aurora_kern.Thread.regs.Aurora_kern.Thread.rip;
            Alcotest.(check int) "sigmask" i thr.Aurora_kern.Thread.sigmask
          end)
        p'.Process.threads
  | _ -> Alcotest.fail "expected 1 process"

(* Asynchronous I/O across checkpoints (paper section 5.3) ----------------- *)

let test_aio_write_delays_checkpoint_completion () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"db" in
  let fd = Syscall.open_file m p ~path:"/wal" ~create:true in
  let group = Sls.attach sys [ p ] in
  ignore (Syscall.aio_write m p ~fd ~off:0 "in-flight write");
  let stats = Group.checkpoint group in
  (* The checkpoint is not durable before the AIO completes. *)
  let pending = Syscall.aio_pending m p in
  (match pending with
  | [ aio ] ->
      Alcotest.(check bool) "durable_at covers the aio" true
        (stats.Group.durable_at >= aio.Aurora_kern.Aio.done_at)
  | _ -> Alcotest.fail "expected one pending aio");
  (* Once the AIO-inclusive durability point passes, a crash is safe. *)
  Clock.advance_to m.Machine.clock stats.Group.durable_at;
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      ignore (Syscall.lseek p' ~fd ~off:0);
      Alcotest.(check string) "aio data checkpointed" "in-flight write"
        (Syscall.read m p' ~fd ~len:64)
  | _ -> Alcotest.fail "expected 1 process"

let test_aio_read_reissued_on_restore () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"reader" in
  let fd = Syscall.open_file m p ~path:"/data" ~create:true in
  ignore (Syscall.write m p ~fd "read me back");
  let id = Syscall.aio_read m p ~fd ~off:0 ~len:12 in
  ignore id;
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] -> (
      (* The read was reissued in the new machine; completing it returns
         the data as if the crash never happened. *)
      match Syscall.aio_pending sys'.Sls.machine p' with
      | [ aio ] ->
          Alcotest.(check string) "reissued read returns data" "read me back"
            (Syscall.aio_complete sys'.Sls.machine p' ~id:aio.Aurora_kern.Aio.aio_id)
      | l -> Alcotest.failf "expected 1 reissued aio, got %d" (List.length l))
  | _ -> Alcotest.fail "expected 1 process"

let test_device_mapping_reinjected () =
  (* A read-only device mapping (the HPET / vDSO) is re-injected fresh at
     restore rather than restored from the image (section 5.3). *)
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"timekeeper" in
  ignore (Syscall.open_device m p ~name:"hpet0");
  let dev_obj = Vm_object.create (Vm_object.Device_backed "hpet0") in
  ignore
    (Vm_space.map_object p.Process.space ~obj:dev_obj ~obj_pgoff:0 ~npages:1
       ~prot:Vm_map.prot_ro);
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      let has_device =
        List.exists
          (fun (e : Vm_map.entry) ->
            match Vm_object.kind e.Vm_map.obj with
            | Vm_object.Device_backed _ -> true
            | Vm_object.Anonymous | Vm_object.Vnode_backed _ -> false)
          (Vm_map.entries (Vm_space.map p'.Process.space))
      in
      Alcotest.(check bool) "device mapping re-injected" true has_device;
      (match Process.fd p' 0 with
      | Some d -> Alcotest.(check string) "device fd kind" "device" (Aurora_kern.Fdesc.kind_name d)
      | None -> Alcotest.fail "device fd missing")
  | _ -> Alcotest.fail "expected 1 process"

let test_two_consistency_groups_one_store () =
  (* Two independent applications (containers) on one machine, each its
     own consistency group, checkpointing into the shared store at their
     own cadence; each restores independently after the crash. *)
  let sys = Sls.boot () in
  let mk m name text =
    let p = Syscall.spawn m ~name in
    let e = Syscall.mmap_anon p ~npages:8 in
    let addr = Vm_space.addr_of_entry e in
    Vm_space.write_string p.Process.space ~addr text;
    (p, addr)
  in
  let pa, addr_a = mk sys.Sls.machine "container-a" "alpha state" in
  let pb, addr_b = mk sys.Sls.machine "container-b" "beta state!" in
  let ga = Sls.attach sys [ pa ] in
  let gb = Sls.attach sys [ pb ] in
  ignore (Group.checkpoint ~wait_durable:true ga);
  ignore (Group.checkpoint ~wait_durable:true gb);
  (* A checkpoints again; B's state carries forward untouched. *)
  Vm_space.write_string pa.Process.space ~addr:addr_a "alpha v2 !!";
  ignore (Group.checkpoint ~wait_durable:true ga);
  Sls.crash sys;
  let machine = Machine.create () in
  let store = Store.recover ~dev:sys.Sls.device ~clock:machine.Machine.clock in
  let epoch = Store.last_complete_epoch store in
  let groups = Restore.groups_at ~store ~epoch in
  Alcotest.(check int) "two groups in the checkpoint" 2 (List.length groups);
  (* Restoring without choosing is ambiguous: a caller error, which the
     verified restore must not mistake for a corrupt epoch and answer with
     an older, single-group one (epoch 1 holds only A's stale state). *)
  Alcotest.(check bool) "ambiguity rejected" true
    (try
       ignore (Restore.restore ~machine ~store ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "verified restore rejects ambiguity" true
    (try
       ignore (Restore.restore_verified ~machine:(Machine.create ()) ~store ());
       false
     with Invalid_argument _ -> true);
  let restore_group oid =
    let m2 = Machine.create () in
    (Restore.restore ~machine:m2 ~store ~group_oid:oid ()).Restore.procs
  in
  let contents =
    List.map
      (fun (oid, _) ->
        match restore_group oid with
        | [ p ] ->
            let addr =
              if p.Process.name = "container-a" then addr_a else addr_b
            in
            (p.Process.name, Vm_space.read_string p.Process.space ~addr ~len:11)
        | _ -> Alcotest.fail "expected one process per group")
      groups
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string)))
    "both groups restore their own state"
    [ ("container-a", "alpha v2 !!"); ("container-b", "beta state!") ]
    contents
  ;
  (* A lazy restore streams only the memory its own group reaches: from a
     freshly recovered store, restoring A lazily reads exactly the bytes
     it reads from a store that never held B. *)
  let lazy_read_bytes sys group =
    Sls.crash sys;
    let machine = Machine.create () in
    let store = Store.recover ~dev:sys.Sls.device ~clock:machine.Machine.clock in
    let group_oid = Group.group_oid group in
    Striped.reset_stats sys.Sls.device;
    ignore (Restore.restore ~machine ~store ~group_oid ~lazy_pages:true ());
    Striped.bytes_read sys.Sls.device
  in
  let alone = Sls.boot () in
  let pa_alone, addr = mk alone.Sls.machine "container-a" "alpha state" in
  let ga_alone = Sls.attach alone [ pa_alone ] in
  ignore (Group.checkpoint ~wait_durable:true ga_alone);
  Vm_space.write_string pa_alone.Process.space ~addr "alpha v2 !!";
  ignore (Group.checkpoint ~wait_durable:true ga_alone);
  let a_alone = lazy_read_bytes alone ga_alone in
  Alcotest.(check bool) "A's stream reads its memory" true (a_alone > 0);
  Alcotest.(check int) "A's lazy restore streams none of B's memory" a_alone
    (lazy_read_bytes sys ga)

let test_multi_round_precopy_migration () =
  (* Three pre-copy rounds: the stream shrinks every round as the dirty
     set stabilizes, and the destination resumes the final state. *)
  let src = Sls.boot () in
  let p = Syscall.spawn src.Sls.machine ~name:"svc" in
  let e = Syscall.mmap_anon p ~npages:512 in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.touch_write p.Process.space ~addr ~len:(512 * 4096);
  let group = Sls.attach src [ p ] in
  let dst = Sls.boot () in
  let prev_epoch = ref 0 in
  let sizes =
    List.map
      (fun round ->
        Vm_space.write_string p.Process.space ~addr (Printf.sprintf "round-%d!" round);
        (* A shrinking dirty set with round-distinct contents. *)
        let dirty_pages = 64 / (round * round) in
        for i = 0 to dirty_pages - 1 do
          Vm_space.write_byte p.Process.space
            ~addr:(addr + ((i + 1) * 4096) + round)
            (Char.chr (Char.code 'a' + round))
        done;
        let stats = Group.checkpoint ~wait_durable:true group in
        let sent, bytes =
          frame ~store:src.Sls.store ~base:!prev_epoch ~epoch:stats.Group.epoch
        in
        prev_epoch := stats.Group.epoch;
        ignore (recv ~store:dst.Sls.store sent);
        bytes)
      [ 1; 2; 3 ]
  in
  (match sizes with
  | [ s1; s2; s3 ] ->
      Alcotest.(check bool)
        (Printf.sprintf "monotone shrinking stream (%d %d %d)" s1 s2 s3)
        true
        (s1 > s2 && s2 > s3)
  | _ -> Alcotest.fail "expected three rounds");
  let result = Restore.restore ~machine:dst.Sls.machine ~store:dst.Sls.store () in
  match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "final round state" "round-3!"
        (Vm_space.read_string p'.Process.space ~addr ~len:8)
  | _ -> Alcotest.fail "expected 1 process"

let test_coredump_multiprocess () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let parent = Syscall.spawn m ~name:"web-main" in
  let child = Syscall.fork m parent in
  ignore (Syscall.pipe m parent);
  let group = Sls.attach sys [ parent; child ] in
  let stats = Group.checkpoint ~wait_durable:true group in
  let dump = Aurora_core.Coredump.dump ~store:sys.Sls.store ~epoch:stats.Group.epoch in
  let count needle =
    let re = Str.regexp_string needle in
    let rec go pos acc =
      match Str.search_forward re dump pos with
      | p -> go (p + 1) (acc + 1)
      | exception Not_found -> acc
    in
    go 0 0
  in
  Alcotest.(check int) "two process sections" 2 (count "Process ");
  Alcotest.(check bool) "pipe note present" true (count "sls.pipe" >= 1)

(* Record/replay bounded by checkpoints ------------------------------------ *)

let test_record_replay_roundtrip () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"deterministic-app" in
  let a, b = Syscall.socketpair m p in
  let group = Sls.attach sys [ p ] in
  let recorder = Aurora_core.Replay.Recorder.attach group in
  ignore (Group.checkpoint ~wait_durable:true group);
  Aurora_core.Replay.Recorder.on_checkpoint recorder;
  (* The app consumes non-deterministic inputs, recorded as it goes. *)
  Syscall.send_msg m p ~fd:a "input-1";
  Syscall.send_msg m p ~fd:a "input-2";
  let r1 = Aurora_core.Replay.Recorder.recv_msg recorder p ~fd:b in
  let t1 = Aurora_core.Replay.Recorder.read_clock recorder in
  let r2 = Aurora_core.Replay.Recorder.recv_msg recorder p ~fd:b in
  Alcotest.(check (option string)) "live input 1" (Some "input-1") r1;
  Alcotest.(check (option string)) "live input 2" (Some "input-2") r2;
  Alcotest.(check int) "three entries since checkpoint" 3
    (Aurora_core.Replay.Recorder.log_length recorder);
  let jid = Aurora_core.Replay.Recorder.journal_id recorder in
  (* Crash.  Restore the checkpoint and replay the log: identical
     execution. *)
  Sls.crash sys;
  let machine = Machine.create () in
  let store = Store.recover ~dev:sys.Sls.device ~clock:machine.Machine.clock in
  let log = Aurora_core.Replay.recover ~store ~journal_id:jid in
  Alcotest.(check int) "log recovered" 3 (List.length log);
  let replayer = Aurora_core.Replay.Replayer.create log in
  Alcotest.(check (option string)) "replayed input 1" (Some "input-1")
    (Aurora_core.Replay.Replayer.recv_msg replayer ~fd:b);
  Alcotest.(check (option int)) "replayed clock" (Some t1)
    (Aurora_core.Replay.Replayer.read_clock replayer);
  Alcotest.(check (option string)) "replayed input 2" (Some "input-2")
    (Aurora_core.Replay.Replayer.recv_msg replayer ~fd:b);
  (* Log exhausted: live execution resumes. *)
  Alcotest.(check (option string)) "log exhausted" None
    (Aurora_core.Replay.Replayer.recv_msg replayer ~fd:b)

let test_record_log_bounded_by_checkpoints () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"app" in
  let a, b = Syscall.socketpair m p in
  let group = Sls.attach sys [ p ] in
  let recorder = Aurora_core.Replay.Recorder.attach group in
  for round = 1 to 10 do
    for i = 1 to 50 do
      Syscall.send_msg m p ~fd:a (Printf.sprintf "%d-%d" round i);
      ignore (Aurora_core.Replay.Recorder.recv_msg recorder p ~fd:b)
    done;
    ignore (Group.checkpoint ~wait_durable:true group);
    Aurora_core.Replay.Recorder.on_checkpoint recorder
  done;
  (* 500 inputs recorded, but the retained log is empty: each checkpoint
     superseded the inputs before it. *)
  Alcotest.(check int) "log truncated at checkpoints" 0
    (Aurora_core.Replay.Recorder.log_length recorder)

(* High availability by continuous checkpoint shipping --------------------- *)

let test_ha_failover () =
  let primary_sys = Sls.boot () in
  let p = Syscall.spawn primary_sys.Sls.machine ~name:"service" in
  let e = Syscall.mmap_anon p ~npages:64 in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.touch_write p.Process.space ~addr ~len:(64 * 4096);
  let group = Sls.attach primary_sys [ p ] in
  (* One hot standby, stop-and-wait: a window of 1, drained every round. *)
  let standby_sys = Sls.boot () in
  let link = Aurora_net.Link.create ~name:"ha" () in
  let rs =
    Replica_set.create ~window:1 ~primary:group
      ~standbys:[ (standby_sys.Sls.store, link) ] ()
  in
  let shipped () = (Replica_set.view rs 0).Replica_set.sv_shipped_bytes in
  (* Steady state: checkpoint, replicate, repeat. *)
  let first_bytes = ref 0 and later_bytes = ref 0 in
  for round = 1 to 5 do
    Vm_space.write_string p.Process.space ~addr (Printf.sprintf "round-%d" round);
    ignore (Group.checkpoint ~wait_durable:true group);
    let before = shipped () in
    Replica_set.ship rs;
    if not (Replica_set.drain rs `All) then Alcotest.fail "standby never acked";
    let b = shipped () - before in
    if round = 1 then first_bytes := b else later_bytes := !later_bytes + b
  done;
  Alcotest.(check int) "standby is current" 0
    (Replica_set.view rs 0).Replica_set.sv_lag_epochs;
  (* Incremental rounds ship far less than the initial full stream. *)
  Alcotest.(check bool)
    (Printf.sprintf "deltas are small (%d first vs %d for 4 later)" !first_bytes !later_bytes)
    true
    (!later_bytes * 4 < !first_bytes);
  (* The primary machine AND its devices are destroyed; only the standby
     survives. *)
  let takeover = Machine.create () in
  (match Replica_set.elect_and_failover rs ~survivors:[ 0 ] ~machine:takeover with
  | Error e -> Alcotest.fail e
  | Ok rep -> (
      match rep.Replica_set.el_restore.Restore.vr_result.Restore.procs with
      | [ p' ] ->
          Alcotest.(check string) "standby has the last replicated state" "round-5"
            (Vm_space.read_string p'.Process.space ~addr ~len:7)
      | _ -> Alcotest.fail "expected 1 process"));
  (* The recovery point is explicit: anything after the last replicate
     would be lost — write one more round without replicating. *)
  Vm_space.write_string p.Process.space ~addr "round-6";
  ignore (Group.checkpoint ~wait_durable:true group);
  Alcotest.(check int) "one epoch of lag" 1
    (Group.last_epoch group - Replica_set.quorum_epoch rs)

(* Store robustness -------------------------------------------------------- *)

let test_wire_fuzz_rejects_garbage () =
  (* Random bytes must never crash the parsers with anything other than
     the typed corruption exceptions. *)
  let rng = Aurora_util.Rng.create 99 in
  for _ = 1 to 2000 do
    let len = Aurora_util.Rng.int rng 200 in
    let garbage =
      Bytes.init len (fun _ -> Char.chr (Aurora_util.Rng.int rng 256))
    in
    let r = Wire.reader garbage in
    (try ignore (Wire.rstr r) with Wire.Corrupt _ -> ());
    (try ignore (Wire.rlist r Wire.ru64) with Wire.Corrupt _ -> ())
  done;
  (* The high-level image parsers surface exactly one typed exception. *)
  for _ = 1 to 500 do
    let len = Aurora_util.Rng.int rng 100 in
    let garbage =
      String.init len (fun _ -> Char.chr (Aurora_util.Rng.int rng 256))
    in
    List.iter
      (fun parse ->
        try ignore (parse garbage) with Aurora_core.Serial.Malformed _ -> ())
      [
        (fun s -> ignore (Aurora_core.Serial.proc_of_string s));
        (fun s -> ignore (Aurora_core.Serial.socket_of_string s));
        (fun s -> ignore (Aurora_core.Serial.fdesc_of_string s));
        (fun s -> ignore (Aurora_core.Serial.group_of_string s));
      ]
  done;
  Alcotest.(check pass) "no unexpected exceptions" () ()

(* Garbage bodies sealed into well-formed frames pass the CRC check, so
   only the stream parser and the digest check stand between them and
   the store: each must be an [Error], never an exception or an epoch. *)
let test_migrate_stream_fuzz () =
  let rng = Aurora_util.Rng.create 7 in
  for _ = 1 to 200 do
    let len = Aurora_util.Rng.int rng 400 in
    let garbage =
      String.init len (fun _ -> Char.chr (Aurora_util.Rng.int rng 256))
    in
    let sealed =
      Migrate.seal Migrate.shipment_codec
        {
          Migrate.sh_seq = 1;
          sh_base = 0;
          sh_epoch = 1;
          sh_count = 1;
          sh_summary = Aurora_util.Rng.int rng 0x10000;
          sh_body = garbage;
        }
    in
    let store = (Sls.boot ()).Sls.store in
    match Result.bind (Migrate.open_shipment sealed) (Migrate.install_verified ~store) with
    | Ok e -> Alcotest.failf "garbage stream installed as epoch %d" e
    | Error _ ->
        Alcotest.(check int) "store still at epoch 0" 0 (Store.last_complete_epoch store)
  done

let test_history_prune_preserves_latest_restorability () =
  let sys = Sls.boot () in
  let p = Syscall.spawn sys.Sls.machine ~name:"app" in
  let e = Syscall.mmap_anon p ~npages:8 in
  let addr = Vm_space.addr_of_entry e in
  let group = Sls.attach sys [ p ] in
  for i = 1 to 12 do
    Vm_space.write_string p.Process.space ~addr (Printf.sprintf "state-%02d" i);
    ignore (Group.checkpoint ~wait_durable:true group)
  done;
  ignore (Store.prune_history sys.Sls.store ~keep:3);
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "latest state restorable after pruning" "state-12"
        (Vm_space.read_string p'.Process.space ~addr ~len:8)
  | _ -> Alcotest.fail "expected 1 process"

let test_journal_and_checkpoint_interleaving () =
  (* The Aurora API pattern: journal between checkpoints; after a crash
     the journal records since the last checkpoint are exactly the
     recovery log. *)
  let sys = Sls.boot () in
  let p = Syscall.spawn sys.Sls.machine ~name:"db" in
  let group = Sls.attach sys [ p ] in
  let j = Api.sls_journal_open group ~size:(1024 * 1024) in
  Api.sls_journal group j "op-1";
  Api.sls_journal group j "op-2";
  ignore (Group.checkpoint ~wait_durable:true group);
  Api.sls_journal_truncate group j;
  Api.sls_journal group j "op-3";
  Sls.crash sys;
  let machine = Machine.create () in
  let store = Store.recover ~dev:sys.Sls.device ~clock:machine.Machine.clock in
  (match Store.journal_find store (Api.journal_id j) with
  | Some j' ->
      Alcotest.(check (list string)) "only post-checkpoint records" [ "op-3" ]
        (Store.journal_records store j')
  | None -> Alcotest.fail "journal lost");
  Alcotest.(check bool) "checkpoint present" true (Store.last_complete_epoch store > 0)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"chaos: random lifecycles match the model" ~count:20
         (QCheck.make chaos_gen)
         chaos_prop);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"evict/touch interleavings preserve content" ~count:15
         QCheck.(list_of_size (Gen.int_range 1 20) (pair bool (int_range 0 63)))
         (fun actions ->
           (* Interleave page evictions with reads/writes at random; every
              read must see the last written value for its slot. *)
           let sys = Sls.boot () in
           let p = Syscall.spawn sys.Sls.machine ~name:"app" in
           let e = Syscall.mmap_anon p ~npages:64 in
           let addr = Vm_space.addr_of_entry e in
           Vm_space.touch_write p.Process.space ~addr ~len:(64 * 4096);
           let group = Sls.attach sys [ p ] in
           ignore (Group.checkpoint ~wait_durable:true group);
           ignore (Group.checkpoint ~wait_durable:true group);
           let model = Hashtbl.create 64 in
           List.for_all
             (fun (evict, slot) ->
               if evict then begin
                 ignore (Group.checkpoint ~wait_durable:true group);
                 ignore (Group.checkpoint ~wait_durable:true group);
                 ignore (Group.evict_clean_pages group ~target:32);
                 true
               end
               else begin
                 let a = addr + (slot * 4096) in
                 let c = Char.chr (Char.code 'a' + (slot mod 26)) in
                 Vm_space.write_byte p.Process.space ~addr:a c;
                 Hashtbl.replace model slot c;
                 Hashtbl.fold
                   (fun s c ok ->
                     ok
                     && Vm_space.read_byte p.Process.space ~addr:(addr + (s * 4096)) = c)
                   model true
               end)
             actions));
  ]

let () =
  Alcotest.run "aurora_integration"
    [
      ( "swap",
        [
          Alcotest.test_case "evict and fault back" `Quick test_swap_evict_and_fault_back;
          Alcotest.test_case "zero-copy eviction" `Quick test_swap_eviction_is_zero_copy;
          Alcotest.test_case "evicted pages survive crash" `Quick
            test_swapped_pages_survive_checkpoint_and_crash;
          Alcotest.test_case "lazy restore demand paging" `Quick
            test_lazy_restore_demand_pages_through_pager;
          Alcotest.test_case "madvise guides eviction" `Quick test_madvise_guides_eviction;
        ] );
      ( "external synchrony",
        [ Alcotest.test_case "delays sets only" `Slow test_ext_sync_delays_sets_only ] );
      ( "scenarios",
        [
          Alcotest.test_case "kitchen sink" `Quick test_kitchen_sink_application;
          Alcotest.test_case "crash generations" `Quick test_continuous_operation_across_crashes;
          Alcotest.test_case "journal interleaving" `Quick test_journal_and_checkpoint_interleaving;
          Alcotest.test_case "two groups one store" `Quick test_two_consistency_groups_one_store;
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
          Alcotest.test_case "mmap file unified" `Quick test_mmap_file_unified_page_cache;
          Alcotest.test_case "scoped pid signals" `Quick test_pid_collision_scoped_signals;
          Alcotest.test_case "restore keeps groups apart" `Quick test_restore_keeps_groups_apart;
          Alcotest.test_case "late attach" `Quick test_attach_new_process_to_running_group;
          Alcotest.test_case "bounded history" `Quick test_bounded_history_under_continuous_checkpointing;
          Alcotest.test_case "long run holds live blocks" `Quick test_long_run_holds_live_blocks;
          Alcotest.test_case "prune then restore" `Quick test_history_prune_preserves_latest_restorability;
        ] );
      ("high availability", [ Alcotest.test_case "failover" `Quick test_ha_failover ]);
      ( "migration",
        [
          Alcotest.test_case "multi-round pre-copy" `Quick test_multi_round_precopy_migration;
          Alcotest.test_case "coredump multiprocess" `Quick test_coredump_multiprocess;
        ] );
      ( "record/replay",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_replay_roundtrip;
          Alcotest.test_case "log bounded" `Quick test_record_log_bounded_by_checkpoints;
        ] );
      ( "tcp and threads",
        [
          Alcotest.test_case "accept queue semantics" `Quick
            test_tcp_accept_queue_dropped_established_kept;
          Alcotest.test_case "multithreaded roundtrip" `Quick
            test_multithreaded_process_roundtrip;
          Alcotest.test_case "sequence numbers per machine" `Quick
            test_sequence_numbers_per_machine;
          Alcotest.test_case "first response after restore" `Quick
            test_first_response_after_restore;
          Alcotest.test_case "on-demand restore equals eager" `Quick
            test_on_demand_equals_eager;
          Alcotest.test_case "restore traces deferred sockets" `Quick
            test_restore_traces_deferred_sockets;
          Alcotest.test_case "restore pairs within its group" `Quick
            test_restore_pairs_within_group;
        ] );
      ( "aio and devices",
        [
          Alcotest.test_case "aio write delays durability" `Quick
            test_aio_write_delays_checkpoint_completion;
          Alcotest.test_case "aio read reissued" `Quick test_aio_read_reissued_on_restore;
          Alcotest.test_case "device mapping re-injected" `Quick test_device_mapping_reinjected;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "wire fuzz" `Quick test_wire_fuzz_rejects_garbage;
          Alcotest.test_case "migrate stream fuzz" `Quick test_migrate_stream_fuzz;
        ] );
      ("properties", qcheck_tests);
    ]
