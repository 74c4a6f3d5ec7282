module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Thread = Aurora_kern.Thread
module Syscall = Aurora_kern.Syscall
module Fdesc = Aurora_kern.Fdesc
module Kqueue = Aurora_kern.Kqueue
module Vm_space = Aurora_vm.Vm_space
module Vm_map = Aurora_vm.Vm_map
module Vm_object = Aurora_vm.Vm_object
module Pmap = Aurora_vm.Pmap
module Page = Aurora_vm.Page
module Store = Aurora_objstore.Store
module Store_format = Aurora_objstore.Store_format
module Striped = Aurora_block.Striped
module Fault = Aurora_block.Fault
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Api = Aurora_core.Api
module Restore = Aurora_core.Restore
module Extsync = Aurora_core.Extsync
module Coredump = Aurora_core.Coredump
module Migrate = Aurora_core.Migrate
module Manifest = Aurora_objstore.Manifest
module Wire = Aurora_objstore.Wire
module Link = Aurora_net.Link

let spawn_with_memory sys ~name ~npages =
  let p = Syscall.spawn sys.Sls.machine ~name in
  let e = Syscall.mmap_anon p ~npages in
  (p, e, Vm_space.addr_of_entry e)

let test_checkpoint_restore_memory () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:8 in
  Vm_space.write_string p.Process.space ~addr "the persistent state";
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let sys', result = Sls.reboot_and_restore sys in
  ignore sys';
  match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "memory content restored" "the persistent state"
        (Vm_space.read_string p'.Process.space ~addr ~len:20);
      Alcotest.(check int) "local pid preserved" p.Process.pid_local p'.Process.pid_local
  | l -> Alcotest.failf "expected 1 process, got %d" (List.length l)

let test_restore_is_from_durable_bytes_only () =
  (* Post-checkpoint writes must NOT appear after the crash. *)
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:4 in
  Vm_space.write_string p.Process.space ~addr "committed";
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  Vm_space.write_string p.Process.space ~addr "uncommitt";
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "only durable state survives" "committed"
        (Vm_space.read_string p'.Process.space ~addr ~len:9)
  | _ -> Alcotest.fail "expected 1 process"

let test_incremental_checkpoints_flush_only_dirty () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:64 in
  Vm_space.touch_write p.Process.space ~addr ~len:(64 * Page.logical_size);
  let group = Sls.attach sys [ p ] in
  let s1 = Group.checkpoint ~wait_durable:true group in
  Alcotest.(check bool)
    (Printf.sprintf "first flush has all pages (%d)" s1.Group.pages_flushed)
    true (s1.Group.pages_flushed >= 64);
  (* Dirty three pages; the next checkpoint must flush roughly three. *)
  Vm_space.touch_write p.Process.space ~addr ~len:(3 * Page.logical_size);
  let s2 = Group.checkpoint ~wait_durable:true group in
  Alcotest.(check int) "incremental flush" 3 s2.Group.pages_flushed;
  (* A clean interval flushes nothing. *)
  let s3 = Group.checkpoint ~wait_durable:true group in
  Alcotest.(check int) "clean flush" 0 s3.Group.pages_flushed

let test_incremental_content_correct_after_many_epochs () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:4 in
  let group = Sls.attach sys [ p ] in
  for i = 0 to 9 do
    Vm_space.write_string p.Process.space ~addr:(addr + (i * 17)) (Printf.sprintf "v%02d" i);
    ignore (Group.checkpoint ~wait_durable:true group)
  done;
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      for i = 0 to 9 do
        Alcotest.(check string)
          (Printf.sprintf "write %d visible" i)
          (Printf.sprintf "v%02d" i)
          (Vm_space.read_string p'.Process.space ~addr:(addr + (i * 17)) ~len:3)
      done
  | _ -> Alcotest.fail "expected 1 process"

let test_cpu_state_roundtrip () =
  let sys = Sls.boot () in
  let p, _e, _addr = spawn_with_memory sys ~name:"app" ~npages:1 in
  let thr = Process.main_thread p in
  thr.Thread.regs.Thread.rip <- 0xdeadbeef;
  thr.Thread.regs.Thread.rsp <- 0x7fffcafe;
  thr.Thread.regs.Thread.gp.(5) <- 424242;
  Bytes.set thr.Thread.regs.Thread.fpu 10 'F';
  thr.Thread.sigmask <- 0b1010;
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      let thr' = Process.main_thread p' in
      Alcotest.(check int) "rip" 0xdeadbeef thr'.Thread.regs.Thread.rip;
      Alcotest.(check int) "rsp" 0x7fffcafe thr'.Thread.regs.Thread.rsp;
      Alcotest.(check int) "gp5" 424242 thr'.Thread.regs.Thread.gp.(5);
      Alcotest.(check char) "fpu" 'F' (Bytes.get thr'.Thread.regs.Thread.fpu 10);
      Alcotest.(check int) "sigmask" 0b1010 thr'.Thread.sigmask;
      Alcotest.(check int) "same local tid" thr.Thread.tid_local thr'.Thread.tid_local
  | _ -> Alcotest.fail "expected 1 process"

let test_fork_fd_sharing_survives_restore () =
  (* Paper section 5.1's example: shared offsets must still be shared after
     restore; separate opens must stay separate. *)
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let parent = Syscall.spawn m ~name:"parent" in
  let fd = Syscall.open_file m parent ~path:"/f" ~create:true in
  ignore (Syscall.write m parent ~fd "abcdefghij");
  ignore (Syscall.lseek parent ~fd ~off:0);
  let child = Syscall.fork m parent in
  let other = Syscall.spawn m ~name:"other" in
  let fd_other = Syscall.open_file m other ~path:"/f" ~create:false in
  let group = Sls.attach sys [ parent; child; other ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let sys', result = Sls.reboot_and_restore sys in
  let m' = sys'.Sls.machine in
  (match result.Restore.procs with
  | [ parent'; child'; other' ] ->
      (* Reading via the child moves the parent's offset (same description). *)
      Alcotest.(check string) "child reads" "abcd" (Syscall.read m' child' ~fd ~len:4);
      Alcotest.(check string) "parent offset shared" "efgh"
        (Syscall.read m' parent' ~fd ~len:4);
      (* The separate open still has its own offset at 0. *)
      Alcotest.(check string) "other's offset independent" "abcd"
        (Syscall.read m' other' ~fd:fd_other ~len:4)
  | l -> Alcotest.failf "expected 3 processes, got %d" (List.length l))

let test_process_tree_restored () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let parent = Syscall.spawn m ~name:"parent" in
  Syscall.setsid parent;
  let child = Syscall.fork m parent in
  let group = Sls.attach sys [ parent; child ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ parent'; child' ] ->
      Alcotest.(check int) "ppid relinked" parent'.Process.pid_global child'.Process.ppid;
      Alcotest.(check bool) "child in parent's children" true
        (List.mem child'.Process.pid_global parent'.Process.children);
      Alcotest.(check int) "session preserved" parent.Process.sid parent'.Process.sid;
      Alcotest.(check int) "pgid preserved" child.Process.pgid child'.Process.pgid;
      (* The restored child can exit and be reaped in the new machine. *)
      Syscall.exit sys'.Sls.machine child' ~code:3;
      (match Syscall.waitpid sys'.Sls.machine parent' with
      | Some (_, 3) -> ()
      | Some (_, c) -> Alcotest.failf "wrong exit code %d" c
      | None -> Alcotest.fail "waitpid found nothing")
  | _ -> Alcotest.fail "expected 2 processes"

let test_pipe_content_restored () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"p" in
  let rd, wr = Syscall.pipe m p in
  ignore (Syscall.write m p ~fd:wr "in flight bytes");
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "pipe buffer restored" "in flight bytes"
        (Syscall.read sys'.Sls.machine p' ~fd:rd ~len:100);
      ignore wr
  | _ -> Alcotest.fail "expected 1 process"

let test_socketpair_and_inflight_rights_restored () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"p" in
  let a, b = Syscall.socketpair m p in
  let file_fd = Syscall.open_file m p ~path:"/payload" ~create:true in
  ignore (Syscall.write m p ~fd:file_fd "visible through rights");
  ignore (Syscall.lseek p ~fd:file_fd ~off:0);
  (* The message with the descriptor is in flight at checkpoint time. *)
  Syscall.send_msg m p ~fd:a ~fds:[ file_fd ] "take this";
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let sys', result = Sls.reboot_and_restore sys in
  let m' = sys'.Sls.machine in
  match result.Restore.procs with
  | [ p' ] -> (
      match Syscall.recv_msg m' p' ~fd:b with
      | Some (data, [ got_fd ]) ->
          Alcotest.(check string) "message data" "take this" data;
          Alcotest.(check string) "in-flight descriptor works" "visible"
            (Syscall.read m' p' ~fd:got_fd ~len:7)
      | Some (_, fds) -> Alcotest.failf "expected 1 right, got %d" (List.length fds)
      | None -> Alcotest.fail "in-flight message lost")
  | _ -> Alcotest.fail "expected 1 process"

let test_kqueue_and_pty_restored () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"p" in
  let kq = Syscall.kqueue m p in
  Syscall.kevent_register p ~fd:kq
    { Kqueue.ident = 9; filter = Kqueue.Ev_read; flags = 1; udata = 77 };
  let master = Syscall.posix_openpt m p in
  let slave = Syscall.open_pty_slave m p ~master_fd:master in
  ignore (Syscall.write m p ~fd:master "typed before crash");
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let sys', result = Sls.reboot_and_restore sys in
  let m' = sys'.Sls.machine in
  match result.Restore.procs with
  | [ p' ] ->
      (match (Syscall.fd_exn p' kq).Fdesc.kind with
      | Fdesc.Kqueue_fd k ->
          Alcotest.(check int) "kqueue event count" 1 (Kqueue.event_count k);
          let ev = List.hd (Kqueue.events k) in
          Alcotest.(check int) "kqueue udata" 77 ev.Kqueue.udata
      | _ -> Alcotest.fail "kqueue fd wrong kind");
      Alcotest.(check string) "pty input buffer restored" "typed before crash"
        (Syscall.read m' p' ~fd:slave ~len:100)
  | _ -> Alcotest.fail "expected 1 process"

let test_shared_memory_restored_shared () =
  (* Two processes sharing a POSIX shm segment must still share after
     restore: a write by one is visible to the other. *)
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let a = Syscall.spawn m ~name:"a" in
  let b = Syscall.spawn m ~name:"b" in
  let fda = Syscall.shm_open m a ~name:"/seg" ~npages:2 in
  let fdb = Syscall.shm_open m b ~name:"/seg" ~npages:2 in
  let ea = Syscall.mmap_shm a ~fd:fda in
  let eb = Syscall.mmap_shm b ~fd:fdb in
  let addr_a = Vm_space.addr_of_entry ea and addr_b = Vm_space.addr_of_entry eb in
  Vm_space.write_string a.Process.space ~addr:addr_a "before";
  let group = Sls.attach sys [ a; b ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ a'; b' ] ->
      Alcotest.(check string) "content restored" "before"
        (Vm_space.read_string b'.Process.space ~addr:addr_b ~len:6);
      Vm_space.write_string a'.Process.space ~addr:addr_a "after!";
      Alcotest.(check string) "still shared after restore" "after!"
        (Vm_space.read_string b'.Process.space ~addr:addr_b ~len:6)
  | _ -> Alcotest.fail "expected 2 processes"

let test_anonymous_file_survives () =
  (* The headline Aurora FS property: an open-but-unlinked file is
     restored; a conventional FS would have reclaimed it. *)
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"p" in
  let fd = Syscall.open_file m p ~path:"/scratch" ~create:true in
  ignore (Syscall.write m p ~fd "temporary but precious");
  ignore (Syscall.unlink m ~path:"/scratch");
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let sys', result = Sls.reboot_and_restore sys in
  let m' = sys'.Sls.machine in
  match result.Restore.procs with
  | [ p' ] ->
      ignore (Syscall.lseek p' ~fd ~off:0);
      Alcotest.(check string) "anonymous file content" "temporary but precious"
        (Syscall.read m' p' ~fd ~len:100);
      (* And it has no name. *)
      Alcotest.(check bool) "name is gone" true
        (try
           ignore (Syscall.open_file m' p' ~path:"/scratch" ~create:false);
           false
         with Syscall.Err "ENOENT" -> true)
  | _ -> Alcotest.fail "expected 1 process"

let test_ephemeral_process_sigchld () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let parent = Syscall.spawn m ~name:"parent" in
  let worker = Syscall.fork m parent in
  worker.Process.ephemeral <- true;
  let group = Sls.attach sys [ parent; worker ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ parent' ] ->
      Alcotest.(check (option int)) "parent got SIGCHLD" (Some Process.sigchld)
        (Process.take_signal parent')
  | l -> Alcotest.failf "only the parent should be restored (got %d)" (List.length l)

let test_time_travel_restore () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:2 in
  let group = Sls.attach sys [ p ] in
  Vm_space.write_string p.Process.space ~addr "one";
  let s1 = Group.checkpoint ~wait_durable:true group in
  Group.name_checkpoint group "v1";
  Vm_space.write_string p.Process.space ~addr "two";
  let _s2 = Group.checkpoint ~wait_durable:true group in
  (* Restore the older epoch by number (sls restore of history). *)
  let m2 = Machine.create () in
  let result =
    Restore.restore ~machine:m2 ~store:sys.Sls.store ~epoch:s1.Group.epoch ()
  in
  (match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "older epoch content" "one"
        (Vm_space.read_string p'.Process.space ~addr ~len:3)
  | _ -> Alcotest.fail "expected 1 process");
  Alcotest.(check (list (pair string int))) "named checkpoint recorded"
    [ ("v1", s1.Group.epoch) ]
    (Group.named_checkpoints group)

let test_lazy_restore_contents_equal () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:32 in
  Vm_space.write_string p.Process.space ~addr "lazy but correct";
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore ~lazy_pages:true sys in
  match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "lazy restore content" "lazy but correct"
        (Vm_space.read_string p'.Process.space ~addr ~len:16)
  | _ -> Alcotest.fail "expected 1 process"

(* The objects along a shadow chain, top first. *)
let rec chain obj =
  obj :: (match Vm_object.parent obj with Some p -> chain p | None -> [])

(* Steady state: from the third cycle on, every checkpoint reverse-collapses
   the previous epoch's N-page frozen shadow.  The collapse runs before the
   stop window, so the third cycle stops exactly as long as the second
   (whose frozen object was the logical one and moved nothing). *)
let test_steady_stop_excludes_collapse () =
  let sys = Sls.boot () in
  let npages = 24 in
  let p, e, addr = spawn_with_memory sys ~name:"app" ~npages in
  let page_addr i = addr + (i * Page.logical_size) in
  let write_all round =
    for i = 0 to npages - 1 do
      Vm_space.write_string p.Process.space ~addr:(page_addr i)
        (Printf.sprintf "round %d page %02d" round i)
    done
  in
  write_all 1;
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let cycle round =
    write_all round;
    let s = Group.checkpoint ~wait_durable:true group in
    Alcotest.(check bool)
      (Printf.sprintf "cycle %d: chain bounded" round)
      true
      (Vm_object.chain_length e.Vm_map.obj <= 3);
    s
  in
  let second = cycle 2 in
  Alcotest.(check int) "second cycle collapses nothing" 0 second.Group.collapse_ns;
  let third = cycle 3 in
  Alcotest.(check int) "third cycle collapsed the N-page shadow" npages
    (Vm_object.pages_moved_by_last_collapse ());
  Alcotest.(check int) "collapse_ns charges every moved page"
    (npages * Aurora_sim.Cost.collapse_page_move)
    third.Group.collapse_ns;
  Alcotest.(check int) "third-cycle stop equals second-cycle stop" second.Group.stop_ns
    third.Group.stop_ns;
  let fourth = cycle 4 in
  Alcotest.(check int) "fourth-cycle stop equals second-cycle stop" second.Group.stop_ns
    fourth.Group.stop_ns;
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      for i = 0 to npages - 1 do
        Alcotest.(check string)
          (Printf.sprintf "page %d restored" i)
          (Printf.sprintf "round 4 page %02d" i)
          (Vm_space.read_string p'.Process.space ~addr:(page_addr i) ~len:15)
      done
  | _ -> Alcotest.fail "expected 1 process"

(* A speculative cycle collapses before its window opens, so a fork run
   by the window's hook shadows an object whose parent is already the
   collapse survivor: the child's chain must reach the survivor, never the
   collapsed shadow, and read (and restore) the parent's pages. *)
let test_fork_in_window_resolves_through_survivor () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let npages = 8 in
  let parent, e, addr = spawn_with_memory sys ~name:"parent" ~npages in
  let socks = Array.init 32 (fun _ -> Syscall.socketpair m parent) in
  let page_addr i = addr + (i * Page.logical_size) in
  let write_all round =
    Array.iter (fun (a, _) -> ignore (Syscall.write m parent ~fd:a "d")) socks;
    for i = 0 to npages - 1 do
      Vm_space.write_string parent.Process.space ~addr:(page_addr i)
        (Printf.sprintf "round %d page %d" round i)
    done
  in
  write_all 1;
  let group = Sls.attach sys [ parent ] in
  Group.set_speculative group true;
  ignore (Group.checkpoint ~wait_durable:true group);
  write_all 2;
  ignore (Group.checkpoint ~wait_durable:true group);
  write_all 3;
  (* top -> frozen (round 2's shadow) -> logical *)
  let collapsed, survivor =
    match chain e.Vm_map.obj with
    | [ _top; frozen; logical ] -> (frozen, logical)
    | l -> Alcotest.failf "expected a 3-object chain, got %d" (List.length l)
  in
  let child = ref None in
  Machine.set_run_hook m
    (Some
       (fun _ns ->
         if !child = None then begin
           let c = Syscall.fork m parent in
           Group.add_process group c;
           child := Some c
         end));
  ignore (Group.checkpoint ~wait_durable:true group);
  Machine.set_run_hook m None;
  let child = match !child with Some c -> c | None -> Alcotest.fail "no window opened" in
  let child_chain =
    match Vm_map.find (Vm_space.map child.Process.space) e.Vm_map.start_vpn with
    | Some ce -> chain ce.Vm_map.obj
    | None -> Alcotest.fail "child lost the mapping"
  in
  Alcotest.(check bool) "child chain reaches the survivor" true
    (List.memq survivor child_chain);
  Alcotest.(check bool) "child chain skips the collapsed shadow" false
    (List.memq collapsed child_chain);
  let expect i = Printf.sprintf "round 3 page %d" i in
  for i = 0 to npages - 1 do
    Alcotest.(check string)
      (Printf.sprintf "child reads page %d" i)
      (expect i)
      (Vm_space.read_string child.Process.space ~addr:(page_addr i) ~len:14)
  done;
  let _sys', result = Sls.reboot_and_restore sys in
  Alcotest.(check int) "parent and child restored" 2 (List.length result.Restore.procs);
  List.iter
    (fun (p' : Process.t) ->
      for i = 0 to npages - 1 do
        Alcotest.(check string)
          (Printf.sprintf "%s restores page %d" p'.Process.name i)
          (expect i)
          (Vm_space.read_string p'.Process.space ~addr:(page_addr i) ~len:14)
      done)
    result.Restore.procs

(* Lazy restore under copy-on-write sharing: after the fork the parent
   and child share the arena's backing object, and the child rewrites a
   page the parent never touches again.  The parent's read pages its copy
   into the shared ancestor; the child's later read must still get its own
   newer version, exactly as eager restore gives it, without paging any
   page in twice. *)
let test_lazy_restore_cow_siblings () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let npages = 4 in
  let parent, _e, addr = spawn_with_memory sys ~name:"parent" ~npages in
  let page_addr i = addr + (i * Page.logical_size) in
  for i = 0 to npages - 1 do
    Vm_space.write_string parent.Process.space ~addr:(page_addr i)
      (Printf.sprintf "parent wrote %d" i)
  done;
  let child = Syscall.fork m parent in
  Vm_space.write_string child.Process.space ~addr:(page_addr 1) "child rewrote 1";
  let group = Sls.attach sys [ parent; child ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  (* Parent first: its reads land the shared pages in the ancestor. *)
  let read_all (result : Restore.result) =
    List.concat_map
      (fun (p : Process.t) ->
        List.init npages (fun i ->
            Vm_space.read_string p.Process.space ~addr:(page_addr i) ~len:15))
      result.Restore.procs
  in
  let _, eager = Sls.reboot_and_restore sys in
  let eager_bytes = read_all eager in
  Alcotest.(check bool) "eager restore sees the child's rewrite" true
    (List.mem "child rewrote 1" eager_bytes);
  let sys_lazy, lzy = Sls.reboot_and_restore ~lazy_pages:true sys in
  (* A batch's fragments are all collected when it is submitted, so
     distinct clock readings in the read hook count round trips. *)
  let clock = Store.clock sys_lazy.Sls.store in
  let trips = ref [] in
  let h = Fault.create () in
  h.Fault.on_read <-
    (fun _ ->
      trips := Clock.now clock :: !trips;
      Fault.Clean);
  Striped.set_fault sys.Sls.device (Some h);
  Alcotest.(check (list string)) "lazy restore equals eager" eager_bytes (read_all lzy);
  Striped.set_fault sys.Sls.device None;
  let pageins =
    List.fold_left
      (fun acc (p : Process.t) -> acc + (Vm_space.stats p.Process.space).Vm_space.pageins)
      0 lzy.Restore.procs
  in
  (* Fault-path cost: each stored page (the parent's four plus the child's
     rewrite) is paged in once.  The parent's first fault brings in the
     shared ancestor's whole cluster; the child's fault on its rewrite
     brings in its own level's cluster, even though the child's pager is
     asked before the shared ancestor's.  Every device read happened in
     the restore's leaf batch and its one stream submission, so the
     faults pay no round trip at all. *)
  Alcotest.(check int) "each stored page paged in once" (npages + 1) pageins;
  Alcotest.(check int) "fault-path round trips: none, the restore streamed every page" 0
    (List.length (List.sort_uniq compare !trips));
  (* Fault-around looks past a nearer pager that does not store the
     index: the parent's own level has a pager holding nothing, so its
     first fault maps the shared ancestor's other three pages.  The
     child's level stores page 1, so nothing under it is mapped there,
     and the child's other pages resolve in the ancestor its parent
     filled: one soft fault each.  One soft fault per touched page would
     be 2 x 4. *)
  let sum f =
    List.fold_left
      (fun acc (p : Process.t) -> acc + f (Vm_space.stats p.Process.space))
      0 lzy.Restore.procs
  in
  Alcotest.(check int) "soft faults: the parent's one and the child's four" 5
    (sum (fun st -> st.Vm_space.soft_faults));
  Alcotest.(check int) "the parent's other three pages mapped around" 3
    (sum (fun st -> st.Vm_space.mapped_around))

(* The property form of the case above: a random arena of up to three
   fault clusters, random rewrites by the parent and the child after the
   fork, and a random touch order across both.  A lazy verified restore
   must read byte for byte what an eager one reads: fault-around never
   installs a shared ancestor's page at the wrong level, nor hides a
   level's newer version. *)
let lazy_cow_qcheck =
  let gen =
    QCheck.(
      let page = int_range 0 ((3 * Store.fault_cluster) - 1) in
      triple (int_range 1 (3 * Store.fault_cluster))
        (small_list (pair bool page))
        (small_list (pair bool page)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"lazy COW siblings match eager" ~count:100 gen
       (fun (npages, rewrites, touches) ->
         let sys = Sls.boot () in
         let m = sys.Sls.machine in
         let parent, _e, addr = spawn_with_memory sys ~name:"parent" ~npages in
         let page_addr i = addr + (i mod npages * Page.logical_size) in
         for i = 0 to npages - 1 do
           Vm_space.write_string parent.Process.space ~addr:(page_addr i)
             (Printf.sprintf "parent %d" i)
         done;
         let child = Syscall.fork m parent in
         List.iteri
           (fun k (in_child, i) ->
             let p = if in_child then child else parent in
             Vm_space.write_string p.Process.space ~addr:(page_addr i)
               (Printf.sprintf "rewrite %d" k))
           rewrites;
         let group = Sls.attach sys [ parent; child ] in
         ignore (Group.checkpoint ~wait_durable:true group);
         let pid (p : Process.t) = p.Process.pid_local in
         (* The touches, then a sweep of both arenas. *)
         let order =
           touches
           @ List.concat_map (fun c -> List.init npages (fun i -> (c, i))) [ false; true ]
         in
         let read_all (procs : Process.t list) =
           List.map
             (fun (in_child, i) ->
               let want = pid (if in_child then child else parent) in
               let p = List.find (fun (q : Process.t) -> pid q = want) procs in
               Vm_space.read_string p.Process.space ~addr:(page_addr i) ~len:12)
             order
         in
         let _, eager = Sls.reboot_and_restore sys in
         let eager_bytes = read_all eager.Restore.procs in
         let now = Clock.now sys.Sls.machine.Machine.clock in
         Sls.crash sys;
         let machine = Machine.create () in
         Clock.advance_to machine.Machine.clock now;
         let store = Store.recover ~dev:sys.Sls.device ~clock:machine.Machine.clock in
         match Restore.restore_verified ~machine ~store ~lazy_pages:true () with
         | Error _ -> false
         | Ok v -> read_all v.Restore.vr_result.Restore.procs = eager_bytes))

(* The lazy contract: a lazy restore followed by a random read/write
   touch sequence and a checkpoint leaves the same durable state as the
   same steps after an eager restore.  Fault-around maps the pages a lazy
   fault brings in read-only and clean, so a read of one marks nothing
   dirty and a write still copies on write into the restored group's
   shadow.  Both arms are restored eagerly from their post-touch
   checkpoint and compared page for page; the checkpoint's dirty set
   (each process's dirty PTEs and the pages the epoch flushed) must be
   equal too. *)
let lazy_contract_qcheck =
  let gen =
    QCheck.(
      let page = int_range 0 ((3 * Store.fault_cluster) - 1) in
      triple (int_range 1 (3 * Store.fault_cluster))
        (small_list (pair bool page))
        (small_list (triple bool bool page)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"lazy restore, touch, checkpoint equals eager" ~count:100 gen
       (fun (npages, rewrites, touches) ->
         let page_addr addr i = addr + (i mod npages * Page.logical_size) in
         let arm ~lazy_pages =
           let sys = Sls.boot () in
           let parent, _e, addr = spawn_with_memory sys ~name:"parent" ~npages in
           for i = 0 to npages - 1 do
             Vm_space.write_string parent.Process.space ~addr:(page_addr addr i)
               (Printf.sprintf "parent %d" i)
           done;
           let child = Syscall.fork sys.Sls.machine parent in
           List.iteri
             (fun k (in_child, i) ->
               let p = if in_child then child else parent in
               Vm_space.write_string p.Process.space ~addr:(page_addr addr i)
                 (Printf.sprintf "rewrite %d" k))
             rewrites;
           let group = Sls.attach sys [ parent; child ] in
           ignore (Group.checkpoint ~wait_durable:true group);
           let by_pid (procs : Process.t list) =
             List.sort
               (fun (a : Process.t) (b : Process.t) ->
                 compare a.Process.pid_local b.Process.pid_local)
               procs
           in
           let sys, restored = Sls.reboot_and_restore ~lazy_pages sys in
           let procs = Array.of_list (by_pid restored.Restore.procs) in
           List.iteri
             (fun k (in_child, write, i) ->
               let sp = procs.(if in_child then 1 else 0).Process.space in
               if write then
                 Vm_space.write_string sp ~addr:(page_addr addr i)
                   (Printf.sprintf "touch %d" k)
               else ignore (Vm_space.read_string sp ~addr:(page_addr addr i) ~len:8))
             touches;
           let dirty =
             Array.to_list
               (Array.map
                  (fun (p : Process.t) -> Pmap.dirty_vpns (Vm_space.pmap p.Process.space))
                  procs)
           in
           let st = Group.checkpoint ~wait_durable:true restored.Restore.group in
           let _, final = Sls.reboot_and_restore sys in
           let pages =
             List.concat_map
               (fun (p : Process.t) ->
                 List.init npages (fun i ->
                     Vm_space.read_string p.Process.space ~addr:(page_addr addr i)
                       ~len:Page.payload_size))
               (by_pid final.Restore.procs)
           in
           (pages, dirty, st.Group.pages_flushed)
         in
         arm ~lazy_pages:true = arm ~lazy_pages:false))

(* A lazily restored page outlives the epoch it was restored from.  Page
   100 of a 128-page arena is written, checkpointed and restored lazily;
   the restored group then rewrites page 0 over four checkpoints and the
   history is pruned to one epoch, dropping the restored one.  [hook],
   given the device location of page 100's stored bytes, is the read
   handler in force during the restore.  Returns a read of page 100. *)
let lazy_page_after_prune ?hook () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:128 in
  let far = addr + (100 * Page.logical_size) in
  Vm_space.write_string p.Process.space ~addr:far "far page";
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let store = sys.Sls.store in
  let epoch = Store.last_complete_epoch store in
  let oid =
    List.find
      (fun oid -> List.mem_assoc 100 (Store.page_crcs store ~epoch ~oid))
      (List.map fst (Store.objects_at store ~epoch))
  in
  (* Over a resident leaf, a page read issues one device read: its own. *)
  ignore (Store.read_page store ~epoch ~oid ~idx:100);
  let seen = ref [] in
  let h = Fault.create () in
  h.Fault.on_read <-
    (fun r ->
      seen := (r.Fault.r_dev, r.Fault.r_off) :: !seen;
      Fault.Clean);
  Striped.set_fault sys.Sls.device (Some h);
  ignore (Store.read_page store ~epoch ~oid ~idx:100);
  Striped.set_fault sys.Sls.device None;
  let where = match !seen with [ loc ] -> loc | _ -> Alcotest.fail "expected one data read" in
  Striped.set_fault sys.Sls.device (Option.map (fun hook -> hook where) hook);
  let sys', result = Sls.reboot_and_restore ~lazy_pages:true sys in
  Striped.set_fault sys.Sls.device None;
  let p' = match result.Restore.procs with [ p' ] -> p' | _ -> Alcotest.fail "one process" in
  for k = 1 to 4 do
    Vm_space.write_string p'.Process.space ~addr (Printf.sprintf "epoch %d" k);
    ignore (Group.checkpoint ~wait_durable:true result.Restore.group)
  done;
  ignore (Store.prune_history sys'.Sls.store ~keep:1);
  Alcotest.(check bool) "the restored epoch is pruned" false
    (List.mem epoch (Store.checkpoint_epochs sys'.Sls.store));
  (sys'.Sls.store, fun () -> Vm_space.read_string p'.Process.space ~addr:far ~len:8)

let test_lazy_page_after_prune () =
  let _, read = lazy_page_after_prune () in
  Alcotest.(check string) "page 100 reads back" "far page" (read ())

(* The stream's read of page 100 fails once: the stream retries it in the
   background and the fault still finds the bytes. *)
let test_lazy_page_after_prune_retried () =
  let hook where =
    let failed = ref false in
    let h = Fault.create () in
    h.Fault.on_read <-
      (fun r ->
        if (r.Fault.r_dev, r.Fault.r_off) = where && not !failed then begin
          failed := true;
          Fault.Fail
        end
        else Fault.Clean);
    h
  in
  let store, read = lazy_page_after_prune ~hook () in
  Alcotest.(check int) "the failure was retried" 1 (Store.read_faults store);
  Alcotest.(check string) "page 100 reads back" "far page" (read ())

(* The stream's read of page 100 keeps failing: its fault raises the read
   error, not a missing epoch. *)
let test_lazy_page_after_prune_unreadable () =
  let hook where =
    let h = Fault.create () in
    h.Fault.on_read <-
      (fun r -> if (r.Fault.r_dev, r.Fault.r_off) = where then Fault.Fail else Fault.Clean);
    h
  in
  let _, read = lazy_page_after_prune ~hook () in
  match read () with
  | s -> Alcotest.failf "an unreadable page read back %S" s
  | exception Fault.Io_error _ -> ()
  | exception Store.Corrupt_store msg -> Alcotest.failf "Corrupt_store %S, not Io_error" msg

let test_lazy_restore_faster () =
  let measure ~lazy_pages =
    let sys = Sls.boot () in
    let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:4096 in
    Vm_space.touch_write p.Process.space ~addr ~len:(4096 * Page.logical_size);
    let group = Sls.attach sys [ p ] in
    ignore (Group.checkpoint ~wait_durable:true group);
    let _sys', result = Sls.reboot_and_restore ~lazy_pages sys in
    result.Restore.restore_ns
  in
  let full = measure ~lazy_pages:false in
  let lzy = measure ~lazy_pages:true in
  Alcotest.(check bool)
    (Printf.sprintf "lazy (%d ns) much faster than full (%d ns)" lzy full)
    true
    (lzy * 3 < full)

(* [restore_ns] is the whole charge of a restore, the shadows the
   restored group interposes over its writable mapping included: it equals
   the restoring clock's advance. *)
let test_restore_ns_includes_interposition () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:8 in
  Vm_space.write_string p.Process.space ~addr "writable";
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  Striped.settle sys.Sls.device ~clock:sys.Sls.machine.Machine.clock;
  let machine = Machine.create () in
  let store = Store.recover ~dev:sys.Sls.device ~clock:machine.Machine.clock in
  let t0 = Clock.now machine.Machine.clock in
  let result = Restore.restore ~machine ~store () in
  Alcotest.(check int) "restore_ns is the clock's advance"
    (Clock.now machine.Machine.clock - t0)
    result.Restore.restore_ns

let test_mctl_exclusion () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"app" in
  let keep = Syscall.mmap_anon p ~npages:2 in
  let scratch = Syscall.mmap_anon p ~npages:2 in
  let keep_addr = Vm_space.addr_of_entry keep in
  let scratch_addr = Vm_space.addr_of_entry scratch in
  Vm_space.write_string p.Process.space ~addr:keep_addr "keep";
  Vm_space.write_string p.Process.space ~addr:scratch_addr "drop";
  Api.sls_mctl scratch ~persist:false;
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "included region restored" "keep"
        (Vm_space.read_string p'.Process.space ~addr:keep_addr ~len:4);
      Alcotest.(check bool) "excluded region not restored" true
        (try
           ignore (Vm_space.read_byte p'.Process.space ~addr:scratch_addr);
           false
         with Vm_space.Fault _ -> true)
  | _ -> Alcotest.fail "expected 1 process"

let test_memckpt_atomic_region () =
  let sys = Sls.boot () in
  let p, e, addr = spawn_with_memory sys ~name:"app" ~npages:16 in
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  Vm_space.write_string p.Process.space ~addr "atomic region data";
  let stats = Api.sls_memckpt group e in
  Api.sls_barrier group;
  Alcotest.(check bool) "flushed the dirty page" true (stats.Group.pages_flushed >= 1);
  (* Atomic checkpoints skip quiesce + OS serialization: cheaper than a
     full one (Table 5). *)
  Alcotest.(check int) "no os serialization" 0 stats.Group.os_serialize_ns;
  (* Region checkpoints give their epoch a manifest too, composed at
     commit like a full cycle's. *)
  (match Restore.verify_epoch ~store:sys.Sls.store ~epoch:stats.Group.epoch with
  | Ok m -> Alcotest.(check int) "manifest names the region epoch" stats.Group.epoch m.Manifest.m_epoch
  | Error e -> Alcotest.failf "region epoch fails verification: %s" e);
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "region composes onto full checkpoint"
        "atomic region data"
        (Vm_space.read_string p'.Process.space ~addr ~len:18)
  | _ -> Alcotest.fail "expected 1 process"

let test_memckpt_shared_region () =
  (* sls_memckpt of a region shared by two processes: both sharers' PTEs
     are handled and both see each other's writes afterwards. *)
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let a = Syscall.spawn m ~name:"a" in
  let b = Syscall.spawn m ~name:"b" in
  let fda = Syscall.shm_open m a ~name:"/region" ~npages:8 in
  let fdb = Syscall.shm_open m b ~name:"/region" ~npages:8 in
  let ea = Syscall.mmap_shm a ~fd:fda in
  let eb = Syscall.mmap_shm b ~fd:fdb in
  let group = Sls.attach sys [ a; b ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  Vm_space.write_string a.Process.space ~addr:(Vm_space.addr_of_entry ea) "v1";
  let stats = Api.sls_memckpt group ea in
  Alcotest.(check bool) "dirty page flushed" true (stats.Group.pages_flushed >= 1);
  (* Sharing still live after the atomic checkpoint. *)
  Vm_space.write_string b.Process.space ~addr:(Vm_space.addr_of_entry eb) "v2";
  Alcotest.(check string) "a sees b's post-memckpt write" "v2"
    (Vm_space.read_string a.Process.space ~addr:(Vm_space.addr_of_entry ea) ~len:2)

(* ckpt_stats contract (group.mli): the stop window always contains the
   quiesce and — on speculative cycles — the validation pass, so
   stop_ns >= quiesce_ns + validate_ns holds in every checkpoint mode;
   stop-the-world cycles report validate_ns = 0. *)
let test_stop_window_stats_invariant () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"inv" in
  let _rd, wr = Syscall.pipe m p in
  let group = Sls.attach sys [ p ] in
  let check_mode what (c : Group.ckpt_stats) =
    Alcotest.(check bool) (what ^ ": stop_ns >= quiesce_ns + validate_ns") true
      (c.Group.stop_ns >= c.Group.quiesce_ns + c.Group.validate_ns)
  in
  check_mode "initial full" (Group.checkpoint ~wait_durable:true group);
  ignore (Syscall.write m p ~fd:wr "a");
  let stw = Group.checkpoint group in
  check_mode "incremental stop-the-world" stw;
  Alcotest.(check int) "stw reports no validation pass" 0 stw.Group.validate_ns;
  ignore (Syscall.write m p ~fd:wr "b");
  Group.set_speculative group true;
  let spec = Group.checkpoint group in
  check_mode "speculative" spec;
  Alcotest.(check bool) "speculative cycle accounted a validation pass" true
    (spec.Group.validate_ns > 0);
  ignore (Syscall.write m p ~fd:wr "c");
  check_mode "forced full" (Group.checkpoint ~full:true group)

let test_replayer_interleaved_fds () =
  let open Aurora_core.Replay in
  let log =
    [
      Recv_msg (3, "a1");
      Recv_msg (7, "b1");
      Clock_read 111;
      Recv_msg (3, "a2");
      Recv_msg (7, "b2");
    ]
  in
  let r = Replayer.create log in
  (* Re-execution may consume the fds in a different interleaving. *)
  Alcotest.(check (option string)) "fd7 first" (Some "b1") (Replayer.recv_msg r ~fd:7);
  Alcotest.(check (option string)) "fd3" (Some "a1") (Replayer.recv_msg r ~fd:3);
  Alcotest.(check (option int)) "clock" (Some 111) (Replayer.read_clock r);
  Alcotest.(check (option string)) "fd3 again" (Some "a2") (Replayer.recv_msg r ~fd:3);
  Alcotest.(check (option string)) "fd7 again" (Some "b2") (Replayer.recv_msg r ~fd:7);
  Alcotest.(check int) "exhausted" 0 (Replayer.remaining r)

(* A frame carries the epoch as its sequence number and the digest of
   the sender's manifest for that epoch. *)
let test_migrate_frame () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:4 in
  let group = Sls.attach sys [ p ] in
  let base = (Group.checkpoint ~wait_durable:true group).Group.epoch in
  Vm_space.write_string p.Process.space ~addr "second epoch";
  let epoch = (Group.checkpoint ~wait_durable:true group).Group.epoch in
  let store = sys.Sls.store in
  match (Migrate.frame ~store ~base ~epoch, Store.manifest store ~epoch) with
  | Error e, _ | _, Error e -> Alcotest.fail e
  | Ok (frame, bytes), Ok m -> (
      match Migrate.open_shipment frame with
      | Error e -> Alcotest.failf "the frame does not open: %s" e
      | Ok sh ->
          Alcotest.(check int) "body size" (String.length sh.Migrate.sh_body) bytes;
          Alcotest.(check int) "seq is the epoch" epoch sh.Migrate.sh_seq;
          Alcotest.(check int) "base" base sh.Migrate.sh_base;
          Alcotest.(check int) "epoch" epoch sh.Migrate.sh_epoch;
          Alcotest.(check int) "count" m.Manifest.m_count sh.Migrate.sh_count;
          Alcotest.(check int) "summary" (Manifest.summary m.Manifest.m_entries)
            sh.Migrate.sh_summary)

let test_store_error_paths () =
  let sys = Sls.boot () in
  let p, _e, _addr = spawn_with_memory sys ~name:"app" ~npages:1 in
  let group = Sls.attach sys [ p ] in
  let stats = Group.checkpoint ~wait_durable:true group in
  let store = sys.Sls.store in
  Alcotest.(check bool) "unknown epoch raises" true
    (try
       ignore (Store.objects_at store ~epoch:999);
       false
     with Store.Corrupt_store _ -> true);
  Alcotest.(check bool) "unknown oid raises" true
    (try
       ignore (Store.read_meta store ~epoch:stats.Group.epoch ~oid:424242);
       false
     with Store.Corrupt_store _ -> true);
  Store.reserve_oids store ~upto:1000;
  Alcotest.(check bool) "reserve respected" true (Store.alloc_oid store > 1000)

let test_journal_api () =
  let sys = Sls.boot () in
  let p, _e, _addr = spawn_with_memory sys ~name:"db" ~npages:4 in
  let group = Sls.attach sys [ p ] in
  let j = Api.sls_journal_open group ~size:(1024 * 1024) in
  Api.sls_journal group j "put k1 v1";
  Api.sls_journal group j "put k2 v2";
  (* Journal appends are synchronous: durable the moment they return. *)
  Sls.crash sys;
  let m2 = Machine.create () in
  let store2 =
    Store.recover ~dev:sys.Sls.device ~clock:m2.Machine.clock
  in
  (match Store.journal_find store2 (Api.journal_id j) with
  | Some j2 ->
      Alcotest.(check (list string)) "journal recovered after crash"
        [ "put k1 v1"; "put k2 v2" ]
        (Store.journal_records store2 j2)
  | None -> Alcotest.fail "journal lost");
  ignore group

(* Appends after a reboot land after the durable records, and a second
   crash keeps all of them. *)
let test_journal_api_two_crashes () =
  let sys = Sls.boot () in
  let p, _e, _addr = spawn_with_memory sys ~name:"db" ~npages:4 in
  let group = Sls.attach sys [ p ] in
  let j = Api.sls_journal_open group ~size:(1024 * 1024) in
  ignore (Group.checkpoint ~wait_durable:true group);
  Api.sls_journal group j "put k1 v1";
  Api.sls_journal group j "put k2 v2";
  let reboot sys =
    let sys', result = Sls.reboot_and_restore sys in
    let g = result.Restore.group in
    (sys', g, Option.get (Api.journal_of_id g (Api.journal_id j)))
  in
  let sys2, g2, j2 = reboot sys in
  Api.sls_journal g2 j2 "put k3 v3";
  let _, g3, j3 = reboot sys2 in
  Alcotest.(check (list string)) "every record survives two crashes"
    [ "put k1 v1"; "put k2 v2"; "put k3 v3" ]
    (Api.sls_journal_recover g3 j3)

let test_fdctl () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"srv" in
  let fd = Syscall.socket m p Aurora_kern.Socket.Inet Aurora_kern.Socket.Tcp in
  Alcotest.(check bool) "ext sync on by default" true (Syscall.fd_exn p fd).Fdesc.ext_sync;
  Api.sls_fdctl p ~fd ~ext_sync:false;
  Alcotest.(check bool) "disabled" false (Syscall.fd_exn p fd).Fdesc.ext_sync

let test_extsync_buffering () =
  let es = Extsync.create () in
  let delivered = ref [] in
  let send tag epoch =
    Extsync.buffer es ~epoch
      { Extsync.tag; deliver = (fun ~release_time -> delivered := (tag, release_time) :: !delivered) }
  in
  send "m1" 1;
  send "m2" 1;
  send "m3" 2;
  Alcotest.(check int) "buffered" 3 (Extsync.pending es);
  let n = Extsync.release_up_to es ~epoch:1 ~now:5000 in
  Alcotest.(check int) "released epoch 1" 2 n;
  Alcotest.(check (list (pair string int))) "order and release time"
    [ ("m1", 5000); ("m2", 5000) ]
    (List.rev !delivered);
  Alcotest.(check int) "m3 still held" 1 (Extsync.pending es);
  Alcotest.(check int) "crash drops unreleased" 1 (Extsync.drop_all es)

let test_coredump () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"dumpme" ~npages:2 in
  Vm_space.write_string p.Process.space ~addr "x";
  let group = Sls.attach sys [ p ] in
  let stats = Group.checkpoint ~wait_durable:true group in
  let dump = Coredump.dump ~store:sys.Sls.store ~epoch:stats.Group.epoch in
  let contains needle =
    let re = Str.regexp_string needle in
    try
      ignore (Str.search_forward re dump 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool) "mentions the process" true (contains "dumpme");
  Alcotest.(check bool) "has LOAD segments" true (contains "LOAD");
  Alcotest.(check bool) "has thread registers" true (contains "rip=")

let test_migration_between_machines () =
  let src = Sls.boot () in
  let p, _e, addr = spawn_with_memory src ~name:"traveler" ~npages:8 in
  Vm_space.write_string p.Process.space ~addr "crossing machines";
  let group = Sls.attach src [ p ] in
  let stats = Group.checkpoint ~wait_durable:true group in
  let frame, bytes =
    match Migrate.frame ~store:src.Sls.store ~base:0 ~epoch:stats.Group.epoch with
    | Ok sent -> sent
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "stream is nonempty" true (bytes > 0);
  (* Receive on a fresh machine: the installed epoch carries its own
     manifest, so verified restore accepts it first time. *)
  let dst = Sls.boot () in
  Clock.advance dst.Sls.machine.Machine.clock
    (Link.delivery_time (Link.create ()) ~now:0 ~bytes);
  let epoch' =
    match
      Result.bind (Migrate.open_shipment frame) (Migrate.install_verified ~store:dst.Sls.store)
    with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  match Restore.restore_verified ~machine:dst.Sls.machine ~store:dst.Sls.store () with
  | Error e -> Alcotest.fail (Restore.pp_restore_error e)
  | Ok v -> (
      Alcotest.(check int) "restores the installed epoch" epoch' v.Restore.vr_epoch;
      Alcotest.(check int) "no epoch skipped" 0 (List.length v.Restore.vr_skipped);
      match v.Restore.vr_result.Restore.procs with
      | [ p' ] ->
          Alcotest.(check string) "migrated intact" "crossing machines"
            (Vm_space.read_string p'.Process.space ~addr ~len:17)
      | _ -> Alcotest.fail "expected 1 process")

let test_detach_makes_ephemeral () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let a = Syscall.spawn m ~name:"a" in
  let b = Syscall.spawn m ~name:"b" in
  let group = Sls.attach sys [ a; b ] in
  Group.detach_process group b;
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore sys in
  Alcotest.(check int) "only attached processes restored" 1
    (List.length result.Restore.procs)

let test_checkpoint_after_restore_is_incremental () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:32 in
  Vm_space.touch_write p.Process.space ~addr ~len:(32 * Page.logical_size);
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let sys', result = Sls.reboot_and_restore sys in
  let group' = result.Restore.group in
  (match result.Restore.procs with
  | [ p' ] -> Vm_space.write_string p'.Process.space ~addr "post-restore"
  | _ -> Alcotest.fail "expected 1 process");
  let stats = Group.checkpoint ~wait_durable:true group' in
  Alcotest.(check bool)
    (Printf.sprintf "incremental after restore (%d pages)" stats.Group.pages_flushed)
    true
    (stats.Group.pages_flushed <= 2);
  (* And the re-checkpointed state survives another crash. *)
  let _sys'', result2 = Sls.reboot_and_restore sys' in
  match result2.Restore.procs with
  | [ p'' ] ->
      Alcotest.(check string) "second-generation restore" "post-restore"
        (Vm_space.read_string p''.Process.space ~addr ~len:12)
  | _ -> Alcotest.fail "expected 1 process"

(* A restore hands the group every object's oid back: the first
   checkpoint of a restored group holding every kind of kernel object
   names exactly the restored epoch's objects, none under a fresh oid. *)
let test_restored_identities_reused () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let server = Syscall.spawn m ~name:"server" in
  let r, w = Syscall.pipe m server in
  ignore (Syscall.write m server ~fd:w "queued");
  let a, b = Syscall.socketpair m server in
  let addr = { Aurora_kern.Socket.host = "10.0.0.2"; port = 8080 } in
  let listener = Syscall.socket m server Aurora_kern.Socket.Inet Aurora_kern.Socket.Tcp in
  Syscall.bind server ~fd:listener addr;
  Syscall.listen server ~fd:listener;
  (* The client shares every description above with the server. *)
  let client = Syscall.fork m server in
  let c = Syscall.socket m client Aurora_kern.Socket.Inet Aurora_kern.Socket.Tcp in
  Alcotest.(check bool) "connected" true (Syscall.tcp_connect m client ~fd:c addr);
  let conn = Option.get (Syscall.accept m server ~fd:listener) in
  let kq = Syscall.kqueue m server in
  List.iter
    (fun fd ->
      Syscall.kevent_register server ~fd:kq
        { Kqueue.ident = fd; filter = Kqueue.Ev_read; flags = 0; udata = fd })
    [ r; b; listener; conn ];
  let master = Syscall.posix_openpt m server in
  ignore (Syscall.open_pty_slave m server ~master_fd:master);
  ignore (Syscall.mmap_shm server ~fd:(Syscall.shm_open m server ~name:"/seg" ~npages:2));
  ignore (Syscall.shmat server (Syscall.shmget m ~key:77 ~npages:1));
  Syscall.send_msg m server ~fd:a ~fds:[ r ] "rights in flight";
  ignore (Group.checkpoint ~wait_durable:true (Sls.attach sys [ server; client ]));
  let sys', result = Sls.reboot_and_restore sys in
  let store = sys'.Sls.store in
  let restored = Store.last_complete_epoch store in
  let st = Group.checkpoint ~wait_durable:true result.Restore.group in
  let oids epoch = List.sort compare (Store.objects_at store ~epoch) in
  let kinds = List.sort_uniq compare (List.map snd (oids restored)) in
  List.iter
    (fun kind ->
      if not (List.mem kind kinds) then Alcotest.failf "the group holds no %s" kind)
    Aurora_core.Serial.[ kind_proc; kind_fdesc; kind_pipe; kind_socket; kind_kqueue; kind_pty; kind_shm ];
  Alcotest.(check (list (pair int string))) "the restored epoch's oids, no fresh one"
    (oids restored) (oids st.Group.epoch)

(* A restored machine issues local pids past every one it restored: four
   forks of a process restored with local pid 5 must not reuse it, and
   every process keeps its own memory through a second crash and
   restore. *)
let test_restored_local_pids_not_reissued () =
  let sys = Sls.boot () in
  for _ = 1 to 4 do
    ignore (Syscall.spawn sys.Sls.machine ~name:"other")
  done;
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:2 in
  Alcotest.(check int) "the group's only process" 5 p.Process.pid_local;
  Vm_space.write_string p.Process.space ~addr "parent!";
  ignore (Group.checkpoint ~wait_durable:true (Sls.attach sys [ p ]));
  let sys', r = Sls.reboot_and_restore sys in
  let parent = List.hd r.Restore.procs in
  let children =
    List.init 4 (fun i ->
        let c = Syscall.fork sys'.Sls.machine parent in
        Group.add_process r.Restore.group c;
        Vm_space.write_string c.Process.space ~addr (Printf.sprintf "child %d" i);
        c)
  in
  let local_pids procs = List.sort compare (List.map (fun q -> q.Process.pid_local) procs) in
  Alcotest.(check int) "distinct local pids" 5
    (List.length (List.sort_uniq compare (local_pids (parent :: children))));
  ignore (Group.checkpoint ~wait_durable:true r.Restore.group);
  let _, r2 = Sls.reboot_and_restore sys' in
  Alcotest.(check (list int)) "the same local pids" (local_pids (parent :: children))
    (local_pids r2.Restore.procs);
  Alcotest.(check (list string)) "every process's memory"
    [ "child 0"; "child 1"; "child 2"; "child 3"; "parent!" ]
    (List.sort compare
       (List.map (fun q -> Vm_space.read_string q.Process.space ~addr ~len:7) r2.Restore.procs))

(* A clean connection keeps its peer's identity: a connection to a client
   outside the group is serialized, skipped for a cycle, then dirtied
   again, and both of its images name the same peer oid. *)
let test_skipped_socket_keeps_peer_oid () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let server = Syscall.spawn m ~name:"server" in
  let client = Syscall.spawn m ~name:"client" in
  let addr = { Aurora_kern.Socket.host = "10.0.0.2"; port = 8080 } in
  let listener = Syscall.socket m server Aurora_kern.Socket.Inet Aurora_kern.Socket.Tcp in
  Syscall.bind server ~fd:listener addr;
  Syscall.listen server ~fd:listener;
  let c = Syscall.socket m client Aurora_kern.Socket.Inet Aurora_kern.Socket.Tcp in
  Alcotest.(check bool) "connected" true (Syscall.tcp_connect m client ~fd:c addr);
  ignore (Option.get (Syscall.accept m server ~fd:listener));
  let group = Sls.attach sys [ server ] in
  let peer_oids (st : Group.ckpt_stats) =
    List.filter_map
      (fun (oid, kind) ->
        if kind <> Aurora_core.Serial.kind_socket then None
        else
          let image =
            Aurora_core.Serial.socket_of_string
              (Store.read_meta sys.Sls.store ~epoch:st.Group.epoch ~oid)
          in
          if image.Aurora_core.Serial.i_peer_oid = 0 then None
          else Some image.Aurora_core.Serial.i_peer_oid)
      (Store.objects_at sys.Sls.store ~epoch:st.Group.epoch)
  in
  let first = Group.checkpoint ~wait_durable:true group in
  let clean = Group.checkpoint ~wait_durable:true group in
  Alcotest.(check int) "nothing serialized in the clean cycle" 0 clean.Group.objects_serialized;
  Syscall.send_msg m client ~fd:c "ping";
  let dirty = Group.checkpoint ~wait_durable:true group in
  Alcotest.(check int) "the connection serialized again" 1 dirty.Group.objects_serialized;
  Alcotest.(check (list int)) "the same peer oid" (peer_oids first) (peer_oids dirty)

(* A restored server's first checkpoint reads its shells' images and
   rebuilds none: it stops as long, serializes as long and stages the
   same socket metadata as after an eager restore. *)
let test_first_checkpoint_after_restore_materializes_nothing () =
  Server_image.with_image ~conns:16 ~extras:true @@ fun path _ ->
  let first_checkpoint ~eager =
    let machine, store = Server_image.boot path in
    let r = Server_image.restore ~eager machine store in
    let server = List.hd r.Restore.procs in
    let before = Server_image.shells server in
    let st = Group.checkpoint ~wait_durable:true r.Restore.group in
    let objects, _ = Server_image.epoch_contents store ~epoch:st.Group.epoch in
    ( r.Restore.sockets_deferred,
      before,
      Server_image.shells server,
      (st.Group.stop_ns, st.Group.os_serialize_ns),
      List.filter (fun (_, kind, _) -> kind = Aurora_core.Serial.kind_socket) objects )
  in
  let deferred, before, after, times, metas = first_checkpoint ~eager:false in
  let _, _, _, eager_times, eager_metas = first_checkpoint ~eager:true in
  (* The listener and 16 connections; the socketpair ends are eager. *)
  Alcotest.(check int) "sockets deferred" 17 deferred;
  Alcotest.(check int) "every deferred socket is in the fd table" deferred before;
  Alcotest.(check int) "no shell forced" before after;
  Alcotest.(check (pair int int)) "stop and serialization times" eager_times times;
  Alcotest.(check int) "every socket staged" 19 (List.length metas);
  Alcotest.(check bool) "socket metadata byte-identical" true (metas = eager_metas)

let test_mem_only_then_full_preserves_data () =
  (* Regression: a memory-only checkpoint rotates the shadow before any
     persisted checkpoint has flushed the logical object; the following
     full checkpoint must still write the original pages out. *)
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:8 in
  Vm_space.write_string p.Process.space ~addr "original state";
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint_mem_only group);
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore sys in
  (match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "pre-mem-only data survives" "original state"
        (Vm_space.read_string p'.Process.space ~addr ~len:14)
  | _ -> Alcotest.fail "expected 1 process")

let test_mem_only_between_persisted_preserves_data () =
  (* Regression: a memory-only cycle freezes a shadow it never flushes;
     the next persisted cycle collapses that shadow into the logical
     object, so its pages must still reach the next persisted epoch. *)
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:4 in
  let page i = addr + (i * Page.logical_size) in
  Vm_space.write_string p.Process.space ~addr:(page 0) "AAAA";
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  Vm_space.write_string p.Process.space ~addr:(page 1) "BBBB";
  ignore (Group.checkpoint_mem_only group);
  Vm_space.write_string p.Process.space ~addr:(page 2) "CCCC";
  ignore (Group.checkpoint ~wait_durable:true group);
  (* A second memory-only cycle and an eviction pass in between must not
     drop the pending page either. *)
  Vm_space.write_string p.Process.space ~addr:(page 3) "DDDD";
  ignore (Group.checkpoint_mem_only group);
  ignore (Group.checkpoint_mem_only group);
  ignore (Group.evict_clean_pages group ~target:16);
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore sys in
  match result.Restore.procs with
  | [ p' ] ->
      List.iteri
        (fun i want ->
          Alcotest.(check string)
            (Printf.sprintf "page %d survives" i)
            want
            (Vm_space.read_string p'.Process.space ~addr:(page i) ~len:4))
        [ "AAAA"; "BBBB"; "CCCC"; "DDDD" ]
  | _ -> Alcotest.fail "expected 1 process"

(* The same loss on a chain no mapping writes anymore: after a fork the
   memory-only cycle freezes the old top in place, and the next
   persisted cycle collapses it into a logical object nothing flushes. *)
let test_mem_only_after_fork_preserves_data () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:2 in
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  Vm_space.write_string p.Process.space ~addr "BBBB";
  Group.add_process group (Syscall.fork m p);
  ignore (Group.checkpoint_mem_only group);
  ignore (Group.checkpoint ~wait_durable:true group);
  let _sys', result = Sls.reboot_and_restore sys in
  Alcotest.(check int) "parent and child restored" 2 (List.length result.Restore.procs);
  List.iter
    (fun (p' : Process.t) ->
      Alcotest.(check string) "pre-fork page survives" "BBBB"
        (Vm_space.read_string p'.Process.space ~addr ~len:4))
    result.Restore.procs

let test_unreferenced_sysv_shm_survives () =
  (* A SysV segment with no open descriptor anywhere must still be
     checkpointed (it lives in the global namespace). *)
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"p" in
  let seg = Syscall.shmget m ~key:77 ~npages:2 in
  let e = Syscall.shmat p seg in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.write_string p.Process.space ~addr "sysv data";
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let sys', result = Sls.reboot_and_restore sys in
  (match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "mapping restored" "sysv data"
        (Vm_space.read_string p'.Process.space ~addr ~len:9);
      (* And the segment is back in the namespace: a fresh shmat sees the
         same memory. *)
      let seg' = Syscall.shmget sys'.Sls.machine ~key:77 ~npages:2 in
      let q = Syscall.spawn sys'.Sls.machine ~name:"q" in
      let e' = Syscall.shmat q seg' in
      Alcotest.(check string) "namespace relinked" "sysv data"
        (Vm_space.read_string q.Process.space ~addr:(Vm_space.addr_of_entry e') ~len:9)
  | _ -> Alcotest.fail "expected 1 process")

let test_run_for_takes_periodic_checkpoints () =
  let sys = Sls.boot () in
  let p, _e, _addr = spawn_with_memory sys ~name:"app" ~npages:2 in
  let group = Sls.attach ~period_ns:10_000_000 sys [ p ] in
  Group.run_for group 100_000_000;
  (* 100 ms at 100 Hz: about ten checkpoints. *)
  let n = List.length (Store.checkpoint_epochs sys.Sls.store) in
  Alcotest.(check bool) (Printf.sprintf "~10 checkpoints (%d)" n) true (n >= 9 && n <= 11)

module Serial = Aurora_core.Serial
module Socket = Aurora_kern.Socket
module Shm = Aurora_kern.Shm

(* A thread as its image decodes: everything but the serialized state is
   [Thread.create]'s. *)
let image_thread ~tid ~rip ~rsp ~gp ~sigmask ~pending =
  {
    (Thread.create ~tid) with
    Thread.regs = { Thread.rip; rsp; rflags = 0x202; gp; fpu = Bytes.make 64 'f' };
    sigmask;
    pending_signals = pending;
    priority = 120;
  }

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"proc image serialization round-trips" ~count:200
         QCheck.(
           quad small_nat small_nat
             (small_list (pair small_nat small_nat))
             (small_list small_nat))
         (fun (pid, ppid, fds, pending) ->
           let image =
             {
               Serial.i_pid_local = pid;
               i_ppid_local = ppid;
               i_pgid = pid;
               i_sid = 1;
               i_name = Printf.sprintf "proc-%d" pid;
               i_ephemeral = pid mod 2 = 0;
               i_cwd = "/";
               i_threads =
                 [
                   image_thread ~tid:100 ~rip:0xdead ~rsp:0xbeef
                     ~gp:(Array.init 14 (fun i -> i * pid))
                     ~sigmask:7 ~pending;
                 ];
               i_fds = fds;
               i_entries = [];
               i_proc_pending = pending;
               i_aio_reads = List.map (fun (a, b) -> (a, b, a + b)) fds;
             }
           in
           Serial.proc_of_string (Serial.proc_to_string image) = image));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"socket image serialization round-trips" ~count:200
         QCheck.(
           pair (small_list (pair small_string small_nat))
             (small_list (pair small_string (small_list small_nat))))
         (fun (opts, msgs) ->
           let msg_images =
             List.map (fun (data, oids) -> { Socket.data; ctl_fds = oids }) msgs
           in
           let image =
             {
               Serial.i_domain = Socket.Inet;
               i_proto = Socket.Tcp;
               i_peer_oid = 7;
               i_state =
                 {
                   Socket.im_laddr = Some { Socket.host = "10.0.0.1"; port = 80 };
                   im_raddr = None;
                   im_opts = opts;
                   im_state = Socket.Tcp_established { snd_seq = 12345; rcv_seq = 54321 };
                   im_recvq = msg_images;
                   im_sendq = [];
                 };
             }
           in
           Serial.socket_of_string (Serial.socket_to_string image) = image));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"restore equals model at every crash point" ~count:15
         QCheck.(
           list_of_size (Gen.int_range 1 6)
             (list_of_size (Gen.int_range 1 8)
                (pair (int_range 0 (8 * 4096 - 10)) (string_of_size (Gen.return 4)))))
         (fun epochs_of_writes ->
           (* Apply batches of writes, checkpointing after each; crash at
              the end; the restored state must equal the model of all
              batches. *)
           let sys = Sls.boot () in
           let p = Syscall.spawn sys.Sls.machine ~name:"app" in
           let e = Syscall.mmap_anon p ~npages:8 in
           let base = Vm_space.addr_of_entry e in
           let group = Sls.attach sys [ p ] in
           (* The model must reflect compact page payloads: byte [off]
              lives at payload slot [off mod payload_size] of its page, so
              different in-page offsets can alias (see Page). *)
           let slot off =
             ((off / Page.logical_size) * Page.payload_size)
             + (off mod Page.logical_size mod Page.payload_size)
           in
           let model = Hashtbl.create 64 in
           let reader_addr = Hashtbl.create 64 in
           List.iter
             (fun batch ->
               List.iter
                 (fun (off, data) ->
                   Vm_space.write_string p.Process.space ~addr:(base + off) data;
                   String.iteri
                     (fun i c ->
                       Hashtbl.replace model (slot (off + i)) c;
                       Hashtbl.replace reader_addr (slot (off + i)) (base + off + i))
                     data)
                 batch;
               ignore (Group.checkpoint ~wait_durable:true group))
             epochs_of_writes;
           let _sys', result = Sls.reboot_and_restore sys in
           match result.Restore.procs with
           | [ p' ] ->
               Hashtbl.fold
                 (fun key c ok ->
                   let addr = Hashtbl.find reader_addr key in
                   ok && Vm_space.read_byte p'.Process.space ~addr = c)
                 model true
           | _ -> false));
  ]

(* Serial image round-trips for every image type ------------------------------- *)

let sample_proc =
  {
    Serial.i_pid_local = 4;
    i_ppid_local = 1;
    i_pgid = 4;
    i_sid = 1;
    i_name = "svc";
    i_ephemeral = false;
    i_cwd = "/tmp";
    i_threads =
      [
        image_thread ~tid:100 ~rip:0x1000 ~rsp:0x2000 ~gp:(Array.init 14 (fun i -> i))
          ~sigmask:0 ~pending:[ 17 ];
      ];
    i_fds = [ (0, 7); (1, 8) ];
    i_entries =
      [
        {
          Serial.i_start_vpn = 16;
          i_npages = 4;
          i_prot = Vm_map.prot_rw;
          i_shared = false;
          i_excluded = false;
          i_obj_oid = 9;
          i_obj_pgoff = 0;
        };
      ];
    i_proc_pending = [];
    i_aio_reads = [ (3, 0, 64) ];
  }

let roundtrip_qcheck_tests =
  let t name gen image_of roundtrip =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name ~count:200 gen (fun x -> roundtrip (image_of x)))
  in
  [
    t "fdesc image round-trips"
      QCheck.(triple (int_bound 8) small_nat bool)
      (fun (variant, n, b) ->
        let kind =
          match variant with
          | 0 -> Serial.I_vnode { inode = n; offset = n * 3; append = b }
          | 1 -> Serial.I_pipe_r n
          | 2 -> Serial.I_pipe_w n
          | 3 -> Serial.I_socket n
          | 4 -> Serial.I_kqueue n
          | 5 -> Serial.I_pty_m n
          | 6 -> Serial.I_pty_s n
          | 7 -> Serial.I_shm n
          | _ -> Serial.I_device (Printf.sprintf "dev-%d" n)
        in
        { Serial.i_kind = kind; i_ext_sync = b })
      (fun i -> Serial.fdesc_of_string (Serial.fdesc_to_string i) = i);
    t "pipe image round-trips"
      QCheck.(triple small_string bool bool)
      (fun (data, rd, wr) -> { Serial.i_data = data; i_rd_open = rd; i_wr_open = wr })
      (fun i -> Serial.pipe_of_string (Serial.pipe_to_string i) = i);
    t "kqueue image round-trips"
      QCheck.(
        small_list
          (quad small_nat
             (oneofl Kqueue.[ Ev_read; Ev_write; Ev_timer; Ev_signal; Ev_proc ])
             small_nat small_nat))
      (List.map (fun (ident, filter, flags, udata) -> { Kqueue.ident; filter; flags; udata }))
      (fun evs -> Serial.kqueue_of_string (Serial.kqueue_to_string evs) = evs);
    t "pty image round-trips"
      QCheck.(quad small_nat bool small_string small_string)
      (fun (u, echo, input, output) ->
        {
          Serial.i_unit = u;
          i_echo = echo;
          i_canonical = not echo;
          i_baud = 115200;
          i_input = input;
          i_output = output;
        })
      (fun i -> Serial.pty_of_string (Serial.pty_to_string i) = i);
    t "shm image round-trips"
      QCheck.(triple bool small_string small_nat)
      (fun (posix, name, n) ->
        {
          Serial.i_shm_kind = (if posix then Shm.Posix_shm name else Shm.Sysv_shm n);
          i_npages = n + 1;
          i_backing_oid = n * 2;
        })
      (fun i -> Serial.shm_of_string (Serial.shm_to_string i) = i);
    t "memobj image round-trips"
      QCheck.(pair (option small_nat) bool)
      (fun (parent, anon) -> { Serial.i_parent_oid = parent; i_anon = anon })
      (fun i -> Serial.memobj_of_string (Serial.memobj_to_string i) = i);
    t "group image round-trips"
      QCheck.(
        quad (small_list small_nat) small_nat
          (small_list (pair small_string small_nat))
          (small_list small_nat))
      (fun (oids, period, names, parents) ->
        {
          Serial.i_proc_oids = oids;
          i_period = period;
          i_ext_sync_on = period mod 2 = 0;
          i_name_ckpts = names;
          i_ephemeral_parents = parents;
        })
      (fun i -> Serial.group_of_string (Serial.group_to_string i) = i);
  ]

(* Every on-store and on-wire format, stated as its module's codec.  Each
   entry encodes fixed samples with the module's encoder and parses with
   the module's own typed decoder; [pin] is the samples' concatenated
   bytes as captured before the formats became codecs: hex up to 64
   bytes, else length and CRC-32. *)
type format =
  | Format : {
      name : string;
      samples : 'a list;
      encode : 'a -> string;
      decode : string -> 'a;
      typed : exn -> bool;
      pin : string;
    }
      -> format

exception Rejected of string

let of_result f s = match f s with Ok v -> v | Error e -> raise (Rejected e)

let pin_of s =
  if String.length s <= 64 then
    String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
  else Printf.sprintf "%d bytes, CRC-32 %08x" (String.length s) (Aurora_util.Crc32.of_string s)

let serial name encode decode samples pin =
  Format
    { name = "serial " ^ name; samples; encode; decode; pin;
      typed = (function Serial.Malformed _ -> true | _ -> false) }

let stored name codec samples pin =
  Format
    {
      name = "store " ^ name;
      samples;
      encode = (fun v -> Bytes.to_string (Wire.encode codec v));
      decode = (fun s -> Store.decode name codec (Bytes.of_string s));
      typed = (function Store.Corrupt_store _ -> true | _ -> false);
      pin;
    }

let wire name codec samples pin =
  Format
    { name; samples; encode = Wire.to_string codec; decode = Wire.of_string codec; pin;
      typed = (function Wire.Corrupt _ -> true | _ -> false) }

let rejected = function Rejected _ -> true | _ -> false

let formats =
  [
    serial "proc" Serial.proc_to_string Serial.proc_of_string [ sample_proc ]
      "385 bytes, CRC-32 9d957d31";
    serial "fdesc" Serial.fdesc_to_string Serial.fdesc_of_string
      ({ Serial.i_kind = Serial.I_vnode { inode = 3; offset = 10; append = true };
         i_ext_sync = true }
      :: List.map
           (fun k -> { Serial.i_kind = k; i_ext_sync = false })
           [ Serial.I_vnode { inode = 3; offset = 10; append = true }; I_pipe_r 1;
             I_pipe_w 2; I_socket 3; I_kqueue 4; I_pty_m 5; I_pty_s 6; I_shm 7;
             I_device "null" ])
      "118 bytes, CRC-32 2ad83727";
    serial "pipe" Serial.pipe_to_string Serial.pipe_of_string
      [ { Serial.i_data = "buffered"; i_rd_open = true; i_wr_open = false } ]
      "0800000062756666657265640100";
    serial "socket" Serial.socket_to_string Serial.socket_of_string
      [
        {
          Serial.i_domain = Socket.Unix_dom;
          i_proto = Socket.Tcp;
          i_peer_oid = 0;
          i_state =
            {
              Socket.im_laddr = Some { Socket.host = "10.0.0.1"; port = 80 };
              im_raddr = None;
              im_opts = [ ("nodelay", 1) ];
              im_state = Socket.Tcp_established { snd_seq = 5; rcv_seq = 6 };
              im_recvq = [ { Socket.data = "m"; ctl_fds = [ 4 ] } ];
              im_sendq = [];
            };
        };
      ]
      "93 bytes, CRC-32 354c0981";
    serial "kqueue" Serial.kqueue_to_string Serial.kqueue_of_string
      [ [ { Kqueue.ident = 1; filter = Kqueue.Ev_timer; flags = 3; udata = 4 } ] ]
      "01000000010000000000000002030000000400000000000000";
    serial "pty" Serial.pty_to_string Serial.pty_of_string
      [
        {
          Serial.i_unit = 1;
          i_echo = true;
          i_canonical = false;
          i_baud = 9600;
          i_input = "in";
          i_output = "out";
        };
      ]
      "0100000001008025000002000000696e030000006f7574";
    serial "shm" Serial.shm_to_string Serial.shm_of_string
      [
        { Serial.i_shm_kind = Shm.Posix_shm "seg"; i_npages = 2; i_backing_oid = 5 };
        { Serial.i_shm_kind = Shm.Sysv_shm 77; i_npages = 1; i_backing_oid = 6 };
      ]
      "000300000073656702000000000000000500000000000000\
       014d0000000000000001000000000000000600000000000000";
    serial "memobj" Serial.memobj_to_string Serial.memobj_of_string
      [
        { Serial.i_parent_oid = Some 2; i_anon = true };
        { Serial.i_parent_oid = None; i_anon = false };
      ]
      "010200000000000000010000";
    serial "group" Serial.group_to_string Serial.group_of_string
      [
        {
          Serial.i_proc_oids = [ 1; 2 ];
          i_period = 10_000_000;
          i_ext_sync_on = true;
          i_name_ckpts = [ ("v1", 3) ];
          i_ephemeral_parents = [ 2 ];
        };
      ]
      "02000000010000000000000002000000000000008096980000000000010100000002000000\
       76310300000000000000010000000200000000000000";
    Format
      {
        name = "manifest";
        samples =
          [
            {
              Manifest.m_epoch = 5;
              m_count = 2;
              m_entries =
                [
                  { Manifest.me_oid = 3; me_kind = "sls.pipe"; me_meta_crc = 0x1234;
                    me_pages = 2; me_pages_crc = 0x55 };
                  { Manifest.me_oid = 4; me_kind = "fs.vnode"; me_meta_crc = 0xFFFF_FFFF;
                    me_pages = 0; me_pages_crc = 0 };
                ];
            };
          ];
        encode = Wire.to_string Manifest.codec;
        decode = of_result Manifest.of_string;
        typed = rejected;
        pin = "100 bytes, CRC-32 17df5005";
      };
    wire "migrate stream" Migrate.stream_codec
      [
        ( 5,
          [
            (3, "sls.pipe", "meta", [ (0, Bytes.of_string "page0"); (7, Bytes.of_string "p7") ]);
            (4, "fs.vnode", "", []);
          ] );
      ]
      "107 bytes, CRC-32 557a7b7a";
    Format
      {
        name = "migrate shipment";
        samples =
          [
            { Migrate.sh_seq = 5; sh_base = 4; sh_epoch = 5; sh_count = 2; sh_summary = 0xABCD;
              sh_body = "body" };
          ];
        encode = Migrate.seal Migrate.shipment_codec;
        decode = of_result Migrate.open_shipment;
        typed = rejected;
        pin =
          "080000004155525348495031050000000000000004000000000000000500000000000000\
           02000000cdab000004000000626f6479280073fc";
      };
    Format
      {
        name = "migrate ack";
        samples =
          [
            { Migrate.ack_seq = 5; ack_epoch = 5; ack_ok = true; ack_reason = "" };
            { Migrate.ack_seq = 6; ack_epoch = 6; ack_ok = false; ack_reason = "digest" };
          ];
        encode = Migrate.seal Migrate.ack_codec;
        decode = of_result Migrate.open_ack;
        typed = rejected;
        pin = "80 bytes, CRC-32 3c14df58";
      };
    stored "version record" Store_format.version_codec
      [
        { Store_format.vr_oid = 7; vr_epoch = 3; vr_kind = "sls.proc"; vr_meta = "meta-bytes";
          vr_leaves = [ (0, 12); (2, 40) ] };
      ]
      "71 bytes, CRC-32 355e07c9";
    stored "leaf" Store_format.leaf_codec
      [
        [
          { Store_format.p_idx = 0; p_blk = 100; p_off = 0; p_clen = 4096; p_olen = 4096;
            p_comp = false; p_crc = 0xDEADBEEF; p_hash = 0x1234_5678_9ABC_DEF };
          { Store_format.p_idx = 5; p_blk = 101; p_off = 128; p_clen = 300; p_olen = 4096;
            p_comp = true; p_crc = 17; p_hash = 0x3FFF_FFFF_FFFF_FFF };
        ];
      ]
      "79 bytes, CRC-32 2e919aa7";
    stored "checkpoint record" Store_format.checkpoint_codec
      [
        { Store_format.cr_epoch = 4; cr_prev_block = 9; cr_prev_nblocks = 2;
          cr_manifest = (13, 4000, 120); cr_table = [ (7, 12, 300, 88); (8, 13, 0, 4000) ] };
      ]
      "89 bytes, CRC-32 bf8464f6";
    stored "superblock" Store_format.superblock_codec
      (List.map
         (fun (sb_epoch, sb_records) ->
           { Store_format.sb_epoch; sb_next_block = 64; sb_next_oid = 9; sb_oldest_retained = 2;
             sb_records; sb_journals = [ (1, 30, 4, 2) ] })
         [ (4, [ (20, 1) ]); (0, []); (5, [ (22, 3); (20, 1) ]) ])
      "288 bytes, CRC-32 5a5d9419";
    stored "journal record" Store_format.journal_record_codec [ (3, "payload") ]
      "a403000000070000007061796c6f6164";
    wire "fs namespace" Aurora_fs.Fs.namespace_codec [ ([ ("/a", 1); ("/b/c", 2) ], 3) ]
      "02000000020000002f610100000000000000040000002f622f6302000000000000000300000000000000";
    wire "fs vnode" Aurora_fs.Fs.vnode_codec [ (2, 8192, 1) ]
      "0200000000000000002000000000000001000000";
    wire "replay entry" Aurora_core.Replay.entry_codec
      [ Aurora_core.Replay.Recv_msg (3, "hello"); Clock_read 123456 ]
      "00030000000500000068656c6c6f0140e2010000000000";
    wire "rocksdb wal record" Aurora_apps.Rocksdb_aurora.record_codec [ [ (1, 100); (42, 4096) ] ]
      "020000000100000000000000640000002a0000000000000000100000";
  ]

(* The samples encode to exactly the bytes the format had before it was
   restated as a codec. *)
let test_format_pin (Format f) () =
  Alcotest.(check string) f.name f.pin (pin_of (String.concat "" (List.map f.encode f.samples)))

(* Every format: a sample round-trips, and every strict prefix and every
   single-byte flip of its encoding either parses or fails with the
   module's typed error — never [Failure], [Invalid_argument] or
   [Not_found]. *)
let test_parsers_raise_typed_malformed () =
  List.iter
    (fun (Format f) ->
      List.iter
        (fun sample ->
          let valid = f.encode sample in
          if f.decode valid <> sample then Alcotest.failf "%s does not round-trip" f.name;
          let attempt what s =
            match f.decode s with
            | _ -> ()
            | exception e when f.typed e -> ()
            | exception e -> Alcotest.failf "%s %s raised %s" f.name what (Printexc.to_string e)
          in
          for len = 0 to String.length valid - 1 do
            attempt (Printf.sprintf "truncated at %d" len) (String.sub valid 0 len)
          done;
          String.iteri
            (fun i c ->
              let b = Bytes.of_string valid in
              Bytes.set b i (Char.chr (Char.code c lxor 0x41));
              attempt (Printf.sprintf "flipped byte %d" i) (Bytes.to_string b))
            valid)
        f.samples)
    formats

(* A byte that names no value of its kernel type is malformed: its parser
   raises [Malformed], [parse_check] rejects it, and verified restore
   skips an epoch whose manifest names such an image. *)
let test_out_of_range_enums_malformed () =
  let socket domain proto state =
    Serial.socket_to_string
      {
        Serial.i_domain = domain;
        i_proto = proto;
        i_peer_oid = 0;
        i_state =
          { Socket.im_laddr = None; im_raddr = None; im_opts = []; im_state = state;
            im_recvq = []; im_sendq = [] };
      }
  in
  let kevent filter = Serial.kqueue_to_string [ { Kqueue.ident = 1; filter; flags = 0; udata = 0 } ] in
  let shm kind = Serial.shm_to_string { Serial.i_shm_kind = kind; i_npages = 1; i_backing_oid = 2 } in
  let closed = Socket.Tcp_closed in
  (* Two images that differ first at the field's byte, and the first value
     past the field's last. *)
  let cases =
    [
      ("kqueue filter", Serial.kind_kqueue, kevent Kqueue.Ev_read, kevent Kqueue.Ev_write, 5);
      ( "socket domain", Serial.kind_socket, socket Socket.Inet Socket.Tcp closed,
        socket Socket.Unix_dom Socket.Tcp closed, 2 );
      ( "socket protocol", Serial.kind_socket, socket Socket.Inet Socket.Udp closed,
        socket Socket.Inet Socket.Tcp closed, 2 );
      ( "tcp state", Serial.kind_socket, socket Socket.Inet Socket.Tcp closed,
        socket Socket.Inet Socket.Tcp Socket.Tcp_listening, 3 );
      ("shm kind", Serial.kind_shm, shm (Shm.Posix_shm "s"), shm (Shm.Sysv_shm 1), 2);
    ]
  in
  let parse kind s =
    if kind = Serial.kind_kqueue then ignore (Serial.kqueue_of_string s)
    else if kind = Serial.kind_socket then ignore (Serial.socket_of_string s)
    else ignore (Serial.shm_of_string s)
  in
  List.iter
    (fun (what, kind, a, b, past) ->
      let at = ref 0 in
      while a.[!at] = b.[!at] do incr at done;
      let image = Bytes.of_string a in
      Bytes.set image !at (Char.chr past);
      let image = Bytes.to_string image in
      (match parse kind image with
      | () -> Alcotest.failf "%s %d parsed" what past
      | exception Serial.Malformed _ -> ());
      (match Serial.parse_check ~kind image with
      | Ok () -> Alcotest.failf "%s %d passed parse_check" what past
      | Error _ -> ());
      (* An epoch whose manifest names the image, over a good one. *)
      let sys = Sls.boot () in
      let p, _e, _addr = spawn_with_memory sys ~name:"app" ~npages:1 in
      ignore (Group.checkpoint ~wait_durable:true (Sls.attach sys [ p ]));
      let store = sys.Sls.store in
      let good = Store.last_complete_epoch store in
      let epoch = Store.begin_checkpoint store in
      Store.put_object store ~oid:(Store.alloc_oid store) ~kind ~meta:image;
      Clock.advance_to sys.Sls.machine.Machine.clock (Store.commit_checkpoint store);
      match Restore.restore_verified ~machine:(Machine.create ()) ~store () with
      | Error e -> Alcotest.failf "%s: %s" what (Restore.pp_restore_error e)
      | Ok v -> (
          Alcotest.(check int) (what ^ ": the good epoch restored") good v.Restore.vr_epoch;
          match v.Restore.vr_skipped with
          | [ { Restore.at_epoch; at_reason } ] when at_epoch = epoch ->
              let unparseable = Str.regexp_string "metadata unparseable" in
              if not (try ignore (Str.search_forward unparseable at_reason 0); true with Not_found -> false)
              then Alcotest.failf "%s: skipped for %S" what at_reason
          | _ -> Alcotest.failf "%s: the epoch holding the image was not skipped" what))
    cases

let test_parse_check_dispatch () =
  (match Serial.parse_check ~kind:Serial.kind_proc (Serial.proc_to_string sample_proc) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("valid proc rejected: " ^ e));
  (match Serial.parse_check ~kind:Serial.kind_proc "garbage" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "garbage proc accepted");
  (* Unknown kinds (fs.*, memory) are not image-parseable: accepted as-is. *)
  match Serial.parse_check ~kind:"fs.namespace" "anything" with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("unknown kind rejected: " ^ e)

(* Replication frames ----------------------------------------------------------- *)

let test_shipment_frames () =
  let body = "stream-bytes-go-here" in
  let frame =
    Migrate.seal Migrate.shipment_codec
      {
        Migrate.sh_seq = 3;
        sh_base = 1;
        sh_epoch = 2;
        sh_count = 5;
        sh_summary = 0xBEEF;
        sh_body = body;
      }
  in
  (match Migrate.open_shipment frame with
  | Ok sh ->
      Alcotest.(check int) "seq" 3 sh.Migrate.sh_seq;
      Alcotest.(check int) "base" 1 sh.Migrate.sh_base;
      Alcotest.(check int) "epoch" 2 sh.Migrate.sh_epoch;
      Alcotest.(check int) "count" 5 sh.Migrate.sh_count;
      Alcotest.(check int) "summary" 0xBEEF sh.Migrate.sh_summary;
      Alcotest.(check string) "body" body sh.Migrate.sh_body
  | Error e -> Alcotest.fail ("valid frame rejected: " ^ e));
  (* Any single flipped byte is caught by the trailer CRC. *)
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string frame in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      match Migrate.open_shipment (Bytes.to_string b) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "flip at %d went unnoticed" i))
    frame;
  (match Migrate.open_shipment "abc" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "3-byte frame accepted");
  (* An ack frame is not a shipment: valid CRC, wrong magic. *)
  let ack =
    Migrate.seal Migrate.ack_codec
      { Migrate.ack_seq = 3; ack_epoch = 2; ack_ok = true; ack_reason = "" }
  in
  (match Migrate.open_shipment ack with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ack parsed as shipment");
  match Migrate.open_ack ack with
  | Ok a ->
      Alcotest.(check int) "ack seq" 3 a.Migrate.ack_seq;
      Alcotest.(check bool) "ack ok" true a.Migrate.ack_ok
  | Error e -> Alcotest.fail ("valid ack rejected: " ^ e)

(* External synchrony: the discarded window --------------------------------------- *)

let test_extsync_drop_after () =
  let t = Extsync.create () in
  let released = ref [] in
  let buffer epoch tag =
    Extsync.buffer t ~epoch
      { Extsync.tag; deliver = (fun ~release_time:_ -> released := tag :: !released) }
  in
  buffer 1 "a";
  buffer 2 "b";
  buffer 3 "c";
  buffer 3 "d";
  (* Failover recovered epoch 2: exactly the epoch-3 window vanishes. *)
  Alcotest.(check int) "dropped the window" 2 (Extsync.drop_after t ~epoch:2);
  Alcotest.(check int) "older survive" 2 (Extsync.pending t);
  ignore (Extsync.release_up_to t ~epoch:2 ~now:99);
  Alcotest.(check (list string)) "released in order" [ "a"; "b" ] (List.rev !released)

(* Verified restore and epoch fallback -------------------------------------------- *)

let test_verify_epoch_and_fallback () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:8 in
  let group = Sls.attach sys [ p ] in
  Vm_space.write_string p.Process.space ~addr "gen-1";
  ignore (Group.checkpoint ~wait_durable:true group);
  Vm_space.write_string p.Process.space ~addr "gen-2";
  ignore (Group.checkpoint ~wait_durable:true group);
  let store = sys.Sls.store in
  let newest = Store.last_complete_epoch store in
  (match Restore.verify_epoch ~store ~epoch:newest with
  | Ok m ->
      Alcotest.(check int) "manifest names its epoch" newest m.Manifest.m_epoch;
      Alcotest.(check bool) "covers the epoch's objects" true (m.Manifest.m_count > 0)
  | Error e -> Alcotest.fail ("healthy epoch rejected: " ^ e));
  (* Corrupt the newest epoch's memory-object metadata: verification must
     fail there and verified restore must fall back to gen-1. *)
  let victim =
    match
      List.find_opt
        (fun (_, kind) -> kind = Serial.kind_memobj)
        (Store.objects_at store ~epoch:newest)
    with
    | Some (oid, _) -> oid
    | None -> Alcotest.fail "no memobj in checkpoint"
  in
  Store.corrupt_meta_for_tests store ~epoch:newest ~oid:victim;
  (match Restore.verify_epoch ~store ~epoch:newest with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted epoch verified");
  match Restore.restore_verified ~machine:(Machine.create ()) ~store () with
  | Error e -> Alcotest.fail ("fallback found nothing: " ^ Restore.pp_restore_error e)
  | Ok v -> (
      Alcotest.(check bool) "older epoch restored" true (v.Restore.vr_epoch < newest);
      Alcotest.(check bool) "the corrupted epoch was skipped" true
        (List.exists
           (fun (a : Restore.attempt) -> a.Restore.at_epoch = newest)
           v.Restore.vr_skipped);
      match v.Restore.vr_result.Restore.procs with
      | [ p' ] ->
          Alcotest.(check string) "previous generation" "gen-1"
            (Vm_space.read_string p'.Process.space ~addr ~len:5)
      | _ -> Alcotest.fail "expected 1 process")

let test_restore_verified_empty_store () =
  let sys = Sls.boot () in
  match Restore.restore_verified ~machine:(Machine.create ()) ~store:sys.Sls.store () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "restored from a store with no group checkpoint"

(* A block under the newest epoch that keeps failing to read, retries
   spent, is a reason to fall back just like corruption: verification
   reports the failed read and verified restore takes the older epoch. *)
let test_unreadable_epoch_falls_back () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:8 in
  let group = Sls.attach sys [ p ] in
  Vm_space.write_string p.Process.space ~addr "gen-1";
  ignore (Group.checkpoint ~wait_durable:true group);
  Vm_space.write_string p.Process.space ~addr "gen-2";
  ignore (Group.checkpoint ~wait_durable:true group);
  let dev = sys.Sls.device in
  let newest, older =
    match List.rev (Store.checkpoint_epochs sys.Sls.store) with
    | n :: o :: _ -> (n, o)
    | _ -> Alcotest.fail "expected two epochs"
  in
  (* The device reads a recovery plus a cold verification of [epoch] make. *)
  let reads_of epoch =
    let seen = ref [] in
    let h = Fault.create () in
    h.Fault.on_read <-
      (fun r ->
        seen := (r.Fault.r_dev, r.Fault.r_off, r.Fault.r_len) :: !seen;
        Fault.Clean);
    Striped.set_fault dev (Some h);
    let store = Store.recover ~dev ~clock:(Clock.create ()) in
    (match Restore.verify_epoch ~store ~epoch with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "epoch %d rejected: %s" epoch e);
    Striped.set_fault dev None;
    !seen
  in
  let shared = reads_of older in
  let failing = List.filter (fun r -> not (List.mem r shared)) (reads_of newest) in
  Alcotest.(check bool) "the newest epoch has reads of its own" true (failing <> []);
  let h = Fault.create () in
  h.Fault.on_read <-
    (fun r ->
      if List.mem (r.Fault.r_dev, r.Fault.r_off, r.Fault.r_len) failing then Fault.Fail
      else Fault.Clean);
  Striped.set_fault dev (Some h);
  let machine = Machine.create () in
  let store = Store.recover ~dev ~clock:machine.Machine.clock in
  let verdict = Restore.restore_verified ~machine ~store () in
  Striped.set_fault dev None;
  match verdict with
  | Error e -> Alcotest.fail ("fallback found nothing: " ^ Restore.pp_restore_error e)
  | Ok v -> (
      Alcotest.(check int) "older epoch restored" older v.Restore.vr_epoch;
      (match v.Restore.vr_skipped with
      | [ a ] ->
          Alcotest.(check int) "the unreadable epoch was skipped" newest a.Restore.at_epoch;
          Alcotest.(check bool) "skipped for a failed read" true
            (String.starts_with ~prefix:"read failed: " a.Restore.at_reason)
      | _ -> Alcotest.fail "expected exactly the newest epoch skipped");
      match v.Restore.vr_result.Restore.procs with
      | [ p' ] ->
          Alcotest.(check string) "previous generation" "gen-1"
            (Vm_space.read_string p'.Process.space ~addr ~len:5)
      | _ -> Alcotest.fail "expected 1 process")

(* Two processes and a file, checkpointed twice; then b's newest page
   ranges read cleanly until their [fail_from]th read, and fail from it
   on, under a verified restore into a fresh machine.  Returns the
   newest and older epochs, the read count of each of b's ranges, the
   machine and the verdict. *)
let b_ranges_fail ~fail_from =
  let sys = Sls.boot () in
  let a, _, addr_a = spawn_with_memory sys ~name:"a" ~npages:2 in
  let b, _, addr_b = spawn_with_memory sys ~name:"b" ~npages:2 in
  let vn = Aurora_fs.Fs.create_file sys.Sls.fs "/data" in
  Aurora_fs.Fs.write sys.Sls.fs vn ~off:0 "file bytes";
  let group = Sls.attach sys [ a; b ] in
  let round gen =
    Vm_space.write_string a.Process.space ~addr:addr_a (Printf.sprintf "a gen-%d" gen);
    Vm_space.write_string b.Process.space ~addr:addr_b (Printf.sprintf "b gen-%d" gen);
    ignore (Group.checkpoint ~wait_durable:true group)
  in
  round 1;
  round 2;
  let dev = sys.Sls.device in
  Striped.settle dev ~clock:sys.Sls.machine.Machine.clock;
  let newest, older =
    match List.rev (Store.checkpoint_epochs sys.Sls.store) with
    | n :: o :: _ -> (n, o)
    | _ -> Alcotest.fail "expected two epochs"
  in
  (* The device reads of [b]'s newest pages, its leaves resident. *)
  let st = Store.recover ~dev ~clock:(Clock.create ()) in
  let b_oid =
    match
      List.filter
        (fun (oid, kind) ->
          kind = Serial.kind_memobj
          && List.exists
               (fun (_, page) -> String.starts_with ~prefix:"b gen-2" (Bytes.to_string page))
               (Store.read_pages st ~epoch:newest ~oid))
        (Store.objects_at st ~epoch:newest)
    with
    | [ (oid, _) ] -> oid
    | l -> Alcotest.failf "expected one memory object holding b's page, saw %d" (List.length l)
  in
  let b_reads = ref [] in
  let h = Fault.create () in
  h.Fault.on_read <-
    (fun r ->
      b_reads := (r.Fault.r_dev, r.Fault.r_off) :: !b_reads;
      Fault.Clean);
  Striped.set_fault dev (Some h);
  ignore (Store.read_pages st ~epoch:newest ~oid:b_oid);
  Striped.set_fault dev None;
  let b_reads = !b_reads in
  Alcotest.(check bool) "b's newest pages are read" true (b_reads <> []);
  let seen = Hashtbl.create 8 in
  h.Fault.on_read <-
    (fun r ->
      let key = (r.Fault.r_dev, r.Fault.r_off) in
      if not (List.mem key b_reads) then Fault.Clean
      else begin
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen key) in
        Hashtbl.replace seen key n;
        if n >= fail_from then Fault.Fail else Fault.Clean
      end);
  Striped.set_fault dev (Some h);
  let machine = Machine.create () in
  let store = Store.recover ~dev ~clock:machine.Machine.clock in
  let verdict = Restore.restore_verified ~machine ~store () in
  Striped.set_fault dev None;
  let reads = List.map (fun key -> Option.value ~default:0 (Hashtbl.find_opt seen key)) b_reads in
  match verdict with
  | Error e -> Alcotest.fail ("fallback found nothing: " ^ Restore.pp_restore_error e)
  | Ok v ->
      (* Whatever epoch came back, the machine holds exactly its
         processes, with [gen]'s memory, and its one file system. *)
      let restored gen =
        let procs = v.Restore.vr_result.Restore.procs in
        Alcotest.(check (list int))
          "the machine holds exactly the restored processes, no orphan pid"
          (List.sort compare (List.map (fun (p : Process.t) -> p.Process.pid_global) procs))
          (List.sort compare (Hashtbl.fold (fun pid _ acc -> pid :: acc) machine.Machine.procs []));
        Alcotest.(check (list string))
          (Printf.sprintf "generation %d's memory" gen)
          [ Printf.sprintf "a gen-%d" gen; Printf.sprintf "b gen-%d" gen ]
          (List.map2
             (fun (p : Process.t) addr -> Vm_space.read_string p.Process.space ~addr ~len:7)
             procs [ addr_a; addr_b ]);
        let fs =
          match v.Restore.vr_result.Restore.fs with
          | Some fs -> fs
          | None -> Alcotest.fail "no file system restored"
        in
        Alcotest.(check bool) "the mounted file system is the restored epoch's" true
          (match
             ( (Machine.vfs_exn machine).Aurora_kern.Vfs.lookup "/data",
               Aurora_fs.Fs.lookup fs "/data" )
           with
          | Some mounted, Some restored -> mounted == restored
          | _ -> false)
      in
      (newest, older, reads, v, restored)

(* Verification reads each of b's ranges once and the restore takes its
   pages from those reads, so ranges that fail from their second read on
   never fail: the newest epoch comes back. *)
let test_post_verify_read_failure_unseen () =
  let newest, _, reads, v, restored = b_ranges_fail ~fail_from:2 in
  Alcotest.(check (list int)) "each of b's ranges is read exactly once"
    (List.map (fun _ -> 1) reads) reads;
  Alcotest.(check int) "the newest epoch restored" newest v.Restore.vr_epoch;
  Alcotest.(check int) "nothing skipped" 0 (List.length v.Restore.vr_skipped);
  restored 2

(* b's newest ranges fail from their first read: verification reports
   the failed read, and the fallback restores the older epoch into a
   machine that holds exactly that epoch's processes and its one file
   system. *)
let test_fallback_when_ranges_fail_at_once () =
  let newest, older, reads, v, restored = b_ranges_fail ~fail_from:1 in
  Alcotest.(check bool) "b's ranges were read" true (List.for_all (fun n -> n >= 1) reads);
  Alcotest.(check int) "older epoch restored" older v.Restore.vr_epoch;
  (match v.Restore.vr_skipped with
  | [ at ] ->
      Alcotest.(check int) "the newest epoch was skipped" newest at.Restore.at_epoch;
      Alcotest.(check bool)
        (Printf.sprintf "skipped for a failed read: %s" at.Restore.at_reason)
        true
        (String.starts_with ~prefix:"read failed: " at.Restore.at_reason)
  | _ -> Alcotest.fail "expected exactly the newest epoch skipped");
  restored 1

(* A verified restore takes its pages from the streams its check
   started: from a freshly recovered store, eager or lazy, it reads every
   stored page of the epoch exactly once, and a restored page's touch
   then reads nothing.  An eager restore decoded the page already, so the
   touch charges the store's clock nothing; a lazy one decodes and checks
   the page's window at the fault.  A
   page read is told apart by its location: the ranges a second
   [read_pages] of every object reads on an identical store, its leaves
   resident. *)
let test_verified_restore_reads_each_page_once () =
  let sys = Sls.boot () in
  let npages = 24 in
  let p, _, addr = spawn_with_memory sys ~name:"app" ~npages in
  let vn = Aurora_fs.Fs.create_file sys.Sls.fs "/data" in
  Aurora_fs.Fs.write sys.Sls.fs vn ~off:0 "file page 0";
  Aurora_fs.Fs.write sys.Sls.fs vn ~off:4096 "file page 1";
  let group = Sls.attach sys [ p ] in
  let write gen k =
    Vm_space.write_string p.Process.space ~addr:(addr + (k * 4096))
      (Printf.sprintf "page %d gen-%d" k gen)
  in
  List.iter (write 1) (List.init npages Fun.id);
  ignore (Group.checkpoint ~wait_durable:true group);
  (* The newest epoch holds fresh pages and pages carried from the
     first. *)
  List.iter (write 2) [ 1; 5; 17 ];
  ignore (Group.checkpoint ~wait_durable:true group);
  let dev = sys.Sls.device in
  Striped.settle dev ~clock:sys.Sls.machine.Machine.clock;
  let epoch = Store.last_complete_epoch sys.Sls.store in
  let record f =
    let reads = ref [] in
    let h = Fault.create () in
    h.Fault.on_read <-
      (fun r ->
        reads := (r.Fault.r_dev, r.Fault.r_off) :: !reads;
        Fault.Clean);
    Striped.set_fault dev (Some h);
    let v = Fun.protect ~finally:(fun () -> Striped.set_fault dev None) f in
    (v, !reads)
  in
  let st = Store.recover ~dev ~clock:(Clock.create ()) in
  let objects = Store.objects_at st ~epoch in
  List.iter (fun (oid, _) -> ignore (Store.read_pages st ~epoch ~oid)) objects;
  let _, page_reads =
    record (fun () -> List.iter (fun (oid, _) -> ignore (Store.read_pages st ~epoch ~oid)) objects)
  in
  let counts reads =
    List.sort compare
      (List.map (fun k -> (k, List.length (List.filter (( = ) k) reads))) page_reads)
  in
  Alcotest.(check bool) "every stored page is read once by the reference" true
    (List.length page_reads >= npages + 2
    && List.for_all (fun (_, n) -> n = 1) (counts page_reads));
  List.iter
    (fun lazy_pages ->
      let what = if lazy_pages then "lazy" else "eager" in
      let machine = Machine.create () in
      let store = Store.recover ~dev ~clock:(Clock.create ()) in
      let v, reads = record (fun () -> Restore.restore_verified ~machine ~store ~lazy_pages ()) in
      let v =
        match v with
        | Ok v -> v
        | Error e -> Alcotest.failf "%s: %s" what (Restore.pp_restore_error e)
      in
      Alcotest.(check int) (what ^ ": the newest epoch") epoch v.Restore.vr_epoch;
      Alcotest.(check (list (pair (pair string int) int)))
        (what ^ ": every stored page read exactly once")
        (counts page_reads) (counts reads);
      let p' =
        match v.Restore.vr_result.Restore.procs with
        | [ p' ] -> p'
        | _ -> Alcotest.fail "expected 1 process"
      in
      let t0 = Clock.now (Store.clock store) in
      let page, touch =
        record (fun () -> Vm_space.read_string p'.Process.space ~addr:(addr + (5 * 4096)) ~len:12)
      in
      Alcotest.(check string) (what ^ ": the touched page") "page 5 gen-2" page;
      Alcotest.(check int) (what ^ ": the touch reads nothing") 0 (List.length touch);
      let decoded = Clock.now (Store.clock store) - t0 in
      if lazy_pages then
        Alcotest.(check bool) (what ^ ": the fault decodes and checks its window") true
          (decoded > 0)
      else
        Alcotest.(check int) (what ^ ": no wait, no decompression on the store's clock") 0
          decoded)
    [ false; true ];
  (* An unverified restore reads every file's pages from one stream:
     the same device batches (the distinct submission instants of the
     traced device reads) for 1, 10 or 40 two-page files. *)
  let batches nfiles =
    let sys = Sls.boot () in
    let p, _, addr = spawn_with_memory sys ~name:"app" ~npages:2 in
    Vm_space.write_string p.Process.space ~addr "memory";
    for i = 1 to nfiles do
      let vn = Aurora_fs.Fs.create_file sys.Sls.fs (Printf.sprintf "/f%d" i) in
      Aurora_fs.Fs.write sys.Sls.fs vn ~off:0 (Printf.sprintf "file %d page 0" i);
      Aurora_fs.Fs.write sys.Sls.fs vn ~off:4096 (Printf.sprintf "file %d page 1" i)
    done;
    ignore (Group.checkpoint ~wait_durable:true (Sls.attach sys [ p ]));
    let dev = sys.Sls.device in
    Striped.settle dev ~clock:sys.Sls.machine.Machine.clock;
    let clock = Clock.create () in
    let store = Store.recover ~dev ~clock in
    Aurora_obs.Trace.enable ~clock ();
    let r = Restore.restore ~machine:(Machine.create ()) ~store () in
    let submitted =
      List.filter_map
        (fun (e : Aurora_obs.Trace.event) ->
          if e.ev_cat = "dev" && e.ev_name = "read" then Some e.ev_ts else None)
        (Aurora_obs.Trace.events ())
    in
    Aurora_obs.Trace.disable ();
    let fs = Option.get r.Restore.fs in
    Alcotest.(check string)
      (Printf.sprintf "%d files: the last file's second page" nfiles)
      (Printf.sprintf "file %d page 1" nfiles)
      (Aurora_fs.Fs.read fs
         (Option.get (Aurora_fs.Fs.lookup fs (Printf.sprintf "/f%d" nfiles)))
         ~off:4096 ~len:(String.length (Printf.sprintf "file %d page 1" nfiles)));
    List.length (List.sort_uniq compare submitted)
  in
  let one = batches 1 in
  Alcotest.(check (list int)) "device batches for 1, 10 and 40 files" [ one; one; one ]
    [ one; batches 10; batches 40 ]

(* High availability: one standby, stop-and-wait ------------------------------------- *)

(* A single hot standby is a one-standby replica set; stop-and-wait is a
   window of 1 drained after every shipment. *)

module Replica_set = Aurora_core.Replica_set

let ha_fixture ?link () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"svc" ~npages:8 in
  Vm_space.touch_write p.Process.space ~addr ~len:(8 * 4096);
  let group = Sls.attach sys [ p ] in
  let link = match link with Some l -> l | None -> Link.create ~name:"ha" () in
  let standby = (Sls.boot ()).Sls.store in
  let rs =
    Replica_set.create ~window:1 ~primary:group ~standbys:[ (standby, link) ] ()
  in
  (sys, p, addr, group, rs)

let checkpoint_round group p ~addr r =
  Vm_space.write_string p.Process.space ~addr (Printf.sprintf "round-%d" r);
  ignore (Group.checkpoint ~wait_durable:true group)

(* Ship the newest epoch and block until the standby acks it.  A hostile
   link can run the standby out of retransmit attempts; like any
   stop-and-wait sender, keep retrying — here by a rejoin catch-up. *)
let replicate rs =
  Replica_set.ship rs;
  let rec settle tries =
    let drained = Replica_set.drain rs `All in
    if (Replica_set.view rs 0).Replica_set.sv_health = Replica_set.Evicted
       && tries > 0
    then begin
      Replica_set.rejoin rs 0;
      settle (tries - 1)
    end
    else drained
  in
  settle 3

let failover rs =
  Replica_set.elect_and_failover rs ~survivors:[ 0 ] ~machine:(Machine.create ())

let failover_state rs ~addr =
  match failover rs with
  | Error e -> Alcotest.fail e
  | Ok rep -> (
      match rep.Replica_set.el_restore.Restore.vr_result.Restore.procs with
      | [ p' ] ->
          ( rep.Replica_set.el_source_epoch,
            Vm_space.read_string p'.Process.space ~addr ~len:7 )
      | _ -> Alcotest.fail "expected 1 process")

let test_ha_failover_before_replicate () =
  let _sys, _p, _addr, _group, rs = ha_fixture () in
  match failover rs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "failover succeeded with nothing shipped"

let test_ha_lag_recovers_shipped_epoch () =
  let _sys, p, addr, group, rs = ha_fixture () in
  checkpoint_round group p ~addr 1;
  ignore (replicate rs);
  checkpoint_round group p ~addr 2;
  ignore (replicate rs);
  (* Round 3 checkpoints but never replicates: the primary dies lagging. *)
  checkpoint_round group p ~addr 3;
  Alcotest.(check int) "one epoch of lag" 1
    (Group.last_epoch group - Replica_set.quorum_epoch rs);
  let source, state = failover_state rs ~addr in
  Alcotest.(check int) "recovered the shipped epoch, not the latest"
    (Replica_set.quorum_epoch rs) source;
  Alcotest.(check string) "round-2 state" "round-2" state

let test_ha_double_failover_idempotent () =
  let _sys, p, addr, group, rs = ha_fixture () in
  checkpoint_round group p ~addr 1;
  ignore (replicate rs);
  checkpoint_round group p ~addr 2;
  ignore (replicate rs);
  let first = failover_state rs ~addr in
  let second = failover_state rs ~addr in
  Alcotest.(check (pair int string)) "same epoch, same state" first second;
  Alcotest.(check string) "round-2 state" "round-2" (snd first)

let test_ha_replication_over_lossy_link () =
  let link = Link.create ~name:"lossy" () in
  Link.set_faults link ~seed:1905 (Link.lossy_profile 0.25);
  let _sys, p, addr, group, rs = ha_fixture ~link () in
  for r = 1 to 8 do
    checkpoint_round group p ~addr r;
    if not (replicate rs && Replica_set.quorum_epoch rs = Group.last_epoch group)
    then Alcotest.fail (Printf.sprintf "round %d not acknowledged" r)
  done;
  let s = Replica_set.stats rs in
  Alcotest.(check int) "every epoch acked" 8 s.Replica_set.rs_acked_total;
  Alcotest.(check bool)
    (Printf.sprintf "faults forced retransmits (%d)" s.Replica_set.rs_retransmits)
    true
    (s.Replica_set.rs_retransmits > 0);
  (* And the recovered state is the last round despite the chaos. *)
  Alcotest.(check string) "round-8 state" "round-8"
    (snd (failover_state rs ~addr))

let test_ha_partition_outwaited () =
  let link = Link.create ~name:"partitioned" () in
  let sys, p, addr, group, rs = ha_fixture ~link () in
  checkpoint_round group p ~addr 1;
  (* Cut the cable for 5 ms of virtual time right before the shipment. *)
  let now = Clock.now sys.Sls.machine.Machine.clock in
  Link.partition link ~now ~duration:5_000_000;
  Replica_set.ship rs;
  Alcotest.(check bool) "partition outwaited" true (Replica_set.drain rs `All);
  Alcotest.(check int) "standby current after heal" (Group.last_epoch group)
    (Replica_set.quorum_epoch rs);
  Alcotest.(check bool) "retransmitted across the partition" true
    ((Replica_set.stats rs).Replica_set.rs_retransmits > 0);
  Alcotest.(check bool) "primary clock crossed the heal" true
    (Clock.now sys.Sls.machine.Machine.clock > now + 5_000_000)

(* Extsync drop_after edges -------------------------------------------------------- *)

let test_extsync_drop_after_edges () =
  (* Epoch 0: nothing was ever quorum-committed, so everything is the
     discarded window. *)
  let t = Extsync.create () in
  Alcotest.(check int) "empty outbox drops nothing" 0 (Extsync.drop_after t ~epoch:0);
  let buffer t epoch tag = Extsync.buffer t ~epoch { Extsync.tag; deliver = (fun ~release_time:_ -> ()) } in
  buffer t 1 "a";
  buffer t 2 "b";
  Alcotest.(check int) "epoch 0 drops everything" 2 (Extsync.drop_after t ~epoch:0);
  Alcotest.(check int) "nothing pending" 0 (Extsync.pending t);
  (* Double failover: the second recovers an even older epoch, so its
     window extends the first's — each drop is exact, never double. *)
  let t = Extsync.create () in
  List.iteri (fun i tag -> buffer t (i + 1) tag) [ "a"; "b"; "c"; "d" ];
  Alcotest.(check int) "first failover at 3 drops one" 1 (Extsync.drop_after t ~epoch:3);
  Alcotest.(check int) "second failover at 2 drops one more" 1
    (Extsync.drop_after t ~epoch:2);
  Alcotest.(check int) "the surviving window" 2 (Extsync.pending t);
  Alcotest.(check int) "same epoch again drops nothing" 0 (Extsync.drop_after t ~epoch:2);
  (* After a rejoin catch-up the outbox buffers against newer epochs;
     a later failover at the catch-up epoch keeps exactly those. *)
  let t = Extsync.create () in
  buffer t 2 "pre";
  buffer t 7 "post-catchup";
  buffer t 9 "window";
  Alcotest.(check int) "failover at the catch-up epoch" 1 (Extsync.drop_after t ~epoch:7);
  Alcotest.(check int) "released up to the catch-up epoch" 2
    (Extsync.release_up_to t ~epoch:7 ~now:1);
  Alcotest.(check int) "outbox drained" 0 (Extsync.pending t)

(* Fallback across consecutive corrupt epochs ------------------------------------- *)

let test_restore_fallback_two_corrupt_epochs () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:8 in
  let group = Sls.attach sys [ p ] in
  for r = 1 to 3 do
    Vm_space.write_string p.Process.space ~addr (Printf.sprintf "gen-%d" r);
    ignore (Group.checkpoint ~wait_durable:true group)
  done;
  let store = sys.Sls.store in
  let epochs =
    Store.checkpoint_epochs store |> List.sort (fun a b -> compare b a)
  in
  let e3, e2 =
    match epochs with a :: b :: _ -> (a, b) | _ -> Alcotest.fail "need 3 epochs"
  in
  (* Corrupt the two newest epochs differently: metadata in one, page
     payload in the other — the fallback loop must skip both. *)
  let victim epoch =
    match
      List.find_opt
        (fun (_, kind) -> kind = Serial.kind_memobj)
        (Store.objects_at store ~epoch)
    with
    | Some (oid, _) -> oid
    | None -> Alcotest.fail "no memobj in checkpoint"
  in
  Store.corrupt_meta_for_tests store ~epoch:e3 ~oid:(victim e3);
  Store.corrupt_page_for_tests store ~epoch:e2 ~oid:(victim e2);
  match Restore.restore_verified ~machine:(Machine.create ()) ~store () with
  | Error e -> Alcotest.fail ("fallback found nothing: " ^ Restore.pp_restore_error e)
  | Ok v -> (
      Alcotest.(check int) "skipped both corrupt epochs" 2
        (List.length v.Restore.vr_skipped);
      Alcotest.(check bool) "newest skipped" true
        (List.exists (fun (a : Restore.attempt) -> a.Restore.at_epoch = e3)
           v.Restore.vr_skipped);
      Alcotest.(check bool) "second newest skipped" true
        (List.exists (fun (a : Restore.attempt) -> a.Restore.at_epoch = e2)
           v.Restore.vr_skipped);
      match v.Restore.vr_result.Restore.procs with
      | [ p' ] ->
          Alcotest.(check string) "oldest generation survives" "gen-1"
            (Vm_space.read_string p'.Process.space ~addr ~len:5)
      | _ -> Alcotest.fail "expected 1 process")

(* Every restore is verified ------------------------------------------------------- *)

(* An 8-page arena checkpointed twice, every page rewritten in the second
   epoch with bytes that do not compress, then page 0 of the newest
   epoch overwritten on the device: its stored bytes still decode, so
   only its leaf CRC catches it.  Returns the store, the newest and the
   older epoch, the arena's memory object and its address; page [k] of
   generation [gen] holds [raw_page gen k]. *)
let raw_page gen k = String.init 64 (fun i -> Char.chr (((i * 37) + (k * 11) + gen) land 0xFF))

let corrupt_page_fixture () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:8 in
  let group = Sls.attach sys [ p ] in
  let generation gen =
    for k = 0 to 7 do
      Vm_space.write_string p.Process.space ~addr:(addr + (k * 4096)) (raw_page gen k)
    done;
    ignore (Group.checkpoint ~wait_durable:true group)
  in
  generation 1;
  generation 2;
  let store = sys.Sls.store in
  let newest, older =
    match List.rev (Store.checkpoint_epochs store) with
    | n :: o :: _ -> (n, o)
    | _ -> Alcotest.fail "expected two epochs"
  in
  let victim =
    match
      List.filter
        (fun (oid, kind) ->
          kind = Serial.kind_memobj && List.length (Store.page_crcs store ~epoch:newest ~oid) = 8)
        (Store.objects_at store ~epoch:newest)
    with
    | [ (oid, _) ] -> oid
    | l -> Alcotest.failf "expected one 8-page memory object, saw %d" (List.length l)
  in
  Store.corrupt_page_for_tests store ~epoch:newest ~oid:victim;
  (store, newest, older, victim, addr)

let read_page (p : Process.t) addr k =
  Vm_space.read_string p.Process.space ~addr:(addr + (k * 4096)) ~len:64

(* [restore ~epoch] checks that epoch: a corrupt page is a typed error
   naming the epoch and the page, and the machine is left untouched. *)
let test_restore_epoch_rejects_corrupt_page () =
  let store, newest, _, victim, _ = corrupt_page_fixture () in
  let machine = Machine.create () in
  (match Restore.restore ~machine ~store ~epoch:newest () with
  | _ -> Alcotest.fail "a corrupt epoch restored"
  | exception Restore.Unrestorable (Restore.No_valid_epoch [ a ]) ->
      Alcotest.(check int) "the epoch asked for" newest a.Restore.at_epoch;
      Alcotest.(check string) "the page's CRC failure"
        (Printf.sprintf "oid %d page 0 payload corrupt" victim)
        a.Restore.at_reason);
  Alcotest.(check int) "no process created" 0 (Hashtbl.length machine.Machine.procs);
  Alcotest.(check bool) "nothing mounted" true (machine.Machine.vfs = None)

(* [restore ()] restores the newest epoch that verifies. *)
let test_restore_falls_back_past_corrupt_meta () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"app" ~npages:8 in
  let group = Sls.attach sys [ p ] in
  List.iter
    (fun gen ->
      Vm_space.write_string p.Process.space ~addr gen;
      ignore (Group.checkpoint ~wait_durable:true group))
    [ "gen-1"; "gen-2" ];
  let store = sys.Sls.store in
  let newest = Store.last_complete_epoch store in
  List.iter
    (fun (oid, kind) ->
      if kind = Serial.kind_memobj then Store.corrupt_meta_for_tests store ~epoch:newest ~oid)
    (Store.objects_at store ~epoch:newest);
  match (Restore.restore ~machine:(Machine.create ()) ~store ()).Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "the previous epoch" "gen-1"
        (Vm_space.read_string p'.Process.space ~addr ~len:5)
  | _ -> Alcotest.fail "expected 1 process"

(* A lazy restore checks metadata and leaves up front and each page at
   its fault: the epoch with a corrupt page restores, every other page
   reads back byte-exact, and the first touch of the corrupt page raises
   [Corrupt_store] naming it.  An eager restore of the same store checks
   every page first and falls back to the older epoch. *)
let test_lazy_restore_checks_page_at_fault () =
  let store, newest, older, victim, addr = corrupt_page_fixture () in
  (match Restore.restore_verified ~machine:(Machine.create ()) ~store ~lazy_pages:true () with
  | Error e -> Alcotest.fail (Restore.pp_restore_error e)
  | Ok v -> (
      Alcotest.(check int) "lazy: the newest epoch" newest v.Restore.vr_epoch;
      Alcotest.(check int) "lazy: nothing skipped" 0 (List.length v.Restore.vr_skipped);
      match v.Restore.vr_result.Restore.procs with
      | [ p' ] -> (
          for k = 1 to 7 do
            Alcotest.(check string) (Printf.sprintf "lazy: page %d" k) (raw_page 2 k)
              (read_page p' addr k)
          done;
          match read_page p' addr 0 with
          | s -> Alcotest.failf "the corrupt page read back %S" s
          | exception Store.Corrupt_store msg ->
              Alcotest.(check string) "lazy: the fault names the page"
                (Printf.sprintf "oid %d page 0 payload corrupt" victim)
                msg)
      | _ -> Alcotest.fail "expected 1 process"));
  match Restore.restore_verified ~machine:(Machine.create ()) ~store () with
  | Error e -> Alcotest.fail (Restore.pp_restore_error e)
  | Ok v -> (
      Alcotest.(check int) "eager: the older epoch" older v.Restore.vr_epoch;
      Alcotest.(check (list int)) "eager: the newest skipped" [ newest ]
        (List.map (fun (a : Restore.attempt) -> a.Restore.at_epoch) v.Restore.vr_skipped);
      match v.Restore.vr_result.Restore.procs with
      | [ p' ] ->
          Alcotest.(check string) "eager: page 0 of the older epoch" (raw_page 1 0)
            (read_page p' addr 0)
      | _ -> Alcotest.fail "expected 1 process")

(* Quorum replica set -------------------------------------------------------------- *)

let rset_fixture ?(n = 3) ?window ?outbox ?(fault = fun _ _ -> ()) () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"svc" ~npages:8 in
  Vm_space.touch_write p.Process.space ~addr ~len:(8 * 4096);
  let group = Sls.attach sys [ p ] in
  let standbys =
    List.init n (fun i ->
        let link = Link.create ~name:(Printf.sprintf "rset-%d" i) () in
        fault i link;
        ((Sls.boot ()).Sls.store, link))
  in
  let rs = Replica_set.create ?window ?outbox ~seed:9 ~primary:group ~standbys () in
  (sys, p, addr, group, rs, List.map fst standbys)

let rset_round group p ~addr rs r =
  Vm_space.write_string p.Process.space ~addr (Printf.sprintf "round-%d" r);
  ignore (Group.checkpoint ~wait_durable:true group);
  Replica_set.ship rs

let test_rset_pipeline_all_current () =
  let _sys, p, addr, group, rs, _stores = rset_fixture () in
  for r = 1 to 4 do
    rset_round group p ~addr rs r
  done;
  Alcotest.(check bool) "drained" true (Replica_set.drain rs `All);
  Alcotest.(check int) "quorum at the newest epoch"
    (Replica_set.last_logged_epoch rs)
    (Replica_set.quorum_epoch rs);
  List.iter
    (fun (v : Replica_set.standby_view) ->
      Alcotest.(check bool)
        (Printf.sprintf "standby %d healthy" v.Replica_set.sv_idx)
        true
        (v.Replica_set.sv_health = Replica_set.Healthy);
      Alcotest.(check int)
        (Printf.sprintf "standby %d current" v.Replica_set.sv_idx)
        0 v.Replica_set.sv_lag_epochs)
    (Replica_set.views rs);
  let s = Replica_set.stats rs in
  Alcotest.(check int) "four epochs logged" 4 s.Replica_set.rs_epochs_logged;
  Alcotest.(check int) "every standby acked every epoch" 12
    s.Replica_set.rs_acked_total

let test_rset_minority_kill_and_election () =
  let outbox = Extsync.create () in
  let released = ref [] in
  let _sys, p, addr, group, rs, _stores = rset_fixture ~outbox () in
  for r = 1 to 5 do
    rset_round group p ~addr rs r;
    Extsync.buffer outbox
      ~epoch:(Group.last_epoch group)
      {
        Extsync.tag = Printf.sprintf "m%d" r;
        deliver = (fun ~release_time:_ -> released := r :: !released);
      };
    if r = 3 then Replica_set.kill rs 1
  done;
  Alcotest.(check bool) "quorum reached with a dead minority" true
    (Replica_set.drain rs `Quorum);
  Replica_set.pump rs;
  (* The primary dies; the two survivors elect. *)
  match
    Replica_set.elect_and_failover rs ~survivors:[ 0; 2 ]
      ~machine:(Machine.create ())
  with
  | Error e -> Alcotest.fail e
  | Ok rep -> (
      Alcotest.(check int) "both survivors voted" 2
        (List.length rep.Replica_set.el_votes);
      Alcotest.(check bool) "winner no older than quorum" true
        (rep.Replica_set.el_source_epoch >= Replica_set.quorum_epoch rs);
      Alcotest.(check bool) "no released message from the lost window" true
        (List.for_all (fun r -> r <= 5) !released);
      match rep.Replica_set.el_restore.Restore.vr_result.Restore.procs with
      | [ p' ] ->
          Alcotest.(check string) "last round's state" "round-5"
            (Vm_space.read_string p'.Process.space ~addr ~len:7)
      | _ -> Alcotest.fail "expected 1 process")

(* A held message leaves when its epoch's quorum is durable, not when a
   poll notices: over fault-free links the pump cadence moves no release,
   and each release is the arrival of the ack that completed its epoch's
   quorum (the second of three standbys to cover it), never before the
   checkpoint that produced the message started. *)
let test_rset_release_at_quorum_ack () =
  let module Ha = Aurora_faultsim.Ha_torture in
  let module Trace = Aurora_obs.Trace in
  let run pump_ns = Ha.hold_run ~pump_ns ~rounds:6 ~n:3 in
  (* Every ack instant is stamped at its arrival. *)
  Trace.enable ~clock:(Clock.create ()) ();
  let slow, acks =
    Fun.protect ~finally:Trace.disable (fun () ->
        let slow = run 100_000 in
        ( slow,
          List.filter_map
            (fun (e : Trace.event) ->
              match (e.ev_cat, e.ev_name, e.ev_args) with
              | "rset", "ack", ("standby", Trace.Int i) :: ("cum", Trace.Int cum) :: _ ->
                  Some (i, cum, e.ev_ts)
              | _ -> None)
            (Trace.events ()) ))
  in
  let fast = run 30_000 in
  Alcotest.(check (pair int int)) "no retransmits" (0, 0)
    (slow.Ha.hr_retransmits, fast.Ha.hr_retransmits);
  Alcotest.(check int) "every message released" 6 (List.length slow.Ha.hr_releases);
  Alcotest.(check (list (triple int int int))) "pump cadence moves no release"
    slow.Ha.hr_releases fast.Ha.hr_releases;
  List.iter
    (fun (epoch, start, release) ->
      let covered =
        List.init 3 (fun i ->
            List.fold_left
              (fun m (sb, cum, arrival) -> if sb = i && cum >= epoch then min m arrival else m)
              max_int acks)
        |> List.sort compare
      in
      Alcotest.(check int)
        (Printf.sprintf "epoch %d released at its quorum ack's arrival" epoch)
        (List.nth covered 1) release;
      Alcotest.(check bool)
        (Printf.sprintf "epoch %d released after its checkpoint started" epoch)
        true (release >= start))
    slow.Ha.hr_releases

(* A message buffered under an epoch already shipped, after the ack that
   completes the epoch's quorum arrived but before a pump applied it,
   leaves at that pump, not at the ack's earlier arrival. *)
let test_rset_release_not_before_buffering () =
  let outbox = Extsync.create () in
  let sys, p, addr, group, rs, _stores = rset_fixture ~outbox () in
  let clock = sys.Sls.machine.Machine.clock in
  rset_round group p ~addr rs 1;
  Clock.advance clock 5_000_000;
  let buffered = Clock.now clock in
  let released = ref None in
  Extsync.buffer outbox ~epoch:(Group.last_epoch group)
    { Extsync.tag = "late"; deliver = (fun ~release_time -> released := Some release_time) };
  Replica_set.pump rs;
  Alcotest.(check (option int)) "released at the pump that found it" (Some buffered) !released

let test_rset_evict_and_rejoin () =
  (* Standby 0's link silently eats every frame: unlike a declared
     partition (whose heal time the backoff waits out), pure loss burns
     retransmit attempts until the health machine evicts; the other two
     standbys carry the quorum meanwhile.  A rejoin catch-up over the
     healed link brings it back to current. *)
  let dark = ref None in
  let _sys, p, addr, group, rs, _stores =
    rset_fixture
      ~fault:(fun i link ->
        if i = 0 then begin
          dark := Some link;
          Link.set_faults link ~seed:5 { Link.no_faults with p_drop = 1.0 }
        end)
      ()
  in
  for r = 1 to 4 do
    rset_round group p ~addr rs r
  done;
  (* `All treats an evicted standby as settled, so this drain runs the
     dark standby out of retransmit attempts instead of stopping at
     quorum. *)
  Alcotest.(check bool) "drained around the dark standby" true
    (Replica_set.drain rs `All);
  let v0 = Replica_set.view rs 0 in
  Alcotest.(check bool) "dark standby evicted" true
    (v0.Replica_set.sv_health = Replica_set.Evicted);
  Alcotest.(check int) "evicted standby acked nothing" 0
    v0.Replica_set.sv_acked_epoch;
  Alcotest.(check int) "quorum reached regardless"
    (Replica_set.last_logged_epoch rs)
    (Replica_set.quorum_epoch rs);
  (* Heal, rejoin, and the catch-up delta covers the whole gap. *)
  (match !dark with
  | Some link -> Link.set_faults link ~seed:5 Link.no_faults
  | None -> Alcotest.fail "fixture never faulted standby 0");
  Replica_set.rejoin rs 0;
  Alcotest.(check bool) "all current after rejoin" true
    (Replica_set.drain rs `All);
  let v0 = Replica_set.view rs 0 in
  Alcotest.(check bool) "rejoined standby healthy" true
    (v0.Replica_set.sv_health = Replica_set.Healthy);
  Alcotest.(check int) "rejoined standby current"
    (Replica_set.last_logged_epoch rs)
    v0.Replica_set.sv_acked_epoch;
  let s = Replica_set.stats rs in
  Alcotest.(check bool) "eviction counted" true (s.Replica_set.rs_evictions > 0);
  Alcotest.(check int) "one rejoin" 1 s.Replica_set.rs_rejoins;
  (* The rejoin's catch-up frame (base 0: the standby never acked) is
     the one a store holding no kept delta builds, the primary's epochs
     recovered into a fresh store. *)
  let store = Group.store group and last = Replica_set.last_logged_epoch rs in
  Alcotest.(check bool) "catch-up frame byte-identical to the device path's" true
    (Migrate.frame ~store ~base:0 ~epoch:last
    = Migrate.frame
        ~store:(Store.recover ~dev:(Store.device store) ~clock:(Store.clock store))
        ~base:0 ~epoch:last)

let test_rset_divergent_standby_evicted () =
  let _sys, p, addr, group, rs, stores = rset_fixture () in
  rset_round group p ~addr rs 1;
  Alcotest.(check bool) "first epoch everywhere" true (Replica_set.drain rs `All);
  (* Corrupt standby 0's installed state: the next composed delta cannot
     match the manifest digest, the standby nacks, and the sender must
     evict it — retransmission cannot fix divergence. *)
  let store0 = List.hd stores in
  let newest = Store.last_complete_epoch store0 in
  List.iter
    (fun (oid, _) -> Store.corrupt_meta_for_tests store0 ~epoch:newest ~oid)
    (Store.objects_at store0 ~epoch:newest);
  let epochs0 = Store.checkpoint_epochs store0 in
  let next_oid0 = Store.alloc_oid store0 + 1 in
  (* A new region whose oid lies above anything the standby allocates,
     so staging the frame moves the standby's oid counter and the abort
     must set it back. *)
  Store.reserve_oids (Group.store group) ~upto:(next_oid0 + 100);
  Vm_space.touch_write p.Process.space
    ~addr:(Vm_space.addr_of_entry (Syscall.mmap_anon p ~npages:1))
    ~len:4096;
  rset_round group p ~addr rs 2;
  Alcotest.(check bool) "quorum survives one divergent standby" true
    (Replica_set.drain rs `Quorum);
  let v0 = Replica_set.view rs 0 in
  Alcotest.(check bool) "divergent standby evicted" true
    (v0.Replica_set.sv_health = Replica_set.Evicted);
  Alcotest.(check bool) "reject counted" true
    (v0.Replica_set.sv_verify_rejects > 0);
  (* The rejected frame was staged, then aborted: nothing of it stays. *)
  Alcotest.(check (list int)) "rejected standby keeps its epochs" epochs0
    (Store.checkpoint_epochs store0);
  Alcotest.(check int) "rejected standby keeps its last epoch" newest
    (Store.last_complete_epoch store0);
  Alcotest.(check int) "rejected standby keeps its oid counter" next_oid0
    (Store.alloc_oid store0);
  (* The healthy majority is unaffected. *)
  Alcotest.(check int) "quorum at the newest epoch"
    (Replica_set.last_logged_epoch rs)
    (Replica_set.quorum_epoch rs)

(* A leaf range of a frame's batch fails once: the store retries it, and
   the frame equals one built without the fault.  The frame skips a
   round, so it takes the device path: only the newest epoch's frame
   against its parent comes from the delta its commit kept. *)
let test_frame_leaf_read_retried () =
  let _sys, p, addr, group, rs, _stores = rset_fixture ~n:1 () in
  rset_round group p ~addr rs 1;
  List.iter
    (fun r ->
      Vm_space.write_string p.Process.space ~addr r;
      ignore (Group.checkpoint ~wait_durable:true group))
    [ "round-2"; "round-3" ];
  let store = Group.store group and base = Replica_set.last_logged_epoch rs in
  let epoch = Group.last_epoch group in
  let dev = Store.device store and faults = Store.read_faults store in
  let failed = ref false in
  let h = Fault.create () in
  h.Fault.on_read <-
    (fun _ ->
      if !failed then Fault.Clean
      else begin
        failed := true;
        Fault.Fail
      end);
  Striped.set_fault dev (Some h);
  let faulty =
    Fun.protect
      ~finally:(fun () -> Striped.set_fault dev None)
      (fun () -> Migrate.frame ~store ~base ~epoch)
  in
  Alcotest.(check bool) "a leaf read failed" true !failed;
  Alcotest.(check int) "retried once" (faults + 1) (Store.read_faults store);
  Alcotest.(check bool) "byte-identical to a fault-free frame" true
    (faulty = Migrate.frame ~store ~base ~epoch)

(* A leaf range that keeps failing fails the frame and the ship, and the
   log stays as it was; once the fault clears, the next ship covers the
   whole gap in one frame.  The failing ship skips a round, so its frame
   takes the device path. *)
let test_frame_leaf_read_fails () =
  let _sys, p, addr, group, rs, stores = rset_fixture () in
  rset_round group p ~addr rs 1;
  Alcotest.(check bool) "first epoch everywhere" true (Replica_set.drain rs `All);
  List.iter
    (fun r ->
      Vm_space.write_string p.Process.space ~addr r;
      ignore (Group.checkpoint ~wait_durable:true group))
    [ "round-2"; "round-2b" ];
  let store = Group.store group and base = Replica_set.last_logged_epoch rs in
  let dev = Store.device store and logged = (Replica_set.stats rs).Replica_set.rs_epochs_logged in
  let h = Fault.create () in
  h.Fault.on_read <- (fun _ -> Fault.Fail);
  Striped.set_fault dev (Some h);
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no error" what
    | exception Fault.Io_error _ -> ()
  in
  Fun.protect
    ~finally:(fun () -> Striped.set_fault dev None)
    (fun () ->
      raises "frame" (fun () -> Migrate.frame ~store ~base ~epoch:(Group.last_epoch group));
      raises "ship" (fun () -> Replica_set.ship rs));
  Alcotest.(check int) "nothing logged" logged (Replica_set.stats rs).Replica_set.rs_epochs_logged;
  Alcotest.(check int) "last logged epoch unchanged" base (Replica_set.last_logged_epoch rs);
  rset_round group p ~addr rs 3;
  let newest = Group.last_epoch group in
  Alcotest.(check int) "the gap is one frame" (logged + 1)
    (Replica_set.stats rs).Replica_set.rs_epochs_logged;
  Alcotest.(check int) "logged up to the newest epoch" newest (Replica_set.last_logged_epoch rs);
  Alcotest.(check bool) "every standby current" true (Replica_set.drain rs `All);
  List.iteri
    (fun i sb ->
      Alcotest.(check int) (Printf.sprintf "standby %d acked the gap" i) newest
        (Replica_set.view rs i).Replica_set.sv_acked_epoch;
      Alcotest.(check bool) (Printf.sprintf "standby %d identical" i) true
        (Replica_set.stores_identical ~src:store ~src_epoch:newest ~dst:sb
           ~dst_epoch:(Store.last_complete_epoch sb)))
    stores

(* A steady-state ship, the newest epoch against the last logged one,
   builds its frame from the delta the epoch's commit kept: the primary's
   device reads nothing, its clock does not move, and the traced
   [migrate/frame] event reads 0 bytes.  The frame equals the device
   path's, built on the primary's epochs recovered into a fresh store. *)
let test_steady_ship_reads_nothing () =
  let module Trace = Aurora_obs.Trace in
  let _sys, p, addr, group, rs, _stores = rset_fixture () in
  rset_round group p ~addr rs 1;
  Alcotest.(check bool) "first epoch everywhere" true (Replica_set.drain rs `All);
  Vm_space.write_string p.Process.space ~addr "round-2";
  ignore (Group.checkpoint ~wait_durable:true group);
  let store = Group.store group and base = Replica_set.last_logged_epoch rs in
  let epoch = Group.last_epoch group in
  let dev = Store.device store and clock = Store.clock store in
  let read0 = Striped.bytes_read dev and t0 = Clock.now clock in
  Trace.enable ~clock ();
  let frames =
    Fun.protect ~finally:Trace.disable (fun () ->
        Replica_set.ship rs;
        List.filter
          (fun (e : Trace.event) -> e.ev_cat = "migrate" && e.ev_name = "frame")
          (Trace.events ()))
  in
  Alcotest.(check int) "the primary's device read nothing" 0 (Striped.bytes_read dev - read0);
  Alcotest.(check int) "the primary's clock did not move" 0 (Clock.now clock - t0);
  Alcotest.(check int) "logged the newest epoch" epoch (Replica_set.last_logged_epoch rs);
  (match frames with
  | [ e ] ->
      Alcotest.(check bool) "the frame ships pages" true
        (match List.assoc_opt "pages" e.ev_args with Some (Trace.Int n) -> n > 0 | _ -> false);
      Alcotest.(check bool) "read_bytes = 0" true
        (List.assoc_opt "read_bytes" e.ev_args = Some (Trace.Int 0))
  | l -> Alcotest.failf "expected one migrate/frame event, saw %d" (List.length l));
  Alcotest.(check bool) "byte-identical to the device path's frame" true
    (Migrate.frame ~store ~base ~epoch
    = Migrate.frame ~store:(Store.recover ~dev ~clock) ~base ~epoch)

(* Over lossy links, each standby's view lags by the bytes of the logged
   frames it has not acked, and by none once it has acked them all, also
   after an evicted standby rejoins: its catch-up frame ships fewer bytes
   than the log entries it covers. *)
let test_rset_lag_bytes_gauge () =
  let n = 3 in
  let links = Array.make n None in
  let _sys, p, addr, group, rs, _stores =
    rset_fixture ~n
      ~fault:(fun i link ->
        links.(i) <- Some link;
        Link.set_faults link ~seed:(31 + i) (Link.lossy_profile 0.25))
      ()
  in
  let lagged = ref false in
  let check_lag ?(drained = false) what =
    for i = 0 to n - 1 do
      let v = Replica_set.view rs i in
      if v.Replica_set.sv_lag_bytes > 0 then lagged := true;
      Alcotest.(check bool)
        (Printf.sprintf "%s: standby %d lag bytes >= 0" what i)
        true
        (v.Replica_set.sv_lag_bytes >= 0);
      if v.Replica_set.sv_lag_epochs = 0 || (drained && v.Replica_set.sv_health <> Replica_set.Evicted)
      then
        Alcotest.(check int)
          (Printf.sprintf "%s: standby %d acked every logged byte" what i)
          0 v.Replica_set.sv_lag_bytes
    done
  in
  for r = 1 to 8 do
    rset_round group p ~addr rs r;
    check_lag (Printf.sprintf "round %d" r)
  done;
  Alcotest.(check bool) "some standby lagged" true !lagged;
  Alcotest.(check bool) "drained" true (Replica_set.drain rs `All);
  check_lag ~drained:true "drained";
  (* Standby 0 goes dark until it is evicted, then heals and rejoins. *)
  let link0 = Option.get links.(0) in
  Link.set_faults link0 ~seed:5 { Link.no_faults with p_drop = 1.0 };
  for r = 9 to 11 do
    rset_round group p ~addr rs r;
    check_lag (Printf.sprintf "round %d" r)
  done;
  Alcotest.(check bool) "drained around the dark standby" true (Replica_set.drain rs `All);
  Alcotest.(check bool) "dark standby evicted" true
    ((Replica_set.view rs 0).Replica_set.sv_health = Replica_set.Evicted);
  check_lag ~drained:true "evicted";
  Link.set_faults link0 ~seed:5 Link.no_faults;
  Replica_set.rejoin rs 0;
  Alcotest.(check bool) "all current after rejoin" true (Replica_set.drain rs `All);
  check_lag ~drained:true "rejoined";
  Alcotest.(check int) "rejoined standby lags nothing" 0
    (Replica_set.view rs 0).Replica_set.sv_lag_bytes

(* Retention ---------------------------------------------------------------------- *)

(* The encoded length of the superblock on [store]'s device. *)
let superblock_bytes store =
  Bytes.length
    (Wire.encode Store_format.superblock_codec
       (Store.decode "superblock" Store_format.superblock_codec
          (Striped.read_nocharge (Store.device store) ~off:0 ~len:Store.block_size)))

let memobj_oid store ~epoch =
  fst (List.find (fun (_, kind) -> kind = Serial.kind_memobj) (Store.objects_at store ~epoch))

(* Standby 0 is evicted after three rounds, and the primary prunes its
   acked epoch: the rejoin cannot ship a delta from a base the primary no
   longer holds, so its catch-up is the full stream (base 0), installed
   over the three epochs the standby kept. *)
let test_rset_rejoin_after_prune () =
  let dark = ref None in
  let _sys, p, addr, group, rs, stores =
    rset_fixture ~fault:(fun i link -> if i = 0 then dark := Some link) ()
  in
  let link0 = Option.get !dark in
  for r = 1 to 3 do
    rset_round group p ~addr rs r
  done;
  Alcotest.(check bool) "first rounds everywhere" true (Replica_set.drain rs `All);
  let base = (Replica_set.view rs 0).Replica_set.sv_acked_epoch in
  Link.set_faults link0 ~seed:5 { Link.no_faults with p_drop = 1.0 };
  rset_round group p ~addr rs 4;
  Alcotest.(check bool) "drained around the dark standby" true (Replica_set.drain rs `All);
  Alcotest.(check bool) "dark standby evicted" true
    ((Replica_set.view rs 0).Replica_set.sv_health = Replica_set.Evicted);
  for r = 5 to 40 do
    rset_round group p ~addr rs r
  done;
  let primary = Group.store group in
  Alcotest.(check bool) "the primary pruned" true
    ((Replica_set.stats rs).Replica_set.rs_primary_prunes > 0);
  Alcotest.(check bool) "the evicted standby's base is pruned" false
    (List.mem base (Store.checkpoint_epochs primary));
  Link.set_faults link0 ~seed:5 Link.no_faults;
  let last = Replica_set.last_logged_epoch rs in
  let before = (Replica_set.view rs 0).Replica_set.sv_shipped_bytes in
  Replica_set.rejoin rs 0;
  Alcotest.(check bool) "all current after rejoin" true (Replica_set.drain rs `All);
  let v0 = Replica_set.view rs 0 in
  Alcotest.(check bool) "rejoined standby healthy" true
    (v0.Replica_set.sv_health = Replica_set.Healthy);
  Alcotest.(check int) "rejoined standby current" last v0.Replica_set.sv_acked_epoch;
  let full =
    match Migrate.frame ~store:primary ~base:0 ~epoch:last with
    | Ok (_, bytes) -> bytes
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "the catch-up was the full stream" full
    (v0.Replica_set.sv_shipped_bytes - before);
  let store0 = List.hd stores in
  Alcotest.(check bool) "byte-identical to the primary" true
    (Replica_set.stores_identical ~src:primary ~src_epoch:last ~dst:store0
       ~dst_epoch:(Store.last_complete_epoch store0))

(* K is the fallback depth: right after its first prune a standby holds
   exactly its newest 16 installed epochs.  With the newest 15 corrupt,
   its vote falls back to the 16th and names it; with all 16 corrupt,
   nothing older is left to fall back to. *)
let test_rset_fallback_within_k () =
  let _sys, p, addr, group, rs, stores = rset_fixture ~n:1 () in
  let primary_epochs = Array.make 27 0 in
  for r = 1 to 26 do
    rset_round group p ~addr rs r;
    primary_epochs.(r) <- Group.last_epoch group
  done;
  Alcotest.(check bool) "drained" true (Replica_set.drain rs `All);
  let store = List.hd stores in
  let epochs = Store.checkpoint_epochs store in
  Alcotest.(check int) "one standby prune" 1 (Replica_set.view rs 0).Replica_set.sv_prunes;
  Alcotest.(check int) "the standby keeps its newest 16" 16 (List.length epochs);
  let oldest = List.hd epochs in
  List.iter
    (fun epoch ->
      if epoch <> oldest then
        Store.corrupt_meta_for_tests store ~epoch ~oid:(memobj_oid store ~epoch))
    epochs;
  let rep =
    match Replica_set.elect_and_failover rs ~survivors:[ 0 ] ~machine:(Machine.create ()) with
    | Ok rep -> rep
    | Error e -> Alcotest.fail e
  in
  let vote = List.hd rep.Replica_set.el_votes in
  Alcotest.(check int) "the vote names the 16th newest epoch" oldest
    vote.Replica_set.vt_standby_epoch;
  Alcotest.(check int) "installed from round 11's primary epoch" primary_epochs.(11)
    vote.Replica_set.vt_primary_epoch;
  (match rep.Replica_set.el_restore.Restore.vr_result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "round 11's state" "round-11"
        (Vm_space.read_string p'.Process.space ~addr ~len:8)
  | _ -> Alcotest.fail "expected 1 process");
  Store.corrupt_meta_for_tests store ~epoch:oldest ~oid:(memobj_oid store ~epoch:oldest);
  Alcotest.(check bool) "no fallback past the 16th" true
    (Result.is_error
       (Replica_set.elect_and_failover rs ~survivors:[ 0 ] ~machine:(Machine.create ())))

(* Standby 0 sits behind a declared partition: its deadlines wait out
   the heal (with a window of one frame it times out only twice, too few
   to be evicted), so it lags without being evicted.  While the other two
   standbys ack 40 more rounds, through the primary's prune rounds at
   26, 36, 46 and 56 epochs, the primary keeps standby 0's acked epoch
   (the base of its catch-up, were it evicted) and every epoch after it;
   only the first round finds anything older to drop.  Once the link
   heals standby 0 catches up through the log's frames, and the primary
   prunes as its base moves up. *)
let test_rset_lagging_standby_keeps_base () =
  let links = Array.make 3 None in
  let _sys, p, addr, group, rs, stores =
    rset_fixture ~window:1 ~fault:(fun i link -> links.(i) <- Some link) ()
  in
  for r = 1 to 20 do
    rset_round group p ~addr rs r
  done;
  Alcotest.(check bool) "first rounds everywhere" true (Replica_set.drain rs `All);
  let primary = Group.store group in
  let base = (Replica_set.view rs 0).Replica_set.sv_acked_epoch in
  Link.partition (Option.get links.(0)) ~now:(Clock.now (Store.clock primary))
    ~duration:1_000_000_000;
  for r = 21 to 60 do
    rset_round group p ~addr rs r;
    Alcotest.(check bool) (Printf.sprintf "round %d: base retained" r) true
      (List.mem base (Store.checkpoint_epochs primary))
  done;
  let v0 = Replica_set.view rs 0 in
  Alcotest.(check bool) "lagging, not evicted" true (v0.Replica_set.sv_health <> Replica_set.Evicted);
  Alcotest.(check int) "acked nothing since" base v0.Replica_set.sv_acked_epoch;
  Alcotest.(check int) "the primary pruned once, what is older than the base" 1
    (Replica_set.stats rs).Replica_set.rs_primary_prunes;
  let epochs = Store.checkpoint_epochs primary in
  Alcotest.(check bool) "every epoch since the base retained" true
    (List.hd epochs > 1 && List.hd epochs <= base
    && List.length epochs >= Group.last_epoch group - base + 1);
  Alcotest.(check bool) "current after the heal" true (Replica_set.drain rs `All);
  let last = Replica_set.last_logged_epoch rs in
  Alcotest.(check int) "no rejoin" 0 (Replica_set.stats rs).Replica_set.rs_rejoins;
  Alcotest.(check int) "standby 0 current" last (Replica_set.view rs 0).Replica_set.sv_acked_epoch;
  let store0 = List.hd stores in
  Alcotest.(check bool) "byte-identical to the primary" true
    (Replica_set.stores_identical ~src:primary ~src_epoch:last ~dst:store0
       ~dst_epoch:(Store.last_complete_epoch store0));
  Alcotest.(check bool) "back under 26 epochs once the base is released" true
    (List.length (Store.checkpoint_epochs primary) < 26)

(* Space and the superblock stay flat as a replica set runs: 60 and 240
   rounds land at the same point of the prune cadence. *)
let test_rset_flat_history () =
  let _sys, p, addr, group, rs, stores = rset_fixture ~n:1 () in
  let standby = List.hd stores and primary = Group.store group in
  let measure upto =
    for r = Replica_set.last_logged_epoch rs + 1 to upto do
      rset_round group p ~addr rs r
    done;
    Alcotest.(check bool) "drained" true (Replica_set.drain rs `All);
    List.concat_map
      (fun (who, store) ->
        [
          (who ^ " blocks", Store.blocks_allocated store);
          (who ^ " superblock bytes", superblock_bytes store);
        ])
      [ ("primary", primary); ("standby", standby) ]
  in
  let at60 = measure 60 in
  let at240 = measure 240 in
  List.iter2
    (fun (what, a) (_, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d after 60 rounds, %d after 240" what a b)
        true
        (abs (b - a) * 10 <= a))
    at60 at240

(* Elections ---------------------------------------------------------------------- *)

(* [n] standbys, every one current after three rounds, over pages of
   distinct contents (so no two share a stored range). *)
let elect_fixture ~n =
  let _sys, p, addr, group, rs, stores = rset_fixture ~n () in
  for k = 1 to 7 do
    Vm_space.write_string p.Process.space ~addr:(addr + (k * 4096)) (Printf.sprintf "page %d" k)
  done;
  for r = 1 to 3 do
    rset_round group p ~addr rs r
  done;
  Alcotest.(check bool) "every standby current" true (Replica_set.drain rs `All);
  (rs, stores)

(* An election onto a fresh machine, and how far it moved that machine's
   clock. *)
let elect rs ~survivors =
  let machine = Machine.create () in
  let t0 = Clock.now machine.Machine.clock in
  match Replica_set.elect_and_failover rs ~survivors ~machine with
  | Error e -> Alcotest.fail e
  | Ok rep -> (rep, Clock.now machine.Machine.clock - t0)

let failover_restore_ns rep = rep.Replica_set.el_restore.Restore.vr_result.Restore.restore_ns

(* Restoring [epoch] of [store] alone on a fresh machine: its
   [restore_ns], and how far it moves the machine's clock. *)
let restore_alone store ~epoch =
  let machine = Machine.create () in
  let t0 = Clock.now machine.Machine.clock in
  let r = Restore.restore ~machine ~store ~epoch () in
  (r.Restore.restore_ns, Clock.now machine.Machine.clock - t0)

(* The vote request reaches every live survivor at once: the takeover
   pays one round trip however many survivors vote, then the winner's
   restore, and a dead index in [~survivors] costs nothing. *)
let test_election_one_vote_round () =
  let run survivors =
    let rs, stores = elect_fixture ~n:5 in
    Replica_set.kill rs 2;
    (elect rs ~survivors, stores)
  in
  let (rep, advance), stores = run [ 0; 1; 3; 4 ] in
  Alcotest.(check int) "four survivors voted" 4 (List.length rep.Replica_set.el_votes);
  let restore_ns, restore_advance =
    restore_alone
      (List.nth stores rep.Replica_set.el_winner)
      ~epoch:rep.Replica_set.el_restore.Restore.vr_epoch
  in
  Alcotest.(check int) "the winner's restore charges what a restore alone does" restore_ns
    (failover_restore_ns rep);
  Alcotest.(check int) "one vote round trip plus the restore"
    (Link.rtt ~bytes:64 + restore_advance)
    advance;
  let (rep', advance'), _ = run [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check int) "a dead survivor: same takeover advance" advance advance';
  Alcotest.(check int) "a dead survivor: same votes" 4 (List.length rep'.Replica_set.el_votes);
  Alcotest.(check int) "a dead survivor: same winner" rep.Replica_set.el_winner
    rep'.Replica_set.el_winner;
  Alcotest.(check int) "a dead survivor: same downtime" rep.Replica_set.el_downtime_ns
    rep'.Replica_set.el_downtime_ns

(* The library's downtime is the takeover clock's advance plus the
   slowest survivor's verification, read off the survivors' stores. *)
let test_election_downtime () =
  List.iter
    (fun n ->
      let rs, stores = elect_fixture ~n in
      Replica_set.kill rs 0;
      let survivors = List.init (n - 1) (fun i -> i + 1) in
      let clocks = List.map (fun i -> Store.clock (List.nth stores i)) survivors in
      let before = List.map Clock.now clocks in
      let rep, advance = elect rs ~survivors in
      let slowest = List.fold_left2 (fun m c b -> max m (Clock.now c - b)) 0 clocks before in
      Alcotest.(check bool) (Printf.sprintf "n=%d: the votes verified" n) true (slowest > 0);
      Alcotest.(check int)
        (Printf.sprintf "n=%d: takeover advance plus the slowest vote" n)
        (advance + slowest) rep.Replica_set.el_downtime_ns)
    [ 3; 5 ]

(* Every range read off each store's device while [f] runs, as
   (offset, length), in order. *)
let device_reads stores f =
  let logs =
    List.map
      (fun store ->
        let reads = ref [] in
        let h = Fault.create () in
        h.Fault.on_read <-
          (fun r ->
            reads := (r.Fault.r_off, r.Fault.r_len) :: !reads;
            Fault.Clean);
        Striped.set_fault (Store.device store) (Some h);
        reads)
      stores
  in
  let v =
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun store -> Striped.set_fault (Store.device store) None) stores)
      f
  in
  (v, List.map (fun reads -> List.rev !reads) logs)

let distinct reads = List.length (List.sort_uniq compare reads) = List.length reads

(* The winner restores the epoch it voted for from the pages its vote
   verified: across the election its device sees exactly the reads of
   its vote alone, each range once.  With its newest epoch corrupt it
   votes the older one, wins alone, and restores that without reading
   it again. *)
let test_election_reads_epoch_once () =
  let fixture ~corrupt =
    let rs, stores = elect_fixture ~n:2 in
    let winner = List.hd stores in
    if corrupt then begin
      let newest = Store.last_complete_epoch winner in
      let victim =
        match
          List.find_opt
            (fun (_, kind) -> kind = Serial.kind_memobj)
            (Store.objects_at winner ~epoch:newest)
        with
        | Some (oid, _) -> oid
        | None -> Alcotest.fail "no memobj in checkpoint"
      in
      Store.corrupt_page_for_tests winner ~epoch:newest ~oid:victim;
      Replica_set.kill rs 1
    end;
    (rs, stores)
  in
  List.iter
    (fun corrupt ->
      let what = if corrupt then "corrupt newest" else "clean" in
      let _, ref_stores = fixture ~corrupt in
      let vote, ref_reads =
        device_reads [ List.hd ref_stores ] (fun () ->
            Restore.check_newest ~store:(List.hd ref_stores) ())
      in
      let vote_epoch =
        match vote with
        | Ok ck -> Restore.checked_epoch ck
        | Error e -> Alcotest.fail (Restore.pp_restore_error e)
      in
      let rs, stores = fixture ~corrupt in
      let (rep, _), reads = device_reads stores (fun () -> elect rs ~survivors:[ 0; 1 ]) in
      let winner_reads, loser_reads =
        match reads with [ w; l ] -> (w, l) | _ -> Alcotest.fail "two stores"
      in
      let v = rep.Replica_set.el_restore in
      let ballot =
        match rep.Replica_set.el_votes with
        | b :: _ -> b
        | [] -> Alcotest.fail "no vote"
      in
      Alcotest.(check int) (what ^ ": standby 0 wins") 0 rep.Replica_set.el_winner;
      Alcotest.(check int) (what ^ ": it votes what its vote reads") vote_epoch
        ballot.Replica_set.vt_standby_epoch;
      Alcotest.(check int) (what ^ ": restores the epoch it voted for")
        ballot.Replica_set.vt_standby_epoch v.Restore.vr_epoch;
      Alcotest.(check int) (what ^ ": the source is its vote")
        ballot.Replica_set.vt_primary_epoch rep.Replica_set.el_source_epoch;
      Alcotest.(check bool) (what ^ ": the winner read pages") true (winner_reads <> []);
      Alcotest.(check (list (pair int int)))
        (what ^ ": the winner reads what its vote reads, nothing more")
        (List.sort compare (List.concat ref_reads))
        (List.sort compare winner_reads);
      if corrupt then begin
        Alcotest.(check int) (what ^ ": one vote") 1 (List.length rep.Replica_set.el_votes);
        Alcotest.(check (list int))
          (what ^ ": the newest epoch skipped")
          [ Store.last_complete_epoch (List.hd stores) ]
          (List.map (fun (a : Restore.attempt) -> a.Restore.at_epoch) v.Restore.vr_skipped)
      end
      else begin
        Alcotest.(check bool) (what ^ ": the winner reads each range once") true
          (distinct winner_reads);
        Alcotest.(check bool) (what ^ ": the loser read pages") true (loser_reads <> []);
        Alcotest.(check bool) (what ^ ": the loser reads each range once") true
          (distinct loser_reads)
      end)
    [ false; true ]

let test_rset_migration_live () =
  let sys = Sls.boot () in
  let p, _e, addr = spawn_with_memory sys ~name:"svc" ~npages:8 in
  Vm_space.touch_write p.Process.space ~addr ~len:(8 * 4096);
  let group = Sls.attach sys [ p ] in
  let target = Sls.boot () in
  let workload r =
    Vm_space.write_string p.Process.space ~addr (Printf.sprintf "round-%d" r)
  in
  match
    Replica_set.migrate_live ~primary:group ~target_store:target.Sls.store
      ~machine:(Machine.create ()) ~workload ()
  with
  | Error e -> Alcotest.fail e
  | Ok rep ->
      Alcotest.(check bool) "byte-identical target" true
        rep.Replica_set.mig_identical;
      Alcotest.(check bool) "downtime within two checkpoint periods" true
        (rep.Replica_set.mig_downtime_ns <= 2 * Group.period_ns group);
      Alcotest.(check bool) "pre-copy converged" true
        (rep.Replica_set.mig_final_bytes <= rep.Replica_set.mig_precopy_bytes)

let () =
  Alcotest.run "aurora_core"
    [
      ( "memory",
        [
          Alcotest.test_case "checkpoint/restore" `Quick test_checkpoint_restore_memory;
          Alcotest.test_case "durable bytes only" `Quick test_restore_is_from_durable_bytes_only;
          Alcotest.test_case "incremental flush" `Quick test_incremental_checkpoints_flush_only_dirty;
          Alcotest.test_case "many epochs" `Quick test_incremental_content_correct_after_many_epochs;
          Alcotest.test_case "cpu state" `Quick test_cpu_state_roundtrip;
        ] );
      ( "posix",
        [
          Alcotest.test_case "fork fd sharing" `Quick test_fork_fd_sharing_survives_restore;
          Alcotest.test_case "process tree" `Quick test_process_tree_restored;
          Alcotest.test_case "pipe" `Quick test_pipe_content_restored;
          Alcotest.test_case "in-flight SCM_RIGHTS" `Quick test_socketpair_and_inflight_rights_restored;
          Alcotest.test_case "kqueue and pty" `Quick test_kqueue_and_pty_restored;
          Alcotest.test_case "shared memory" `Quick test_shared_memory_restored_shared;
          Alcotest.test_case "anonymous file" `Quick test_anonymous_file_survives;
          Alcotest.test_case "ephemeral SIGCHLD" `Quick test_ephemeral_process_sigchld;
        ] );
      ( "history",
        [
          Alcotest.test_case "time travel" `Quick test_time_travel_restore;
          Alcotest.test_case "lazy restore content" `Quick test_lazy_restore_contents_equal;
          Alcotest.test_case "lazy restore COW siblings" `Quick test_lazy_restore_cow_siblings;
          Alcotest.test_case "lazy restore faster" `Quick test_lazy_restore_faster;
          Alcotest.test_case "restore_ns includes interposition" `Quick
            test_restore_ns_includes_interposition;
          Alcotest.test_case "lazy page after prune" `Quick test_lazy_page_after_prune;
          Alcotest.test_case "lazy page after prune, retried" `Quick
            test_lazy_page_after_prune_retried;
          Alcotest.test_case "lazy page after prune, unreadable" `Quick
            test_lazy_page_after_prune_unreadable;
          Alcotest.test_case "steady stop excludes collapse" `Quick
            test_steady_stop_excludes_collapse;
          Alcotest.test_case "fork in window resolves through survivor" `Quick
            test_fork_in_window_resolves_through_survivor;
        ] );
      ( "api",
        [
          Alcotest.test_case "mctl exclusion" `Quick test_mctl_exclusion;
          Alcotest.test_case "memckpt atomic region" `Quick test_memckpt_atomic_region;
          Alcotest.test_case "journal" `Quick test_journal_api;
          Alcotest.test_case "journal survives two crashes" `Quick test_journal_api_two_crashes;
          Alcotest.test_case "memckpt shared region" `Quick test_memckpt_shared_region;
          Alcotest.test_case "replayer interleaving" `Quick test_replayer_interleaved_fds;
          Alcotest.test_case "migrate frame" `Quick test_migrate_frame;
          Alcotest.test_case "store error paths" `Quick test_store_error_paths;
          Alcotest.test_case "fdctl" `Quick test_fdctl;
          Alcotest.test_case "external synchrony" `Quick test_extsync_buffering;
          Alcotest.test_case "extsync discarded window" `Quick test_extsync_drop_after;
          Alcotest.test_case "extsync drop_after edges" `Quick
            test_extsync_drop_after_edges;
          Alcotest.test_case "typed malformed parsers" `Quick
            test_parsers_raise_typed_malformed;
          Alcotest.test_case "out-of-range enums malformed" `Quick
            test_out_of_range_enums_malformed;
          Alcotest.test_case "parse_check dispatch" `Quick test_parse_check_dispatch;
          Alcotest.test_case "shipment frames" `Quick test_shipment_frames;
        ] );
      ( "format pins",
        List.map
          (fun (Format f as fmt) -> Alcotest.test_case f.name `Quick (test_format_pin fmt))
          formats );
      ( "tools",
        [
          Alcotest.test_case "coredump" `Quick test_coredump;
          Alcotest.test_case "migration" `Quick test_migration_between_machines;
          Alcotest.test_case "detach" `Quick test_detach_makes_ephemeral;
        ] );
      ( "continuity",
        [
          Alcotest.test_case "incremental after restore" `Quick test_checkpoint_after_restore_is_incremental;
          Alcotest.test_case "restored identities reused" `Quick test_restored_identities_reused;
          Alcotest.test_case "restored local pids not reissued" `Quick
            test_restored_local_pids_not_reissued;
          Alcotest.test_case "skipped socket keeps its peer oid" `Quick
            test_skipped_socket_keeps_peer_oid;
          Alcotest.test_case "first checkpoint after restore materializes nothing" `Quick
            test_first_checkpoint_after_restore_materializes_nothing;
          Alcotest.test_case "mem-only then full" `Quick test_mem_only_then_full_preserves_data;
          Alcotest.test_case "mem-only between persisted" `Quick
            test_mem_only_between_persisted_preserves_data;
          Alcotest.test_case "mem-only after fork" `Quick
            test_mem_only_after_fork_preserves_data;
          Alcotest.test_case "unreferenced sysv shm" `Quick test_unreferenced_sysv_shm_survives;
          Alcotest.test_case "periodic driver" `Quick test_run_for_takes_periodic_checkpoints;
          Alcotest.test_case "stop-window stats invariant" `Quick
            test_stop_window_stats_invariant;
        ] );
      ( "verified restore",
        [
          Alcotest.test_case "manifest verify and fallback" `Quick
            test_verify_epoch_and_fallback;
          Alcotest.test_case "empty store" `Quick test_restore_verified_empty_store;
          Alcotest.test_case "fallback across two corrupt epochs" `Quick
            test_restore_fallback_two_corrupt_epochs;
          Alcotest.test_case "unreadable epoch falls back" `Quick
            test_unreadable_epoch_falls_back;
          Alcotest.test_case "fallback after a post-verify read failure" `Quick
            test_post_verify_read_failure_unseen;
          Alcotest.test_case "fallback when ranges fail at once" `Quick
            test_fallback_when_ranges_fail_at_once;
          Alcotest.test_case "reads each page once" `Quick
            test_verified_restore_reads_each_page_once;
          Alcotest.test_case "restore ~epoch rejects a corrupt page" `Quick
            test_restore_epoch_rejects_corrupt_page;
          Alcotest.test_case "restore falls back past corrupt metadata" `Quick
            test_restore_falls_back_past_corrupt_meta;
          Alcotest.test_case "lazy restore checks a page at its fault" `Quick
            test_lazy_restore_checks_page_at_fault;
        ] );
      ( "high availability",
        [
          Alcotest.test_case "failover before replicate" `Quick
            test_ha_failover_before_replicate;
          Alcotest.test_case "lag recovers shipped epoch" `Quick
            test_ha_lag_recovers_shipped_epoch;
          Alcotest.test_case "double failover idempotent" `Quick
            test_ha_double_failover_idempotent;
          Alcotest.test_case "replication over lossy link" `Quick
            test_ha_replication_over_lossy_link;
          Alcotest.test_case "partition outwaited" `Quick test_ha_partition_outwaited;
        ] );
      ( "quorum replication",
        [
          Alcotest.test_case "pipeline all current" `Quick
            test_rset_pipeline_all_current;
          Alcotest.test_case "minority kill and election" `Quick
            test_rset_minority_kill_and_election;
          Alcotest.test_case "release at the quorum ack" `Quick
            test_rset_release_at_quorum_ack;
          Alcotest.test_case "release not before buffering" `Quick
            test_rset_release_not_before_buffering;
          Alcotest.test_case "evict and rejoin" `Quick test_rset_evict_and_rejoin;
          Alcotest.test_case "divergent standby evicted" `Quick
            test_rset_divergent_standby_evicted;
          Alcotest.test_case "live migration" `Quick test_rset_migration_live;
          Alcotest.test_case "frame leaf read retried" `Quick test_frame_leaf_read_retried;
          Alcotest.test_case "frame leaf read fails" `Quick test_frame_leaf_read_fails;
          Alcotest.test_case "steady-state ship reads nothing" `Quick
            test_steady_ship_reads_nothing;
          Alcotest.test_case "lag bytes gauge" `Quick test_rset_lag_bytes_gauge;
          Alcotest.test_case "rejoin after its base was pruned" `Quick
            test_rset_rejoin_after_prune;
          Alcotest.test_case "fallback within K" `Quick test_rset_fallback_within_k;
          Alcotest.test_case "lagging standby keeps its base" `Quick
            test_rset_lagging_standby_keeps_base;
          Alcotest.test_case "flat history" `Quick test_rset_flat_history;
          Alcotest.test_case "election: one vote round" `Quick test_election_one_vote_round;
          Alcotest.test_case "election: downtime" `Quick test_election_downtime;
          Alcotest.test_case "election: the winner reads its epoch once" `Quick
            test_election_reads_epoch_once;
        ] );
      ("properties", qcheck_tests @ roundtrip_qcheck_tests @ [ lazy_cow_qcheck; lazy_contract_qcheck ]);
    ]
