(* Incremental OS-state checkpointing: generation-stamp discipline, the
   skip machinery, delta-aware manifests, and the [~full:true] escape
   hatch.  The qcheck trace property is the load-bearing one: any
   serialized mutation that fails to bump its owner's stamp makes the
   incremental epoch diverge from a forced-full one. *)

module Clock = Aurora_sim.Clock
module Striped = Aurora_block.Striped
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Thread = Aurora_kern.Thread
module Syscall = Aurora_kern.Syscall
module Fdesc = Aurora_kern.Fdesc
module Pipe = Aurora_kern.Pipe
module Socket = Aurora_kern.Socket
module Kqueue = Aurora_kern.Kqueue
module Pty = Aurora_kern.Pty
module Vnode = Aurora_kern.Vnode
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Manifest = Aurora_objstore.Manifest
module Store = Aurora_objstore.Store
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore

(* The delta guard: objects_serialized must equal the mutated set, exactly. *)
let test_skip_counters () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"app" in
  let pipes = List.init 3 (fun _ -> Syscall.pipe m p) in
  ignore (Syscall.mmap_anon p ~npages:4);
  let group = Sls.attach sys [ p ] in
  (* 1 proc + 6 descriptions + 3 pipes. *)
  let c1 = Group.checkpoint ~wait_durable:true group in
  Alcotest.(check int) "first cycle serializes all" 10 c1.Group.objects_serialized;
  Alcotest.(check int) "first cycle skips none" 0 c1.Group.objects_skipped;
  Alcotest.(check bool) "first cycle stages meta" true (c1.Group.meta_bytes_written > 0);
  (* Clean interval: everything skipped, nothing staged. *)
  let c2 = Group.checkpoint ~wait_durable:true group in
  Alcotest.(check int) "clean cycle serializes none" 0 c2.Group.objects_serialized;
  Alcotest.(check int) "clean cycle skips all" 10 c2.Group.objects_skipped;
  Alcotest.(check int) "clean cycle stages no meta" 0 c2.Group.meta_bytes_written;
  (* Dirty exactly one pipe: the delta is that one object. *)
  let _, w1 = List.nth pipes 1 in
  ignore (Syscall.write m p ~fd:w1 "ping");
  let c3 = Group.checkpoint ~wait_durable:true group in
  Alcotest.(check int) "delta cycle serializes the dirty pipe" 1
    c3.Group.objects_serialized;
  Alcotest.(check int) "delta cycle skips the rest" 9 c3.Group.objects_skipped;
  Alcotest.(check bool) "delta meta well below full meta" true
    (c3.Group.meta_bytes_written * 4 < c1.Group.meta_bytes_written);
  (* The escape hatch re-serializes everything. *)
  let c4 = Group.checkpoint ~wait_durable:true ~full:true group in
  Alcotest.(check int) "full cycle serializes all" 10 c4.Group.objects_serialized;
  Alcotest.(check int) "full cycle skips none" 0 c4.Group.objects_skipped

(* Stamp discipline of the per-kind mutators the trace generator below
   doesn't reach. *)
let test_generation_bumps () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"app" in
  let kq_fd = Syscall.kqueue m p in
  let kq =
    match (Syscall.fd_exn p kq_fd).Fdesc.kind with
    | Fdesc.Kqueue_fd k -> k
    | _ -> assert false
  in
  let g0 = Kqueue.generation kq in
  Syscall.kevent_register p ~fd:kq_fd
    { Kqueue.ident = 1; filter = Kqueue.Ev_read; flags = 0; udata = 7 };
  Alcotest.(check bool) "kevent_register bumps" true (Kqueue.generation kq > g0);
  let mfd = Syscall.posix_openpt m p in
  let pty =
    match (Syscall.fd_exn p mfd).Fdesc.kind with
    | Fdesc.Pty_master_fd t -> t
    | _ -> assert false
  in
  let g0 = Pty.generation pty in
  Pty.master_write pty "echo hi";
  Alcotest.(check bool) "master_write bumps" true (Pty.generation pty > g0);
  let g1 = Pty.generation pty in
  Pty.set_termios pty ~echo:false ~canonical:false ~baud:9600;
  Alcotest.(check bool) "set_termios bumps" true (Pty.generation pty > g1);
  let fda, fdb = Syscall.socketpair m p in
  let sa, sb =
    match
      ((Syscall.fd_exn p fda).Fdesc.kind, (Syscall.fd_exn p fdb).Fdesc.kind)
    with
    | Fdesc.Socket_fd a, Fdesc.Socket_fd b -> (a, b)
    | _ -> assert false
  in
  let ga0 = Socket.generation sa and gb0 = Socket.generation sb in
  ignore (Syscall.write m p ~fd:fda "msg");
  Alcotest.(check bool) "send bumps the receiving peer" true
    (Socket.generation sb > gb0);
  let ga1 = Socket.generation sa in
  Socket.set_option sa "nodelay" 1;
  Alcotest.(check bool) "set_option bumps" true (Socket.generation sa > ga1);
  ignore ga0;
  let ep0 = Process.effective_generation p in
  let e = Syscall.mmap_anon p ~npages:2 in
  Alcotest.(check bool) "mmap bumps the layout stamp" true
    (Process.effective_generation p > ep0);
  let ep1 = Process.effective_generation p in
  Syscall.munmap p e;
  Alcotest.(check bool) "munmap keeps the layout stamp monotonic" true
    (Process.effective_generation p > ep1)

(* A serialized mutation with no stamp bump is exactly what the negative
   control injects: the incremental pass must miss it (restore-vs-model
   divergence detected), and [~full:true] must cure it. *)
let test_unstamped_mutation_control () =
  let run ~cure =
    let sys = Sls.boot () in
    let m = sys.Sls.machine in
    let p = Syscall.spawn m ~name:"app" in
    let r, w = Syscall.pipe m p in
    ignore (Syscall.write m p ~fd:w "v1");
    let group = Sls.attach sys [ p ] in
    ignore (Group.checkpoint ~wait_durable:true group);
    let pipe =
      match (Syscall.fd_exn p r).Fdesc.kind with
      | Fdesc.Pipe_read pi -> pi
      | _ -> assert false
    in
    (* Rogue in-place mutation: no generation bump. *)
    Pipe.unstamped_poke_for_tests pipe "v2";
    ignore (Group.checkpoint ~wait_durable:true ~full:cure group);
    let sys', result = Sls.reboot_and_restore sys in
    match result.Restore.procs with
    | [ p' ] -> Syscall.read sys'.Sls.machine p' ~fd:r ~len:2
    | _ -> Alcotest.fail "expected 1 process"
  in
  Alcotest.(check string)
    "incremental pass misses the unstamped mutation (stale restore)" "v1"
    (run ~cure:false);
  Alcotest.(check string) "full pass captures it" "v2" (run ~cure:true)

(* Store-level: the manifest commit composes from the rows its versions
   carry (each set at commit from its flush's deltas) must match the
   reference full walk taken just before the commit, across carried
   objects, replaced pages and meta-only updates, over warm rows and over
   the cold rows a recovered store rebuilds from its leaves. *)
let test_manifest_entries_match_reference () =
  let clock = Clock.create () in
  let dev = Striped.create () in
  let store = ref (Store.format ~dev ~clock) in
  let payload c = Bytes.make 128 c in
  let row (e : Manifest.entry) =
    ( e.Manifest.me_oid,
      (e.Manifest.me_kind, (e.Manifest.me_meta_crc, (e.Manifest.me_pages, e.Manifest.me_pages_crc))) )
  in
  let commit_checked what stage =
    let epoch = Store.begin_checkpoint !store in
    stage !store;
    let reference = List.map Manifest.entry_of_source (Store.staging_manifest_source !store) in
    ignore (Store.commit_checkpoint !store);
    Store.wait_durable !store;
    let m =
      match Store.manifest !store ~epoch with
      | Ok m -> m
      | Error e -> Alcotest.failf "%s: %s" what e
    in
    Alcotest.(check (list (pair int (pair string (pair int (pair int int))))))
      what (List.map row reference) (List.map row m.Manifest.m_entries);
    Alcotest.(check (pair int int)) (what ^ ": epoch and count")
      (epoch, List.length reference) (m.Manifest.m_epoch, m.Manifest.m_count);
    match Restore.verify_epoch ~store:!store ~epoch with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s: committed epoch fails verification: %s" what e
  in
  let o1 = Store.alloc_oid !store in
  let o2 = Store.alloc_oid !store in
  let o3 = Store.alloc_oid !store in
  commit_checked "first epoch: all staged" (fun st ->
      Store.put_object st ~oid:o1 ~kind:"proc" ~meta:"proc-meta-1";
      Store.put_pages st ~oid:o1 [ (0, payload 'a'); (40, payload 'b') ];
      Store.put_object st ~oid:o2 ~kind:"memory" ~meta:"";
      Store.put_pages st ~oid:o2 (List.init 20 (fun i -> (i * 3, payload 'm'))));
  (* o1 carried untouched; o2 replaces some pages and adds others; o3 new. *)
  commit_checked "second epoch: carried + page deltas + new object" (fun st ->
      Store.put_pages st ~oid:o2 [ (0, payload 'x'); (3, payload 'y'); (100, payload 'z') ];
      Store.put_object st ~oid:o3 ~kind:"pipe" ~meta:"pipe-meta");
  (* Meta-only restage of o1; o2/o3 carried with the rows their commit
     gave their versions. *)
  commit_checked "third epoch: meta-only update over warm rows" (fun st ->
      Store.put_object st ~oid:o1 ~kind:"proc" ~meta:"proc-meta-2");
  (* A recovered store's versions carry no rows: carried objects take the
     cold path, rebuilt from their leaves. *)
  store := Store.recover ~dev ~clock;
  commit_checked "after recover: cold rows" (fun st ->
      Store.put_pages st ~oid:o2 [ (3, payload 'q'); (200, payload 'r') ])

(* Random store histories: after every commit the committed manifest
   equals the reference walk taken just before it, and the epoch verifies.
   Prunes and crashes interleave; a crash recovers with cold rows. *)

type stage =
  | Restage of int * (int * char) list  (* pages of an existing object *)
  | Remeta of int * string  (* meta-only restage *)
  | Create of string * (int * char) list  (* a new object *)

type history_step = { stages : stage list; after : [ `Keep | `Prune of int | `Crash ] }

let print_step { stages; after } =
  let stage = function
    | Restage (i, ps) -> Printf.sprintf "restage %d (%d pages)" i (List.length ps)
    | Remeta (i, meta) -> Printf.sprintf "remeta %d %S" i meta
    | Create (kind, ps) -> Printf.sprintf "create %s (%d pages)" kind (List.length ps)
  in
  Printf.sprintf "[%s; %s]"
    (String.concat ", " (List.map stage stages))
    (match after with `Keep -> "keep" | `Prune k -> Printf.sprintf "prune keep:%d" k | `Crash -> "crash")

let history_arb =
  let open QCheck.Gen in
  let pages = list_size (int_range 0 12) (pair (int_bound 260) (char_range 'a' 'e')) in
  let stage =
    frequency
      [
        (4, map2 (fun i ps -> Restage (i, ps)) (int_bound 7) pages);
        (2, map2 (fun i s -> Remeta (i, s)) (int_bound 7)
              (string_size ~gen:printable (int_range 1 8)));
        (2, map2 (fun k ps -> Create (k, ps)) (oneofl [ "memory"; "proc"; "pipe" ]) pages);
      ]
  in
  let step =
    map2
      (fun stages after -> { stages; after })
      (list_size (int_range 1 5) stage)
      (frequency
         [ (4, return `Keep); (1, map (fun k -> `Prune k) (int_range 1 3)); (1, return `Crash) ])
  in
  QCheck.make
    ~print:(fun h -> String.concat "\n" (List.map print_step h))
    (list_size (int_range 1 12) step)

let run_history history =
  let clock = Clock.create () in
  let dev = Striped.create () in
  let store = ref (Store.format ~dev ~clock) in
  let objs = ref [||] in
  let pick i = !objs.(i mod Array.length !objs) in
  let payloads = List.map (fun (idx, c) -> (idx, Bytes.make 96 c)) in
  let stage_one st = function
    | Restage _ | Remeta _ when !objs = [||] -> ()
    | Restage (i, ps) -> Store.put_pages st ~oid:(fst (pick i)) (payloads ps)
    | Remeta (i, meta) ->
        let oid, kind = pick i in
        Store.put_object st ~oid ~kind ~meta
    | Create (kind, ps) ->
        let oid = Store.alloc_oid st in
        objs := Array.append !objs [| (oid, kind) |];
        Store.put_object st ~oid ~kind ~meta:(kind ^ "-meta");
        Store.put_pages st ~oid (payloads ps)
  in
  List.iteri
    (fun n { stages; after } ->
      let st = !store in
      let epoch = Store.begin_checkpoint st in
      List.iter (stage_one st) stages;
      let reference = List.map Manifest.entry_of_source (Store.staging_manifest_source st) in
      ignore (Store.commit_checkpoint st);
      Store.wait_durable st;
      (match Store.manifest st ~epoch with
      | Error e -> QCheck.Test.fail_reportf "epoch %d (step %d): %s" epoch n e
      | Ok m ->
          if
            m.Manifest.m_entries <> reference
            || m.Manifest.m_count <> List.length reference
            || m.Manifest.m_epoch <> epoch
          then
            QCheck.Test.fail_reportf "epoch %d (step %d): manifest differs from reference"
              epoch n);
      (match Store.verify_epoch st ~epoch ~check_meta:(fun ~kind:_ _ -> Ok ()) with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "epoch %d (step %d) fails verification: %s" epoch n e);
      match after with
      | `Keep -> ()
      | `Prune keep -> ignore (Store.prune_history st ~keep)
      | `Crash ->
          Striped.crash dev ~now:(Clock.now clock);
          store := Store.recover ~dev ~clock)
    history;
  true

let history_property =
  QCheck.Test.make ~count:100 ~name:"committed manifest matches reference on random histories"
    history_arb run_history

(* Random syscall traces: every mutation must bump the owning stamp, and
   the trace's incremental epoch must be byte-identical (meta and page
   checksums) to a forced-full epoch taken immediately after. *)

type op =
  | Pwrite of int * string
  | Pread of int * int
  | Swrite of string
  | Sread
  | Fwrite of string
  | Seek of int
  | Sig of int
  | Cwd of int
  | Mtouch of int
  | Ckpt

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map2 (fun i s -> Pwrite (i, s)) (int_bound 1) (string_size ~gen:(char_range 'a' 'z') (int_range 1 24)));
      (3, map2 (fun i n -> Pread (i, n)) (int_bound 1) (int_range 1 16));
      (2, map (fun s -> Swrite s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 12)));
      (2, return Sread);
      (3, map (fun s -> Fwrite s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 32)));
      (2, map (fun o -> Seek o) (int_bound 64));
      (2, map (fun s -> Sig (1 + s)) (int_bound 10));
      (1, map (fun c -> Cwd c) (int_bound 5));
      (3, map (fun i -> Mtouch i) (int_bound 7));
      (2, return Ckpt);
    ]

let trace_arb =
  QCheck.make
    ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
    QCheck.Gen.(list_size (int_range 5 40) op_gen)

let run_trace ops =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"traced" in
  let pipes = [| Syscall.pipe m p; Syscall.pipe m p |] in
  let pipe_of i =
    match (Syscall.fd_exn p (fst pipes.(i))).Fdesc.kind with
    | Fdesc.Pipe_read pi -> pi
    | _ -> assert false
  in
  let sfda, sfdb = Syscall.socketpair m p in
  let sock_b =
    match (Syscall.fd_exn p sfdb).Fdesc.kind with
    | Fdesc.Socket_fd s -> s
    | _ -> assert false
  in
  let ffd = Syscall.open_file m p ~path:"/trace.dat" ~create:true in
  let fdesc = Syscall.fd_exn p ffd in
  let vn =
    match fdesc.Fdesc.kind with
    | Fdesc.Vnode_file { vn; _ } -> vn
    | _ -> assert false
  in
  let mem = Syscall.mmap_anon p ~npages:8 in
  let addr = Vm_space.addr_of_entry mem in
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  List.iter
    (fun op ->
      match op with
      | Pwrite (i, s) ->
          let g0 = Pipe.generation (pipe_of i) in
          ignore (Syscall.write m p ~fd:(snd pipes.(i)) s);
          if Pipe.generation (pipe_of i) <= g0 then
            QCheck.Test.fail_report "pipe write did not bump the stamp"
      | Pread (i, n) ->
          let pi = pipe_of i in
          let g0 = Pipe.generation pi in
          let got = Syscall.read m p ~fd:(fst pipes.(i)) ~len:n in
          if got <> "" && Pipe.generation pi <= g0 then
            QCheck.Test.fail_report "pipe read did not bump the stamp"
      | Swrite s ->
          let g0 = Socket.generation sock_b in
          ignore (Syscall.write m p ~fd:sfda s);
          if Socket.generation sock_b <= g0 then
            QCheck.Test.fail_report "socket send did not bump the peer stamp"
      | Sread -> ignore (Syscall.recv_msg m p ~fd:sfdb)
      | Fwrite s ->
          let gv = Vnode.generation vn and gd = Fdesc.generation fdesc in
          ignore (Syscall.write m p ~fd:ffd s);
          if Vnode.generation vn <= gv then
            QCheck.Test.fail_report "file write did not bump the vnode stamp";
          if Fdesc.generation fdesc <= gd then
            QCheck.Test.fail_report "file write did not bump the offset stamp"
      | Seek off ->
          let old =
            match fdesc.Fdesc.kind with
            | Fdesc.Vnode_file { offset; _ } -> offset
            | _ -> assert false
          in
          let gd = Fdesc.generation fdesc in
          ignore (Syscall.lseek p ~fd:ffd ~off);
          if off <> old && Fdesc.generation fdesc <= gd then
            QCheck.Test.fail_report "lseek did not bump the description stamp"
      | Sig signo ->
          let pending = List.mem signo p.Process.pending_signals in
          let g0 = Process.effective_generation p in
          ignore (Syscall.kill m ~pid:p.Process.pid_global ~signo);
          if (not pending) && Process.effective_generation p <= g0 then
            QCheck.Test.fail_report "signal did not bump the process stamp"
      | Cwd c -> Process.set_cwd p (Printf.sprintf "/dir%d" c)
      | Mtouch i ->
          Vm_space.touch_write p.Process.space
            ~addr:(addr + (i * Page.logical_size))
            ~len:Page.logical_size
      | Ckpt -> ignore (Group.checkpoint ~wait_durable:true group))
    ops;
  (* The equality oracle: incremental epoch vs forced-full epoch with no
     mutations in between. *)
  let e1 = (Group.checkpoint ~wait_durable:true group).Group.epoch in
  let c2 = Group.checkpoint ~wait_durable:true ~full:true group in
  let e2 = c2.Group.epoch in
  if c2.Group.objects_skipped <> 0 then
    QCheck.Test.fail_report "full cycle must not skip";
  let objs1 = Store.objects_at sys.Sls.store ~epoch:e1 in
  let objs2 = Store.objects_at sys.Sls.store ~epoch:e2 in
  if objs1 <> objs2 then
    QCheck.Test.fail_report "incremental and full epochs hold different objects";
  List.iter
    (fun (oid, kind) ->
      let m1 = Store.read_meta sys.Sls.store ~epoch:e1 ~oid in
      let m2 = Store.read_meta sys.Sls.store ~epoch:e2 ~oid in
      if m1 <> m2 then
        QCheck.Test.fail_report
          (Printf.sprintf "meta of oid %d (%s) diverged from forced-full" oid
             kind);
      let p1 = Store.page_crcs sys.Sls.store ~epoch:e1 ~oid in
      let p2 = Store.page_crcs sys.Sls.store ~epoch:e2 ~oid in
      if p1 <> p2 then
        QCheck.Test.fail_report
          (Printf.sprintf "pages of oid %d (%s) diverged from forced-full" oid
             kind))
    objs2;
  true

let trace_property =
  QCheck.Test.make ~count:60 ~name:"incremental equals forced-full on random traces"
    trace_arb run_trace

let () =
  Alcotest.run "aurora_incremental"
    [
      ( "incremental checkpointing",
        [
          Alcotest.test_case "skip counters track the delta" `Quick
            test_skip_counters;
          Alcotest.test_case "mutators bump generation stamps" `Quick
            test_generation_bumps;
          Alcotest.test_case "unstamped mutation control" `Quick
            test_unstamped_mutation_control;
          Alcotest.test_case "delta manifest matches reference" `Quick
            test_manifest_entries_match_reference;
          QCheck_alcotest.to_alcotest trace_property;
          QCheck_alcotest.to_alcotest history_property;
        ] );
    ]
