(* Speculative soft-quiesce checkpoints: the committed image must be
   byte-identical to stop-the-world over the same trace, mutations landing
   mid-speculation must be re-copied by the validator (and only
   stamp-visible ones — the unstamped poke is the negative control), and a
   crash during the soft window must recover to the previous epoch, never
   a half-spliced image. *)

module Clock = Aurora_sim.Clock
module Striped = Aurora_block.Striped
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Fdesc = Aurora_kern.Fdesc
module Pipe = Aurora_kern.Pipe
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Store = Aurora_objstore.Store
module Serial = Aurora_core.Serial
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore

type world = {
  sys : Sls.system;
  m : Machine.t;
  p : Process.t;
  group : Group.t;
  pipes : (int * int) array;
  socks : (int * int) array;
  addr : int;
}

(* A process with enough kernel objects that an incremental serialize
   pass comfortably exceeds the soft-quiesce yield quantum once they are
   all dirty, so concurrency windows actually open. *)
let make_world ?(npipes = 8) ?(nsocks = 32) () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"spec" in
  let pipes = Array.init npipes (fun _ -> Syscall.pipe m p) in
  let socks = Array.init nsocks (fun _ -> Syscall.socketpair m p) in
  let mem = Syscall.mmap_anon p ~npages:32 in
  let addr = Vm_space.addr_of_entry mem in
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  { sys; m; p; group; pipes; socks; addr }

let dirty_everything w =
  Array.iter (fun (_, wr) -> ignore (Syscall.write w.m w.p ~fd:wr "pre")) w.pipes;
  Array.iter (fun (a, _) -> ignore (Syscall.write w.m w.p ~fd:a "pre")) w.socks;
  Vm_space.touch_write w.p.Process.space ~addr:w.addr ~len:(8 * Page.logical_size)

let pipe_of w i =
  match (Syscall.fd_exn w.p (fst w.pipes.(i))).Fdesc.kind with
  | Fdesc.Pipe_read pi -> pi
  | _ -> assert false

(* The byte-identity oracle from test_incremental, verbatim: epoch [e1]
   and a forced-full epoch [e2] with no mutations in between must hold
   the same objects, metadata and page checksums. *)
let check_epochs_identical ~what sys e1 e2 =
  let objs1 = Store.objects_at sys.Sls.store ~epoch:e1 in
  let objs2 = Store.objects_at sys.Sls.store ~epoch:e2 in
  Alcotest.(check (list (pair int string)))
    (what ^ ": same object set") objs2 objs1;
  List.iter
    (fun (oid, kind) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: meta of oid %d (%s)" what oid kind)
        (Store.read_meta sys.Sls.store ~epoch:e2 ~oid)
        (Store.read_meta sys.Sls.store ~epoch:e1 ~oid);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s: pages of oid %d (%s)" what oid kind)
        (Store.page_crcs sys.Sls.store ~epoch:e2 ~oid)
        (Store.page_crcs sys.Sls.store ~epoch:e1 ~oid))
    objs2

(* Tentpole: the soft window makes real application progress (the run
   hook fires), conflicts are detected and re-copied, the stats keep
   their documented invariant, and the image is byte-identical to a
   forced-full checkpoint taken immediately after. *)
let test_speculative_identity_with_conflicts () =
  let w = make_world () in
  dirty_everything w;
  let ops = ref 0 in
  Machine.set_run_hook w.m
    (Some
       (fun _ns ->
         incr ops;
         let i = !ops in
         ignore
           (Syscall.write w.m w.p
              ~fd:(snd w.pipes.(i mod Array.length w.pipes))
              "mid");
         ignore
           (Syscall.write w.m w.p
              ~fd:(fst w.socks.(i mod Array.length w.socks))
              "mid");
         Vm_space.touch_write w.p.Process.space
           ~addr:(w.addr + (i mod 32 * Page.logical_size))
           ~len:Page.logical_size));
  Group.set_speculative w.group true;
  let c = Group.checkpoint ~wait_durable:true w.group in
  Alcotest.(check bool) "workload progressed during speculation" true (!ops > 0);
  Alcotest.(check bool) "speculation window has nonzero duration" true
    (c.Group.speculate_ns > 0);
  Alcotest.(check bool) "mid-speculation mutations were re-copied" true
    (c.Group.conflict_objects > 0);
  Alcotest.(check bool) "stop_ns covers quiesce + validation" true
    (c.Group.stop_ns >= c.Group.quiesce_ns + c.Group.validate_ns);
  Machine.set_run_hook w.m None;
  let c2 = Group.checkpoint ~wait_durable:true ~full:true w.group in
  Alcotest.(check int) "full cycle skips nothing" 0 c2.Group.objects_skipped;
  check_epochs_identical ~what:"speculative vs full" w.sys c.Group.epoch
    c2.Group.epoch

(* Stop-the-world cycles must report inert speculation stats. *)
let test_stw_stats_inert () =
  let w = make_world ~npipes:2 ~nsocks:2 () in
  dirty_everything w;
  let c = Group.checkpoint ~wait_durable:true w.group in
  Alcotest.(check int) "no speculate time" 0 c.Group.speculate_ns;
  Alcotest.(check int) "no validate time" 0 c.Group.validate_ns;
  Alcotest.(check int) "no conflict objects" 0 c.Group.conflict_objects;
  Alcotest.(check int) "no conflict pages" 0 c.Group.conflict_pages

(* Satellite: the double-count hazard.  A pipe serialized early in the
   soft pass and then written mid-window carries a moved stamp; the
   generation-stamp rule must re-serialize it in the validation pass (the
   speculatively staged image is stale), so the restored pipe holds both
   writes. *)
let test_respeculated_object_not_skipped () =
  let w = make_world () in
  ignore (Syscall.write w.m w.p ~fd:(snd w.pipes.(0)) "early");
  dirty_everything w;
  let fired = ref false in
  Machine.set_run_hook w.m
    (Some
       (fun _ns ->
         if not !fired then begin
           fired := true;
           ignore (Syscall.write w.m w.p ~fd:(snd w.pipes.(0)) "late")
         end));
  Group.set_speculative w.group true;
  let c = Group.checkpoint ~wait_durable:true w.group in
  Machine.set_run_hook w.m None;
  Alcotest.(check bool) "the mid-window write fired" true !fired;
  Alcotest.(check bool) "conflict set includes the re-written pipe" true
    (c.Group.conflict_objects > 0);
  let sys', result = Sls.reboot_and_restore w.sys in
  match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "restored pipe holds both writes" "earlyprelate"
        (Syscall.read sys'.Sls.machine p' ~fd:(fst w.pipes.(0)) ~len:32)
  | _ -> Alcotest.fail "expected 1 restored process"

(* Negative control: an unstamped in-place poke during the window is the
   mutation class the stamp rule cannot see.  The validator must keep the
   speculative (pre-poke) image — matching what an incremental
   stop-the-world checkpoint restores. *)
let test_unstamped_poke_keeps_speculative_image () =
  let w = make_world () in
  ignore (Syscall.write w.m w.p ~fd:(snd w.pipes.(0)) "early");
  dirty_everything w;
  let fired = ref false in
  Machine.set_run_hook w.m
    (Some
       (fun _ns ->
         if not !fired then begin
           fired := true;
           Pipe.unstamped_poke_for_tests (pipe_of w 0) "poked!"
         end));
  Group.set_speculative w.group true;
  ignore (Group.checkpoint ~wait_durable:true w.group);
  Machine.set_run_hook w.m None;
  Alcotest.(check bool) "the poke fired mid-window" true !fired;
  let sys', result = Sls.reboot_and_restore w.sys in
  match result.Restore.procs with
  | [ p' ] ->
      Alcotest.(check string) "restore keeps the pre-poke speculative image"
        "earlypre"
        (Syscall.read sys'.Sls.machine p' ~fd:(fst w.pipes.(0)) ~len:32)
  | _ -> Alcotest.fail "expected 1 restored process"

(* A power failure in the middle of the soft window: nothing of the
   speculative staging is durable, so recovery lands exactly on the
   previous epoch. *)
let test_crash_during_speculation_recovers_previous_epoch () =
  let w = make_world () in
  let e_prev = Group.last_epoch w.group in
  dirty_everything w;
  let t_mid = ref 0 in
  Machine.set_run_hook w.m
    (Some (fun _ns -> if !t_mid = 0 then t_mid := Clock.now w.m.Machine.clock));
  Group.set_speculative w.group true;
  let c = Group.checkpoint ~wait_durable:true w.group in
  Machine.set_run_hook w.m None;
  Alcotest.(check bool) "hook recorded a mid-speculation instant" true
    (!t_mid > 0 && !t_mid < Clock.now w.m.Machine.clock);
  Alcotest.(check bool) "the speculative epoch did commit" true
    (c.Group.epoch > e_prev);
  (* Crash with the durable horizon frozen mid-speculation. *)
  Striped.crash w.sys.Sls.device ~now:!t_mid;
  let machine = Machine.create () in
  Clock.advance_to machine.Machine.clock !t_mid;
  let store = Store.recover ~dev:w.sys.Sls.device ~clock:machine.Machine.clock in
  Alcotest.(check int) "recovery lands on the pre-speculation epoch" e_prev
    (Store.last_complete_epoch store);
  let result = Restore.restore ~machine ~store () in
  Alcotest.(check int) "previous epoch restores cleanly" 1
    (List.length result.Restore.procs)

(* Random traces under speculation: interleave application ops (some from
   inside the soft window via the run hook, including structural
   fork-free map/unmap churn) with speculative and incremental
   stop-the-world checkpoints, then compare the final epoch byte-for-byte
   against a forced-full one.  Mirrors test_incremental's trace property
   with the speculative mode set.  The final checkpoint is speculative unless the
   generator picks stop-the-world, which checks an incremental STW epoch
   taken after speculative ones directly. *)

type op =
  | Pwrite of int * string
  | Pread of int * int
  | Swrite of int * string
  | Mtouch of int
  | Sig of int
  | Ckpt
  | Ckpt_stw

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 4,
        map2
          (fun i s -> Pwrite (i, s))
          (int_bound 3)
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 24)) );
      (2, map2 (fun i n -> Pread (i, n)) (int_bound 3) (int_range 1 16));
      ( 4,
        map2
          (fun i s -> Swrite (i, s))
          (int_bound 7)
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 12)) );
      (4, map (fun i -> Mtouch i) (int_bound 31));
      (1, map (fun s -> Sig (1 + s)) (int_bound 10));
      (3, return Ckpt);
      (2, return Ckpt_stw);
    ]

let trace_arb =
  QCheck.make
    ~print:(fun (ops, structural, final_stw) ->
      Printf.sprintf "%d ops%s%s" (List.length ops)
        (if structural then " +structural" else "")
        (if final_stw then " +final-stw" else ""))
    QCheck.Gen.(
      triple (list_size (int_range 5 40) op_gen) bool
        (map (fun k -> k = 0) (int_bound 3)))

let run_spec_trace (ops, structural, final_stw) =
  let w = make_world ~npipes:4 ~nsocks:8 () in
  dirty_everything w;
  let hooked = ref 0 in
  Machine.set_run_hook w.m
    (Some
       (fun _ns ->
         incr hooked;
         let i = !hooked in
         ignore
           (Syscall.write w.m w.p
              ~fd:(snd w.pipes.(i mod Array.length w.pipes))
              "hk");
         Vm_space.touch_write w.p.Process.space
           ~addr:(w.addr + (i mod 32 * Page.logical_size))
           ~len:Page.logical_size;
         if structural && i mod 3 = 0 then begin
           (* Structural churn mid-window: the validator must fall back
              to discarding the speculative page staging. *)
           let e = Syscall.mmap_anon w.p ~npages:1 in
           Syscall.munmap w.p e
         end))
    ;
  List.iter
    (fun op ->
      match op with
      | Pwrite (i, s) -> ignore (Syscall.write w.m w.p ~fd:(snd w.pipes.(i)) s)
      | Pread (i, n) ->
          ignore (Syscall.read w.m w.p ~fd:(fst w.pipes.(i)) ~len:n)
      | Swrite (i, s) -> ignore (Syscall.write w.m w.p ~fd:(fst w.socks.(i)) s)
      | Mtouch i ->
          Vm_space.touch_write w.p.Process.space
            ~addr:(w.addr + (i * Page.logical_size))
            ~len:Page.logical_size
      | Sig signo -> ignore (Syscall.kill w.m ~pid:w.p.Process.pid_global ~signo)
      | Ckpt ->
          Group.set_speculative w.group true;
          ignore (Group.checkpoint ~wait_durable:true w.group)
      | Ckpt_stw ->
          Group.set_speculative w.group false;
          ignore (Group.checkpoint ~wait_durable:true w.group))
    ops;
  Group.set_speculative w.group (not final_stw);
  let c1 = Group.checkpoint ~wait_durable:true w.group in
  Machine.set_run_hook w.m None;
  let c2 = Group.checkpoint ~wait_durable:true ~full:true w.group in
  if c2.Group.objects_skipped <> 0 then
    QCheck.Test.fail_report "full cycle must not skip";
  if c1.Group.stop_ns < c1.Group.quiesce_ns + c1.Group.validate_ns then
    QCheck.Test.fail_report "stop_ns < quiesce_ns + validate_ns";
  let e1 = c1.Group.epoch and e2 = c2.Group.epoch in
  let objs1 = Store.objects_at w.sys.Sls.store ~epoch:e1 in
  let objs2 = Store.objects_at w.sys.Sls.store ~epoch:e2 in
  (* The oracle itself must be whole: a cycle that trusts a generation
     snapshot left by an earlier cycle skips a clean process together
     with its dirty children, and a forced-full cycle doing so would miss
     the same objects as the epoch under test. *)
  let os_objects =
    List.length
      (List.filter
         (fun (_, kind) ->
           List.mem kind
             Serial.[ kind_proc; kind_fdesc; kind_pipe; kind_socket; kind_kqueue; kind_pty; kind_shm ])
         objs2)
  in
  if c2.Group.objects_serialized <> os_objects then
    QCheck.Test.fail_report
      (Printf.sprintf "full cycle serialized %d of %d OS objects"
         c2.Group.objects_serialized os_objects);
  if objs1 <> objs2 then
    QCheck.Test.fail_report "speculative and full epochs hold different objects";
  List.iter
    (fun (oid, kind) ->
      if
        Store.read_meta w.sys.Sls.store ~epoch:e1 ~oid
        <> Store.read_meta w.sys.Sls.store ~epoch:e2 ~oid
      then
        QCheck.Test.fail_report
          (Printf.sprintf "meta of oid %d (%s) diverged from forced-full" oid
             kind);
      if
        Store.page_crcs w.sys.Sls.store ~epoch:e1 ~oid
        <> Store.page_crcs w.sys.Sls.store ~epoch:e2 ~oid
      then
        QCheck.Test.fail_report
          (Printf.sprintf "pages of oid %d (%s) diverged from forced-full" oid
             kind))
    objs2;
  true

let spec_trace_property =
  QCheck.Test.make ~count:40
    ~name:"speculative epoch equals forced-full on random traces" trace_arb
    run_spec_trace

let () =
  Alcotest.run "aurora_speculative"
    [
      ( "speculative soft-quiesce",
        [
          Alcotest.test_case "identity with mid-window conflicts" `Quick
            test_speculative_identity_with_conflicts;
          Alcotest.test_case "stop-the-world stats inert" `Quick
            test_stw_stats_inert;
          Alcotest.test_case "re-speculated object not skipped" `Quick
            test_respeculated_object_not_skipped;
          Alcotest.test_case "unstamped poke keeps speculative image" `Quick
            test_unstamped_poke_keeps_speculative_image;
          Alcotest.test_case "crash mid-speculation recovers previous epoch"
            `Quick test_crash_during_speculation_recovers_previous_epoch;
          QCheck_alcotest.to_alcotest spec_trace_property;
        ] );
    ]
