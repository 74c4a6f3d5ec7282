module Clock = Aurora_sim.Clock
module Striped = Aurora_block.Striped
module Fault = Aurora_block.Fault
module Store = Aurora_objstore.Store
module Rng = Aurora_util.Rng
module Workload = Aurora_faultsim.Workload
module Model = Aurora_faultsim.Model
module Injector = Aurora_faultsim.Injector
module Torture = Aurora_faultsim.Torture

(* Acceptance criterion: the crash-point enumerator covers every device
   submission boundary of the standard multi-checkpoint + prune + journal
   workload — hundreds of crash points — and recovery matches the pure
   reference model at every one of them. *)
let test_enumerate_standard () =
  let r = Torture.enumerate [ Workload.standard ] in
  List.iter
    (fun f -> Printf.printf "FAIL %s\n%!" (Torture.pp_failure f))
    r.Torture.r_failures;
  Alcotest.(check int) "no failures" 0 (List.length r.Torture.r_failures);
  Alcotest.(check bool)
    (Printf.sprintf "covers many boundaries (%d)" r.Torture.r_boundaries)
    true
    (r.Torture.r_boundaries >= 50);
  Alcotest.(check int) "three crash modes per boundary"
    (3 * r.Torture.r_boundaries) r.Torture.r_crash_points;
  Alcotest.(check bool)
    (Printf.sprintf "hundreds of crash points (%d)" r.Torture.r_crash_points)
    true
    (r.Torture.r_crash_points >= 200)

(* The speculative arm rewrites every checkpoint into stale-prelude +
   newest-wins corrections — the validator's conflict-splice shape — and
   the enumerator must still find recovery consistent at every device
   submission boundary (never a half-spliced image). *)
let test_enumerate_speculative_arm () =
  let r = Torture.enumerate [ Workload.speculative_arm Workload.standard ] in
  List.iter
    (fun f -> Printf.printf "FAIL %s\n%!" (Torture.pp_failure f))
    r.Torture.r_failures;
  Alcotest.(check int) "no failures" 0 (List.length r.Torture.r_failures);
  Alcotest.(check bool)
    (Printf.sprintf "covers many boundaries (%d)" r.Torture.r_boundaries)
    true
    (r.Torture.r_boundaries >= 50)

(* Acceptance criterion: a deliberately injected ordering bug — the
   superblock submitted before the checkpoint record completes — must be
   caught by the same enumeration. *)
let test_enumerate_catches_misorder () =
  let r = Torture.enumerate ~misorder:true [ Workload.standard ] in
  Alcotest.(check bool)
    (Printf.sprintf "metadata-before-data bug caught (%d failures)"
       (List.length r.Torture.r_failures))
    true
    (r.Torture.r_failures <> [])

(* The same negative control with two tenants on one clock: every store's
   misorder knob on, the workloads of the torture sweep's two-group row.  The
   enumerator must still catch the bug and name the tenant it hit. *)
let test_enumerate_two_tenants_catches_misorder () =
  let gen s = Workload.gen_ops (Rng.create s) ~n:8 ~max_oid:4 ~max_pages:10 in
  let seed = 20260809 in
  let r = Torture.enumerate ~misorder:true [ gen seed; gen (seed lxor 0x5f5f) ] in
  Alcotest.(check bool)
    (Printf.sprintf "misorder caught across tenants (%d failures, %d boundaries)"
       (List.length r.Torture.r_failures) r.Torture.r_boundaries)
    true
    (r.Torture.r_failures <> []);
  let names_tenant f =
    let d = f.Torture.f_detail in
    String.starts_with ~prefix:"tenant A:" d || String.starts_with ~prefix:"tenant B:" d
  in
  Alcotest.(check bool) "failures name their tenant" true
    (List.exists names_tenant r.Torture.r_failures)

(* The reference model shadows the live store op for op, not only after
   recovery. *)
let test_model_tracks_live_store () =
  let clock = Clock.create () in
  let dev = Striped.create () in
  let store = Store.format ~dev ~clock in
  let runner = Workload.runner store in
  let model = Model.create () in
  List.iteri
    (fun i op ->
      Workload.run_op runner op;
      Model.apply model op;
      Alcotest.(check string)
        (Printf.sprintf "state after op %d (%s)" i (Workload.op_to_string op))
        (Model.render model) (Torture.observe store))
    Workload.standard

let test_sweep_read_errors () =
  let s = Torture.sweep ~seed:7 ~runs:3 (Injector.read_errors_profile 0.1) in
  Alcotest.(check int) "every observation matches the model" s.Torture.s_runs
    s.Torture.s_final_matches;
  Alcotest.(check bool)
    (Printf.sprintf "retries absorbed transient errors (%d)" s.Torture.s_read_faults)
    true
    (s.Torture.s_read_faults > 0)

let test_sweep_write_loss_terminates () =
  let s = Torture.sweep ~seed:11 ~runs:3 (Injector.write_loss_profile 0.15) in
  Alcotest.(check int) "every run classified" s.Torture.s_runs
    (s.Torture.s_final_matches + s.Torture.s_detected + s.Torture.s_degraded)

(* The crash_at injector fires at exactly the requested global boundary. *)
let test_crash_at_boundary_index () =
  let dev = Striped.create () in
  Striped.set_fault dev (Some (Injector.crash_at ~index:3));
  let raised =
    try
      for i = 0 to 9 do
        ignore (Striped.write dev ~now:0 ~off:(i * 4096) (Bytes.make 64 'x'))
      done;
      None
    with Fault.Crash_point { index; _ } -> Some index
  in
  Striped.set_fault dev None;
  Alcotest.(check (option int)) "third submission" (Some 3) raised;
  (* Submissions 1 and 2 were issued, 3 was not. *)
  Alcotest.(check int) "two writes issued" 2 (Striped.write_ops dev)

let derive_ops seed =
  Workload.gen_ops (Rng.create seed) ~n:14 ~max_oid:6 ~max_pages:12

(* State-machine property: random op sequences keep the real store and the
   pure model in lockstep, and a crash at full durability recovers to the
   model's final state byte for byte.  A failing seed prints the full
   replayable op trace. *)
let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"random ops: store shadows model, crash/recover matches final state"
         ~count:20
         (QCheck.make
            ~print:(fun seed ->
              Printf.sprintf "seed=%d, replayable op trace:\n%s" seed
                (Workload.ops_to_string (derive_ops seed)))
            QCheck.Gen.(int_bound 1_000_000))
         (fun seed ->
           let ops = derive_ops seed in
           let clock = Clock.create () in
           let dev = Striped.create () in
           let store = Store.format ~dev ~clock in
           let runner = Workload.runner store in
           let model = Model.create () in
           List.for_all
             (fun op ->
               Workload.run_op runner op;
               Model.apply model op;
               Torture.observe store = Model.render model)
             ops
           && begin
                Store.wait_durable store;
                Striped.settle dev ~clock;
                Striped.crash dev ~now:(Clock.now clock);
                let store2 = Store.recover ~dev ~clock:(Clock.create ()) in
                Torture.observe store2 = Model.render model
              end));
  ]

(* Kernel-driven recorded profiles (ISSUE 10) ----------------------------- *)

(* The fork-bomb recorder projects a real process tree — pipes spanning
   parent/child, COW divergence, exits — into plain ops; enumeration must
   find recovery consistent at every boundary, and the recording itself
   must not shrink below the checked-in coverage floor (mirrors the
   @torture gate). *)
let test_fork_bomb_enumerates_clean () =
  let ops = Workload.fork_bomb () in
  let r = Torture.enumerate [ ops ] in
  List.iter
    (fun f -> Printf.printf "FAIL %s\n%!" (Torture.pp_failure f))
    r.Torture.r_failures;
  Alcotest.(check int) "no failures" 0 (List.length r.Torture.r_failures);
  Alcotest.(check bool)
    (Printf.sprintf "coverage floor (%d boundaries)" r.Torture.r_boundaries)
    true
    (r.Torture.r_boundaries >= 60);
  let r' = Torture.enumerate [ Workload.speculative_arm ops ] in
  Alcotest.(check int) "speculative arm: no failures" 0
    (List.length r'.Torture.r_failures)

let test_shm_ring_enumerates_clean () =
  let ops = Workload.shm_ring () in
  let r = Torture.enumerate [ ops ] in
  List.iter
    (fun f -> Printf.printf "FAIL %s\n%!" (Torture.pp_failure f))
    r.Torture.r_failures;
  Alcotest.(check int) "no failures" 0 (List.length r.Torture.r_failures);
  Alcotest.(check bool)
    (Printf.sprintf "coverage floor (%d boundaries)" r.Torture.r_boundaries)
    true
    (r.Torture.r_boundaries >= 40)

(* Satellite: the seqlock invariant holds on every model snapshot of the
   ring workload — and on the state actually recovered from crashes
   injected between the producer's publish and the consumer's read.  A
   restored ring must never expose a half-written record: an in-flight
   publication is recognizable by its odd sequence stamp, so a reader
   skips it. *)
let test_shm_ring_never_exposes_torn_record () =
  let ops = Workload.shm_ring () in
  let model = Model.create () in
  let checked = ref 0 in
  List.iter
    (fun op ->
      Model.apply model op;
      match Workload.shm_ring_check (Model.render model) with
      | Ok n -> checked := max !checked n
      | Error e -> Alcotest.failf "model snapshot: %s" e)
    ops;
  Alcotest.(check bool)
    (Printf.sprintf "checked several snapshots (%d)" !checked)
    true (!checked >= 4);
  (* Now the real thing: replay against a store, crash at every device
     submission boundary, recover, and hold the recovered bytes to the
     same invariant. *)
  let boundaries =
    let clock = Clock.create () in
    let dev = Striped.create () in
    let store = Store.format ~dev ~clock in
    let fault, _ = Injector.counting () in
    Striped.set_fault dev (Some fault);
    let runner = Workload.runner store in
    List.iter (Workload.run_op runner) ops;
    Store.wait_durable store;
    Striped.settle dev ~clock;
    Striped.set_fault dev None;
    Fault.submissions fault
  in
  Alcotest.(check bool)
    (Printf.sprintf "ring workload has boundaries (%d)" boundaries)
    true (boundaries > 10);
  let crashes = ref 0 in
  for index = 1 to boundaries do
    let clock = Clock.create () in
    let dev = Striped.create () in
    let store = Store.format ~dev ~clock in
    let runner = Workload.runner store in
    Striped.set_fault dev (Some (Injector.crash_at ~index));
    (try List.iter (Workload.run_op runner) ops
     with Fault.Crash_point _ -> incr crashes);
    Striped.set_fault dev None;
    Striped.crash dev ~now:(Clock.now clock);
    let store' = Store.recover ~dev ~clock:(Clock.create ()) in
    match Workload.shm_ring_check (Torture.observe store') with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "crash at boundary %d: %s" index e
  done;
  Alcotest.(check bool)
    (Printf.sprintf "crashes actually fired (%d)" !crashes)
    true
    (!crashes > 0)

(* A corrupted render must trip the checker (negative control: the
   invariant is falsifiable). *)
let test_shm_ring_check_catches_corruption () =
  let ops = Workload.shm_ring () in
  let model = Model.create () in
  List.iter (Model.apply model) ops;
  let r = Model.render model in
  (* Flip the first body page (vpn 6) fill char in the last snapshot. *)
  let i = ref (-1) in
  String.iteri
    (fun j _ -> if j + 2 <= String.length r && String.sub r j 2 = "6:" then i := j)
    r;
  Alcotest.(check bool) "found a body page" true (!i >= 0);
  let b = Bytes.of_string r in
  Bytes.set b (!i + 2) '!';
  match Workload.shm_ring_check (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "checker accepted a torn body"
  | Error _ -> ()

module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Syscall = Aurora_kern.Syscall
module Process = Aurora_kern.Process
module Restore = Aurora_core.Restore
module Vm_space = Aurora_vm.Vm_space
module Vm_page = Aurora_vm.Page

(* Full-stack fork-family property: random fork/write/exit/checkpoint
   interleavings on a live SLS system, then crash and restore — every
   surviving process's pages must come back byte-identical to its own
   write history, however the COW sharing fell across checkpoint
   boundaries. *)
let fam_qcheck =
  let npages = 6 in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"fork family under checkpoints: restore is byte-identical per process"
       ~count:12
       (QCheck.make
          ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
          QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         let rng = Rng.create seed in
         let sys = Sls.boot () in
         let m = sys.Sls.machine in
         let root = Syscall.spawn m ~name:"fam" in
         let arena = Syscall.mmap_anon root ~npages in
         let base = Aurora_vm.Vm_space.addr_of_entry arena in
         (* Pages hold [Page.payload_size] real bytes and fold larger
            offsets onto them, so the shadow model keys on folded slots. *)
         let key off =
           ((off / Vm_page.logical_size) * Vm_page.payload_size)
           + (off mod Vm_page.payload_size)
         in
         let addr_of_key k =
           base
           + ((k / Vm_page.payload_size) * Vm_page.logical_size)
           + (k mod Vm_page.payload_size)
         in
         let group = Sls.attach sys [ root ] in
         (* (proc, parent pid, shadow byte model) per live member *)
         let fam = ref [ (root, -1, Hashtbl.create 32) ] in
         let ok = ref true in
         for i = 0 to 23 do
           match Rng.int rng 8 with
           | 0 when List.length !fam < 5 ->
               let parent, _, model =
                 List.nth !fam (Rng.int rng (List.length !fam))
               in
               let child = Syscall.fork m parent in
               Group.add_process group child;
               fam :=
                 !fam
                 @ [ (child, parent.Process.pid_global, Hashtbl.copy model) ]
           | 1 when List.length !fam > 1 -> (
               (* Exit a leaf and let its parent reap it. *)
               let leaves =
                 List.filter
                   (fun (p, _, _) ->
                     p != root
                     && not
                          (List.exists
                             (fun (_, pp, _) -> pp = p.Process.pid_global)
                             !fam))
                   !fam
               in
               match leaves with
               | [] -> ()
               | _ ->
                   let p, pp, _ = List.nth leaves (Rng.int rng (List.length leaves)) in
                   Syscall.exit m p ~code:0;
                   (match
                      List.find_opt (fun (q, _, _) -> q.Process.pid_global = pp) !fam
                    with
                   | Some (parent, _, _) -> ignore (Syscall.waitpid m parent)
                   | None -> ());
                   fam := List.filter (fun (q, _, _) -> q != p) !fam)
           | 2 -> ignore (Group.checkpoint ~wait_durable:true group)
           | _ ->
               let p, _, model =
                 List.nth !fam (Rng.int rng (List.length !fam))
               in
               let off = Rng.int rng (npages * Vm_page.logical_size) in
               let c = Char.chr (Char.code 'a' + (i mod 26)) in
               Vm_space.write_byte p.Process.space ~addr:(base + off) c;
               Hashtbl.replace model (key off) c
         done;
         ignore (Group.checkpoint ~wait_durable:true group);
         let _sys', result = Sls.reboot_and_restore sys in
         List.iter
           (fun (p, _, model) ->
             match
               List.find_opt
                 (fun q -> q.Process.pid_local = p.Process.pid_local)
                 result.Restore.procs
             with
             | None -> ok := false
             | Some q ->
                 Hashtbl.iter
                   (fun k c ->
                     if Vm_space.read_byte q.Process.space ~addr:(addr_of_key k) <> c
                     then ok := false)
                   model)
           !fam;
         !ok))

module Ha_torture = Aurora_faultsim.Ha_torture

(* The single-standby torture is the quorum run at N = 1. *)
let test_ha_torture_run () =
  let r = Ha_torture.quorum_run ~seed:2026 ~rounds:5 ~rate:0.08 ~n:1 () in
  Alcotest.(check bool) (Ha_torture.pp_quorum r) true r.Ha_torture.qr_ok

(* Same torture under speculative soft-quiesce checkpoints, with the
   mid-window mutator forcing conflict splices into every shipped epoch:
   failover must still land on a model-consistent epoch. *)
let test_ha_torture_run_speculative () =
  let r =
    Ha_torture.quorum_run ~speculative:true ~seed:2026 ~rounds:5 ~rate:0.08
      ~n:1 ()
  in
  Alcotest.(check bool) (Ha_torture.pp_quorum r) true r.Ha_torture.qr_ok

let test_ha_torture_negative_controls () =
  (match Ha_torture.negative_control ~mode:Ha_torture.Meta with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("meta control: " ^ e));
  match Ha_torture.negative_control ~mode:Ha_torture.Page with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("page control: " ^ e)

let () =
  Alcotest.run "aurora_faultsim"
    [
      ( "enumeration",
        [
          Alcotest.test_case "standard workload clean" `Quick test_enumerate_standard;
          Alcotest.test_case "speculative splice arm clean" `Quick
            test_enumerate_speculative_arm;
          Alcotest.test_case "catches misorder bug" `Quick test_enumerate_catches_misorder;
          Alcotest.test_case "two tenants catch misorder bug" `Quick
            test_enumerate_two_tenants_catches_misorder;
          Alcotest.test_case "fork-bomb profile clean" `Quick
            test_fork_bomb_enumerates_clean;
          Alcotest.test_case "shm-ring profile clean" `Quick
            test_shm_ring_enumerates_clean;
        ] );
      ( "posix stressors",
        [
          Alcotest.test_case "shm ring never exposes torn record" `Slow
            test_shm_ring_never_exposes_torn_record;
          Alcotest.test_case "shm ring checker is falsifiable" `Quick
            test_shm_ring_check_catches_corruption;
          fam_qcheck;
        ] );
      ( "model",
        [
          Alcotest.test_case "tracks live store" `Quick test_model_tracks_live_store;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "read errors absorbed" `Quick test_sweep_read_errors;
          Alcotest.test_case "write loss terminates" `Quick test_sweep_write_loss_terminates;
        ] );
      ( "injector",
        [ Alcotest.test_case "crash_at boundary" `Quick test_crash_at_boundary_index ] );
      ( "ha torture",
        [
          Alcotest.test_case "faulty run recovers model state" `Quick
            test_ha_torture_run;
          Alcotest.test_case "speculative run recovers model state" `Quick
            test_ha_torture_run_speculative;
          Alcotest.test_case "negative controls skip corruption" `Quick
            test_ha_torture_negative_controls;
        ] );
      ("properties", qcheck_tests);
    ]
