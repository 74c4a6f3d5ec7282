(* Crash-consistency torture sweep driver.

   `main.exe torture fast` (the @torture alias, wired into runtest; also
   the default) runs the standard-workload crash-point enumeration plus
   small randomized fault sweeps; `torture deep [seed]` (@torture-deep)
   adds random-workload enumerations and much larger sweeps.  Every
   enumeration failure is returned to [main.exe], which exits nonzero,
   and every run prints the seeds involved so a failure reproduces by
   rerunning with the same arguments. *)

module Workload = Aurora_faultsim.Workload
module Injector = Aurora_faultsim.Injector
module Torture = Aurora_faultsim.Torture
module Rng = Aurora_util.Rng

(* Enumeration failures, newest first; [run] returns them. *)
let failures = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := ("torture: " ^ s) :: !failures) fmt

(* [floor] is the checked-in coverage floor: a recorded profile that
   shrinks below it (a recorder regression silently emitting fewer
   device-submission boundaries) fails the sweep even with zero crash
   failures. *)
let run_enumeration ?floor label workloads =
  let r = Torture.enumerate workloads in
  Printf.printf "enumerate %-18s %4d boundaries, %5d crash points, %d failures\n%!"
    label r.Torture.r_boundaries r.Torture.r_crash_points
    (List.length r.Torture.r_failures);
  List.iter
    (fun f -> Printf.printf "  FAIL %s\n%!" (Torture.pp_failure f))
    r.Torture.r_failures;
  if r.Torture.r_failures <> [] then
    fail "%s: %d crash-point failures" label (List.length r.Torture.r_failures);
  (match floor with
  | Some f when r.Torture.r_boundaries < f ->
      Printf.printf
        "  FAIL %s: coverage regressed to %d boundaries (floor %d)\n%!" label
        r.Torture.r_boundaries f;
      fail "%s: %d boundaries below the floor %d" label r.Torture.r_boundaries f
  | _ -> ())

(* Two small per-tenant workloads, deterministic so the boundary/crash-point
   counts below are stable run to run.  Kept shorter than [standard]: the
   two-tenant enumeration replays the combined workload once per crash
   point. *)
let pair_workloads ~seed =
  let gen s = Workload.gen_ops (Rng.create s) ~n:8 ~max_oid:4 ~max_pages:10 in
  (gen seed, gen (seed lxor 0x5f5f))

let run_sweep label ~seed ~runs profile =
  let s = Torture.sweep ~seed ~runs profile in
  Printf.printf
    "sweep %-16s seed=%-6d runs=%-3d match=%d detected=%d degraded=%d read_faults=%d\n%!"
    label seed runs s.Torture.s_final_matches s.Torture.s_detected
    s.Torture.s_degraded s.Torture.s_read_faults

(* Coverage floors for the kernel-driven recorded profiles (ISSUE 10).
   Measured at recording defaults (fork_bomb seed 11/6 epochs, shm_ring
   seed 23/8 epochs); a drop below means the recorder stopped exercising
   part of the surface. *)
let fork_bomb_floor = 60
let shm_ring_floor = 40

(* Coverage floor for the two-tenant rows: 56 boundaries at seed 20260809. *)
let two_group_floor = 50

let fast () =
  run_enumeration "standard" [ Workload.standard ];
  run_enumeration "standard-spec" [ Workload.speculative_arm Workload.standard ];
  (let fb = Workload.fork_bomb () in
   run_enumeration ~floor:fork_bomb_floor "fork-bomb" [ fb ];
   run_enumeration ~floor:fork_bomb_floor "fork-bomb-spec"
     [ Workload.speculative_arm fb ]);
  (let ring = Workload.shm_ring () in
   run_enumeration ~floor:shm_ring_floor "shm-ring" [ ring ];
   run_enumeration ~floor:shm_ring_floor "shm-ring-spec"
     [ Workload.speculative_arm ring ]);
  (let a, b = pair_workloads ~seed:20260809 in
   run_enumeration ~floor:two_group_floor "two-group" [ a; b ];
   run_enumeration ~floor:two_group_floor "two-group-spec"
     [ Workload.speculative_arm a; Workload.speculative_arm b ]);
  run_sweep "read-errors" ~seed:42 ~runs:4 (Injector.read_errors_profile 0.05);
  run_sweep "write-loss" ~seed:42 ~runs:4 (Injector.write_loss_profile 0.1)

let deep seed =
  run_enumeration "standard" [ Workload.standard ];
  run_enumeration "standard-spec" [ Workload.speculative_arm Workload.standard ];
  for i = 0 to 2 do
    let fb = Workload.fork_bomb ~seed:(seed + i) ~epochs:7 () in
    run_enumeration (Printf.sprintf "fork-bomb(seed=%d)" (seed + i)) [ fb ];
    let ring = Workload.shm_ring ~seed:(seed + i) ~epochs:10 () in
    run_enumeration (Printf.sprintf "shm-ring(seed=%d)" (seed + i)) [ ring ];
    run_enumeration
      (Printf.sprintf "shm-ring-spec(seed=%d)" (seed + i))
      [ Workload.speculative_arm ring ]
  done;
  for i = 0 to 2 do
    let rng = Rng.create (seed + i) in
    let ops = Workload.gen_ops rng ~n:10 ~max_oid:5 ~max_pages:12 in
    run_enumeration (Printf.sprintf "random(seed=%d)" (seed + i)) [ ops ];
    run_enumeration
      (Printf.sprintf "random-spec(seed=%d)" (seed + i))
      [ Workload.speculative_arm ops ]
  done;
  run_sweep "read-errors" ~seed ~runs:25 (Injector.read_errors_profile 0.1);
  run_sweep "write-loss" ~seed ~runs:25 (Injector.write_loss_profile 0.15);
  run_sweep "mixed"
    ~seed:(seed + 17) ~runs:25
    {
      Injector.p_drop = 0.03;
      p_torn = 0.03;
      p_delay = 0.1;
      max_delay_ns = 200_000;
      p_read_fail = 0.05;
      p_flip = 0.0;
    }

let run mode =
  failures := [];
  (match mode with
  | Report.Full | Fast -> fast ()
  | Deep seed -> deep (Option.value seed ~default:20260807)
  | Smoke -> raise Report.Usage);
  List.rev !failures
