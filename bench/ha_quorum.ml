(* Replication torture, bench and gate driver: the one driver for the
   replication plane (`Replica_set`).

   `main.exe ha-quorum fast` (the @ha-torture alias, wired into runtest;
   also the default) runs both
   negative controls (the standby's corrupted newest epoch must be
   skipped by the fallback loop), the single-standby sweep (N = 1) in
   stop-the-world and speculative modes, a short quorum-torture sweep at
   N in {3,5}, one pipelined-vs-stop-and-wait comparison and one live
   migration; `ha-quorum deep [seed]` (@ha-torture-deep) sweeps more
   seeds, rates and rounds; `ha-quorum smoke` (part of @bench-smoke)
   runs the quorum sweep, the pipeline comparison and the migration and
   applies the acceptance gates:

     - quorum convergence on 100% of runs (survivors elect an epoch no
       older than the quorum commit point, reference state matches, no
       externally-synchronized message escapes the discarded window);
     - one vote round on 100% of runs: the takeover pays one vote round
       trip plus the winner's restore, however many survivors vote;
     - pipelined replication-plane throughput >= 3x stop-and-wait at
       N = 3 over a lossy link;
     - live-migration downtime <= 2 checkpoint periods with a
       byte-identical target;
     - a lossless N = 3 cell pumped every 100 µs and every 30 µs holds
       each externally-synchronized message equally long: a message
       leaves at its quorum ack's arrival, not at the next pump.

   Every run failure and failed gate is returned to [main.exe], which
   exits nonzero; every failure prints its seed so it reproduces by
   rerunning with the same arguments. *)

module Ha_torture = Aurora_faultsim.Ha_torture

(* Run failures, newest first; [run] returns them. *)
let failures = ref []
let fail what = failures := ("ha-quorum: " ^ what) :: !failures

let run_quorum_sweep ?(speculative = false) ?pace_ns ~seed ~runs_per_cell ~rates
    ~ns ~rounds () =
  let s =
    Ha_torture.quorum_sweep ~speculative ?pace_ns ~seed ~runs_per_cell ~rates ~ns
      ~rounds ()
  in
  Printf.printf
    "quorum n=%-4s %-4s seed=%-8d runs=%-3d ok=%-3d evict=%d rejoin=%d \
     retx=%d released=%d dropped=%d%s\n\
     %!"
    (String.concat "," (List.map string_of_int ns))
    (if speculative then "spec" else "stw")
    seed s.Ha_torture.q_runs s.Ha_torture.q_ok s.Ha_torture.q_evictions
    s.Ha_torture.q_rejoins s.Ha_torture.q_retransmits s.Ha_torture.q_released
    s.Ha_torture.q_dropped
    (match pace_ns with
    | None -> ""
    | Some _ -> Printf.sprintf " rounds=%d paced prunes>=%d" rounds s.Ha_torture.q_prunes);
  List.iter
    (fun r -> Printf.printf "  FAIL %s\n%!" (Ha_torture.pp_quorum r))
    s.Ha_torture.q_failures;
  if s.Ha_torture.q_ok <> s.Ha_torture.q_runs then
    fail (Printf.sprintf "quorum sweep seed=%d: %d/%d ok" seed s.Ha_torture.q_ok
            s.Ha_torture.q_runs);
  s

(* The single-standby sweep, both checkpoint modes on the same seeds. *)
let run_single_sweeps ~seed ~runs_per_cell ~rates ~rounds =
  List.iter
    (fun speculative ->
      ignore
        (run_quorum_sweep ~speculative ~seed ~runs_per_cell ~rates ~ns:[ 1 ]
           ~rounds ()))
    [ false; true ]

let run_pipeline ~seed ~rounds ~rate ~n =
  let p = Ha_torture.pipeline_vs_stop_and_wait ~seed ~rounds ~rate ~n in
  Printf.printf
    "pipeline n=%d rate=%.2f rounds=%d: plane %.3f ms pipelined vs %.3f ms \
     stop-and-wait (%.1fx), totals %.3f / %.3f ms%s%s\n\
     %!"
    p.Ha_torture.pl_n p.Ha_torture.pl_rate p.Ha_torture.pl_rounds
    (float_of_int p.Ha_torture.pl_pipe_plane_ns /. 1e6)
    (float_of_int p.Ha_torture.pl_sw_plane_ns /. 1e6)
    p.Ha_torture.pl_speedup
    (float_of_int p.Ha_torture.pl_pipe_total_ns /. 1e6)
    (float_of_int p.Ha_torture.pl_sw_total_ns /. 1e6)
    (if p.Ha_torture.pl_pipe_ok then "" else " [pipeline INCOMPLETE]")
    (if p.Ha_torture.pl_sw_ok then "" else " [stop-and-wait INCOMPLETE]");
  if not p.Ha_torture.pl_pipe_ok then
    fail (Printf.sprintf "pipeline seed=%d n=%d rate=%.2f incomplete" seed n rate);
  p

let run_migration ~seed ~rate =
  let m = Ha_torture.migration_run ~seed ~rate in
  let r = m.Ha_torture.mc_report in
  Printf.printf
    "migration seed=%d rate=%.2f: %d pre-copy rounds (%d B), final %d B, \
     downtime %.3f ms = %.2f periods, identical=%b: %s\n\
     %!"
    seed rate r.Aurora_core.Replica_set.mig_rounds
    r.Aurora_core.Replica_set.mig_precopy_bytes
    r.Aurora_core.Replica_set.mig_final_bytes
    (float_of_int r.Aurora_core.Replica_set.mig_downtime_ns /. 1e6)
    m.Ha_torture.mc_downtime_periods r.Aurora_core.Replica_set.mig_identical
    m.Ha_torture.mc_outcome;
  if not m.Ha_torture.mc_ok then
    fail (Printf.sprintf "migration seed=%d rate=%.2f: %s" seed rate
            m.Ha_torture.mc_outcome);
  m

let controls () =
  List.iter
    (fun (label, mode) ->
      match Ha_torture.negative_control ~mode with
      | Ok () ->
          Printf.printf "control %-5s corrupted newest epoch skipped\n%!" label
      | Error e ->
          Printf.printf "control %-5s FAIL %s\n%!" label e;
          fail ("control " ^ label))
    [ ("meta", Ha_torture.Meta); ("page", Ha_torture.Page) ]

(* The quorum sweep paced like a service that checkpoints every 10 ms,
   long enough that the primary and every surviving standby prune at
   least twice (a store prunes once it retains 26 epochs). *)
let retention_sweep ~seed ~runs_per_cell ~rates =
  let s =
    run_quorum_sweep ~pace_ns:10_000_000 ~seed ~runs_per_cell ~rates ~ns:[ 3; 5 ]
      ~rounds:50 ()
  in
  if s.Ha_torture.q_prunes < 2 then
    fail (Printf.sprintf "retention sweep seed=%d: a store pruned %d times" seed
            s.Ha_torture.q_prunes);
  s

let fast () =
  controls ();
  run_single_sweeps ~seed:42 ~runs_per_cell:3 ~rates:[ 0.0; 0.05; 0.10 ]
    ~rounds:6;
  ignore
    (run_quorum_sweep ~seed:42 ~runs_per_cell:2 ~rates:[ 0.0; 0.05 ]
       ~ns:[ 3; 5 ] ~rounds:6 ());
  ignore (run_pipeline ~seed:42 ~rounds:20 ~rate:0.05 ~n:3);
  ignore (run_migration ~seed:42 ~rate:0.0);
  ignore (retention_sweep ~seed:42 ~runs_per_cell:2 ~rates:[ 0.0; 0.05 ])

let deep seed =
  controls ();
  List.iter
    (fun s ->
      run_single_sweeps ~seed:s ~runs_per_cell:8
        ~rates:[ 0.0; 0.01; 0.02; 0.05; 0.08; 0.10 ]
        ~rounds:12;
      ignore
        (run_quorum_sweep ~seed:s ~runs_per_cell:4
           ~rates:[ 0.0; 0.02; 0.05; 0.08; 0.12 ]
           ~ns:[ 3; 5 ] ~rounds:10 ()))
    [ seed; seed + 1; seed + 2 ];
  List.iter
    (fun rate -> ignore (run_pipeline ~seed ~rounds:30 ~rate ~n:3))
    [ 0.0; 0.05; 0.10 ];
  ignore (run_pipeline ~seed ~rounds:30 ~rate:0.05 ~n:5);
  List.iter
    (fun s ->
      ignore (run_migration ~seed:s ~rate:0.0);
      ignore (run_migration ~seed:s ~rate:0.02))
    [ seed; seed + 1 ];
  ignore (retention_sweep ~seed ~runs_per_cell:4 ~rates:[ 0.0; 0.05; 0.12 ])

(* Each held message's hold (release minus the start of the checkpoint
   that produced it) in a lossless N = 3 cell, pumped every 100 µs and
   every 30 µs. *)
let mean_us hs =
  float_of_int (List.fold_left ( + ) 0 hs) /. float_of_int (max 1 (List.length hs)) /. 1e3

let run_holds () =
  let holds pump_ns =
    List.map
      (fun (_, start, release) -> release - start)
      (Ha_torture.hold_run ~pump_ns ~rounds:20 ~n:3).Ha_torture.hr_releases
  in
  let slow = holds 100_000 and fast = holds 30_000 in
  Printf.printf
    "holds n=3 rate=0.00 rounds=20: mean %.1f us pumped every 100 us, %.1f us every 30 us\n%!"
    (mean_us slow) (mean_us fast);
  (slow, fast)

(* Smoke: the @bench-smoke runs and their gates. *)
let smoke () =
  let q =
    run_quorum_sweep ~seed:42 ~runs_per_cell:2 ~rates:[ 0.0; 0.05 ]
      ~ns:[ 3; 5 ] ~rounds:6 ()
  in
  let p = run_pipeline ~seed:42 ~rounds:20 ~rate:0.05 ~n:3 in
  let m = run_migration ~seed:42 ~rate:0.0 in
  (* The fast run's paced retention cell: every store prunes. *)
  let r = retention_sweep ~seed:42 ~runs_per_cell:2 ~rates:[ 0.0; 0.05 ] in
  let slow, fast = run_holds () in
  let q_ok = q.Ha_torture.q_ok and q_runs = q.Ha_torture.q_runs in
  Report.gates "ha-quorum"
    [
      ("quorum convergence", Str (Printf.sprintf "%d/%d" q_ok q_runs), "100%", q_ok = q_runs);
      ( "election: one vote round",
        Str (Printf.sprintf "%d/%d" q.Ha_torture.q_one_round q_runs),
        "100%",
        q.Ha_torture.q_one_round = q_runs );
      ( "pipelined plane speedup at n=3",
        Num (1, p.Ha_torture.pl_speedup),
        ">= 3",
        p.Ha_torture.pl_speedup >= 3.0 );
      ("migration", Str m.Ha_torture.mc_outcome, "<= 2 periods, identical", m.Ha_torture.mc_ok);
      ( "paced cell: sectors held beyond allocated + pending discards",
        Count r.Ha_torture.q_space_excess,
        "<= 0",
        r.Ha_torture.q_space_excess <= 0 );
      ( "lossless n=3 holds, pump 100 us vs 30 us",
        Str (Printf.sprintf "%.1f / %.1f us" (mean_us slow) (mean_us fast)),
        "identical per message",
        slow <> [] && slow = fast );
    ]

let run mode =
  failures := [];
  let gates =
    match mode with
    | Report.Full | Fast ->
        fast ();
        []
    | Smoke -> smoke ()
    | Deep seed ->
        deep (Option.value seed ~default:20260809);
        []
  in
  List.rev !failures @ gates
