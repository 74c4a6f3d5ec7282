(* HTTP serving tier under continuous checkpointing: SLO tail latency
   (p50/p99/p999) versus checkpoint period, figures 4-5 style.

   Each connection count runs an identical open-loop
   zipfian schedule three ways: uncheckpointed baseline, stop-the-world
   checkpointing, and speculative soft-quiesce — the latter keeps serving
   background dynamic requests inside yield windows via the run hook.

   A full run writes BENCH_http.json.

     dune exec bench/main.exe -- http-sim          # full sweep
     dune exec bench/main.exe -- http-sim smoke    # tiny CI pass with SLO gates *)

module Http_sim = Aurora_apps.Http_sim
module Units = Aurora_util.Units

type arm = { a_name : string; a_period : int option; a_spec : bool }

type sample = {
  s_conns : int;
  s_arm : string;
  s_period : int option;
  s_out : Http_sim.outcome;
}

let base_cfg ~duration_ns ~rate =
  { Http_sim.default_config with duration_ns; rate }

let measure ~duration_ns ~rate ~conns arms =
  List.map
    (fun a ->
      let cfg =
        {
          (base_cfg ~duration_ns ~rate) with
          Http_sim.conns;
          period_ns = a.a_period;
          speculative = a.a_spec;
        }
      in
      {
        s_conns = conns;
        s_arm = a.a_name;
        s_period = a.a_period;
        s_out = Http_sim.run cfg;
      })
    arms

let columns : sample Report.column list =
  Report.
    [
      ("conns", "conns", fun s -> Count s.s_conns);
      ("arm", "arm", fun s -> Str s.s_arm);
      ("period", "period_ns", fun s -> Ns (float_of_int (Option.value ~default:0 s.s_period)));
      ("req", "completed", fun s -> Count s.s_out.Http_sim.completed);
      ("rps", "throughput_rps", fun s -> Num (0, s.s_out.Http_sim.throughput_rps));
      ("p50", "p50_ns", fun s -> Ns s.s_out.Http_sim.p50_ns);
      ("p99", "p99_ns", fun s -> Ns s.s_out.Http_sim.p99_ns);
      ("p999", "p999_ns", fun s -> Ns s.s_out.Http_sim.p999_ns);
      ("max", "max_ns", fun s -> Ns s.s_out.Http_sim.max_ns);
      ("ckpts", "checkpoints", fun s -> Count s.s_out.Http_sim.checkpoints);
      ("stop avg", "avg_stop_ns", fun s -> Ns s.s_out.Http_sim.avg_stop_ns);
      ("hook ops", "hook_ops", fun s -> Count s.s_out.Http_sim.hook_ops);
      ("reconn", "reconnects", fun s -> Count s.s_out.Http_sim.reconnects);
    ]

let find samples ~arm ~period =
  List.find
    (fun s -> s.s_arm = arm && s.s_period = period)
    samples

(* SLO gates over the base configuration:
   - at the paper's 100 ms period, STW p99 inflation over the
     uncheckpointed baseline must stay <= 2x;
   - at the shortest period, the speculative arm must beat STW on p999
     by >= 3x (the stall dominates the extreme tail there). *)
let gates samples ~long_period ~short_period =
  let quantile arm period q = q (find samples ~arm ~period).s_out in
  let p99 o = o.Http_sim.p99_ns and p999 o = o.Http_sim.p999_ns in
  let infl =
    quantile "stw" (Some long_period) p99 /. Float.max 1.0 (quantile "none" None p99)
  in
  let gain =
    quantile "stw" (Some short_period) p999
    /. Float.max 1.0 (quantile "spec" (Some short_period) p999)
  in
  Report.gates "http-sim"
    [
      ( Printf.sprintf "stw p99 inflation at %s" (Units.ns_to_string long_period),
        Num (2, infl),
        "<= 2",
        infl <= 2.0 );
      ( Printf.sprintf "spec p999 advantage at %s" (Units.ns_to_string short_period),
        Num (2, gain),
        ">= 3",
        gain >= 3.0 );
    ]

let sweep mode ~duration_ns ~rate ~conn_sweep ~periods =
  print_endline
    "http-sim: event-loop HTTP/1.1 tier under continuous checkpointing";
  print_endline
    "  (open-loop zipf client; latency = send to response back at the client)";
  print_newline ();
  let long_period = List.fold_left max 0 periods in
  let short_period = List.fold_left min max_int periods in
  let arms =
    { a_name = "none"; a_period = None; a_spec = false }
    :: List.concat_map
         (fun p ->
           [
             { a_name = "stw"; a_period = Some p; a_spec = false };
             { a_name = "spec"; a_period = Some p; a_spec = true };
           ])
         periods
  in
  let base_conns = List.hd conn_sweep in
  (* The full arm matrix runs on the base configuration; the conns sweep
     runs the checkpointed arms at the paper period. *)
  let samples = measure ~duration_ns ~rate ~conns:base_conns arms in
  let extra =
    List.concat_map
      (fun conns ->
        if conns = base_conns then []
        else
          measure ~duration_ns ~rate ~conns
            [
              { a_name = "stw"; a_period = Some long_period; a_spec = false };
              { a_name = "spec"; a_period = Some long_period; a_spec = true };
            ])
      conn_sweep
  in
  Report.emit mode ~bench:"http_sim" ~file:"BENCH_http.json" columns (samples @ extra);
  gates samples ~long_period ~short_period

let run = function
  | Report.Smoke as mode ->
      sweep mode ~duration_ns:300_000_000 ~rate:20_000.0 ~conn_sweep:[ 384 ]
        ~periods:[ 100_000_000; 5_000_000 ]
  | Full as mode ->
      sweep mode ~duration_ns:400_000_000 ~rate:30_000.0 ~conn_sweep:[ 384; 512 ]
        ~periods:[ 100_000_000; 20_000_000; 5_000_000 ]
  | _ -> raise Report.Usage
