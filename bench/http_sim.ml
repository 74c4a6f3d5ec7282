(* HTTP serving tier under continuous checkpointing: SLO tail latency
   (p50/p99/p999) versus checkpoint period, figures 4-5 style.

   Each connection count runs an identical open-loop
   zipfian schedule three ways: uncheckpointed baseline, stop-the-world
   checkpointing, and speculative soft-quiesce — the latter keeps serving
   background dynamic requests inside yield windows via the run hook.

   Emits BENCH_http.json.

     dune exec bench/http_sim.exe          # full sweep
     dune exec bench/http_sim.exe smoke    # tiny CI pass with SLO gates *)

module Http_sim = Aurora_apps.Http_sim
module Text_table = Aurora_util.Text_table
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

let period_str = function
  | None -> "-"
  | Some p -> Units.ns_to_string p

let print_samples samples =
  let table =
    Text_table.create
      ~header:
        [
          "conns"; "arm"; "period"; "req"; "rps"; "p50"; "p99"; "p999";
          "max"; "stop avg"; "reconn"; "hook ops";
        ]
  in
  List.iter
    (fun s ->
      Text_table.add_row table
        [
          string_of_int s.s_conns;
          s.s_arm;
          period_str s.s_period;
          string_of_int s.s_out.Http_sim.completed;
          Printf.sprintf "%.0f" s.s_out.Http_sim.throughput_rps;
          Units.ns_to_string (int_of_float s.s_out.Http_sim.p50_ns);
          Units.ns_to_string (int_of_float s.s_out.Http_sim.p99_ns);
          Units.ns_to_string (int_of_float s.s_out.Http_sim.p999_ns);
          Units.ns_to_string (int_of_float s.s_out.Http_sim.max_ns);
          Units.ns_to_string (int_of_float s.s_out.Http_sim.avg_stop_ns);
          string_of_int s.s_out.Http_sim.reconnects;
          string_of_int s.s_out.Http_sim.hook_ops;
        ])
    samples;
  Text_table.print table

let json_of_samples samples =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"bench\": \"http_sim\",\n  \"samples\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      let o = s.s_out in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"conns\": %d, \"arm\": \"%s\", \
            \"period_ns\": %d, \"completed\": %d, \"throughput_rps\": %.0f, \
            \"p50_ns\": %.0f, \"p99_ns\": %.0f, \"p999_ns\": %.0f, \
            \"max_ns\": %.0f, \"checkpoints\": %d, \"avg_stop_ns\": %.0f, \
            \"hook_ops\": %d, \"reconnects\": %d}"
           s.s_conns s.s_arm
           (match s.s_period with None -> 0 | Some p -> p)
           o.Http_sim.completed o.Http_sim.throughput_rps o.Http_sim.p50_ns
           o.Http_sim.p99_ns o.Http_sim.p999_ns o.Http_sim.max_ns
           o.Http_sim.checkpoints o.Http_sim.avg_stop_ns o.Http_sim.hook_ops
           o.Http_sim.reconnects))
    samples;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let find samples ~arm ~period =
  List.find
    (fun s -> s.s_arm = arm && s.s_period = period)
    samples

(* SLO gates over the base configuration:
   - at the paper's 100 ms period, STW p99 inflation over the
     uncheckpointed baseline must stay <= 2x;
   - at the shortest period, the speculative arm must beat STW on p999
     by >= 3x (the stall dominates the extreme tail there). *)
let gate samples ~long_period ~short_period =
  let ok = ref true in
  let base = find samples ~arm:"none" ~period:None in
  let stw100 = find samples ~arm:"stw" ~period:(Some long_period) in
  let infl =
    stw100.s_out.Http_sim.p99_ns /. Float.max 1.0 base.s_out.Http_sim.p99_ns
  in
  Printf.printf "gate: p99 inflation at %s period: %.2fx (need <= 2x)\n"
    (Units.ns_to_string long_period) infl;
  if infl > 2.0 then begin
    Printf.eprintf "http-sim: FAIL: p99 inflation %.2fx > 2x at %s period\n"
      infl
      (Units.ns_to_string long_period);
    ok := false
  end;
  let stw_s = find samples ~arm:"stw" ~period:(Some short_period) in
  let spec_s = find samples ~arm:"spec" ~period:(Some short_period) in
  let gain =
    stw_s.s_out.Http_sim.p999_ns /. Float.max 1.0 spec_s.s_out.Http_sim.p999_ns
  in
  Printf.printf "gate: speculative p999 advantage at %s period: %.2fx (need >= 3x)\n"
    (Units.ns_to_string short_period) gain;
  if gain < 3.0 then begin
    Printf.eprintf
      "http-sim: FAIL: speculative p999 only %.2fx better than STW at %s \
       period (need >= 3x)\n"
      gain
      (Units.ns_to_string short_period);
    ok := false
  end;
  !ok

let run ~duration_ns ~rate ~conn_sweep ~periods =
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
  let all = samples @ extra in
  print_samples all;
  print_newline ();
  let out = open_out "BENCH_http.json" in
  output_string out (json_of_samples all);
  close_out out;
  print_endline "wrote BENCH_http.json";
  let ok = gate samples ~long_period ~short_period in
  if not ok then exit 1;
  print_endline
    "acceptance: p99 inflation <= 2x at the paper period, speculative p999 \
     >= 3x better than STW at the shortest period"

let () =
  match Array.to_list Sys.argv with
  | _ :: [ "smoke" ] ->
      run ~duration_ns:300_000_000 ~rate:20_000.0 ~conn_sweep:[ 384 ]
        ~periods:[ 100_000_000; 5_000_000 ]
  | _ ->
      run ~duration_ns:400_000_000 ~rate:30_000.0 ~conn_sweep:[ 384; 512 ]
        ~periods:[ 100_000_000; 20_000_000; 5_000_000 ]
