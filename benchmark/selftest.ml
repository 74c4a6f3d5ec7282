(* The benchmark's own test, run by `dune runtest` at tiny sizes:

   - determinism: two runs of a workload with the same seed give identical
     virtual-clock metrics, and another seed gives a different schedule;
   - knob sensitivity: each workload's defining input moves the layer
     metric it is meant to move;
   - the benchmark's HTTP client agrees with [Http_sim.run] on the same
     schedule. *)

module Http_sim = Aurora_apps.Http_sim
module Histogram = Aurora_util.Histogram

let failures = ref 0

let expect cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then incr failures;
      Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") msg)
    fmt

let tiny_http ~speculative =
  { (Http_wl.config ~speculative ~scale:0.035) with conns = 48 }

let tiny_mem = { (Mem_wl.config ~scale:0.) with arena_pages = 192; epochs = 24; warmup = 2 }

let tiny_restore =
  {
    (Restore_wl.config ~scale:0.) with
    image = { tiny_mem with keep = 4; prune_every = 4 };
    churn_epochs = 12;
    rounds = 1;
  }

let tiny_replica =
  { (Replica_wl.config ~scale:0.) with arena_pages = 128; epochs = 24; warmup = 2 }

(* One repetition, crash and verification included. *)
let rep run ~seed =
  let r = Common.create ~tracing:false in
  run r ~seed;
  r

let tiny =
  [
    ("http_stw", fun r ~seed -> Http_wl.run_rep r (tiny_http ~speculative:false) ~seed ~last:true);
    ("http_spec", fun r ~seed -> Http_wl.run_rep r (tiny_http ~speculative:true) ~seed ~last:true);
    ("mem_churn", fun r ~seed -> Mem_wl.run_rep r tiny_mem ~seed ~last:true);
    ("restore_read", fun r ~seed -> Restore_wl.run_rep r tiny_restore ~seed ~last:true);
    ("replica_failover", fun r ~seed -> Replica_wl.run_rep r tiny_replica ~seed ~last:true);
  ]

let virtual_metrics name r =
  let w = List.find (fun (w : Suite.workload) -> w.name = name) Suite.workloads in
  List.filter_map
    (fun (m : Metric.t) ->
      if m.clock = Metric.Virtual then Some (m.name, m.value, m.n) else None)
    (Suite.end_to_end w r ~heap_mb:0.)

let determinism () =
  List.iter
    (fun (name, run) ->
      let a = rep run ~seed:11 and b = rep run ~seed:11 and c = rep run ~seed:12 in
      expect (a.errors = [] && a.failed = 0) "%s: output checks pass (%d operations)" name
        a.attempted;
      List.iter (fun e -> print_endline ("     " ^ e)) a.errors;
      let va = virtual_metrics name a in
      expect (va = virtual_metrics name b) "%s: same seed, identical virtual metrics" name;
      expect (va <> virtual_metrics name c) "%s: another seed, another schedule" name)
    tiny

(* A workload's defining input must move the layer metric named for it;
   a knob that moves nothing is a benchmark bug. *)
let knobs () =
  let moves ~workload ~knob ~metric run lo hi =
    let a = Common.mean (rep (run lo) ~seed:5) metric
    and b = Common.mean (rep (run hi) ~seed:5) metric in
    expect (b > a) "%s: %s moves %s (%g -> %g)" workload knob metric a b
  in
  moves ~workload:"mem_churn" ~knob:"mutation 5%->10%" ~metric:"store.bytes_per_epoch"
    (fun mutation r ~seed -> Mem_wl.run_rep r { tiny_mem with mutation } ~seed ~last:false)
    0.05 0.10;
  moves ~workload:"http_stw" ~knob:"conns 384->512" ~metric:"group.serialize_us"
    (fun conns r ~seed ->
      Http_wl.run_rep r
        { (Http_wl.config ~speculative:false ~scale:0.02) with conns }
        ~seed ~last:false)
    384 512;
  moves ~workload:"replica_failover" ~knob:"loss 0->5%" ~metric:"replica.retransmits"
    (fun loss r ~seed -> Replica_wl.run_rep r { tiny_replica with loss } ~seed ~last:false)
    0.0 0.05;
  moves ~workload:"restore_read" ~knob:"hot set 10%->20%" ~metric:"restore.pagein_us"
    (fun hot r ~seed -> Restore_wl.run_rep r { tiny_restore with hot } ~seed ~last:false)
    0.10 0.20

(* The client holds segments that land inside a stop window until it
   ends; [Http_sim.run] stalls its worker pool for the window instead.
   On the same schedule the two must agree. *)
let cross_check () =
  let duration_ns = 150_000_000 and seed = 7 in
  List.iter
    (fun speculative ->
      let cfg =
        {
          Http_sim.default_config with
          seed;
          duration_ns;
          period_ns = Some 5_000_000;
          speculative;
        }
      in
      let o = Http_sim.run cfg in
      let r = Common.create ~tracing:false in
      Http_wl.run_rep r
        {
          (Http_wl.config ~speculative ~scale:1.) with
          conns = cfg.conns;
          rate = cfg.rate;
          duration_ns;
          keep_alive_max = 200;
          prune_every = max_int;
        }
        ~seed ~last:false;
      let req = Common.hist r "req_us" and stop = Common.hist r "stop_us" in
      let close name ours theirs =
        let dev = Float.abs ((ours /. theirs) -. 1.) in
        expect (dev <= 0.02) "cross-check %s %s: client %.2f us, Http_sim.run %.2f us (%.2f%%)"
          (if speculative then "spec" else "stw")
          name ours theirs (100. *. dev)
      in
      close "p50" (Histogram.percentile req 50.) (o.p50_ns /. 1e3);
      close "p99" (Histogram.percentile req 99.) (o.p99_ns /. 1e3);
      close "p999" (Histogram.percentile req 99.9) (o.p999_ns /. 1e3);
      close "avg stop" (Histogram.mean stop) (o.avg_stop_ns /. 1e3))
    [ false; true ]

let run () =
  determinism ();
  knobs ();
  cross_check ();
  Printf.printf "selftest: %s\n" (if !failures = 0 then "ok" else "FAILED");
  !failures = 0
