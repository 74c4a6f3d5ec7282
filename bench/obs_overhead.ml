(* Observability overhead gate.

   The tracer's contract is that a disabled tracer costs one branch per
   instrumentation site.  Running the flush-scale commit workload with
   and without the code compiled in isn't possible at runtime, so the
   gate proves the claim in two measurable parts:

   1. Disabled per-call cost: tight-loop the public entry points with
      the tracer and registry off and measure the per-call nanoseconds.
   2. Instrumentation density: run the flush-scale incremental-commit
      sweep once with tracing on and count every event the run emits
      (buffered + dropped).  The disabled-state overhead of the same run
      is bounded by (calls x disabled per-call cost), which must stay
      under 1% of the sweep's disabled wall-clock.

   A direct A/B of the sweep with tracing on vs off also runs, with a
   generous bound (enabled tracing buffers events and must stay within
   3x; it is usually well under 1.2x).  Both bounds are gates, so
   @bench-smoke fails if instrumentation creeps onto a hot path.

     dune exec bench/main.exe -- obs-overhead smoke *)

module Clock = Aurora_sim.Clock
module Trace = Aurora_obs.Trace
module Metrics = Aurora_obs.Metrics

let sweep sizes =
  List.fold_left
    (fun acc n ->
      let _, _, w = Flush_scale.incremental_commit n in
      acc +. w)
    0.0 sizes

let best_of k f =
  let best = ref infinity in
  for _ = 1 to k do
    let w = f () in
    if w < !best then best := w
  done;
  !best

let per_call_ns iters f =
  Gc.compact ();
  let (), w = Flush_scale.wall (fun () -> for _ = 1 to iters do f () done) in
  w *. 1e9 /. float_of_int iters

let run mode =
  let sizes, iters =
    match mode with
    | Report.Smoke -> ([ 1024; 4096 ], 2_000_000)
    | Full -> ([ 1024; 4096; 16384 ], 5_000_000)
    | _ -> raise Report.Usage
  in
  Trace.disable ();
  Metrics.set_enabled false;
  (* 1. Disabled per-call costs. *)
  let c_span =
    per_call_ns iters (fun () -> Trace.with_span ~cat:"x" ~name:"y" (fun () -> ()))
  in
  let c_guard = per_call_ns iters (fun () -> ignore (Trace.is_on ())) in
  let h = Metrics.histogram "obs_overhead.probe" in
  let c_observe = per_call_ns iters (fun () -> Metrics.observe_ns h 1) in
  let c_call = List.fold_left Float.max 0.0 [ c_span; c_guard; c_observe ] in
  Printf.printf
    "disabled per-call: with_span %.2f ns, is_on %.2f ns, Metrics.observe_ns %.2f ns\n"
    c_span c_guard c_observe;
  (* 2. The sweep, off and on. *)
  let w_off = best_of 3 (fun () -> sweep sizes) in
  let count_clock = Clock.create () in
  Trace.enable ~capacity:(1 lsl 20) ~clock:count_clock ();
  Metrics.reset ();
  Metrics.set_enabled true;
  let w_on = best_of 3 (fun () -> sweep sizes) in
  let calls = (List.length (Trace.events ()) + Trace.dropped ()) / 3 in
  Trace.disable ();
  Metrics.set_enabled false;
  (* Each trace event comes from one instrumentation site; bound the
     site's disabled footprint by 8 guarded calls (span + metrics pairs
     around it). *)
  let est_ns = float_of_int (8 * calls) *. c_call in
  let est_pct = est_ns /. (w_off *. 1e9) *. 100.0 in
  Printf.printf
    "sweep (%s pages): off %.1f ms, on %.1f ms (%.2fx), %d trace calls per sweep\n"
    (String.concat "+" (List.map string_of_int sizes))
    (w_off *. 1e3) (w_on *. 1e3) (w_on /. w_off) calls;
  Printf.printf
    "disabled-overhead bound: %d sites x 8 x %.2f ns = %.3f ms = %.3f%% of sweep\n"
    calls c_call (est_ns /. 1e6) est_pct;
  (* Noise guard: tiny smoke sweeps jitter; require 3x or 100 ms slack. *)
  let bound = (3.0 *. w_off) +. 0.1 in
  Report.gates "obs-overhead"
    [
      ("disabled tracer % of sweep", Num (3, est_pct), "<= 1", est_pct <= 1.0);
      ( "enabled sweep ms",
        Num (1, w_on *. 1e3),
        Printf.sprintf "<= 3x off + 100 = %.1f" (bound *. 1e3),
        w_on <= bound );
    ]
