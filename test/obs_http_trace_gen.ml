(* Golden-trace generator for the HTTP serving tier under a speculative
   checkpoint.

   Boots the event-loop HTTP server (lib/apps/http_sim), establishes
   connections and serves foreground requests under the tracer, then
   takes one speculative checkpoint whose run hook keeps serving dynamic
   requests on a spare core — so http request spans
   (accept/parse/route/respond) genuinely coexist with the checkpoint's
   phase spans in one timeline.

   The generator itself enforces the structural claims the fixture
   freezes, exiting nonzero on violation:

   - the stop-phase children partition the stop window exactly:
     stop_ns from ckpt_stats = quiesce + validate + shadow + resume, and
     those plus collapse, speculate and flush sum to the epoch span;
     collapse_ns from ckpt_stats equals the collapse span, which precedes
     the speculation window;
   - the hook served a nonzero number of requests, and their parse and
     route spans are timestamped inside the ckpt:speculate span.

   `dune build @obs` diffs the output against obs_http_golden.expected;
   refresh after an intentional change with
   `dune build @obs-golden-promote --auto-promote`. *)

module Clock = Aurora_sim.Clock
module Resource = Aurora_sim.Resource
module Machine = Aurora_kern.Machine
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Trace = Aurora_obs.Trace
module Http_load = Aurora_workloads.Http_load
module Http_sim = Aurora_apps.Http_sim

let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("obs_http_trace_gen: " ^ s); exit 1) fmt

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  m = 0 || go 0

let () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let clk = m.Machine.clock in
  let srv = Http_sim.create ~machine:m ~workers:2 () in
  let group = Sls.attach sys [ Http_sim.proc srv ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  Group.set_speculative group true;
  (* Dirty a loaded server's worth of state before enabling the tracer —
     a connection table and the whole dynamic arena — so speculative
     serialization is long enough to open soft-quiesce yield windows (one
     per 50 us of serialize work) without flooding the fixture. *)
  let extras = Array.init 16 (fun _ -> Http_sim.connect srv) in
  Array.iter (fun c -> Http_sim.keepalive srv c) extras;
  for i = 0 to 63 do
    ignore
      (Http_sim.feed srv extras.(i mod 16) ~now:(Clock.now clk)
         (Http_sim.request (Http_load.Dynamic i)))
  done;
  Trace.enable ~capacity:(1 lsl 16) ~clock:clk ();
  (* Foreground traffic under trace: accepts and a request per
     connection, so the fixture shows the serving path on its own before
     the epoch opens. *)
  let conns = Array.init 2 (fun _ -> Http_sim.connect srv) in
  Array.iteri
    (fun i c ->
      ignore
        (Http_sim.feed srv c ~now:(Clock.now clk)
           (Http_sim.request (Http_load.Static i))))
    conns;
  Array.iter (fun c -> Http_sim.keepalive srv c) conns;
  (* The soft-quiesce run hook keeps serving on a spare core. *)
  let spare = Resource.create ~name:"httpd-spare-core" in
  let hook_conn = Http_sim.connect srv in
  let hook_reqs = ref 0 in
  let hook_resps = ref 0 in
  Machine.set_run_hook m
    (Some
       (fun window_ns ->
         let n = max 1 (window_ns / 200_000) in
         for _ = 1 to n do
           let route = Http_load.Dynamic (!hook_reqs mod 8) in
           incr hook_reqs;
           let rs =
             Http_sim.feed srv hook_conn ~now:(Clock.now clk) ~on:spare
               (Http_sim.request route)
           in
           hook_resps := !hook_resps + List.length rs
         done));
  let stats = Group.checkpoint ~wait_durable:true group in
  Machine.set_run_hook m None;
  if Trace.dropped () > 0 then fail "ring buffer overflowed; raise capacity";
  if !hook_resps = 0 then fail "no requests served during speculation windows";
  (* Slice to the final (speculative) epoch. *)
  let events = Trace.events () in
  let last_epoch_start = ref 0 in
  List.iteri
    (fun i (e : Trace.event) ->
      if e.Trace.ev_ph = Trace.Begin && e.Trace.ev_name = "epoch" then
        last_epoch_start := i)
    events;
  let epoch_events = List.filteri (fun i _ -> i >= !last_epoch_start) events in
  let one name =
    match Trace.spans name epoch_events with
    | [ (t, d) ] -> (t, d)
    | l ->
        fail "expected exactly one %s span in the final epoch, got %d" name
          (List.length l)
  in
  let _, epoch_d = one "epoch" in
  let spec_t, spec_d = one "speculate" in
  let _, quiesce_d = one "quiesce" in
  let collapse_t, collapse_d = one "collapse" in
  let _, validate_d = one "validate" in
  let _, shadow_d = one "shadow" in
  let _, resume_d = one "resume" in
  let _, flush_d = one "flush" in
  let stop_sum = quiesce_d + validate_d + shadow_d + resume_d in
  if stats.Group.stop_ns <> stop_sum then
    fail "stop phases do not partition the stop window: stop_ns %d <> %d"
      stats.Group.stop_ns stop_sum;
  if stats.Group.collapse_ns <> collapse_d then
    fail "collapse_ns %d <> collapse span %d" stats.Group.collapse_ns collapse_d;
  if collapse_t + collapse_d > spec_t then
    fail "collapse span [%d, %d] does not precede speculate at %d" collapse_t
      (collapse_t + collapse_d) spec_t;
  if epoch_d <> collapse_d + spec_d + stop_sum + flush_d then
    fail "epoch span %d <> collapse %d + speculate %d + stop %d + flush %d"
      epoch_d collapse_d spec_d stop_sum flush_d;
  (* Every hook request's parse and route span started inside
     ckpt:speculate: the server really was serving while the checkpoint
     serialized. *)
  let http_in_spec = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      if
        e.Trace.ev_ph = Trace.Complete
        && (e.Trace.ev_name = "parse" || e.Trace.ev_name = "route")
        && e.Trace.ev_ts >= spec_t
      then begin
        if e.Trace.ev_ts > spec_t + spec_d then
          fail "%s span at %d outside speculate [%d, %d]" e.Trace.ev_name
            e.Trace.ev_ts spec_t (spec_t + spec_d);
        incr http_in_spec
      end)
    events;
  if !http_in_spec < 2 * !hook_resps then
    fail "only %d http spans inside speculate for %d hook responses"
      !http_in_spec !hook_resps;
  Printf.printf
    "http tier under speculative checkpoint: %d requests served inside \
     ckpt:speculate\n"
    !hook_resps;
  Printf.printf
    "stop partition: quiesce+validate+shadow+resume = stop_ns = %d ns\n"
    stop_sum;
  Printf.printf "epoch = collapse + speculate + stop + flush = %d ns\n\n" epoch_d;
  (* The frozen artifact: the full timeline — foreground accepts and
     request spans, then the speculative epoch with hook-served requests
     interleaved into its phases. *)
  let text = Trace.export_text () in
  let lines = String.split_on_char '\n' text in
  let start = ref (-1) in
  List.iteri (fun i l -> if !start < 0 && contains l "http:accept" then start := i) lines;
  if !start < 0 then fail "no http:accept span in trace";
  print_string (String.concat "\n" (List.filteri (fun i _ -> i >= !start) lines))
