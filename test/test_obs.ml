(* Observability: tracer mechanics, metrics registry, golden-trace
   determinism, and trace-vs-stats consistency properties. *)

module Clock = Aurora_sim.Clock
module Striped = Aurora_block.Striped
module Store = Aurora_objstore.Store
module Workload = Aurora_faultsim.Workload
module Rng = Aurora_util.Rng
module Histogram = Aurora_util.Histogram
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Group = Aurora_core.Group
module Sls = Aurora_core.Sls
module Trace = Aurora_obs.Trace
module Metrics = Aurora_obs.Metrics

(* The tracer and the registry are process-wide singletons shared by the
   whole alcotest run; every test leaves both disabled. *)
let quiesce_obs () =
  Trace.disable ();
  Metrics.set_enabled false

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m = 0 || go 0

let arg_int e key =
  match List.assoc_opt key e.Trace.ev_args with
  | Some (Trace.Int v) -> v
  | _ -> Alcotest.failf "event %s missing int arg %S" e.Trace.ev_name key

(* Histogram percentile interpolation ------------------------------------- *)

let test_interp_empty () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Histogram.percentile_interp h 50.0);
  Alcotest.(check (float 0.0)) "empty p0" 0.0 (Histogram.percentile_interp h 0.0)

let test_interp_single () =
  let h = Histogram.create () in
  Histogram.add h 42.0;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "single-sample p%g" p)
        42.0
        (Histogram.percentile_interp h p))
    [ 0.0; 50.0; 99.0; 100.0 ]

let test_interp_two () =
  let h = Histogram.create () in
  Histogram.add h 20.0;
  Histogram.add h 10.0;
  Alcotest.(check (float 1e-9)) "p0 is min" 10.0 (Histogram.percentile_interp h 0.0);
  Alcotest.(check (float 1e-9)) "p25 blends" 12.5 (Histogram.percentile_interp h 25.0);
  Alcotest.(check (float 1e-9)) "p50 is midpoint" 15.0 (Histogram.percentile_interp h 50.0);
  Alcotest.(check (float 1e-9)) "p100 is max" 20.0 (Histogram.percentile_interp h 100.0);
  (* Out-of-range percentiles clamp instead of indexing out of bounds. *)
  Alcotest.(check (float 1e-9)) "p<0 clamps" 10.0 (Histogram.percentile_interp h (-5.0));
  Alcotest.(check (float 1e-9)) "p>100 clamps" 20.0 (Histogram.percentile_interp h 200.0)

let test_interp_hundred () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "interp p50" 50.5 (Histogram.percentile_interp h 50.0);
  Alcotest.(check (float 1e-6)) "interp p99" 99.01 (Histogram.percentile_interp h 99.0);
  Alcotest.(check (float 1e-9)) "interp p100" 100.0 (Histogram.percentile_interp h 100.0);
  (* The historical nearest-rank accessor keeps its pinned semantics. *)
  Alcotest.(check (float 1e-9)) "nearest-rank p50 unchanged" 50.0 (Histogram.percentile h 50.0)

(* Tracer mechanics -------------------------------------------------------- *)

let test_disabled_noop () =
  quiesce_obs ();
  Alcotest.(check bool) "is_on" false (Trace.is_on ());
  Alcotest.(check int) "with_span passes value through" 7
    (Trace.with_span ~cat:"t" ~name:"x" (fun () -> 7));
  Trace.instant ~cat:"t" "nothing";
  Trace.complete ~ts:1 ~dur:2 ~cat:"t" "nothing";
  Trace.counter ~cat:"t" ~name:"n" 3;
  Alcotest.(check int) "no events buffered" 0 (List.length (Trace.events ()));
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ())

let test_span_nesting () =
  let clock = Clock.create () in
  Trace.enable ~capacity:64 ~clock ();
  Trace.with_span ~cat:"t" ~name:"outer" (fun () ->
      Clock.advance clock 10;
      Trace.with_span ~cat:"t" ~name:"inner" (fun () -> Clock.advance clock 5);
      Trace.instant ~cat:"t" "mark");
  let evs = Trace.events () in
  let shape =
    List.map (fun e -> (e.Trace.ev_ph, e.Trace.ev_name, e.Trace.ev_ts)) evs
  in
  Alcotest.(check int) "five events" 5 (List.length evs);
  (match shape with
  | [
   (Trace.Begin, "outer", 0);
   (Trace.Begin, "inner", 10);
   (Trace.End, "inner", 15);
   (Trace.Instant, "mark", 15);
   (Trace.End, "outer", 15);
  ] ->
      ()
  | _ -> Alcotest.fail "unexpected span shape");
  let text = Trace.export_text () in
  let json = Trace.export_json () in
  quiesce_obs ();
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "text export mentions %S" needle)
        true
        (contains text needle))
    [ "> t:outer"; "> t:inner"; "< t:inner"; "! t:mark" ];
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json export mentions %S" needle)
        true
        (contains json needle))
    [ "\"traceEvents\""; "\"ph\":\"B\""; "\"ph\":\"E\""; "\"name\":\"outer\"" ]

let test_spans_same_name () =
  let clock = Clock.create () in
  Trace.enable ~capacity:64 ~clock ();
  Trace.with_span ~cat:"t" ~name:"a" (fun () ->
      Clock.advance clock 1;
      Trace.with_span ~cat:"t" ~name:"b" (fun () ->
          Trace.with_span ~cat:"t" ~name:"a" (fun () -> Clock.advance clock 2));
      Clock.advance clock 3);
  Trace.with_span ~cat:"t" ~name:"a" (fun () -> Clock.advance clock 4);
  let evs = Trace.events () in
  quiesce_obs ();
  Alcotest.(check (list (pair int int)))
    "innermost first, then in closing order"
    [ (1, 2); (0, 6); (6, 4) ]
    (Trace.spans "a" evs);
  Alcotest.(check (list (pair int int))) "b" [ (1, 2) ] (Trace.spans "b" evs);
  Alcotest.(check (list (pair int int))) "absent" [] (Trace.spans "c" evs)

let test_span_exception_safe () =
  let clock = Clock.create () in
  Trace.enable ~capacity:16 ~clock ();
  (try
     Trace.with_span ~cat:"t" ~name:"boom" (fun () ->
         Clock.advance clock 3;
         failwith "expected")
   with Failure _ -> ());
  let evs = Trace.events () in
  quiesce_obs ();
  match List.map (fun e -> (e.Trace.ev_ph, e.Trace.ev_name)) evs with
  | [ (Trace.Begin, "boom"); (Trace.End, "boom") ] -> ()
  | _ -> Alcotest.fail "span not closed on exception"

let test_ring_overflow () =
  let clock = Clock.create () in
  Trace.enable ~capacity:4 ~clock ();
  for i = 0 to 5 do
    Clock.advance clock 1;
    Trace.instant ~cat:"t" (Printf.sprintf "i%d" i)
  done;
  let evs = Trace.events () in
  Alcotest.(check int) "buffer holds capacity" 4 (List.length evs);
  Alcotest.(check int) "overflow counted" 2 (Trace.dropped ());
  Alcotest.(check (list string)) "oldest dropped first"
    [ "i2"; "i3"; "i4"; "i5" ]
    (List.map (fun e -> e.Trace.ev_name) evs);
  Trace.reset ();
  Alcotest.(check int) "reset empties buffer" 0 (List.length (Trace.events ()));
  Alcotest.(check int) "reset clears dropped" 0 (Trace.dropped ());
  quiesce_obs ()

let test_complete_and_counter () =
  let clock = Clock.create () in
  Trace.enable ~capacity:16 ~clock ();
  Trace.complete ~ts:5 ~dur:7 ~cat:"t" "window" ~args:[ ("k", Trace.Int 9) ];
  Trace.counter ~cat:"t" ~name:"depth" 3;
  let evs = Trace.events () in
  quiesce_obs ();
  match evs with
  | [ c; k ] ->
      Alcotest.(check int) "explicit ts" 5 c.Trace.ev_ts;
      Alcotest.(check int) "explicit dur" 7 c.Trace.ev_dur;
      Alcotest.(check bool) "complete phase" true (c.Trace.ev_ph = Trace.Complete);
      Alcotest.(check int) "complete arg" 9 (arg_int c "k");
      Alcotest.(check bool) "counter phase" true (k.Trace.ev_ph = Trace.Counter);
      Alcotest.(check int) "counter value arg" 3 (arg_int k "value")
  | _ -> Alcotest.fail "expected exactly two events"

(* Metrics registry --------------------------------------------------------- *)

let test_metrics_registry () =
  quiesce_obs ();
  Metrics.reset ();
  let h = Metrics.histogram "tm.hist" in
  Metrics.observe_ns h 5;
  Alcotest.(check int) "disabled observe is a no-op" 0
    (Histogram.count (Metrics.samples h));
  Metrics.set_enabled true;
  List.iter (Metrics.observe_ns h) [ 10; 20; 30; 40 ];
  let s = Metrics.samples h in
  Alcotest.(check int) "histogram count" 4 (Histogram.count s);
  Alcotest.(check (float 1e-9)) "histogram p50 interpolates" 25.0
    (Histogram.percentile_interp s 50.0);
  Alcotest.(check (float 1e-9)) "histogram max" 40.0 (Histogram.max s);
  Alcotest.(check int) "registration is idempotent" 4
    (Histogram.count (Metrics.samples (Metrics.histogram "tm.hist")));
  Metrics.reset ();
  Alcotest.(check int) "reset empties histograms" 0
    (Histogram.count (Metrics.samples h));
  Alcotest.(check bool) "reset keeps the registry enabled" true
    (Metrics.is_enabled ());
  quiesce_obs ()

(* Golden-trace determinism ------------------------------------------------- *)

(* Run [ops] on a fresh deterministic store under the tracer; return both
   exports. *)
let trace_of_ops ops =
  let clock = Clock.create () in
  let dev = Striped.create () in
  let store = Store.format ~dev ~clock in
  Trace.enable ~capacity:(1 lsl 18) ~clock ();
  let r = Workload.runner store in
  List.iter (Workload.run_op r) ops;
  Store.wait_durable store;
  Alcotest.(check int) "trace fits the ring buffer" 0 (Trace.dropped ());
  let text = Trace.export_text () in
  let json = Trace.export_json () in
  quiesce_obs ();
  (text, json)

let test_golden_standard_deterministic () =
  let t1, j1 = trace_of_ops Workload.standard in
  let t2, j2 = trace_of_ops Workload.standard in
  Alcotest.(check bool) "trace is non-trivial" true (String.length t1 > 1000);
  Alcotest.(check string) "text export byte-identical" t1 t2;
  Alcotest.(check string) "json export byte-identical" j1 j2;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "pipeline phase %S traced" needle)
        true
        (contains t1 needle))
    [ "store:begin_checkpoint"; "store:commit.data"; "store:commit.records";
      "store:commit.superblock"; "store:flush_window"; "store:prune";
      "blk:write_vec"; "dev:extent" ]

let test_golden_seeded_deterministic () =
  let ops seed = Workload.gen_ops (Rng.create seed) ~n:40 ~max_oid:6 ~max_pages:12 in
  let t1, j1 = trace_of_ops (ops 42) in
  let t2, j2 = trace_of_ops (ops 42) in
  Alcotest.(check string) "same seed, same text" t1 t2;
  Alcotest.(check string) "same seed, same json" j1 j2;
  (* Negative control: a different seed must produce a different trace. *)
  let t3, _ = trace_of_ops (ops 43) in
  Alcotest.(check bool) "seed change changes the trace" true (t1 <> t3)

(* Trace vs store counters -------------------------------------------------- *)

(* On a random workload, two independent accounting paths must agree:
   the store's per-epoch [flush_stats] and the per-epoch
   [store:flush_window] trace events. *)
let prop_store_consistency seed =
  let ops = Workload.gen_ops (Rng.create seed) ~n:30 ~max_oid:6 ~max_pages:10 in
  let clock = Clock.create () in
  let dev = Striped.create () in
  let store = Store.format ~dev ~clock in
  Trace.enable ~capacity:(1 lsl 18) ~clock ();
  let r = Workload.runner store in
  let commits = ref 0 and sum_pages = ref 0 and sum_writes = ref 0 in
  List.iter
    (fun op ->
      Workload.run_op r op;
      match op with
      | Workload.Checkpoint _ ->
          incr commits;
          let s = Store.flush_stats store in
          sum_pages := !sum_pages + s.Store.fs_pages;
          sum_writes := !sum_writes + s.Store.fs_dev_writes
      | _ -> ())
    ops;
  Store.wait_durable store;
  let events = Trace.events () in
  let dropped = Trace.dropped () in
  quiesce_obs ();
  if dropped <> 0 then QCheck.Test.fail_report "trace ring overflowed";
  let windows =
    List.filter
      (fun e -> e.Trace.ev_ph = Trace.Complete && e.Trace.ev_name = "flush_window")
      events
  in
  if List.length windows <> !commits then
    QCheck.Test.fail_reportf "%d flush_window events <> %d commits"
      (List.length windows) !commits;
  let ev_pages = List.fold_left (fun a e -> a + arg_int e "pages") 0 windows in
  let ev_writes =
    List.fold_left (fun a e -> a + arg_int e "dev_writes") 0 windows
  in
  if ev_pages <> !sum_pages then
    QCheck.Test.fail_reportf "trace pages %d <> flush_stats pages %d" ev_pages
      !sum_pages;
  if ev_writes <> !sum_writes then
    QCheck.Test.fail_reportf "trace dev_writes %d <> flush_stats dev_writes %d"
      ev_writes !sum_writes;
  true

(* The group checkpoint path: per-epoch ckpt_stats vs the ckpt.obj event
   stream, over a seeded random workload. *)
let test_group_consistency () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let clk = m.Machine.clock in
  let p = Syscall.spawn m ~name:"obs" in
  let _rd, wr = Syscall.pipe m p in
  let mem = Syscall.mmap_anon p ~npages:32 in
  let addr = Vm_space.addr_of_entry mem in
  let group = Sls.attach sys [ p ] in
  Trace.enable ~capacity:(1 lsl 16) ~clock:clk ();
  let rng = Rng.create 7 in
  for i = 1 to 8 do
    if Rng.bool rng then
      ignore (Syscall.write m p ~fd:wr (String.make (Rng.int_in rng 1 64) 'x'));
    Vm_space.touch_write p.Process.space
      ~addr:(addr + (Rng.int rng 24 * 4096))
      ~len:(Rng.int_in rng 1 8 * 4096);
    (* Window the event stream to this epoch. *)
    Trace.reset ();
    let stats = Group.checkpoint ~wait_durable:true group in
    let events = Trace.events () in
    let with_name n =
      List.filter
        (fun e -> e.Trace.ev_cat = "ckpt.obj" && e.Trace.ev_name = n)
        events
    in
    let serialized = with_name "serialize" in
    Alcotest.(check int)
      (Printf.sprintf "epoch %d: serialize events match stats" i)
      stats.Group.objects_serialized
      (List.length serialized);
    Alcotest.(check int)
      (Printf.sprintf "epoch %d: skip events match stats" i)
      stats.Group.objects_skipped
      (List.length (with_name "skip"));
    Alcotest.(check int)
      (Printf.sprintf "epoch %d: traced bytes match meta_bytes_written" i)
      stats.Group.meta_bytes_written
      (List.fold_left (fun a e -> a + arg_int e "bytes") 0 serialized)
  done;
  quiesce_obs ()

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"store metrics/trace/stats agree on random workloads"
         ~count:25
         QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
         prop_store_consistency);
  ]

let () =
  quiesce_obs ();
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "interp empty" `Quick test_interp_empty;
          Alcotest.test_case "interp single sample" `Quick test_interp_single;
          Alcotest.test_case "interp two samples" `Quick test_interp_two;
          Alcotest.test_case "interp 1..100" `Quick test_interp_hundred;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "spans nest" `Quick test_span_nesting;
          Alcotest.test_case "spans close on exception" `Quick test_span_exception_safe;
          Alcotest.test_case "spans walks same-named nesting" `Quick test_spans_same_name;
          Alcotest.test_case "ring overflow drops oldest" `Quick test_ring_overflow;
          Alcotest.test_case "complete and counter events" `Quick test_complete_and_counter;
        ] );
      ("metrics", [ Alcotest.test_case "registry" `Quick test_metrics_registry ]);
      ( "determinism",
        [
          Alcotest.test_case "standard workload is byte-identical" `Quick
            test_golden_standard_deterministic;
          Alcotest.test_case "seeded workload: same seed same trace" `Quick
            test_golden_seeded_deterministic;
        ] );
      ( "consistency",
        Alcotest.test_case "group ckpt_stats vs trace vs metrics" `Quick
          test_group_consistency
        :: qcheck_tests );
    ]
