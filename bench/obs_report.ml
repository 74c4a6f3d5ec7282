(* Checkpoint-pipeline observability report: run the standard 100 Hz
   workload with tracing and the device histograms on, print per-phase
   latency percentiles (virtual time) from the [ckpt_stats] each epoch
   returns, the store's flush-window events and the device histograms,
   check the span accounting identity (an epoch's children sum to the
   epoch), and print the final epoch's text timeline; a full run also
   dumps the run's Chrome trace to OBS_trace.json.

     dune exec bench/main.exe -- obs-report          # 40 epochs
     dune exec bench/main.exe -- obs-report smoke    # 6 epochs (gated) *)

module Clock = Aurora_sim.Clock
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Group = Aurora_core.Group
module Sls = Aurora_core.Sls
module Trace = Aurora_obs.Trace
module Metrics = Aurora_obs.Metrics
module Histogram = Aurora_util.Histogram
module Text_table = Aurora_util.Text_table
module Units = Aurora_util.Units

let run_workload ~epochs =
  let sys = Sls.boot () in
  let machine = sys.Sls.machine in
  let clk = machine.Aurora_kern.Machine.clock in
  let p1 = Syscall.spawn machine ~name:"app" in
  let p2 = Syscall.spawn machine ~name:"worker" in
  let _rd, wr = Syscall.pipe machine p1 in
  let mem1 = Syscall.mmap_anon p1 ~npages:64 in
  let mem2 = Syscall.mmap_anon p2 ~npages:32 in
  let addr1 = Vm_space.addr_of_entry mem1 in
  let addr2 = Vm_space.addr_of_entry mem2 in
  let group = Sls.attach sys [ p1; p2 ] in
  let period = Group.period_ns group in
  Trace.enable ~capacity:(1 lsl 18) ~clock:clk ();
  Metrics.reset ();
  Metrics.set_enabled true;
  let t0 = Clock.now clk in
  let spec = ref false and runs = ref [] in
  for i = 1 to epochs do
    (* Second half of the run: speculative soft-quiesce epochs, so the
       report covers both cycle shapes. *)
    if i = (epochs / 2) + 1 then begin
      spec := true;
      Group.set_speculative group true
    end;
    (* Application activity for this interval: pipe traffic plus a
       sliding window of dirtied pages. *)
    ignore (Syscall.write machine p1 ~fd:wr (String.make 200 'x'));
    Vm_space.touch_write p1.Process.space
      ~addr:(addr1 + (i mod 16 * 4096))
      ~len:(8 * 4096);
    Vm_space.touch_write p2.Process.space
      ~addr:(addr2 + (i mod 8 * 4096))
      ~len:(4 * 4096);
    Clock.advance_to clk (t0 + (i * period));
    let stats = Group.checkpoint group in
    (* Durable lag: how far durability trails the checkpoint's return. *)
    let lag = max 0 (stats.Group.durable_at - Clock.now clk) in
    runs := (!spec, stats, lag) :: !runs
  done;
  Metrics.set_enabled false;
  List.rev !runs

let samples xs =
  let h = Histogram.create () in
  List.iter (fun x -> Histogram.add h (float_of_int x)) xs;
  h

(* One row per phase: the checkpoint phases from each epoch's
   [ckpt_stats] (speculate and validate from the speculative epochs
   only), the store's flush window from its [store:flush_window] events,
   and the device split from the registry's two histograms. *)
let phase_table runs events =
  let table = Text_table.create ~header:[ "phase"; "n"; "p50"; "p99"; "max" ] in
  let row name h =
    let ns p = Units.ns_to_string (int_of_float p) in
    Text_table.add_row table
      [
        name;
        string_of_int (Histogram.count h);
        ns (Histogram.percentile_interp h 50.0);
        ns (Histogram.percentile_interp h 99.0);
        ns (Histogram.max h);
      ]
  in
  let per f = samples (List.map (fun (_, s, _) -> f s) runs) in
  let per_spec f =
    samples (List.filter_map (fun (spec, s, _) -> if spec then Some (f s) else None) runs)
  in
  let device name = Metrics.samples (Metrics.histogram name) in
  row "collapse (pre-stop)" (per (fun s -> s.Group.collapse_ns));
  row "stop window" (per (fun s -> s.Group.stop_ns));
  row "  quiesce" (per (fun s -> s.Group.quiesce_ns));
  row "  serialize" (per (fun s -> s.Group.os_serialize_ns));
  row "  shadow" (per (fun s -> s.Group.mem_mark_ns));
  row "speculate window" (per_spec (fun s -> s.Group.speculate_ns));
  row "  validate (stop)" (per_spec (fun s -> s.Group.validate_ns));
  row "flush submit" (per (fun s -> s.Group.flush_ns));
  row "durable lag" (samples (List.map (fun (_, _, lag) -> lag) runs));
  row "dev queue wait" (device "dev.queue_wait_ns");
  row "dev service" (device "dev.service_ns");
  row "store flush window"
    (samples
       (List.filter_map
          (fun (e : Trace.event) ->
            if e.ev_ph = Trace.Complete && e.ev_cat = "store" && e.ev_name = "flush_window"
            then Some e.ev_dur
            else None)
          events));
  Text_table.print table

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  m = 0 || go 0

let last_epoch_text () =
  let text = Trace.export_text () in
  let lines = String.split_on_char '\n' text in
  let start = ref (-1) in
  List.iteri (fun i l -> if contains l "> ckpt:epoch" then start := i) lines;
  if !start < 0 then text
  else String.concat "\n" (List.filteri (fun i _ -> i >= !start) lines)

let run mode =
  let epochs =
    match mode with Report.Smoke -> 6 | Full -> 40 | _ -> raise Report.Usage
  in
  let runs = run_workload ~epochs in
  let _, stats, _ = List.nth runs (epochs - 1) in
  let all_events = Trace.events () in
  Printf.printf "obs-report: %d checkpoint epochs at 100 Hz (virtual time)\n\n"
    epochs;
  phase_table runs all_events;
  print_newline ();
  (* Accounting identity on the final epoch: the epoch span's virtual
     duration equals the sum of its phase children, and stop_ns from
     ckpt_stats matches the trace's stop-window phases. *)
  (* Restrict the identity to the final epoch's events: a span name that
     only occurs in one cycle shape (serialize vs speculate/validate)
     must not leak in from an earlier epoch of the other shape. *)
  let last_epoch_start = ref 0 in
  List.iteri
    (fun i (e : Trace.event) ->
      if e.Trace.ev_ph = Trace.Begin && e.Trace.ev_name = "epoch" then
        last_epoch_start := i)
    all_events;
  let events = List.filteri (fun i _ -> i >= !last_epoch_start) all_events in
  let last_of name =
    match List.rev (Trace.spans name events) with (_, d) :: _ -> d | [] -> 0
  in
  let epoch_dur = last_of "epoch" in
  (* "speculate" and "validate" appear only on speculative epochs;
     "serialize" only on stop-the-world ones — absent spans count 0, so
     one parts list covers both cycle shapes.  The collapse and the
     speculation window precede the stop; the flush follows it. *)
  let stop_parts = [ "quiesce"; "serialize"; "validate"; "shadow"; "resume" ] in
  let sum_of = List.fold_left (fun acc n -> acc + last_of n) 0 in
  let stop_sum = sum_of stop_parts in
  let sum = sum_of ([ "collapse"; "speculate" ] @ stop_parts @ [ "flush" ]) in
  Printf.printf
    "identity: epoch span %s = %s (collapse+speculate+quiesce+serialize+validate+shadow+resume+flush) -> %s\n"
    (Units.ns_to_string epoch_dur) (Units.ns_to_string sum)
    (if epoch_dur = sum then "OK" else "MISMATCH");
  Printf.printf
    "identity: ckpt_stats stop_ns %s vs trace stop phases %s; flush_ns %s vs flush span %s\n"
    (Units.ns_to_string stats.Group.stop_ns)
    (Units.ns_to_string stop_sum)
    (Units.ns_to_string stats.Group.flush_ns)
    (Units.ns_to_string (last_of "flush"));
  let dropped = Trace.dropped () in
  Printf.printf "\n%d events, %d dropped\n" (List.length all_events) dropped;
  (* Chrome trace for chrome://tracing / Perfetto. *)
  if mode = Full then begin
    let oc = open_out "OBS_trace.json" in
    output_string oc (Trace.export_json ());
    close_out oc;
    print_endline "wrote OBS_trace.json"
  end;
  print_endline "\nfinal epoch timeline (virtual ns):";
  print_string (last_epoch_text ());
  Trace.disable ();
  print_newline ();
  Report.gates "obs-report"
    [
      ( "phase spans sum to epoch span",
        Ns (float_of_int sum),
        Units.ns_to_string epoch_dur,
        epoch_dur = sum );
      ( "ckpt_stats stop_ns vs trace stop phases",
        Ns (float_of_int stop_sum),
        Units.ns_to_string stats.Group.stop_ns,
        stats.Group.stop_ns = stop_sum );
      ("dropped events", Count dropped, "0", dropped = 0);
    ]
