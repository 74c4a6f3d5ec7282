(* Golden-trace generator for speculative soft-quiesce epochs.

   Runs one stop-the-world epoch and then two speculative epochs of a
   deterministic kernel workload under the tracer, with a run hook that
   makes application progress (and emits "app:progress" instants)
   whenever a soft-quiesce yield window opens.  The generator itself
   enforces the two structural claims the golden fixture freezes:

   - the ckpt:speculate span overlaps workload execution: the hook ran a
     nonzero number of ops, and every one of its instants has a
     timestamp inside the speculate span;
   - the stop-phase children still partition the stop window exactly:
     stop_ns from ckpt_stats equals quiesce + validate + shadow + resume
     from the trace, and those plus collapse, speculate and flush sum to
     the epoch span; collapse_ns from ckpt_stats equals the collapse
     span, which precedes the speculation window.

   `dune build @obs` diffs the output against obs_spec_golden.expected;
   refresh after an intentional change with
   `dune build @obs-golden-promote --auto-promote`. *)

module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Trace = Aurora_obs.Trace

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("obs_spec_trace_gen: " ^ s); exit 1) fmt

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  m = 0 || go 0

let () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"spec" in
  let pipes = Array.init 8 (fun _ -> Syscall.pipe m p) in
  let socks = Array.init 32 (fun _ -> Syscall.socketpair m p) in
  let mem = Syscall.mmap_anon p ~npages:16 in
  let addr = Vm_space.addr_of_entry mem in
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let dirty_all () =
    Array.iter (fun (_, wr) -> ignore (Syscall.write m p ~fd:wr "d")) pipes;
    Array.iter (fun (a, _) -> ignore (Syscall.write m p ~fd:a "d")) socks;
    Vm_space.touch_write p.Process.space ~addr ~len:(4 * Page.logical_size)
  in
  let clk = m.Machine.clock in
  Trace.enable ~capacity:(1 lsl 16) ~clock:clk ();
  (* One stop-the-world epoch for contrast, then speculative ones. *)
  dirty_all ();
  ignore (Group.checkpoint ~wait_durable:true group);
  Group.set_speculative group true;
  let hook_ops = ref 0 in
  Machine.set_run_hook m
    (Some
       (fun _ns ->
         incr hook_ops;
         Trace.instant ~cat:"app" "progress";
         ignore
           (Syscall.write m p ~fd:(snd pipes.(!hook_ops mod 8)) "mid");
         Vm_space.touch_write p.Process.space
           ~addr:(addr + (!hook_ops mod 16 * Page.logical_size))
           ~len:Page.logical_size));
  dirty_all ();
  ignore (Group.checkpoint ~wait_durable:true group);
  dirty_all ();
  let stats = Group.checkpoint ~wait_durable:true group in
  Machine.set_run_hook m None;
  if Trace.dropped () > 0 then fail "ring buffer overflowed; raise capacity";
  if !hook_ops = 0 then fail "no app progress during speculation windows";
  (* Slice to the final epoch, as span names differ per cycle shape. *)
  let events = Trace.events () in
  let last_epoch_start = ref 0 in
  List.iteri
    (fun i (e : Trace.event) ->
      if e.Trace.ev_ph = Trace.Begin && e.Trace.ev_name = "epoch" then
        last_epoch_start := i)
    events;
  let events = List.filteri (fun i _ -> i >= !last_epoch_start) events in
  let one name =
    match Trace.spans name events with
    | [ (t, d) ] -> (t, d)
    | l -> fail "expected exactly one %s span in the final epoch, got %d" name (List.length l)
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
  (* Every app-progress instant of the final epoch lies inside the
     speculate span: the workload ran while the checkpoint serialized. *)
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.ev_ph = Trace.Instant && e.Trace.ev_name = "progress" then
        if e.Trace.ev_ts < spec_t || e.Trace.ev_ts > spec_t + spec_d then
          fail "app progress instant at %d outside speculate [%d, %d]"
            e.Trace.ev_ts spec_t (spec_t + spec_d))
    events;
  Printf.printf "speculate overlaps execution: %d app ops inside ckpt:speculate\n"
    !hook_ops;
  Printf.printf
    "stop partition: quiesce+validate+shadow+resume = stop_ns = %d ns\n"
    stop_sum;
  Printf.printf "epoch = collapse + speculate + stop + flush = %d ns\n\n" epoch_d;
  (* The frozen artifact: the final speculative epoch's text timeline. *)
  let text = Trace.export_text () in
  let lines = String.split_on_char '\n' text in
  let start = ref (-1) in
  List.iteri (fun i l -> if contains l "> ckpt:epoch" then start := i) lines;
  if !start < 0 then fail "no ckpt:epoch span in trace";
  print_string
    (String.concat "\n" (List.filteri (fun i _ -> i >= !start) lines))
