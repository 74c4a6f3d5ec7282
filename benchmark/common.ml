(* Measurement plumbing shared by the workloads: the per-run recorder
   (virtual-time samples, per-layer accumulators, host-clock timings,
   operation and output-check accounting), the traced-run machinery
   (benchmark spans carrying both clocks, trace-ring draining, the
   epoch-partition check) and the crash/recover/restore step every
   workload ends with.

   Everything here sits outside the program: it calls public functions
   and reads the statistics they return, and it never reaches into
   library internals. *)

module Clock = Aurora_sim.Clock
module Histogram = Aurora_util.Histogram
module Trace = Aurora_obs.Trace
module Metrics = Aurora_obs.Metrics
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Vm_space = Aurora_vm.Vm_space
module Striped = Aurora_block.Striped
module Store = Aurora_objstore.Store
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore

let host_now () = Unix.gettimeofday ()
let us ns = float_of_int ns /. 1e3

(* ---- the recorder ---------------------------------------------------- *)

type acc = { mutable sum : float; mutable n : int; mutable max : float }

type t = {
  tracing : bool;
  samples : (string, Histogram.t) Hashtbl.t;  (** virtual-time distributions *)
  accs : (string, acc) Hashtbl.t;  (** per-layer sums, counts and maxima *)
  mutable setups : float list;  (** host seconds of each set-up *)
  mutable setup_only : bool;  (** stop every repetition right after set-up *)
  mutable measured : float list;  (** host seconds of each measured part *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** failed output checks, newest first *)
  mutable kept : Trace.event list list;  (** last drained batches, newest first *)
}

let create ~tracing =
  {
    tracing;
    samples = Hashtbl.create 16;
    accs = Hashtbl.create 64;
    setups = [];
    setup_only = false;
    measured = [];
    attempted = 0;
    failed = 0;
    errors = [];
    kept = [];
  }

let hist t name =
  match Hashtbl.find_opt t.samples name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.replace t.samples name h;
      h

let sample t name v = Histogram.add (hist t name) v

let acc t name =
  match Hashtbl.find_opt t.accs name with
  | Some a -> a
  | None ->
      let a = { sum = 0.; n = 0; max = neg_infinity } in
      Hashtbl.replace t.accs name a;
      a

let add t name v =
  let a = acc t name in
  a.sum <- a.sum +. v;
  a.n <- a.n + 1;
  if v > a.max then a.max <- v

let total t name = (acc t name).sum

let mean t name =
  let a = acc t name in
  if a.n = 0 then 0. else a.sum /. float_of_int a.n

let maximum t name =
  let a = acc t name in
  if a.n = 0 then 0. else a.max

let count t name = (acc t name).n

let ratio t num den =
  let d = total t den in
  if d = 0. then 0. else total t num /. d

(* ---- operations and output checks ------------------------------------- *)

let attempt t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let check t cond msg = if not cond then t.errors <- msg :: t.errors

(* Formats its message only when the check fails: some checks run once
   per request, inside the measured part. *)
let checkf t cond fmt =
  if cond then Printf.ikfprintf (fun () -> ()) () fmt
  else Printf.ksprintf (fun msg -> check t false msg) fmt

(* ---- host clock -------------------------------------------------------- *)

(* Set-up is timed on its own: a later change that moves work out of the
   measured part into set-up shows up in [setup_s]. *)
exception Setup_done

let setup t f =
  Gc.full_major ();
  let h0 = host_now () in
  let v = f () in
  t.setups <- (host_now () -. h0) :: t.setups;
  if t.setup_only then raise Setup_done;
  v

let measure t f =
  let h0 = host_now () in
  let v = f () in
  t.measured <- (host_now () -. h0) :: t.measured;
  v

(* ---- traced runs --------------------------------------------------------- *)

(* A benchmark span around one public call: virtual start and duration on
   the workload's clock, host nanoseconds and minor-heap words as
   arguments.  It lands in the program's own trace ring, next to the
   spans the program records inside the call, so the exported trace
   shows both and a layer's self time is this span minus its in-program
   children.  Per-layer host accumulators are keyed by [name]. *)
let span ?(args = []) t ~clock name f =
  if not t.tracing then f ()
  else begin
    let v0 = Clock.now clock in
    let w0 = Gc.minor_words () in
    let h0 = host_now () in
    let finish () =
      let host_s = host_now () -. h0 in
      let words = Gc.minor_words () -. w0 in
      add t (name ^ ".host_ms") (host_s *. 1e3);
      add t (name ^ ".alloc_kw") (words /. 1e3);
      Trace.complete ~ts:v0
        ~dur:(Clock.now clock - v0)
        ~args:
          (args
          @ [
              ("host_ns", Trace.Int (int_of_float (host_s *. 1e9)));
              ("minor_words", Trace.Int (int_of_float words));
            ])
        ~cat:"bench" name
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let trace_capacity = 1 lsl 18
let kept_batches = 20

(* Fold one drained batch into the per-layer accumulators and check that
   the direct children of every [ckpt:epoch] span partition it exactly:
   the phase spans must account for every virtual nanosecond of the
   synchronous checkpoint. *)
let absorb t events =
  add t "obs.events" (float_of_int (List.length events));
  let stack = ref [] in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.ev_ph with
      | Trace.Begin -> stack := (ev, ref 0) :: !stack
      | Trace.End -> (
          match !stack with
          | [] -> ()
          | (b, children) :: rest ->
              stack := rest;
              let dur = ev.ev_ts - b.ev_ts in
              (match rest with (_, parent) :: _ -> parent := !parent + dur | [] -> ());
              if b.ev_cat = "ckpt" && b.ev_name = "epoch" then
                checkf t (!children = dur)
                  "trace: ckpt:epoch at %d lasts %d ns but its phases sum to %d ns"
                  b.ev_ts dur !children;
              if b.ev_cat = "restore" && b.ev_name = "verify" then
                add t "restore.verify_us" (us dur))
      | Trace.Complete -> (
          match (ev.ev_cat, ev.ev_name) with
          | "http", "parse" -> add t "http.parse_us" (us ev.ev_dur)
          | "http", "route" -> add t "http.route_us" (us ev.ev_dur)
          | _ -> ())
      | Trace.Instant | Trace.Counter -> ())
    events

(* Empty the trace ring into the accumulators.  Called at every checkpoint
   boundary, so the ring never wraps; [obs.dropped] proves it. *)
let drain t =
  if t.tracing then begin
    let events = Trace.events () in
    add t "obs.dropped" (float_of_int (Trace.dropped ()));
    Trace.reset ();
    absorb t events;
    t.kept <- List.filteri (fun i _ -> i < kept_batches) (events :: t.kept)
  end

(* Point the tracer at a (new) workload clock, keeping what was recorded
   on the previous one. *)
let trace_on t clock =
  if t.tracing then begin
    drain t;
    Trace.enable ~capacity:trace_capacity ~clock ()
  end

let trace_off t =
  if t.tracing then begin
    drain t;
    Trace.disable ()
  end

(* Chrome trace-event JSON of the last drained batches (the last epochs of
   the last repetition). *)
let trace_json t =
  let b = Buffer.create (1 lsl 16) in
  let esc s = String.concat "\\\"" (String.split_on_char '"' s) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (List.iter (fun (ev : Trace.event) ->
         if not !first then Buffer.add_string b ",\n";
         first := false;
         Printf.bprintf b "{\"ph\":\"%s\",\"ts\":%d,"
           (match ev.ev_ph with
           | Trace.Begin -> "B"
           | Trace.End -> "E"
           | Trace.Instant -> "i"
           | Trace.Complete -> "X"
           | Trace.Counter -> "C")
           ev.ev_ts;
         if ev.ev_ph = Trace.Complete then Printf.bprintf b "\"dur\":%d," ev.ev_dur;
         Printf.bprintf b "\"pid\":1,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"args\":{%s}}"
           (if ev.ev_cat = "bench" || ev.ev_cat = "req" then 2 else 1)
           (esc ev.ev_cat) (esc ev.ev_name)
           (String.concat ","
              (List.map
                 (fun (k, v) ->
                   match v with
                   | Trace.Int n -> Printf.sprintf "\"%s\":%d" (esc k) n
                   | Trace.Str s -> Printf.sprintf "\"%s\":\"%s\"" (esc k) (esc s))
                 ev.ev_args))))
    (List.rev t.kept);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ---- shared layer readings ---------------------------------------------- *)

(* One checkpoint's returned statistics, read into the group and store
   layers.  [c0] is the virtual time the call started; durability is
   timed from there, so a wait on the previous epoch's flush counts. *)
let record_ckpt t (s : Group.ckpt_stats) ~c0 ~c1 =
  add t "group.quiesce_us" (us s.quiesce_ns);
  add t "group.serialize_us" (us s.os_serialize_ns);
  add t "group.objects_serialized" (float_of_int s.objects_serialized);
  add t "group.objects_skipped" (float_of_int s.objects_skipped);
  add t "group.validate_us" (us s.validate_ns);
  add t "group.conflict_objects" (float_of_int s.conflict_objects);
  add t "group.conflict_pages" (float_of_int s.conflict_pages);
  add t "group.speculate_us" (us s.speculate_ns);
  add t "group.shadow_us" (us s.mem_mark_ns);
  add t "group.meta_bytes" (float_of_int s.meta_bytes_written);
  add t "store.flush_us" (us s.flush_ns);
  add t "store.durable_lag_us" (us (max 0 (s.durable_at - c1)));
  add t "store.pages_written" (float_of_int s.pages_serialized);
  sample t "stop_us" (us s.stop_ns);
  sample t "durable_us" (us (s.durable_at - c0));
  match s.flush with
  | None -> ()
  | Some f ->
      add t "store.extents" (float_of_int f.Store.fs_extents);
      add t "store.dev_submits" (float_of_int f.Store.fs_dev_writes);
      add t "store.compress_us" (us f.Store.fs_compress_ns);
      add t "store.pages_staged" (float_of_int f.Store.fs_pages);
      add t "store.pages_deduped" (float_of_int f.Store.fs_pages_deduped);
      add t "store.comp_in" (float_of_int f.Store.fs_comp_in);
      add t "store.comp_out" (float_of_int f.Store.fs_comp_out);
      add t "store.bytes_per_epoch" (float_of_int f.Store.fs_bytes_written);
      add t "store.leaf_hits" (float_of_int f.Store.fs_leaf_hits);
      add t "store.leaf_lookups"
        (float_of_int (f.Store.fs_leaf_hits + f.Store.fs_leaf_misses))

(* A checkpoint the benchmark times: span, statistics, trace drain.
   Warm-up and set-up checkpoints stay out of the layer accounting. *)
let checkpoint ?(measured = true) t group =
  let clock = Group.clock group in
  let c0 = Clock.now clock in
  let s =
    if measured then span t ~clock "group" (fun () -> Group.checkpoint group)
    else Group.checkpoint group
  in
  if measured then record_ckpt t s ~c0 ~c1:(Clock.now clock);
  drain t;
  s

let vm_totals procs =
  List.fold_left
    (fun (stale, cow, pageins) p ->
      let s = Vm_space.stats p.Process.space in
      (stale + s.stale_refaults, cow + s.cow_faults, pageins + s.pageins))
    (0, 0, 0) procs

(* Per-repetition deltas of the VM, block-device and runtime counters
   over the measured part: call [begin_counters] when measurement starts
   and the returned closure when it ends.  In traced runs the metrics
   registry is reset here too, so its device histograms cover exactly
   the measured part. *)
let begin_counters t ~devs ~procs =
  let dev_totals () =
    List.fold_left
      (fun (bw, ops, br) d ->
        (bw + Striped.bytes_written d, ops + Striped.write_ops d, br + Striped.bytes_read d))
      (0, 0, 0) devs
  in
  let stale0, cow0, pi0 = vm_totals procs in
  let bw0, ops0, br0 = dev_totals () in
  let g0 = Gc.quick_stat () in
  if t.tracing then Metrics.reset ();
  fun ~procs ->
    let stale1, cow1, pi1 = vm_totals procs in
    let bw1, ops1, br1 = dev_totals () in
    let g1 = Gc.quick_stat () in
    add t "vm.stale_refaults" (float_of_int (stale1 - stale0));
    add t "vm.cow_faults" (float_of_int (cow1 - cow0));
    add t "vm.pageins" (float_of_int (pi1 - pi0));
    add t "block.bytes_written" (float_of_int (bw1 - bw0));
    add t "block.write_ops" (float_of_int (ops1 - ops0));
    add t "block.bytes_read" (float_of_int (br1 - br0));
    add t "gc.minor_mw" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
    add t "gc.major_collections"
      (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    if t.tracing then
      List.iter
        (fun (hname, key) ->
          Histogram.fold (fun () ns -> add t key (ns /. 1e3)) ()
            (Metrics.samples (Metrics.histogram hname)))
        [ ("dev.queue_wait_ns", "block.queue_wait_us"); ("dev.service_ns", "block.service_us") ]

(* Live bytes the store holds per live byte the group has resident. *)
let space_amp t store group =
  let blocks = Store.blocks_allocated store in
  add t "store.blocks_allocated" (float_of_int blocks);
  add t "store.index_entries" (float_of_int (Store.content_index_size store));
  sample t "space_amp"
    (float_of_int (blocks * Store.block_size)
    /. float_of_int (max 1 (Group.resident_group_pages group * Aurora_vm.Page.logical_size)))

(* Every retained epoch must pass manifest verification, and the content
   index must match a fresh walk of the durable leaves.  Each verified
   epoch counts as one operation. *)
let verify_retained t store =
  List.iter
    (fun epoch ->
      let ok =
        match Restore.verify_epoch ~store ~epoch with
        | Ok _ -> true
        | Error msg ->
            checkf t false "verify_epoch %d: %s" epoch msg;
            false
      in
      attempt t ok)
    (Store.checkpoint_epochs store);
  check t (Store.content_index_consistent store) "store: content index inconsistent"

(* A fresh machine booted at virtual time [at] over a crashed device:
   mount the store from what is durable, then restore the newest epoch
   that verifies.  Returns the machine, the verified restore and the
   virtual time it took from boot, recover included. *)
let recover_and_restore ?(lazy_pages = false) t ~dev ~at =
  let machine = Machine.create () in
  let clock = machine.Machine.clock in
  Clock.advance_to clock at;
  trace_on t clock;
  let v0 = Clock.now clock in
  let store = span t ~clock "store.recover" (fun () -> Store.recover ~dev ~clock) in
  add t "store.recover_us" (us (Clock.now clock - v0));
  let result =
    span t ~clock "restore" (fun () ->
        Restore.restore_verified ~machine ~store ~lazy_pages ())
  in
  drain t;
  match result with
  | Error e ->
      check t false ("restore_verified: " ^ Restore.pp_restore_error e);
      None
  | Ok v ->
      add t "restore.rebuild_us" (us v.Restore.vr_result.Restore.restore_ns);
      add t "restore.fallbacks" (float_of_int (List.length v.Restore.vr_skipped));
      Some (machine, v, Clock.now clock - v0)

(* The ending every checkpointing workload shares: crash the machine now,
   recover, restore the newest verified epoch eagerly, and report the
   virtual time that took as [recovery_ms]. *)
let crash_and_recover t ~dev ~clock =
  let at = Clock.now clock in
  Striped.crash dev ~now:at;
  let ok =
    match recover_and_restore t ~dev ~at with
    | Some (_, _, ns) ->
        sample t "recovery_ms" (float_of_int ns /. 1e6);
        true
    | None -> false
  in
  attempt t ok
