module Histogram = Aurora_util.Histogram

(* The workload table, the repetition scheme and the metric lists the
   command line and the self-test share. *)

type workload = {
  name : string;
  why : string;
  op : string;  (** sample set behind op_p50_us / op_p99_us *)
  sizes : float -> (string * string) list;
  run_rep : Common.t -> seed:int -> scale:float -> last:bool -> unit;
  metrics : Common.t -> Metric.t list;
}

let workloads =
  [
    {
      name = "http_stw";
      why = "OS-state-heavy, memory-light server; the stop-the-world stop is mostly \
             connection-table serialization and shows up as client tail latency";
      op = "req_us";
      sizes = (fun scale -> Http_wl.sizes (Http_wl.config ~speculative:false ~scale));
      run_rep =
        (fun r ~seed ~scale ~last -> Http_wl.run_rep r (Http_wl.config ~speculative:false ~scale) ~seed ~last);
      metrics = Http_wl.metrics;
    };
    {
      name = "http_spec";
      why = "same traffic under speculative soft-quiesce: the stop is mostly quiesce, \
             serialization moves into the concurrent window";
      op = "req_us";
      sizes = (fun scale -> Http_wl.sizes (Http_wl.config ~speculative:true ~scale));
      run_rep =
        (fun r ~seed ~scale ~last -> Http_wl.run_rep r (Http_wl.config ~speculative:true ~scale) ~seed ~last);
      metrics = Http_wl.metrics;
    };
    {
      name = "mem_churn";
      why = "memory- and store-write-heavy: shadowing in the stop, flush, compression, \
             dedup and prune behind durability";
      op = "stop_us";
      sizes = (fun scale -> Mem_wl.sizes (Mem_wl.config ~scale));
      run_rep = (fun r ~seed ~scale ~last -> Mem_wl.run_rep r (Mem_wl.config ~scale) ~seed ~last);
      metrics = Mem_wl.metrics;
    };
    {
      name = "restore_read";
      why = "store read path on a cold leaf cache, eager, lazy and time-travel restore \
             and the pager; nothing writes";
      op = "ready_us";
      sizes = (fun scale -> Restore_wl.sizes (Restore_wl.config ~scale));
      run_rep = (fun r ~seed ~scale ~last -> Restore_wl.run_rep r (Restore_wl.config ~scale) ~seed ~last);
      metrics = Restore_wl.metrics;
    };
    {
      name = "replica_failover";
      why = "the only workload that ships, acks, retransmits and installs epochs, and \
             elects and restores on failover";
      op = "hold_us";
      sizes = (fun scale -> Replica_wl.sizes (Replica_wl.config ~scale));
      run_rep = (fun r ~seed ~scale ~last -> Replica_wl.run_rep r (Replica_wl.config ~scale) ~seed ~last);
      metrics = Replica_wl.metrics;
    };
  ]

(* Each run makes seven repetitions with seeds derived from [--seed]:
   set-up is timed at least seven times (its median is [setup_s]) and the
   virtual-clock samples of all seven are pooled. *)
let reps = 7
let rep_seed seed i = (seed * 1009) + i

(* [--seconds] sizes the measured work: at 10 s a run measures about ten
   seconds of host time on a 2-core x86-64 box. *)
let scale_of_seconds s = float_of_int s /. 16.

(* A set-up of a few tens of milliseconds is noisy on its own: cheap
   set-ups are repeated, without the measured part, until there are nine
   samples for the median. *)
let setup_samples = 9
let cheap_setup_s = 0.25

let run_pass w ~seed ~scale ~tracing =
  let r = Common.create ~tracing in
  for i = 0 to reps - 1 do
    w.run_rep r ~seed:(rep_seed seed i) ~scale ~last:(i = reps - 1)
  done;
  if (not tracing) && Metric.median_of_floats r.setups < cheap_setup_s then begin
    r.setup_only <- true;
    for i = reps to setup_samples - 1 do
      try w.run_rep r ~seed:(rep_seed seed i) ~scale ~last:false with Common.Setup_done -> ()
    done;
    r.setup_only <- false
  end;
  r

(* Host time of one repetition's measured part, the fastest of the
   repetitions: other work on the machine only ever adds time, and the
   repetitions do the same amount of work. *)
let host_s (r : Common.t) = List.fold_left Float.min infinity r.measured

(* End-to-end metrics of one pass: the seven every workload reports
   (BENCHMARK.json's end_to_end list, [contract]), then the workload's
   own.  op_* is the latency of the workload's client-visible operation,
   named per workload in the README; its mean stands in for the median
   there because the HTTP median is a constant of the cost model (an
   unqueued static request) that no seed moves. *)
let contract =
  [ "setup_s"; "host_s"; "heap_peak_mb"; "op_mean_us"; "op_p99_us"; "recovery_ms"; "space_amp" ]

let end_to_end w (r : Common.t) ~heap_mb =
  let op = Common.hist r w.op in
  [
    Metric.v ~clock:Host "setup_s" "s" (Metric.median_of_floats r.setups)
      ~n:(List.length r.setups);
    Metric.v ~clock:Host "host_s" "s" (host_s r) ~n:(List.length r.measured);
    Metric.v ~clock:Host "heap_peak_mb" "MB" heap_mb ~n:1;
    Metric.v "op_mean_us" "us" (Histogram.mean op) ~n:(Histogram.count op);
    Metric.tail "op_p99_us" "us" op 99.;
    Metric.median "recovery_ms" "ms" (Common.hist r "recovery_ms");
    Metric.median "space_amp" "ratio" (Common.hist r "space_amp");
  ]
  @ w.metrics r
  @ [
      Metric.v "fail_frac" "ratio"
        (float_of_int r.failed /. float_of_int (max 1 r.attempted))
        ~n:r.attempted;
    ]

type layer = Mean of string | Per_rep of string | Ratio of string * string | Max of string

(* Per-layer metrics, named by module.  Means are per call (per
   checkpoint, per request, per submission); Per_rep values are totals
   over one repetition's measured part. *)
let per_layer =
  [
    ("group.quiesce_us", "us", Mean "group.quiesce_us");
    ("group.serialize_us", "us", Mean "group.serialize_us");
    ("group.objects_serialized", "count", Mean "group.objects_serialized");
    ("group.objects_skipped", "count", Mean "group.objects_skipped");
    ("group.validate_us", "us", Mean "group.validate_us");
    ("group.conflict_objects", "count", Mean "group.conflict_objects");
    ("group.conflict_pages", "count", Mean "group.conflict_pages");
    ("group.speculate_us", "us", Mean "group.speculate_us");
    ("group.shadow_us", "us", Mean "group.shadow_us");
    ("group.meta_bytes", "B", Mean "group.meta_bytes");
    ("group.host_ms", "ms", Mean "group.host_ms");
    ("group.alloc_kw", "kw", Mean "group.alloc_kw");
    ("store.flush_us", "us", Mean "store.flush_us");
    ("store.durable_lag_us", "us", Mean "store.durable_lag_us");
    ("store.extents", "count", Mean "store.extents");
    ("store.dev_submits", "count", Mean "store.dev_submits");
    ("store.compress_us", "us", Mean "store.compress_us");
    ("store.pages_staged", "count", Mean "store.pages_staged");
    ("store.pages_written", "count", Mean "store.pages_written");
    ("store.dedup_ratio", "ratio", Ratio ("store.pages_deduped", "store.pages_staged"));
    ("store.compress_ratio", "ratio", Ratio ("store.comp_out", "store.comp_in"));
    ("store.bytes_per_epoch", "B", Mean "store.bytes_per_epoch");
    ("store.blocks_allocated", "blocks", Mean "store.blocks_allocated");
    ("store.index_entries", "count", Mean "store.index_entries");
    ("store.prune_host_ms", "ms", Mean "store.prune.host_ms");
    ("store.prune_freed_blocks", "blocks", Mean "store.prune_freed_blocks");
    ("store.recover_us", "us", Mean "store.recover_us");
    ("store.recover_host_ms", "ms", Mean "store.recover.host_ms");
    ("store.leaf_hit_ratio", "ratio", Ratio ("store.leaf_hits", "store.leaf_lookups"));
    ("block.queue_wait_us", "us", Mean "block.queue_wait_us");
    ("block.service_us", "us", Mean "block.service_us");
    ("block.bytes_written", "B", Per_rep "block.bytes_written");
    ("block.write_ops", "count", Per_rep "block.write_ops");
    ("block.bytes_read", "B", Per_rep "block.bytes_read");
    ("vm.stale_refaults", "count", Per_rep "vm.stale_refaults");
    ("vm.cow_faults", "count", Per_rep "vm.cow_faults");
    ("vm.pageins", "count", Per_rep "vm.pageins");
    ("restore.pagein_us", "us", Mean "restore.pagein_us");
    ("restore.verify_us", "us", Mean "restore.verify_us");
    ("restore.rebuild_us", "us", Mean "restore.rebuild_us");
    ("restore.fallbacks", "count", Mean "restore.fallbacks");
    ("restore.host_ms", "ms", Mean "restore.host_ms");
    ("http.link_us", "us", Mean "http.link_us");
    ("http.stall_us", "us", Mean "http.stall_us");
    ("http.server_us", "us", Mean "http.server_us");
    ("http.parse_us", "us", Mean "http.parse_us");
    ("http.route_us", "us", Mean "http.route_us");
    ("http.hook_ops", "count", Per_rep "http.hook_ops");
    ("http.reconnects", "count", Per_rep "http.reconnects");
    ("http.feed_host_us", "us", Mean "http.feed.host_ms");
    ("replica.retransmits", "count", Per_rep "replica.retransmits");
    ("replica.timeouts", "count", Per_rep "replica.timeouts");
    ("replica.evictions", "count", Per_rep "replica.evictions");
    ("replica.lag_epochs_max", "epochs", Max "replica.lag_epochs_max");
    ("replica.shipped_bytes", "B", Per_rep "replica.shipped_bytes");
    ("replica.ship_host_ms", "ms", Mean "replica.ship.host_ms");
    ("replica.election_us", "us", Mean "replica.election_us");
    ("replica.failover_restore_us", "us", Mean "replica.failover_restore_us");
    ("gc.minor_mw", "Mw", Per_rep "gc.minor_mw");
    ("gc.major_collections", "count", Per_rep "gc.major_collections");
    ("obs.events", "count", Per_rep "obs.events");
    ("obs.dropped", "count", Per_rep "obs.dropped");
  ]

let layer_metrics (traced : Common.t) ~overhead =
  List.map
    (fun (name, unit_, how) ->
      let key = match how with Mean k | Per_rep k | Max k | Ratio (k, _) -> k in
      let value =
        match how with
        | Mean k -> Common.mean traced k
        | Per_rep k -> Common.total traced k /. float_of_int reps
        | Ratio (a, b) -> Common.ratio traced a b
        | Max k -> Common.maximum traced k
      in
      (* A host time kept in ms but reported per call in µs. *)
      let value = if name = "http.feed_host_us" then value *. 1e3 else value in
      Metric.v name unit_ value ~n:(Common.count traced key))
    per_layer
  @ [ Metric.v ~clock:Host "obs.host_overhead" "%" overhead ~n:(reps * 2) ]

