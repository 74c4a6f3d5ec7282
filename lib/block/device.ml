module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Resource = Aurora_sim.Resource
module Otrace = Aurora_obs.Trace
module Ometrics = Aurora_obs.Metrics

let sector_size = 4096

let h_dev_qwait = Ometrics.histogram "dev.queue_wait_ns"
let h_dev_service = Ometrics.histogram "dev.service_ns"


(* An in-flight operation: a write's bytes, or a discard of [len] bytes
   (an NVMe Deallocate), which reads as zeros and, once durable, drops
   the committed sectors it fully covers. *)
type op = Write of bytes | Discard of int

type pending = { completion : int; off : int; op : op }

type t = {
  dev_name : string;
  queue : Resource.t;
  committed : (int, bytes) Hashtbl.t; (* sector index -> sector bytes *)
  mutable inflight : pending list; (* newest first *)
  mutable written : int;
  mutable read_bytes : int;
  mutable ops : int;
  mutable fault : Fault.t option;
  mutable arb : (Arbiter.t * Arbiter.tenant) option;
}

let create ~name =
  {
    dev_name = name;
    queue = Resource.create ~name;
    committed = Hashtbl.create 4096;
    inflight = [];
    written = 0;
    read_bytes = 0;
    ops = 0;
    fault = None;
    arb = None;
  }

let set_fault t f = t.fault <- f
let set_arbiter t a = t.arb <- a

(* With a fleet arbiter installed, every write additionally occupies the
   shared flush lane for its bytes at the array's aggregate bandwidth;
   the grant's completion lower-bounds this write's completion, and the
   lane wait is billed to the submitting tenant — not to whichever group
   happens to trace the next submission. *)
let arbitrate t ~now ~bytes ~completion =
  match t.arb with
  | None -> completion
  | Some (arb, tn) -> Stdlib.max completion (Arbiter.submit arb tn ~now ~bytes)

(* One explicit-timestamp trace event per write submission, split into
   queue wait and service.  [qwait] is this submission's own queueing
   delay ([Resource.submit_timed]'s start - now), so an interleaved
   group's backlog is never billed to another group's span.  Off the
   instrumented path this is a single branch. *)
let trace_submit t ~now ~qwait ~completion ~off ~len ~segments ~kind =
  if Otrace.is_on () || Ometrics.is_enabled () then begin
    let service = completion - now - qwait in
    Ometrics.observe_ns h_dev_qwait qwait;
    Ometrics.observe_ns h_dev_service service;
    let args =
      [
        ("dev", Otrace.Str t.dev_name);
        ("off", Otrace.Int off);
        ("len", Otrace.Int len);
        ("segments", Otrace.Int segments);
        ("qwait", Otrace.Int qwait);
        ("service", Otrace.Int service);
      ]
    in
    let args =
      match t.arb with
      | None -> args
      | Some (_, tn) -> args @ [ ("tenant", Otrace.Str (Arbiter.tenant_name tn)) ]
    in
    Otrace.complete ~ts:now ~dur:(completion - now) ~cat:"dev" kind ~args
  end

(* Apply a byte-range write onto the sector map.  Sectors store only
   their materialized prefix (the suffix is implicitly zero), so a store
   full of short stand-in payloads doesn't pin sector_size bytes of
   zeros per page — that padding dominated the heap, and with it the
   GC cost of large simulated working sets. *)
let apply_committed t ~off data =
  let len = Bytes.length data in
  let first = off / sector_size and last = (off + len - 1) / sector_size in
  for s = first to last do
    let sector_off = s * sector_size in
    let copy_start = max off sector_off in
    let copy_end = min (off + len) (sector_off + sector_size) in
    let need = copy_end - sector_off in
    let sector =
      match Hashtbl.find_opt t.committed s with
      | Some b when Bytes.length b >= need -> b
      | Some b ->
          let nb = Bytes.make need '\000' in
          Bytes.blit b 0 nb 0 (Bytes.length b);
          Hashtbl.replace t.committed s nb;
          nb
      | None ->
          let nb = Bytes.make need '\000' in
          Hashtbl.replace t.committed s nb;
          nb
    in
    Bytes.blit data (copy_start - off) sector (copy_start - sector_off)
      (copy_end - copy_start)
  done

(* The device queue is occupied for the transfer only; each I/O's
   completion additionally trails by the device latency.  A lone 4 KiB
   write therefore costs latency + transfer, while a deep queue of writes
   streams at full bandwidth — as a real NVMe pipeline does. *)
(* Ask the installed fault handler (if any) what this submission's fate
   is; may raise Fault.Crash_point to stop the run at this boundary. *)
let consult_fault t ~now ~off ~len ~segments =
  match t.fault with
  | None -> (Fault.Land, None)
  | Some f ->
      let outcome, info =
        Fault.write_outcome f ~dev:t.dev_name ~now ~off ~len ~segments
      in
      (outcome, Some (f, info))

let report_completion faulted ~completion =
  match faulted with
  | None -> ()
  | Some (f, info) -> Fault.write_complete f info ~completion

(* Land a plain write under the fault outcome.  The caller always sees the
   acknowledged completion; what reaches media — and when it becomes
   durable — is the outcome's business. *)
let land_write t ~outcome ~completion ~off data =
  match outcome with
  | Fault.Drop -> ()
  | Fault.Torn nsectors ->
      let keep = min (Bytes.length data) (nsectors * sector_size) in
      if keep > 0 then
        t.inflight <- { completion; off; op = Write (Bytes.sub data 0 keep) } :: t.inflight
  | Fault.Delay d ->
      t.inflight <-
        { completion = completion + d; off; op = Write (Bytes.copy data) } :: t.inflight
  | Fault.Land ->
      t.inflight <- { completion; off; op = Write (Bytes.copy data) } :: t.inflight

let submit_write ?charge t ~now ~off data ~latency =
  let len = Bytes.length data in
  let charged = match charge with Some c -> c | None -> len in
  let outcome, faulted = consult_fault t ~now ~off ~len:charged ~segments:1 in
  let transfer = Cost.transfer_time ~bandwidth:Cost.nvme_device_bandwidth charged in
  let start, qcomp = Resource.submit_timed t.queue ~now ~duration:transfer in
  let completion = arbitrate t ~now ~bytes:charged ~completion:(qcomp + latency) in
  land_write t ~outcome ~completion ~off data;
  t.written <- t.written + charged;
  t.ops <- t.ops + 1;
  trace_submit t ~now ~qwait:(start - now) ~completion ~off ~len:charged ~segments:1
    ~kind:"write";
  report_completion faulted ~completion;
  completion

let write ?charge t ~now ~off data =
  submit_write ?charge t ~now ~off data ~latency:Cost.nvme_write_latency

(* One vectored submission covering the device range [off, off+len):
   the queue is occupied for the whole transfer once and a single write
   latency trails it, so a coalesced extent of n blocks costs one latency
   instead of n.  Each segment carries its payload at [off + rel]; the
   device takes ownership of the payload bytes (callers pass fresh
   slices), so the hot path does one copy, not two. *)
let submit_extent t ~now ~off ~len segments =
  let outcome, faulted =
    consult_fault t ~now ~off ~len ~segments:(List.length segments)
  in
  let transfer = Cost.transfer_time ~bandwidth:Cost.nvme_device_bandwidth len in
  let start, qcomp = Resource.submit_timed t.queue ~now ~duration:transfer in
  let completion =
    arbitrate t ~now ~bytes:len ~completion:(qcomp + Cost.nvme_write_latency)
  in
  let land_segs completion segments =
    List.iter
      (fun (rel, data) ->
        if Bytes.length data > 0 then
          t.inflight <- { completion; off = off + rel; op = Write data } :: t.inflight)
      segments
  in
  (match outcome with
  | Fault.Land -> land_segs completion segments
  | Fault.Drop -> ()
  | Fault.Torn n -> land_segs completion (List.filteri (fun i _ -> i < n) segments)
  | Fault.Delay d -> land_segs (completion + d) segments);
  t.written <- t.written + len;
  t.ops <- t.ops + 1;
  trace_submit t ~now ~qwait:(start - now) ~completion ~off ~len
    ~segments:(List.length segments) ~kind:"extent";
  report_completion faulted ~completion;
  completion

(* Priority-lane write: occupies the shared queue for the transfer (the
   bytes still consume device bandwidth) but completes — and becomes
   durable — at the caller-supplied [completion] from the priority lane's
   own arbitration.  The synchronous journal append path uses this so a
   record acknowledged at its sync completion really is durable then,
   rather than whenever the background flush queue drains. *)
let write_priority t ~now ~off data ~completion =
  let len = Bytes.length data in
  let outcome, faulted = consult_fault t ~now ~off ~len ~segments:1 in
  let transfer = Cost.transfer_time ~bandwidth:Cost.nvme_device_bandwidth len in
  ignore (Resource.submit t.queue ~now ~duration:transfer);
  land_write t ~outcome ~completion ~off data;
  t.written <- t.written + len;
  t.ops <- t.ops + 1;
  (* The priority lane completes at its own arbitration, not when the
     shared queue drains: its whole [now, completion) window is service.
     Deriving a wait from the shared queue's busy_until here billed
     another consumer's backlog to this submission's span — under
     interleaved groups, another tenant's. *)
  trace_submit t ~now ~qwait:0 ~completion ~off ~len ~segments:1 ~kind:"priority";
  report_completion faulted ~completion;
  completion

(* A durable discard: every sector it fully covers leaves the map, and
   the bytes it covers of a partly covered sector read as zeros. *)
let discard_committed t ~off ~len =
  let first = off / sector_size and last = (off + len - 1) / sector_size in
  for s = first to last do
    let sector_off = s * sector_size in
    if off <= sector_off && sector_off + sector_size <= off + len then
      Hashtbl.remove t.committed s
    else
      match Hashtbl.find_opt t.committed s with
      | None -> ()
      | Some b ->
          let start = max off sector_off - sector_off in
          let stop = min (off + len - sector_off) (Bytes.length b) in
          if stop > start then Bytes.fill b start (stop - start) '\000'
  done

(* A discard occupies no queue time, consults no fault handler and
   counts as no device operation: it is an in-flight entry completing at
   [now], so a crash before [now] undoes it. *)
let discard t ~now ~off ~len =
  if len > 0 then t.inflight <- { completion = now; off; op = Discard len } :: t.inflight

(* Fold inflight operations whose completion is at or before [now] into
   the committed store.  Inflight is newest-first, so replay oldest-first
   to keep last-writer-wins semantics. *)
let commit_until t now =
  let durable, pending =
    List.partition (fun p -> p.completion <= now) t.inflight
  in
  List.iter
    (fun p ->
      match p.op with
      | Write data -> apply_committed t ~off:p.off data
      | Discard len -> discard_committed t ~off:p.off ~len)
    (List.rev durable);
  t.inflight <- pending

let read_committed t ~off ~len =
  let out = Bytes.make len '\000' in
  let first = off / sector_size and last = (off + len - 1) / sector_size in
  for s = first to last do
    match Hashtbl.find_opt t.committed s with
    | None -> ()
    | Some sector ->
        let sector_off = s * sector_size in
        let copy_start = max off sector_off in
        let copy_end = min (off + len) (sector_off + Bytes.length sector) in
        if copy_end > copy_start then
          Bytes.blit sector (copy_start - sector_off) out (copy_start - off)
            (copy_end - copy_start)
  done;
  out

(* Newest-data read: committed state overlaid with inflight writes and
   discards in submission order. *)
let read_nocharge t ~off ~len =
  let out = read_committed t ~off ~len in
  let overlay p =
    let p_len = match p.op with Write data -> Bytes.length data | Discard n -> n in
    let copy_start = max off p.off and copy_end = min (off + len) (p.off + p_len) in
    if copy_start < copy_end then
      match p.op with
      | Write data ->
          Bytes.blit data (copy_start - p.off) out (copy_start - off) (copy_end - copy_start)
      | Discard _ -> Bytes.fill out (copy_start - off) (copy_end - copy_start) '\000'
  in
  List.iter overlay (List.rev t.inflight);
  out

(* A read is submitted, then collected: the queue is occupied for the
   transfer at submission and the completion trails by the read latency;
   the fault handler's verdict is taken as of that completion.
   {!Striped.submit_vec} submits many before collecting any. *)
let submit_read t ~now ~off ~len =
  let transfer = Cost.transfer_time ~bandwidth:Cost.nvme_device_bandwidth len in
  let start, qcomp = Resource.submit_timed t.queue ~now ~duration:transfer in
  let completion = qcomp + Cost.nvme_read_latency in
  if Otrace.is_on () then
    Otrace.complete ~ts:now ~dur:(completion - now) ~cat:"dev" "read"
      ~args:
        [
          ("dev", Otrace.Str t.dev_name);
          ("off", Otrace.Int off);
          ("len", Otrace.Int len);
          ("qwait", Otrace.Int (start - now));
        ];
  t.read_bytes <- t.read_bytes + len;
  completion

let collect_read t ~completion ~off ~len =
  match t.fault with
  | None -> Ok (read_nocharge t ~off ~len)
  | Some f -> (
      (* The attempt's device time was charged at submission whatever the
         outcome: a failed or corrupted read still occupied the queue. *)
      match Fault.read_outcome f ~dev:t.dev_name ~now:completion ~off ~len with
      | Fault.Clean -> Ok (read_nocharge t ~off ~len)
      | Fault.Fail ->
          Error (Printf.sprintf "%s: transient read error at %d+%d" t.dev_name off len)
      | Fault.Flip offs ->
          let out = read_nocharge t ~off ~len in
          List.iter
            (fun o ->
              if o >= 0 && o < len then
                Bytes.set out o (Char.chr (Char.code (Bytes.get out o) lxor 0x40)))
            offs;
          Ok out)

let durable_until t =
  List.fold_left (fun acc p -> max acc p.completion) 0 t.inflight

let settle t ~clock =
  Clock.advance_to clock (durable_until t);
  commit_until t (Clock.now clock)

let apply_durable t ~now = commit_until t now

let reset_stats t =
  t.written <- 0;
  t.read_bytes <- 0;
  t.ops <- 0

let crash t ~now =
  commit_until t now;
  t.inflight <- [];
  Resource.reset t.queue;
  (* The machine is rebooting: host-side counters restart with it, and with
     the in-flight list empty durable_until is 0 again — a fresh submission
     on the recovered device starts from a consistent baseline instead of
     inheriting the dead run's accounting. *)
  reset_stats t

let export_sectors t =
  Hashtbl.fold (fun idx sector acc -> (idx, Bytes.copy sector) :: acc) t.committed []
  |> List.sort compare

let import_sectors t sectors =
  (* Importing an image replaces the device's state wholesale: dropping
     stale committed sectors, queued writes and counters makes the call
     safe on a used device, not only on a freshly created one. *)
  Hashtbl.reset t.committed;
  t.inflight <- [];
  Resource.reset t.queue;
  reset_stats t;
  List.iter (fun (idx, sector) -> Hashtbl.replace t.committed idx (Bytes.copy sector)) sectors

let sectors_held t = Hashtbl.length t.committed
let bytes_held t = Hashtbl.fold (fun _ b n -> n + Bytes.length b) t.committed 0
let bytes_written t = t.written
let bytes_read t = t.read_bytes
let write_ops t = t.ops
