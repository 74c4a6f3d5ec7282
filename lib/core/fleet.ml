module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Arbiter = Aurora_block.Arbiter
module Striped = Aurora_block.Striped
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Store = Aurora_objstore.Store
module Fs = Aurora_fs.Fs
module Histogram = Aurora_util.Histogram
module Otrace = Aurora_obs.Trace

type spec = {
  sp_name : string;
  sp_weight : int;
  sp_procs : int;
  sp_pipes_per_proc : int;
  sp_arena_pages : int;
  sp_dirty_pipes : int;
  sp_dirty_pages : int;
}

let default_spec name =
  {
    sp_name = name;
    sp_weight = 1;
    sp_procs = 1;
    sp_pipes_per_proc = 2;
    sp_arena_pages = 4;
    sp_dirty_pipes = 1;
    sp_dirty_pages = 1;
  }

type proc_handle = {
  ph_proc : Process.t;
  ph_pipes : (int * int) array;
  ph_arena_addr : int;
}

type tenant = {
  t_spec : spec;
  t_index : int;
  t_machine : Machine.t;
  t_device : Striped.t;
  t_store : Store.t;
  t_group : Group.t;
  t_arb : Arbiter.tenant;
  t_handles : proc_handle list;
  t_stop : Histogram.t;
  mutable t_epochs : int;
  mutable t_bytes : int;
  mutable t_next_at : int;
  mutable t_retrying : bool; (* delayed epoch: don't re-mutate on wake *)
  mutable t_delay_streak : int; (* consecutive admission delays of this epoch *)
  mutable t_last_flush_bytes : int; (* admission estimate for the next epoch *)
  mutable t_round : int;
}

type t = {
  f_clock : Clock.t;
  f_arbiter : Arbiter.t;
  f_period : int;
  f_tenants : tenant array;
  f_started_at : int;
  (* Every admitted epoch's flush activity interval, for the collision
     report: (flush submission begin, durable end, tenant index). *)
  mutable f_spans : (int * int * int) list;
}

(* The workload surface every tenant is built from, in one fixed
   construction order, so a tenant's pid and oid allocation do not depend
   on its fleet: the same spec as a one-tenant fleet is a byte-identical
   baseline. *)
let build_workload machine ~spec =
  List.init spec.sp_procs (fun i ->
      let p = Syscall.spawn machine ~name:(Printf.sprintf "%s-p%d" spec.sp_name i) in
      let pipes = Array.init spec.sp_pipes_per_proc (fun _ -> Syscall.pipe machine p) in
      let arena = Syscall.mmap_anon p ~npages:(max 1 spec.sp_arena_pages) in
      { ph_proc = p; ph_pipes = pipes; ph_arena_addr = Vm_space.addr_of_entry arena })

let boot_tenant ~clock ~period_ns ~arbiter ~index spec =
  let machine = Machine.create ~clock () in
  let device = Striped.create () in
  let store = Store.format ~dev:device ~clock in
  let fs = Fs.create ~store in
  Machine.mount machine (Fs.vfs_ops fs);
  let handles = build_workload machine ~spec in
  let group =
    Group.attach ~machine ~store ~fs ~period_ns
      (List.map (fun h -> h.ph_proc) handles)
  in
  let arb = Arbiter.register arbiter ~name:spec.sp_name ~weight:spec.sp_weight () in
  Striped.set_arbiter device (Some (arbiter, arb));
  {
    t_spec = spec;
    t_index = index;
    t_machine = machine;
    t_device = device;
    t_store = store;
    t_group = group;
    t_arb = arb;
    t_handles = handles;
    t_stop = Histogram.create ();
    t_epochs = 0;
    t_bytes = 0;
    t_next_at = 0;
    t_retrying = false;
    t_delay_streak = 0;
    t_last_flush_bytes = 0;
    t_round = 0;
  }

let create ?bandwidth ~period_ns specs =
  assert (specs <> []);
  let bandwidth =
    match bandwidth with
    | Some b -> b
    | None -> Cost.nvme_stripe_devices * Cost.nvme_device_bandwidth
  in
  let clock = Clock.create () in
  let arbiter = Arbiter.create ~name:"flushbus" ~bandwidth ~period_ns in
  let tenants =
    Array.of_list
      (List.mapi (fun i spec -> boot_tenant ~clock ~period_ns ~arbiter ~index:i spec) specs)
  in
  (* Stagger: each tenant's first cycle starts at its own window offset. *)
  Array.iter
    (fun tn -> tn.t_next_at <- fst (Arbiter.window arbiter tn.t_arb))
    tenants;
  {
    f_clock = clock;
    f_arbiter = arbiter;
    f_period = period_ns;
    f_tenants = tenants;
    f_started_at = Clock.now clock;
    f_spans = [];
  }

let clock t = t.f_clock
let tenant_name t i = t.f_tenants.(i).t_spec.sp_name
let machine t i = t.f_tenants.(i).t_machine
let group t i = t.f_tenants.(i).t_group
let store t i = t.f_tenants.(i).t_store
let device t i = t.f_tenants.(i).t_device
let handles t i = t.f_tenants.(i).t_handles

(* One tenant's checkpoint, with fleet accounting: stop-time histogram,
   flushed bytes, and the flush activity span [submission begin, durable
   end] used by the collision report. *)
let checkpoint_tenant t tn ~wait_durable =
  let stats =
    Otrace.with_span ~cat:"fleet" ~name:"ckpt"
      ~args:
        [
          ("tenant", Otrace.Str tn.t_spec.sp_name);
          ("epoch", Otrace.Int (Group.last_epoch tn.t_group + 1));
        ]
    @@ fun () -> Group.checkpoint ~wait_durable tn.t_group
  in
  Histogram.add tn.t_stop (float_of_int stats.Group.stop_ns);
  tn.t_epochs <- tn.t_epochs + 1;
  tn.t_bytes <- tn.t_bytes + stats.Group.bytes_written;
  tn.t_last_flush_bytes <- stats.Group.bytes_written;
  let flush_end = Clock.now t.f_clock in
  let flush_begin = flush_end - stats.Group.flush_ns in
  let durable_end = max flush_end stats.Group.durable_at in
  t.f_spans <- (flush_begin, durable_end, tn.t_index) :: t.f_spans;
  stats

let checkpoint_now ?(wait_durable = false) t i =
  checkpoint_tenant t t.f_tenants.(i) ~wait_durable

(* The built-in mutation workload: a rotating window of pipes gets a
   write+drain and a rotating window of arena pages a store, so each
   period dirties a bounded, deterministic slice of the tenant. *)
let mutate_workload ~spec ~machine ~handles ~round:r =
  let handles = Array.of_list handles in
  let nh = Array.length handles in
  for k = 0 to spec.sp_dirty_pipes - 1 do
    let h = handles.((r + k) mod nh) in
    let np = Array.length h.ph_pipes in
    if np > 0 then begin
      let rd, wr = h.ph_pipes.((r + k) mod np) in
      ignore (Syscall.write machine h.ph_proc ~fd:wr "x");
      ignore (Syscall.read machine h.ph_proc ~fd:rd ~len:1)
    end
  done;
  for k = 0 to spec.sp_dirty_pages - 1 do
    let h = handles.((r + k) mod nh) in
    let page = (r + k) mod max 1 spec.sp_arena_pages in
    Vm_space.touch_write h.ph_proc.Process.space
      ~addr:(h.ph_arena_addr + (page * Page.logical_size))
      ~len:1
  done

let mutate tn =
  mutate_workload ~spec:tn.t_spec ~machine:tn.t_machine ~handles:tn.t_handles
    ~round:tn.t_round;
  tn.t_round <- tn.t_round + 1

(* An epoch is deferred by admission at most this many consecutive
   windows before it is force-admitted.  Bounds checkpoint staleness when
   the fleet is oversubscribed (aggregate stop time exceeds the period):
   without it, phase-unlucky tenants can be delayed every period while
   their neighbours checkpoint, collapsing fairness. *)
let max_delay_streak = 2

(* One scheduled slot of tenant [tn]: mutate (unless waking from an
   admission delay), consult admission, then checkpoint or push the epoch
   out.  Always leaves t_next_at strictly in the future. *)
let run_slot t tn =
  let now = Clock.now t.f_clock in
  if not tn.t_retrying then mutate tn;
  tn.t_retrying <- false;
  let admit () =
    tn.t_delay_streak <- 0;
    ignore (checkpoint_tenant t tn ~wait_durable:false);
    tn.t_next_at <- tn.t_next_at + t.f_period
  in
  match Arbiter.admit t.f_arbiter tn.t_arb ~now ~est_bytes:tn.t_last_flush_bytes with
  | Arbiter.Admit -> admit ()
  | Arbiter.Delay _ when tn.t_delay_streak >= max_delay_streak ->
      Otrace.instant ~cat:"fleet" "admission.force"
        ~args:[ ("tenant", Otrace.Str tn.t_spec.sp_name) ];
      admit ()
  | Arbiter.Delay d ->
      Arbiter.note_delayed t.f_arbiter tn.t_arb;
      Otrace.instant ~cat:"fleet" "admission.delay"
        ~args:[ ("tenant", Otrace.Str tn.t_spec.sp_name); ("ns", Otrace.Int d) ];
      tn.t_retrying <- true;
      tn.t_delay_streak <- tn.t_delay_streak + 1;
      tn.t_next_at <- now + d
  | Arbiter.Reject ->
      Arbiter.note_rejected t.f_arbiter tn.t_arb;
      Otrace.instant ~cat:"fleet" "admission.reject"
        ~args:[ ("tenant", Otrace.Str tn.t_spec.sp_name) ];
      tn.t_next_at <- tn.t_next_at + t.f_period

let run_for t ~duration =
  let deadline = Clock.now t.f_clock + duration in
  let rec loop () =
    (* Earliest scheduled tenant; ties resolve to the lowest index, which
       is also TDM order. *)
    let next = ref t.f_tenants.(0) in
    Array.iter (fun tn -> if tn.t_next_at < !next.t_next_at then next := tn) t.f_tenants;
    if !next.t_next_at <= deadline then begin
      Clock.advance_to t.f_clock !next.t_next_at;
      run_slot t !next;
      loop ()
    end
    else Clock.advance_to t.f_clock deadline
  in
  loop ()

(* Reporting ------------------------------------------------------------------ *)

type tenant_report = {
  tr_name : string;
  tr_epochs : int;
  tr_bytes : int;
  tr_stop_p50 : float;
  tr_stop_p99 : float;
  tr_stop_max : float;
  tr_delayed : int;
  tr_rejected : int;
  tr_lane_wait_ns : int;
  tr_lane_busy_ns : int;
}

type report = {
  r_elapsed_ns : int;
  r_epochs : int;
  r_bytes : int;
  r_ckpt_throughput : float;
  r_bytes_per_s : float;
  r_jain : float;
  r_collisions : int;
  r_accounting_ok : bool;
  r_tenants : tenant_report list;
}

let jain xs =
  match xs with
  | [] -> 1.0
  | _ ->
      let n = float_of_int (List.length xs) in
      let s = List.fold_left ( +. ) 0.0 xs in
      let s2 = List.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
      if s2 = 0.0 then 1.0 else s *. s /. (n *. s2)

(* Flush spans of distinct tenants overlapping in time.  Sweep in start
   order, keeping the still-open spans; per-tenant spans are sequential
   (a group waits for durability before its next epoch), so the open set
   stays fleet-sized. *)
let count_collisions spans =
  let sorted = List.sort compare spans in
  let collisions = ref 0 in
  let open_spans = ref [] in
  List.iter
    (fun (s, e, tn) ->
      open_spans := List.filter (fun (_, oe, _) -> oe > s) !open_spans;
      List.iter
        (fun (_, _, otn) -> if otn <> tn then incr collisions)
        !open_spans;
      open_spans := (s, e, tn) :: !open_spans)
    sorted;
  !collisions

let tenant_report t tn =
  let a = Arbiter.stats t.f_arbiter tn.t_arb in
  let pct p = if Histogram.count tn.t_stop = 0 then 0.0 else Histogram.percentile_interp tn.t_stop p in
  {
    tr_name = tn.t_spec.sp_name;
    tr_epochs = tn.t_epochs;
    tr_bytes = tn.t_bytes;
    tr_stop_p50 = pct 50.0;
    tr_stop_p99 = pct 99.0;
    tr_stop_max = (if Histogram.count tn.t_stop = 0 then 0.0 else Histogram.max tn.t_stop);
    tr_delayed = a.Arbiter.ts_delayed;
    tr_rejected = a.Arbiter.ts_rejected;
    tr_lane_wait_ns = a.Arbiter.ts_wait_ns;
    tr_lane_busy_ns = a.Arbiter.ts_busy_ns;
  }

let report t =
  let tenants = Array.to_list (Array.map (fun tn -> tenant_report t tn) t.f_tenants) in
  let epochs = List.fold_left (fun a tr -> a + tr.tr_epochs) 0 tenants in
  let bytes = List.fold_left (fun a tr -> a + tr.tr_bytes) 0 tenants in
  let elapsed = Clock.now t.f_clock - t.f_started_at in
  let secs = float_of_int (max 1 elapsed) /. 1e9 in
  {
    r_elapsed_ns = elapsed;
    r_epochs = epochs;
    r_bytes = bytes;
    r_ckpt_throughput = float_of_int epochs /. secs;
    r_bytes_per_s = float_of_int bytes /. secs;
    r_jain = jain (List.map (fun tr -> float_of_int tr.tr_bytes) tenants);
    r_collisions = count_collisions t.f_spans;
    r_accounting_ok = Arbiter.accounting_ok t.f_arbiter;
    r_tenants = tenants;
  }
