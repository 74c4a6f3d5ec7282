(* restore_read: the store's read path, restore and the pager, on a cold
   leaf cache; nothing writes in the measured part.

   Set-up churns a 4-process image (the mem_churn shape plus pipes holding
   unread data, a socketpair with bytes in flight, a kqueue and a POSIX
   shared-memory segment) for a hundred epochs and crashes it.  Each
   measured round then boots fresh machines over the crashed device and
   runs (a) recover + eager verified restore, (b) recover + lazy verified
   restore, each followed by a read of a fixed, seed-chosen hot set whose
   bytes must match what the application last wrote, and (c) a
   time-travel restore of the oldest retained epoch. *)

module Clock = Aurora_sim.Clock
module Rng = Aurora_util.Rng
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Kqueue = Aurora_kern.Kqueue
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Store = Aurora_objstore.Store
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore
module Histogram = Aurora_util.Histogram

type config = {
  image : Mem_wl.config;  (** the churned image's shape *)
  churn_epochs : int;
  rounds : int;
  hot : float;  (** share of the image's pages in the hot set *)
}

(* At [scale] 1.0: a 32 MiB image (4 x 2048 pages) churned for 100
   epochs, then 3 measured rounds. *)
let config ~scale =
  {
    image = { (Mem_wl.config ~scale:1.) with epochs = 0; warmup = 0 };
    churn_epochs = 60;
    rounds = max 2 (int_of_float (scale *. 3.));
    hot = 0.10;
  }

let sizes c =
  [
    ("processes", "4 (parent, 2 forked children, 1 independent)");
    ("arena_pages", string_of_int c.image.Mem_wl.arena_pages);
    ("image_mib",
      string_of_int (4 * c.image.Mem_wl.arena_pages * Page.logical_size / (1 lsl 20)));
    ("churn_epochs", string_of_int c.churn_epochs);
    ("mutation", Printf.sprintf "%.3f" c.image.Mem_wl.mutation);
    ("prune", Printf.sprintf "keep %d every %d epochs" c.image.Mem_wl.keep
        c.image.Mem_wl.prune_every);
    ("rounds", string_of_int c.rounds);
    ("hot_set", Printf.sprintf "%.3f" c.hot);
  ]

(* Kernel objects restore must rebuild besides memory. *)
let extra_objects m parent =
  let _, wr = Syscall.pipe m parent in
  ignore (Syscall.write m parent ~fd:wr "unread bytes left in a pipe");
  let a, b = Syscall.socketpair m parent in
  Syscall.send_msg m parent ~fd:a "in flight on a socketpair";
  let kq = Syscall.kqueue m parent in
  Syscall.kevent_register parent ~fd:kq
    { Kqueue.ident = b; filter = Kqueue.Ev_read; flags = 0; udata = 0 };
  let shm = Syscall.shm_open m parent ~name:"/bench-shm" ~npages:16 in
  let e = Syscall.mmap_shm parent ~fd:shm in
  Vm_space.write_string parent.Process.space ~addr:(Vm_space.addr_of_entry e) "shared"

let payload_len = Page.payload_size

(* The bytes every hot page holds right now, read through the address
   space of each process. *)
let snapshot (img : Mem_wl.image) hot =
  Array.map
    (fun (i, page) ->
      let p, base = List.nth img.Mem_wl.arenas i in
      Vm_space.read_string p.Process.space ~addr:(base + (page * Page.logical_size))
        ~len:payload_len)
    hot

(* Read the hot set through the restored processes (found by their
   application-visible pids) and compare byte for byte.  Each page is
   one operation.  Returns the virtual time the reads took. *)
let touch (r : Common.t) (img : Mem_wl.image) hot expected (restored : Process.t list)
    ~clock ~what =
  let v0 = Clock.now clock in
  let bad = ref 0 in
  Array.iteri
    (fun k (i, page) ->
      let orig, base = List.nth img.Mem_wl.arenas i in
      let got =
        match
          List.find_opt (fun (p : Process.t) -> p.pid_local = orig.Process.pid_local) restored
        with
        | None -> None
        | Some p ->
            Some
              (Vm_space.read_string p.space ~addr:(base + (page * Page.logical_size))
                 ~len:payload_len)
      in
      let ok = got = Some expected.(k) in
      if not ok then incr bad;
      Common.attempt r ok)
    hot;
  Common.checkf r (!bad = 0) "restore_read: %s restore returned %d wrong hot pages" what !bad;
  Clock.now clock - v0

let run_rep (r : Common.t) c ~seed ~last =
  let rng = Rng.create seed in
  let ic = c.image in
  let img, hot, latest, oldest, oldest_epoch, crash_at =
    Common.setup r (fun () ->
        (* Each process maps its own arena after the fork: with arenas
           shared copy-on-write, lazy restore returns stale versions of
           some pages (README, finding 6). *)
        let img =
          Mem_wl.build ~cow:false ~extra:extra_objects r rng ic ~period_ns:ic.Mem_wl.period_ns
        in
        let clk = img.sys.Sls.machine.Machine.clock in
        let store = img.sys.Sls.store in
        let nhot = int_of_float (c.hot *. float_of_int (4 * ic.Mem_wl.arena_pages)) in
        let hot =
          Array.init nhot (fun _ -> (Rng.int rng 4, Rng.int rng ic.Mem_wl.arena_pages))
        in
        (* Hot-set contents of the retained epochs, for the time-travel
           check. *)
        let history = Hashtbl.create 32 in
        let t0 = Clock.now clk in
        for k = 1 to c.churn_epochs do
          Clock.advance_to clk (t0 + (k * ic.Mem_wl.period_ns));
          ignore (Mem_wl.step img rng ic ~epoch:k);
          ignore (Common.checkpoint ~measured:false r img.group);
          let epoch = Group.last_epoch img.group in
          Hashtbl.replace history epoch (snapshot img hot);
          Hashtbl.remove history (epoch - ic.Mem_wl.keep - ic.Mem_wl.prune_every);
          if k mod ic.Mem_wl.prune_every = 0 then Mem_wl.prune r store ic ~clock:clk
        done;
        Store.wait_durable store;
        Common.space_amp r store img.group;
        let oldest_epoch = List.hd (Store.checkpoint_epochs store) in
        let latest = Hashtbl.find history (Store.last_complete_epoch store) in
        let oldest = Hashtbl.find history oldest_epoch in
        let crash_at = Clock.now clk in
        Aurora_block.Striped.crash img.sys.Sls.device ~now:crash_at;
        (img, hot, latest, oldest, oldest_epoch, crash_at))
  in
  let dev = img.sys.Sls.device in
  let finish = Common.begin_counters r ~devs:[ dev ] ~procs:[] in
  (* Each round boots where the previous one left off, so the device
     queues are idle when it starts. *)
  let now = ref crash_at in
  let restore_and_touch ~lazy_pages =
    match Common.recover_and_restore ~lazy_pages r ~dev ~at:!now with
    | None -> Common.attempt r false
    | Some (machine, v, ns) ->
        let clock = machine.Machine.clock in
        let procs = v.Restore.vr_result.Restore.procs in
        let what = if lazy_pages then "lazy" else "eager" in
        let touch_ns = touch r img hot latest procs ~clock ~what in
        Common.attempt r true;
        if lazy_pages then begin
          Common.sample r "ready_us" (Common.us (ns + touch_ns));
          Common.add r "restore.pagein_us" (Common.us touch_ns);
          let _, _, pageins = Common.vm_totals procs in
          Common.add r "vm.pageins" (float_of_int pageins)
        end
        else Common.sample r "recovery_ms" (float_of_int ns /. 1e6);
        now := Clock.now clock
  in
  let time_travel () =
    let machine = Machine.create () in
    let clock = machine.Machine.clock in
    Clock.advance_to clock !now;
    Common.trace_on r clock;
    let v0 = Clock.now clock in
    let store = Store.recover ~dev ~clock in
    (match Restore.verify_epoch ~store ~epoch:oldest_epoch with
    | Error msg ->
        Common.checkf r false "time travel: epoch %d fails verification: %s" oldest_epoch msg;
        Common.attempt r false
    | Ok _ ->
        let res =
          Common.span r ~clock "restore" (fun () ->
              Restore.restore ~machine ~store ~epoch:oldest_epoch ())
        in
        ignore (touch r img hot oldest res.Restore.procs ~clock ~what:"time-travel");
        Common.sample r "timetravel_ms" (float_of_int (Clock.now clock - v0) /. 1e6);
        Common.attempt r true);
    Common.drain r;
    now := Clock.now clock
  in
  Common.measure r (fun () ->
      for _ = 1 to c.rounds do
        restore_and_touch ~lazy_pages:false;
        restore_and_touch ~lazy_pages:true;
        time_travel ()
      done);
  finish ~procs:[];
  (* Every retained epoch still verifies on the recovered store. *)
  if last then begin
    let machine = Machine.create () in
    Clock.advance_to machine.Machine.clock !now;
    Common.verify_retained r (Store.recover ~dev ~clock:machine.Machine.clock)
  end;
  Common.trace_off r

let metrics (r : Common.t) =
  let ready = Common.hist r "ready_us" in
  [
    Metric.v "ready_ms" "ms" (Histogram.percentile ready 50. /. 1e3) ~n:(Histogram.count ready);
    Metric.median "timetravel_ms" "ms" (Common.hist r "timetravel_ms");
  ]
