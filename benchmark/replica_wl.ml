(* replica_failover: quorum replication under loss, then failover.

   A primary with a 1024-page arena and a pipe checkpoints every 10 ms and
   ships each epoch to three standbys over lossy links (window 4), pumping
   the pipeline every 100 µs of virtual time.  Every epoch buffers one
   externally synchronized message, released only once the epoch is
   quorum-committed — so the replication lag is what a client waiting on
   that message sees.  At the end the primary and standby 0 die and the
   two survivors elect a winner, which restores on a fresh machine. *)

module Clock = Aurora_sim.Clock
module Rng = Aurora_util.Rng
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Store = Aurora_objstore.Store
module Link = Aurora_net.Link
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore
module Replica_set = Aurora_core.Replica_set
module Extsync = Aurora_core.Extsync

type config = {
  arena_pages : int;
  mutation : float;
  standbys : int;
  loss : float;
      (** [Link.lossy_profile] rate on every standby link.  At 2% only
          1-3% of messages wait for a retransmit, so their p99 sits on the
          edge between the two modes and flips from seed to seed; at 4%
          the retransmit mode holds the p99 on every seed. *)
  window : int;
  period_ns : int;
  pump_ns : int;
  epochs : int;
  warmup : int;
}

(* One repetition at [scale] 1.0: 300 epochs, 25 of them warm-up. *)
let config ~scale =
  let epochs = max 24 (int_of_float (scale *. 300.)) in
  {
    arena_pages = 1024;
    mutation = 0.05;
    standbys = 3;
    loss = 0.04;
    window = 4;
    period_ns = 10_000_000;
    pump_ns = 100_000;
    epochs;
    warmup = max 2 (epochs / 12);
  }

let sizes c =
  [
    ("arena_pages", string_of_int c.arena_pages);
    ("mutation", Printf.sprintf "%.3f" c.mutation);
    ("standbys", string_of_int c.standbys);
    ("loss", Printf.sprintf "%.3f" c.loss);
    ("window", string_of_int c.window);
    ("period_ns", string_of_int c.period_ns);
    ("pump_ns", string_of_int c.pump_ns);
    ("epochs", string_of_int c.epochs);
    ("warmup_epochs", string_of_int c.warmup);
  ]

let rejoin_evicted rs =
  List.iter
    (fun (v : Replica_set.standby_view) ->
      if v.sv_health = Replica_set.Evicted && not v.sv_dead then Replica_set.rejoin rs v.sv_idx)
    (Replica_set.views rs)

let run_rep (r : Common.t) c ~seed ~last:_ =
  let rng = Rng.create seed in
  let primary, p, base, pipe, group, standbys, outbox, rs =
    Common.setup r (fun () ->
        let primary = Sls.boot () in
        let m = primary.Sls.machine in
        Common.trace_on r m.Machine.clock;
        let p = Syscall.spawn m ~name:"svc" in
        let base = Vm_space.addr_of_entry (Syscall.mmap_anon p ~npages:c.arena_pages) in
        Mem_wl.populate rng p.Process.space ~base ~npages:c.arena_pages;
        let pipe = Syscall.pipe m p in
        let group = Sls.attach ~period_ns:c.period_ns primary [ p ] in
        let standbys =
          List.init c.standbys (fun i ->
              let link = Link.create ~name:(Printf.sprintf "bench-standby-%d" i) () in
              Link.set_faults link ~seed:((seed * 7919) + (i * 131) + 7)
                (Link.lossy_profile c.loss);
              (Sls.boot (), link))
        in
        let outbox = Extsync.create () in
        let rs =
          Replica_set.create ~window:c.window ~seed ~outbox ~primary:group
            ~standbys:(List.map (fun (s, l) -> (s.Sls.store, l)) standbys)
            ()
        in
        ignore (Group.checkpoint ~wait_durable:true group);
        Replica_set.ship rs;
        ignore (Replica_set.drain rs `All);
        Common.drain r;
        (primary, p, base, pipe, group, standbys, outbox, rs))
  in
  let m = primary.Sls.machine in
  let clk = m.Machine.clock in
  let pipe_rd, pipe_wr = pipe in
  let released = ref [] in
  let messages = ref 0 in
  let writes = max 1 (int_of_float (c.mutation *. float_of_int c.arena_pages)) in
  let lag_max = ref 0 in
  let t0 = Clock.now clk in
  let epoch_at k =
    Clock.advance_to clk (t0 + (k * c.period_ns));
    for _ = 1 to writes do
      Vm_space.write_string p.Process.space
        ~addr:(base + (Rng.int rng c.arena_pages * Page.logical_size)
              + (8 * Rng.int rng (Page.payload_size / 8)))
        (String.init 8 (fun _ -> Char.chr (Rng.int rng 256)))
    done;
    let msg = Printf.sprintf "epoch %08d" k in
    if k > 1 then ignore (Syscall.read m p ~fd:pipe_rd ~len:(String.length msg));
    ignore (Syscall.write m p ~fd:pipe_wr msg);
    let measured = k > c.warmup in
    if measured then Common.add r "app_bytes" (float_of_int ((writes * 8) + String.length msg));
    let c0 = Clock.now clk in
    ignore (Common.checkpoint ~measured r group);
    let epoch = Group.last_epoch group in
    incr messages;
    Extsync.buffer outbox ~epoch
      {
        Extsync.tag = msg;
        deliver =
          (fun ~release_time ->
            released := epoch :: !released;
            if measured then Common.sample r "hold_us" (Common.us (release_time - c0)));
      };
    let ship () =
      Replica_set.ship rs;
      (* Epochs logged but not yet acked, as the new epoch leaves. *)
      List.iter
        (fun (v : Replica_set.standby_view) -> lag_max := max !lag_max v.sv_lag_epochs)
        (Replica_set.views rs);
      rejoin_evicted rs;
      for _ = 1 to (c.period_ns / c.pump_ns) - 1 do
        Clock.advance clk c.pump_ns;
        Replica_set.pump rs
      done
    in
    if measured then Common.span r ~clock:clk "replica.ship" ship else ship ()
  in
  for k = 1 to c.warmup do
    epoch_at k
  done;
  let devs = primary.Sls.device :: List.map (fun (s, _) -> s.Sls.device) standbys in
  let finish = Common.begin_counters r ~devs ~procs:[ p ] in
  Common.measure r (fun () ->
      for k = c.warmup + 1 to c.epochs do
        epoch_at k
      done);
  finish ~procs:[ p ];
  (* Let every message reach its quorum, then lose the primary together
     with standby 0. *)
  let tries = ref 0 in
  while (not (Replica_set.drain rs `Quorum)) && !tries < 10 do
    incr tries;
    rejoin_evicted rs
  done;
  Common.drain r;
  let st = Replica_set.stats rs in
  Common.add r "replica.retransmits" (float_of_int st.rs_retransmits);
  Common.add r "replica.timeouts" (float_of_int st.rs_timeouts);
  Common.add r "replica.evictions" (float_of_int st.rs_evictions);
  Common.add r "replica.lag_epochs_max" (float_of_int !lag_max);
  Common.add r "replica.shipped_bytes"
    (float_of_int
       (List.fold_left
          (fun acc (v : Replica_set.standby_view) -> acc + v.sv_shipped_bytes)
          0 (Replica_set.views rs)));
  List.iter (fun _ -> Common.attempt r true) !released;
  for _ = 1 to !messages - List.length !released do
    Common.attempt r false
  done;
  Common.checkf r (List.length !released = !messages)
    "replica: %d of %d messages never released" (!messages - List.length !released) !messages;
  Common.space_amp r primary.Sls.store group;
  let quorum_at_kill = Replica_set.quorum_epoch rs in
  Replica_set.kill rs 0;
  let survivors = List.init (c.standbys - 1) (fun i -> i + 1) in
  let takeover = Machine.create () in
  let tclk = takeover.Machine.clock in
  Clock.advance_to tclk (Clock.now clk);
  Common.trace_on r tclk;
  let store_clock i = Store.clock (fst (List.nth standbys i)).Sls.store in
  let before = List.map (fun i -> Clock.now (store_clock i)) survivors in
  let v0 = Clock.now tclk in
  (match
     Common.span r ~clock:tclk "replica.failover" (fun () ->
         Replica_set.elect_and_failover rs ~survivors ~machine:takeover)
   with
  | Error msg ->
      Common.check r false ("replica: election failed: " ^ msg);
      Common.attempt r false
  | Ok el ->
      (* The survivors verify their votes in parallel on their own
         machines; the slowest of them bounds the election. *)
      let reads =
        List.fold_left2
          (fun acc i b -> max acc (Clock.now (store_clock i) - b))
          0 survivors before
      in
      let elect_ns = Clock.now tclk - v0 + reads in
      let restore_ns = el.el_restore.Restore.vr_result.Restore.restore_ns in
      Common.sample r "recovery_ms" (float_of_int elect_ns /. 1e6);
      Common.add r "replica.election_us" (Common.us (elect_ns - restore_ns));
      Common.add r "replica.failover_restore_us" (Common.us restore_ns);
      let source = el.el_source_epoch in
      Common.checkf r (source >= quorum_at_kill)
        "replica: winner restored epoch %d, older than the quorum epoch %d" source
        quorum_at_kill;
      Common.checkf r (List.for_all (fun e -> e <= source) !released)
        "replica: a message from the discarded window (> epoch %d) was released" source;
      let winner_store = (fst (List.nth standbys el.el_winner)).Sls.store in
      Common.checkf r
        (Replica_set.stores_identical ~src:primary.Sls.store ~src_epoch:source
           ~dst:winner_store ~dst_epoch:el.el_restore.Restore.vr_epoch)
        "replica: winner's epoch %d differs from the primary's epoch %d"
        el.el_restore.Restore.vr_epoch source;
      Common.attempt r true);
  Common.trace_off r

(* An epoch is durable once its message is released at quorum. *)
let metrics (r : Common.t) =
  Metric.stop_metrics ~durable:"hold_us" r @ [ Metric.write_amp r ]
