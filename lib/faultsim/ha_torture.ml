module Rng = Aurora_util.Rng
module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Store = Aurora_objstore.Store
module Link = Aurora_net.Link
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore
module Extsync = Aurora_core.Extsync
module Replica_set = Aurora_core.Replica_set

(* The reference model is the per-round state string: each round r
   overwrites the service's state page with "state-r", so the store
   state at the primary epoch committed in round r renders as "state-r"
   exactly. *)

let npages = 16
let state_of_round r = Printf.sprintf "state-%06d" r
let state_len = String.length (state_of_round 0)

(* A primary service: one process with an [npages] arena (the state page
   first), plus [pipes] pipes, attached as one consistency group. *)
let boot_service ?(pipes = 0) () =
  let primary = Sls.boot () in
  let p = Syscall.spawn primary.Sls.machine ~name:"svc" in
  let e = Syscall.mmap_anon p ~npages in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.touch_write p.Process.space ~addr ~len:(npages * 4096);
  let pipes = Array.init pipes (fun _ -> Syscall.pipe primary.Sls.machine p) in
  let group = Sls.attach primary [ p ] in
  (primary, p, addr, group, pipes)

(* Every evicted standby starts a catch-up shipment (a no-op for dead
   ones). *)
let rejoin_evicted rs =
  List.iter
    (fun (v : Replica_set.standby_view) ->
      if v.Replica_set.sv_health = Replica_set.Evicted then
        Replica_set.rejoin rs v.Replica_set.sv_idx)
    (Replica_set.views rs)

(* Negative control: replicate cleanly to one standby, stop-and-wait
   (window 1, drained every round), corrupt the standby's newest epoch
   and demand the fallback loop skips it — recovering the previous
   round's state, never the corrupted bytes. *)
type control = Meta | Page

let negative_control ~mode =
  let _primary, p, addr, group, _ = boot_service () in
  let standby = Sls.boot () in
  let link = Link.create ~name:"ha-control" () in
  let rs =
    Replica_set.create ~window:1 ~primary:group
      ~standbys:[ (standby.Sls.store, link) ] ()
  in
  let rounds = 3 in
  for r = 1 to rounds do
    Vm_space.write_string p.Process.space ~addr (state_of_round r);
    ignore (Group.checkpoint ~wait_durable:true group);
    Replica_set.ship rs;
    if
      not
        (Replica_set.drain rs `All
        && Replica_set.quorum_epoch rs = Group.last_epoch group)
    then failwith (Printf.sprintf "control replication failed in round %d" r)
  done;
  let store = standby.Sls.store in
  let newest = Store.last_complete_epoch store in
  (* Corrupt a memory object in the newest standby epoch. *)
  let victim =
    match
      List.find_opt
        (fun (_, kind) -> kind = Aurora_core.Serial.kind_memobj)
        (Store.objects_at store ~epoch:newest)
    with
    | Some (oid, _) -> oid
    | None -> failwith "control: no memory object in newest epoch"
  in
  (match mode with
  | Meta -> Store.corrupt_meta_for_tests store ~epoch:newest ~oid:victim
  | Page -> Store.corrupt_page_for_tests store ~epoch:newest ~oid:victim);
  let takeover = Machine.create () in
  match Replica_set.elect_and_failover rs ~survivors:[ 0 ] ~machine:takeover with
  | Error msg -> Error ("no epoch recovered: " ^ msg)
  | Ok rep -> (
      let v = rep.Replica_set.el_restore in
      let skipped_newest =
        List.exists
          (fun (a : Restore.attempt) -> a.Restore.at_epoch = newest)
          v.Restore.vr_skipped
      in
      if not skipped_newest then
        Error
          (Printf.sprintf "corrupted epoch %d was not skipped (restored %d)"
             newest v.Restore.vr_epoch)
      else
        match v.Restore.vr_result.Restore.procs with
        | [ p' ] ->
            let got = Vm_space.read_string p'.Process.space ~addr ~len:state_len in
            let want = state_of_round (rounds - 1) in
            if got = want then Ok ()
            else
              Error
                (Printf.sprintf "fallback rendered %S, model says %S" got want)
        | procs ->
            Error (Printf.sprintf "expected 1 process, restored %d" (List.length procs)))

(* Quorum torture ------------------------------------------------------------------ *)

(* One quorum run: a primary pipelining epochs to N standbys over N
   independently-faulty links (probabilistic faults plus scripted
   partition windows), a random minority killed at random rounds,
   evicted survivors rejoining, externally-synchronized messages
   buffered per epoch and released only at quorum.  At the end the
   primary dies, the survivors elect, and the run passes only if the
   election converges on an epoch at least as new as the quorum commit
   point, the winner restores the epoch it voted for after one vote
   round, the restored state matches the reference model, and no
   released message came from the discarded window.  At N = 1 this is
   the single-standby torture: no kills, and the election is plain
   failover to the one standby. *)

type quorum_report = {
  qr_seed : int;
  qr_rate : float;
  qr_n : int;
  qr_rounds : int;
  qr_killed : int list;  (** standby indexes killed mid-run *)
  qr_quorum_epoch : int;  (** quorum commit point when the primary died *)
  qr_source_epoch : int;  (** primary epoch the election restored *)
  qr_winner : int;
  qr_votes : int;
  qr_evictions : int;
  qr_rejoins : int;
  qr_retransmits : int;
  qr_released : int;  (** outbox messages released at quorum *)
  qr_dropped : int;  (** outbox messages dropped with the lost window *)
  qr_one_round : bool;
      (** the takeover paid one vote round trip plus the restore *)
  qr_prunes : int;  (** fewest prunes of the primary or a surviving standby *)
  qr_space_excess : int;
      (** most sectors any store held beyond its allocated blocks and
          pending discards, once the rounds are over *)
  qr_outcome : string;
  qr_ok : bool;
}

(* Paced runs pump the replica set every [pump_ns] between rounds. *)
let pump_ns = 100_000

let quorum_run ?(speculative = false) ?pace_ns ~seed ~rounds ~rate ~n () =
  if n < 1 then invalid_arg "quorum_run: n < 1";
  let rng = Rng.create seed in
  (* In the speculative arm the service carries enough kernel objects
     that each soft serialize pass exceeds the yield quantum, so
     concurrency windows really open mid-checkpoint. *)
  let primary, p, addr, group, pipes =
    boot_service ~pipes:(if speculative then 48 else 0) ()
  in
  if speculative then begin
    Group.set_speculative group true;
    (* Mutate a scratch page and a pipe whenever the soft-quiesce window
       opens: the validator must splice these conflicts before the epoch
       ships, and the shipped image must still byte-match the model
       (which only reads the round's state page). *)
    let hook_fired = ref 0 in
    Machine.set_run_hook primary.Sls.machine
      (Some
         (fun _ns ->
           incr hook_fired;
           let k = !hook_fired in
           Vm_space.write_string p.Process.space
             ~addr:(addr + (((k mod (npages - 2)) + 2) * 4096))
             (Printf.sprintf "mid-%d" k);
           ignore
             (Syscall.write primary.Sls.machine p
                ~fd:(snd pipes.(k mod Array.length pipes))
                "mid")))
  end;
  let links =
    List.init n (fun i ->
        let link = Link.create ~name:(Printf.sprintf "quorum-%d" i) () in
        Link.set_faults link
          ~seed:((seed * 7919) + (i * 131) + 7)
          {
            (Link.lossy_profile rate) with
            Link.p_partition = rate /. 4.;
            partition_ns = 400_000;
          };
        (* Scripted partition windows (satellite: deterministic fault
           scenarios pinned to virtual time, on top of the dice). *)
        if Rng.int rng 3 = 0 then
          Link.partition_at link
            ~at:(500_000 + Rng.int rng 4_000_000)
            ~duration:(200_000 + Rng.int rng 600_000);
        link)
  in
  let standbys =
    List.map (fun link -> ((Sls.boot ()).Sls.store, link)) links
  in
  let outbox = Extsync.create () in
  let released = ref [] in
  let rs =
    Replica_set.create ~window:4 ~seed:(seed + 1) ~outbox ~primary:group
      ~standbys ()
  in
  (* Kill a random minority at random rounds: quorum survives by
     construction, so the run must always converge. *)
  let minority = (n - 1) / 2 in
  let kills =
    if minority = 0 then []
    else begin
      let k = 1 + Rng.int rng minority in
      (* Fisher–Yates prefix: k distinct victims, any of the n. *)
      let all = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let tmp = all.(i) in
        all.(i) <- all.(j);
        all.(j) <- tmp
      done;
      List.init k (fun i -> (1 + Rng.int rng rounds, all.(i)))
    end
  in
  let round_of_epoch = Hashtbl.create 64 in
  (* Sometimes the primary dies abruptly, mid-window: the final drain
     never happens, quorum lags the newest epoch, and failover must
     drop the buffered messages of the lost window. *)
  let abrupt_death = Rng.bool rng in
  let uncaught = ref "" in
  (try
     for r = 1 to rounds do
       Vm_space.write_string p.Process.space ~addr (state_of_round r);
       Vm_space.write_string p.Process.space
         ~addr:(addr + ((1 + (r mod (npages - 1))) * 4096))
         (Printf.sprintf "fill-%d" r);
       (* Keep every pipe dirty so the speculative pass re-serializes
          them all and accumulates enough work to yield. *)
       Array.iter
         (fun (_, wr) -> ignore (Syscall.write primary.Sls.machine p ~fd:wr "r"))
         pipes;
       ignore (Group.checkpoint ~wait_durable:true group);
       let epoch = Group.last_epoch group in
       Hashtbl.replace round_of_epoch epoch r;
       (* One externally-synchronized message per round, held until the
          epoch that covers it is quorum-committed. *)
       Extsync.buffer outbox ~epoch
         {
           Extsync.tag = Printf.sprintf "msg-%d" r;
           deliver = (fun ~release_time:_ -> released := epoch :: !released);
         };
       List.iter
         (fun (kr, idx) -> if kr = r then Replica_set.kill rs idx)
         kills;
       (* In abrupt-death runs the last epoch checkpoints but never
          ships: its buffered message is in the discarded window and
          failover must drop it. *)
       if not (abrupt_death && r = rounds) then Replica_set.ship rs;
       (* Evicted survivors come back with catch-up shipments. *)
       if Rng.int rng 3 = 0 then rejoin_evicted rs;
       (* A paced service runs between checkpoints while acks land. *)
       match pace_ns with
       | Some pace when r < rounds ->
           for _ = 1 to pace / pump_ns do
             Clock.advance primary.Sls.machine.Machine.clock pump_ns;
             Replica_set.pump rs
           done
       | _ -> ()
     done;
     (* Unless death is abrupt, let the pipeline reach the quorum
        commit point, rejoining any survivor the fault plane evicted
        along the way. *)
     if not abrupt_death then begin
       let tries = ref 0 in
       while (not (Replica_set.drain rs `Quorum)) && !tries < 10 do
         incr tries;
         rejoin_evicted rs
       done
     end
   with exn -> uncaught := Printexc.to_string exn);
  let quorum_epoch = Replica_set.quorum_epoch rs in
  let st = Replica_set.stats rs in
  let killed = List.map snd kills in
  let survivors =
    List.filter (fun i -> not (List.mem i killed)) (List.init n Fun.id)
  in
  let prunes =
    List.fold_left
      (fun m i -> min m (Replica_set.view rs i).Replica_set.sv_prunes)
      st.Replica_set.rs_primary_prunes survivors
  in
  let space_excess =
    List.fold_left
      (fun m store ->
        max m
          (Store.sectors_held store - Store.blocks_allocated store
          - Store.pending_discards store))
      min_int
      (primary.Sls.store :: List.map fst standbys)
  in
  let base =
    {
      qr_seed = seed;
      qr_rate = rate;
      qr_n = n;
      qr_rounds = rounds;
      qr_killed = killed;
      qr_quorum_epoch = quorum_epoch;
      qr_source_epoch = 0;
      qr_winner = -1;
      qr_votes = 0;
      qr_evictions = st.Replica_set.rs_evictions;
      qr_rejoins = st.Replica_set.rs_rejoins;
      qr_retransmits = st.Replica_set.rs_retransmits;
      qr_released = st.Replica_set.rs_released_msgs;
      qr_dropped = 0;
      qr_one_round = false;
      qr_prunes = prunes;
      qr_space_excess = space_excess;
      qr_outcome = "match";
      qr_ok = true;
    }
  in
  if !uncaught <> "" then
    { base with qr_outcome = "uncaught: " ^ !uncaught; qr_ok = false }
  else
    (* The primary machine dies here; the survivors hold an election. *)
    let takeover = Machine.create () in
    let t0 = Clock.now takeover.Machine.clock in
    match Replica_set.elect_and_failover rs ~survivors ~machine:takeover with
    | exception exn ->
        {
          base with
          qr_outcome = "uncaught in election: " ^ Printexc.to_string exn;
          qr_ok = false;
        }
    | Error msg -> { base with qr_outcome = "election: " ^ msg; qr_ok = false }
    | Ok rep -> (
        let source = rep.Replica_set.el_source_epoch in
        let v = rep.Replica_set.el_restore in
        let vote =
          List.find
            (fun (b : Replica_set.vote) -> b.Replica_set.vt_idx = rep.Replica_set.el_winner)
            rep.Replica_set.el_votes
        in
        (* The takeover waits for one vote round trip and the restore:
           what restoring the same epoch alone moves a fresh machine by. *)
        let restore_alone =
          let m = Machine.create () in
          let r0 = Clock.now m.Machine.clock in
          ignore
            (Restore.restore ~machine:m
               ~store:(fst (List.nth standbys rep.Replica_set.el_winner))
               ~epoch:v.Restore.vr_epoch ());
          Clock.now m.Machine.clock - r0
        in
        let base =
          {
            base with
            qr_source_epoch = source;
            qr_winner = rep.Replica_set.el_winner;
            qr_votes = List.length rep.Replica_set.el_votes;
            qr_dropped = rep.Replica_set.el_dropped_msgs;
            qr_one_round =
              Clock.now takeover.Machine.clock - t0 = Link.rtt ~bytes:64 + restore_alone;
          }
        in
        let fail fmt = Printf.ksprintf (fun s -> { base with qr_outcome = s; qr_ok = false }) fmt in
        if source < quorum_epoch then
          fail "restored epoch %d older than quorum commit %d" source
            quorum_epoch
        else if
          List.exists
            (fun (v : Replica_set.vote) ->
              v.Replica_set.vt_primary_epoch > source)
            rep.Replica_set.el_votes
        then fail "a survivor advertised an epoch newer than the winner's"
        else if
          v.Restore.vr_epoch <> vote.Replica_set.vt_standby_epoch
          || source <> vote.Replica_set.vt_primary_epoch
        then
          fail "restored epoch %d (primary %d), the winner voted %d (primary %d)"
            v.Restore.vr_epoch source vote.Replica_set.vt_standby_epoch
            vote.Replica_set.vt_primary_epoch
        else if not base.qr_one_round then
          fail "the takeover did not pay one vote round trip plus the restore"
        else if List.exists (fun e -> e > source) !released then
          fail "a message from the discarded window (> epoch %d) escaped"
            source
        else if
          base.qr_released + base.qr_dropped + Extsync.pending outbox
          <> rounds
        then
          fail "outbox accounting: %d released + %d dropped + %d pending <> %d"
            base.qr_released base.qr_dropped (Extsync.pending outbox) rounds
        else
          match Hashtbl.find_opt round_of_epoch source with
          | None -> fail "restored unknown epoch %d" source
          | Some round -> (
              match
                rep.Replica_set.el_restore.Restore.vr_result.Restore.procs
              with
              | [ p' ] ->
                  let got =
                    Vm_space.read_string p'.Process.space ~addr ~len:state_len
                  in
                  let want = state_of_round round in
                  if got = want then base
                  else
                    fail "epoch %d rendered %S, model says %S" source got want
              | procs ->
                  fail "expected 1 process, restored %d" (List.length procs)))

let pp_quorum r =
  Printf.sprintf
    "seed=%d n=%d rate=%.3f rounds=%d killed=[%s] quorum=%d source=%d \
     winner=%d votes=%d evict=%d rejoin=%d retx=%d released=%d dropped=%d: %s"
    r.qr_seed r.qr_n r.qr_rate r.qr_rounds
    (String.concat ";" (List.map string_of_int r.qr_killed))
    r.qr_quorum_epoch r.qr_source_epoch r.qr_winner r.qr_votes r.qr_evictions
    r.qr_rejoins r.qr_retransmits r.qr_released r.qr_dropped r.qr_outcome

type quorum_sweep_report = {
  q_runs : int;
  q_ok : int;
  q_evictions : int;
  q_rejoins : int;
  q_retransmits : int;
  q_released : int;
  q_dropped : int;
  q_one_round : int;
  q_prunes : int;
  q_space_excess : int;
  q_failures : quorum_report list;
}

let quorum_sweep ?speculative ?pace_ns ~seed ~runs_per_cell ~rates ~ns ~rounds () =
  let reports =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun rate ->
            List.init runs_per_cell (fun i ->
                quorum_run ?speculative ?pace_ns
                  ~seed:
                    (seed + (i * 131) + (n * 17)
                    + int_of_float (rate *. 10_000.))
                  ~rounds ~rate ~n ()))
          rates)
      ns
  in
  {
    q_runs = List.length reports;
    q_ok = List.length (List.filter (fun r -> r.qr_ok) reports);
    q_evictions = List.fold_left (fun a r -> a + r.qr_evictions) 0 reports;
    q_rejoins = List.fold_left (fun a r -> a + r.qr_rejoins) 0 reports;
    q_retransmits = List.fold_left (fun a r -> a + r.qr_retransmits) 0 reports;
    q_released = List.fold_left (fun a r -> a + r.qr_released) 0 reports;
    q_dropped = List.fold_left (fun a r -> a + r.qr_dropped) 0 reports;
    q_one_round = List.length (List.filter (fun r -> r.qr_one_round) reports);
    q_prunes = List.fold_left (fun a r -> min a r.qr_prunes) max_int reports;
    q_space_excess = List.fold_left (fun a r -> max a r.qr_space_excess) min_int reports;
    q_failures = List.filter (fun r -> not r.qr_ok) reports;
  }

(* Pipelined vs stop-and-wait ------------------------------------------------------ *)

(* Replication-plane cost of R rounds to N standbys, both ways, same
   links and seeds, one code path.  Stop-and-wait is a window of 1 that
   blocks after every round until each standby has acked (rejoining any
   the fault plane evicted); the pipeline is a window of 4 whose [ship]
   never blocks, drained once at the end.  Plane time is the virtual time
   the primary spends in the replication protocol: [ship], the rejoins
   and every drain.  Checkpoint production is identical on both sides
   and excluded — it is the plane the pipeline does not change. *)
type pipeline_report = {
  pl_rounds : int;
  pl_n : int;
  pl_rate : float;
  pl_sw_plane_ns : int;  (** stop-and-wait: primary time blocked shipping *)
  pl_pipe_plane_ns : int;  (** pipelined: ship calls plus the final drain *)
  pl_sw_total_ns : int;
  pl_pipe_total_ns : int;
  pl_speedup : float;  (** plane-time ratio, the figure the gate checks *)
  pl_sw_ok : bool;  (** every stop-and-wait round drained, none evicted *)
  pl_pipe_ok : bool;  (** pipeline drained with no standby evicted *)
}

let pipeline_vs_stop_and_wait ~seed ~rounds ~rate ~n =
  let arm ~tag ~window ~blocking =
    let primary, p, addr, group, _ = boot_service () in
    let clk = primary.Sls.machine.Machine.clock in
    let standbys =
      List.init n (fun i ->
          let link = Link.create ~name:(Printf.sprintf "%s-%d" tag i) () in
          Link.set_faults link
            ~seed:((seed * 104_729) + (i * 131) + 29)
            (Link.lossy_profile rate);
          link)
      |> List.map (fun link -> ((Sls.boot ()).Sls.store, link))
    in
    let rs = Replica_set.create ~window ~seed ~primary:group ~standbys () in
    (* Every standby current, rejoining the ones the fault plane evicted
       so neither arm silently ships to fewer. *)
    let behind () =
      List.exists
        (fun (v : Replica_set.standby_view) ->
          v.Replica_set.sv_health = Replica_set.Evicted)
        (Replica_set.views rs)
    in
    let settle () =
      let drained = ref (Replica_set.drain rs `All) in
      let tries = ref 0 in
      while behind () && !tries < 10 do
        incr tries;
        rejoin_evicted rs;
        drained := Replica_set.drain rs `All
      done;
      !drained && not (behind ())
    in
    let plane = ref 0 in
    let timed f =
      let t0 = Clock.now clk in
      let r = f () in
      plane := !plane + (Clock.now clk - t0);
      r
    in
    let t_begin = Clock.now clk in
    let ok = ref true in
    for r = 1 to rounds do
      Vm_space.write_string p.Process.space ~addr (state_of_round r);
      Vm_space.write_string p.Process.space
        ~addr:(addr + ((1 + (r mod (npages - 1))) * 4096))
        (Printf.sprintf "fill-%d" r);
      ignore (Group.checkpoint ~wait_durable:true group);
      timed (fun () ->
          Replica_set.ship rs;
          if blocking then ok := settle () && !ok else rejoin_evicted rs)
    done;
    let ok = timed settle && !ok in
    (!plane, Clock.now clk - t_begin, ok)
  in
  let sw_plane, sw_total, sw_ok = arm ~tag:"sw" ~window:1 ~blocking:true in
  let pipe_plane, pipe_total, pipe_ok =
    arm ~tag:"pl" ~window:4 ~blocking:false
  in
  {
    pl_rounds = rounds;
    pl_n = n;
    pl_rate = rate;
    pl_sw_plane_ns = sw_plane;
    pl_pipe_plane_ns = pipe_plane;
    pl_sw_total_ns = sw_total;
    pl_pipe_total_ns = pipe_total;
    pl_speedup = float_of_int sw_plane /. float_of_int (max 1 pipe_plane);
    pl_sw_ok = sw_ok;
    pl_pipe_ok = pipe_ok;
  }

(* Held messages ------------------------------------------------------------------- *)

type hold_report = { hr_releases : (int * int * int) list; hr_retransmits : int }

(* A lossless paced cell: the service checkpoints every 10 ms, buffers one
   externally-synchronized message per epoch, ships to [n] standbys over
   fault-free links and pumps every [pump_ns] until the next round. *)
let hold_run ~pump_ns ~rounds ~n =
  let primary, p, addr, group, _ = boot_service () in
  let clk = primary.Sls.machine.Machine.clock in
  let outbox = Extsync.create () in
  let standbys =
    List.init n (fun i ->
        ((Sls.boot ()).Sls.store, Link.create ~name:(Printf.sprintf "hold-%d" i) ()))
  in
  let rs = Replica_set.create ~outbox ~primary:group ~standbys () in
  let period = 10_000_000 in
  let t0 = Clock.now clk in
  let releases = ref [] in
  for r = 1 to rounds do
    Clock.advance_to clk (t0 + (r * period));
    Vm_space.write_string p.Process.space ~addr (state_of_round r);
    let start = Clock.now clk in
    ignore (Group.checkpoint group);
    let epoch = Group.last_epoch group in
    Extsync.buffer outbox ~epoch
      {
        Extsync.tag = Printf.sprintf "msg-%d" r;
        deliver = (fun ~release_time -> releases := (epoch, start, release_time) :: !releases);
      };
    Replica_set.ship rs;
    while Clock.now clk + pump_ns < t0 + ((r + 1) * period) do
      Clock.advance clk pump_ns;
      Replica_set.pump rs
    done
  done;
  ignore (Replica_set.drain rs `Quorum);
  {
    hr_releases = List.rev !releases;
    hr_retransmits = (Replica_set.stats rs).Replica_set.rs_retransmits;
  }

(* Live migration ------------------------------------------------------------------ *)

type migration_check = {
  mc_report : Replica_set.migration_report;
  mc_period_ns : int;  (** the group's checkpoint period, the gate unit *)
  mc_downtime_periods : float;
  mc_ok : bool;  (** identical, verified source, downtime ≤ 2 periods *)
  mc_outcome : string;
}

let migration_run ~seed ~rate =
  let _primary, p, addr, group, _ = boot_service () in
  let target = Sls.boot () in
  let link = Link.create ~name:"migrate" () in
  if rate > 0. then
    Link.set_faults link ~seed:(seed * 7919) (Link.lossy_profile rate);
  let takeover = Machine.create () in
  let workload r =
    Vm_space.write_string p.Process.space ~addr (state_of_round r);
    (* Dirty a shrinking set of extra pages so pre-copy converges the
       way a real workload's working set does. *)
    for i = 1 to max 1 (npages / (1 + r)) do
      Vm_space.write_string p.Process.space
        ~addr:(addr + (((1 + ((r + i) mod (npages - 1))) * 4096)))
        (Printf.sprintf "dirty-%d-%d" r i)
    done
  in
  match
    Replica_set.migrate_live ~link ~primary:group
      ~target_store:target.Sls.store ~machine:takeover ~workload ()
  with
  | Error msg ->
      {
        mc_report =
          {
            Replica_set.mig_rounds = 0;
            mig_precopy_bytes = 0;
            mig_final_bytes = 0;
            mig_downtime_ns = 0;
            mig_total_ns = 0;
            mig_source_epoch = 0;
            mig_identical = false;
          };
        mc_period_ns = Group.period_ns group;
        mc_downtime_periods = infinity;
        mc_ok = false;
        mc_outcome = msg;
      }
  | Ok rep ->
      let period = Group.period_ns group in
      let periods = float_of_int rep.Replica_set.mig_downtime_ns /. float_of_int period in
      let ok =
        rep.Replica_set.mig_identical
        && rep.Replica_set.mig_source_epoch > 0
        && periods <= 2.0
      in
      let outcome =
        if ok then "match"
        else if not rep.Replica_set.mig_identical then
          "migrated state not byte-identical"
        else if rep.Replica_set.mig_source_epoch = 0 then
          "restored epoch has no primary mapping"
        else
          Printf.sprintf "downtime %.2f checkpoint periods exceeds 2" periods
      in
      {
        mc_report = rep;
        mc_period_ns = period;
        mc_downtime_periods = periods;
        mc_ok = ok;
        mc_outcome = outcome;
      }
