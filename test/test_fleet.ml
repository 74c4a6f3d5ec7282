(* Multi-tenant fleet checkpointing: arbiter windows and admission,
   per-tenant lane attribution, the staggered fleet scheduler, and the
   load-bearing qcheck isolation property — N groups checkpointing
   interleaved on one clock restore byte-identically to the same group
   run alone on a private store. *)

module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Striped = Aurora_block.Striped
module Arbiter = Aurora_block.Arbiter
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Syscall = Aurora_kern.Syscall
module Process = Aurora_kern.Process
module Store = Aurora_objstore.Store
module Group = Aurora_core.Group
module Fleet = Aurora_core.Fleet
module Trace = Aurora_obs.Trace

let period = 10_000_000 (* 10 ms *)
let bw = Cost.nvme_stripe_devices * Cost.nvme_device_bandwidth

(* Arbiter ---------------------------------------------------------------- *)

let test_windows_partition () =
  let a = Arbiter.create ~name:"lane" ~bandwidth:bw ~period_ns:period in
  let t1 = Arbiter.register a ~name:"t1" () in
  let t2 = Arbiter.register a ~name:"t2" ~weight:3 () in
  let o1, w1 = Arbiter.window a t1 in
  let o2, w2 = Arbiter.window a t2 in
  Alcotest.(check int) "t1 offset" 0 o1;
  Alcotest.(check int) "t1 width" (period / 4) w1;
  Alcotest.(check int) "t2 offset" (period / 4) o2;
  Alcotest.(check int) "t2 width" (3 * period / 4) w2;
  (* Windows tile the period in registration order: no overlap. *)
  Alcotest.(check bool) "disjoint" true (o1 + w1 <= o2);
  Alcotest.(check bool) "within period" true (o2 + w2 <= period)

let test_admission () =
  let a = Arbiter.create ~name:"lane" ~bandwidth:bw ~period_ns:period in
  let t1 = Arbiter.register a ~name:"t1" () in
  let t2 = Arbiter.register a ~name:"t2" () in
  let _, w1 = Arbiter.window a t1 in
  let small = 4096 in
  (* At its own window start a small epoch is admitted. *)
  (match Arbiter.admit a t1 ~now:0 ~est_bytes:small with
  | Arbiter.Admit -> ()
  | _ -> Alcotest.fail "small epoch at window start must be admitted");
  (* Inside the OTHER tenant's window the epoch is delayed to the next
     opening of its own window, never rejected. *)
  let o2, _ = Arbiter.window a t2 in
  (match Arbiter.admit a t1 ~now:o2 ~est_bytes:small with
  | Arbiter.Delay d ->
      Alcotest.(check bool) "delay positive" true (d > 0);
      (* Landing time is inside t1's window of the next period. *)
      let land_ = (o2 + d) mod period in
      let o1, ww1 = Arbiter.window a t1 in
      Alcotest.(check bool) "delay lands in own window" true
        (land_ >= o1 && land_ + Cost.transfer_time ~bandwidth:bw small <= o1 + ww1)
  | _ -> Alcotest.fail "epoch outside its window must be delayed");
  (* An epoch whose flush cannot fit any window of this tenant is
     rejected outright. *)
  let huge = (w1 / 1_000_000_000 + 1) * bw + bw in
  (match Arbiter.admit a t1 ~now:0 ~est_bytes:huge with
  | Arbiter.Reject -> ()
  | _ -> Alcotest.fail "over-window epoch must be rejected");
  Arbiter.note_delayed a t1;
  Arbiter.note_rejected a t1;
  let s = Arbiter.stats a t1 in
  Alcotest.(check int) "delayed counted" 1 s.Arbiter.ts_delayed;
  Alcotest.(check int) "rejected counted" 1 s.Arbiter.ts_rejected

let test_lane_attribution () =
  let a = Arbiter.create ~name:"lane" ~bandwidth:bw ~period_ns:period in
  let t1 = Arbiter.register a ~name:"t1" () in
  let t2 = Arbiter.register a ~name:"t2" () in
  let big = 8 * 1024 * 1024 in
  let c1 = Arbiter.submit a t1 ~now:0 ~bytes:big in
  (* t2 submits while t1's grant occupies the lane: the wait is billed to
     t2 (it suffered it) and the service to each grant's owner. *)
  let c2 = Arbiter.submit a t2 ~now:0 ~bytes:big in
  Alcotest.(check bool) "lane is FCFS" true (c2 > c1);
  let s1 = Arbiter.stats a t1 and s2 = Arbiter.stats a t2 in
  Alcotest.(check int) "t1 no wait" 0 s1.Arbiter.ts_wait_ns;
  Alcotest.(check int) "t2 waits t1's service" s1.Arbiter.ts_busy_ns
    s2.Arbiter.ts_wait_ns;
  Alcotest.(check int) "t1 bytes" big s1.Arbiter.ts_bytes;
  Alcotest.(check int) "grants" 1 s2.Arbiter.ts_grants;
  Alcotest.(check bool) "accounting identity" true (Arbiter.accounting_ok a);
  Alcotest.(check int) "lane busy is the sum"
    (s1.Arbiter.ts_busy_ns + s2.Arbiter.ts_busy_ns)
    (Arbiter.lane_busy_ns a)

(* Priority-lane span attribution (the PR's bugfix) ------------------------ *)

(* Regression: a priority-lane submission runs on its own arbitration, not
   behind the shared FCFS queue — its span must show qwait=0 with the full
   window as service, even when another consumer has the queue backed up.
   The old busy_until-derived math billed that other consumer's backlog to
   the priority write. *)
let test_priority_qwait_zero () =
  let clock = Clock.create () in
  let dev = Striped.create () in
  Trace.enable ~capacity:4096 ~clock ();
  (* Back the device queues up with a large plain write... *)
  let _ = Striped.write dev ~now:0 ~off:0 (Bytes.create (1 lsl 20)) in
  (* ...then submit on the priority lane while the backlog drains. *)
  let _ =
    Striped.write_priority dev ~now:0 ~off:(1 lsl 21) (Bytes.create 64)
      ~completion:Cost.nvme_sync_write_latency
  in
  let text = Trace.export_text () in
  Trace.disable ();
  let prio_lines =
    String.split_on_char '\n' text
    |> List.filter (fun l ->
           let re = Str.regexp_string "dev:priority" in
           try
             ignore (Str.search_forward re l 0);
             true
           with Not_found -> false)
  in
  Alcotest.(check bool) "priority event traced" true (prio_lines <> []);
  List.iter
    (fun l ->
      let has_zero =
        try
          ignore (Str.search_forward (Str.regexp_string "qwait=0 ") (l ^ " ") 0);
          true
        with Not_found -> false
      in
      if not has_zero then
        Alcotest.failf "priority span billed foreign queue wait: %s" l)
    prio_lines

(* Fleet scheduler --------------------------------------------------------- *)

let test_fleet_smoke () =
  let specs =
    List.init 4 (fun i -> Fleet.default_spec (Printf.sprintf "t%d" i))
  in
  let f = Fleet.create ~period_ns:period specs in
  Fleet.run_for f ~duration:(20 * period);
  let r = Fleet.report f in
  Alcotest.(check bool) "made progress" true (r.Fleet.r_epochs > 0);
  List.iter
    (fun tr ->
      Alcotest.(check bool)
        (tr.Fleet.tr_name ^ " checkpointed")
        true (tr.Fleet.tr_epochs > 0))
    r.Fleet.r_tenants;
  Alcotest.(check int) "no flush-window collisions" 0 r.Fleet.r_collisions;
  Alcotest.(check bool) "fair" true (r.Fleet.r_jain >= 0.9);
  Alcotest.(check bool) "lane accounting identity" true r.Fleet.r_accounting_ok

let test_fleet_staggered_offsets () =
  let specs = List.init 3 (fun i -> Fleet.default_spec (Printf.sprintf "s%d" i)) in
  let f = Fleet.create ~period_ns:period specs in
  (* Three equal-weight tenants: each owns a third of the period and the
     scheduler launches each epoch at its own offset. *)
  Fleet.run_for f ~duration:(6 * period);
  let r = Fleet.report f in
  Alcotest.(check int) "collisions" 0 r.Fleet.r_collisions;
  (* Epoch counts stay within one of each other (no starvation); exactly
     one apart is the phase effect of the staggered offsets against the
     run's end time. *)
  let counts = List.map (fun tr -> tr.Fleet.tr_epochs) r.Fleet.r_tenants in
  let mn = List.fold_left min max_int counts
  and mx = List.fold_left max 0 counts in
  Alcotest.(check bool) "all tenants progress" true (mn > 0);
  Alcotest.(check bool)
    (Printf.sprintf "epoch spread <= 1 (min %d, max %d)" mn mx)
    true
    (mx - mn <= 1)

let test_jain () =
  Alcotest.(check (float 1e-9)) "uniform" 1.0 (Fleet.jain [ 3.; 3.; 3. ]);
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Fleet.jain []);
  Alcotest.(check (float 1e-9)) "one-hot" 0.25 (Fleet.jain [ 1.; 0.; 0.; 0. ])

(* Cross-tenant isolation (qcheck) ----------------------------------------- *)

(* A mutation trace drives a tenant's workload surface through its
   handles; [Ck] checkpoints.  The same trace applied to the tenant inside
   an interleaved fleet and to the same tenant as a one-tenant fleet must
   produce byte-identical stores, epoch for epoch. *)
type mop = Rw of int * int | Touch of int * int | Ck

let mop_to_string = function
  | Rw (h, p) -> Printf.sprintf "Rw(%d,%d)" h p
  | Touch (h, pg) -> Printf.sprintf "Touch(%d,%d)" h pg
  | Ck -> "Ck"

let gen_mop =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun a b -> Rw (a, b)) (int_bound 7) (int_bound 7));
        (3, map2 (fun a b -> Touch (a, b)) (int_bound 7) (int_bound 15));
        (1, return Ck);
      ])

let arb_trace =
  QCheck.make
    ~print:(fun t -> String.concat ";" (List.map mop_to_string t))
    QCheck.Gen.(list_size (int_range 4 16) gen_mop)

let apply_mop ~machine ~handles op =
  let handles = Array.of_list handles in
  let nh = Array.length handles in
  match op with
  | Rw (hi, pi) ->
      let h = handles.(hi mod nh) in
      let np = Array.length h.Fleet.ph_pipes in
      if np > 0 then begin
        let rd, wr = h.Fleet.ph_pipes.(pi mod np) in
        ignore (Syscall.write machine h.Fleet.ph_proc ~fd:wr "q");
        ignore (Syscall.read machine h.Fleet.ph_proc ~fd:rd ~len:1)
      end
  | Touch (hi, pg) ->
      let h = handles.(hi mod nh) in
      let spec_pages = 4 (* default_spec arena *) in
      Vm_space.touch_write h.Fleet.ph_proc.Process.space
        ~addr:(h.Fleet.ph_arena_addr + (pg mod spec_pages * Page.logical_size))
        ~len:1
  | Ck -> ()

(* Canonical byte-level render of every checkpoint epoch of a store. *)
let render_store store =
  let b = Buffer.create 4096 in
  List.iter
    (fun epoch ->
      Buffer.add_string b (Printf.sprintf "E%d\n" epoch);
      List.iter
        (fun (oid, kind) ->
          let meta = Store.read_meta store ~epoch ~oid in
          let crcs =
            Store.page_crcs store ~epoch ~oid
            |> List.map (fun (i, c) -> Printf.sprintf "%d:%d" i c)
            |> String.concat ","
          in
          Buffer.add_string b
            (Printf.sprintf "O%d|%s|%s|%s\n" oid kind (String.escaped meta) crcs))
        (Store.objects_at store ~epoch))
    (Store.checkpoint_epochs store);
  Buffer.contents b

let isolation_prop traces =
  let n = List.length traces in
  let specs = List.init n (fun i -> Fleet.default_spec (Printf.sprintf "q%d" i)) in
  let fleet = Fleet.create ~period_ns:period specs in
  let traces_a = Array.of_list traces in
  (* Interleave the tenants' traces round-robin op by op, checkpointing
     through the fleet (shared clock, shared arbiter lane). *)
  let idx = Array.make n 0 in
  let remaining = ref n in
  let arrays = Array.map Array.of_list traces_a in
  while !remaining > 0 do
    remaining := 0;
    for i = 0 to n - 1 do
      let ops = arrays.(i) in
      if idx.(i) < Array.length ops then begin
        (match ops.(idx.(i)) with
        | Ck -> ignore (Fleet.checkpoint_now fleet i)
        | op ->
            apply_mop ~machine:(Fleet.machine fleet i)
              ~handles:(Fleet.handles fleet i) op);
        idx.(i) <- idx.(i) + 1;
        if idx.(i) < Array.length ops then incr remaining
      end
    done
  done;
  for i = 0 to n - 1 do
    ignore (Fleet.checkpoint_now ~wait_durable:true fleet i)
  done;
  (* Each tenant alone as a one-tenant fleet, same construction, same
     trace. *)
  List.iteri
    (fun i trace ->
      let s = Fleet.create ~period_ns:period [ List.nth specs i ] in
      List.iter
        (fun op ->
          match op with
          | Ck -> ignore (Group.checkpoint (Fleet.group s 0))
          | op -> apply_mop ~machine:(Fleet.machine s 0) ~handles:(Fleet.handles s 0) op)
        trace;
      ignore (Group.checkpoint ~wait_durable:true (Fleet.group s 0));
      let fleet_r = render_store (Fleet.store fleet i) in
      let solo_r = render_store (Fleet.store s 0) in
      if fleet_r <> solo_r then
        QCheck.Test.fail_reportf
          "tenant %d diverged from its solo run:\n--- fleet ---\n%s--- solo ---\n%s"
          i fleet_r solo_r)
    traces;
  true

let isolation_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"interleaved tenants restore byte-identically"
       ~count:15
       (QCheck.list_of_size (QCheck.Gen.return 3) arb_trace)
       isolation_prop)

let () =
  Alcotest.run "fleet"
    [
      ( "arbiter",
        [
          Alcotest.test_case "windows partition the period" `Quick
            test_windows_partition;
          Alcotest.test_case "admission decisions" `Quick test_admission;
          Alcotest.test_case "lane attribution" `Quick test_lane_attribution;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "priority lane qwait is zero" `Quick
            test_priority_qwait_zero;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "smoke" `Quick test_fleet_smoke;
          Alcotest.test_case "staggered, no starvation" `Quick
            test_fleet_staggered_offsets;
          Alcotest.test_case "jain index" `Quick test_jain;
        ] );
      ("isolation", [ isolation_test ]);
    ]
