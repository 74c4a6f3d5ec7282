module Clock = Aurora_sim.Clock
module Fault = Aurora_block.Fault
module Striped = Aurora_block.Striped
module Store = Aurora_objstore.Store
module Rng = Aurora_util.Rng

(* Virtual time a single recovery may consume before the watchdog trips:
   generous for any sane read-retry schedule, small enough to catch a
   recovery that spins. *)
let recovery_budget_ns = 10_000_000_000

(* Canonical observation of a (typically just-recovered) store, in exactly
   the format Model.render_parts produces: (epochs, journals). *)
let observe_parts store =
  let eb = Buffer.create 1024 in
  List.iter
    (fun epoch ->
      Buffer.add_string eb (Printf.sprintf "E%d\n" epoch);
      List.iter
        (fun (oid, kind) ->
          let meta = Store.read_meta store ~epoch ~oid in
          let pages =
            Store.read_pages store ~epoch ~oid
            |> List.map (fun (idx, payload) ->
                   Printf.sprintf "%d:%s" idx (String.escaped (Bytes.to_string payload)))
            |> String.concat ","
          in
          Buffer.add_string eb
            (Printf.sprintf "O%d|%s|%s|%s;\n" oid kind (String.escaped meta) pages))
        (Store.objects_at store ~epoch))
    (Store.checkpoint_epochs store);
  let jb = Buffer.create 256 in
  let rec probe id =
    match Store.journal_find store id with
    | None -> ()
    | Some j ->
        Buffer.add_string jb
          (Printf.sprintf "J%d|%s;\n" id
             (String.concat ","
                (List.map String.escaped (Store.journal_records store j))));
        probe (id + 1)
  in
  probe 1;
  (Buffer.contents eb, Buffer.contents jb)

let observe store =
  let e, j = observe_parts store in
  e ^ j

(* Recording run ------------------------------------------------------------ *)

(* [n] stores, each formatted on its own striped array, sharing one clock. *)
let setup ~misorder n =
  let clock = Clock.create () in
  let devs = Array.init n (fun _ -> Striped.create ()) in
  let stores = Array.map (fun dev -> Store.format ~dev ~clock) devs in
  if misorder then Array.iter (fun s -> Store.set_torture_misorder s true) stores;
  (clock, devs, stores)

(* One fault handler on every array, so a submission index names a global
   device-submission boundary across all tenants. *)
let set_fault devs fault = Array.iter (fun dev -> Striped.set_fault dev fault) devs

(* Round-robin merge of the tenants' workloads, tenant 0 first; a workload
   that runs out drops out and the rest run on. *)
let interleave workloads =
  let rec rounds acc queues =
    match List.filter (fun (_, ops) -> ops <> []) queues with
    | [] -> List.rev acc
    | queues ->
        rounds
          (List.fold_left (fun acc (s, ops) -> (s, List.hd ops) :: acc) acc queues)
          (List.map (fun (s, ops) -> (s, List.tl ops)) queues)
  in
  rounds [] (List.mapi (fun s ops -> (s, ops)) workloads)

type recording = {
  rc_eps : string array array;
      (* rc_eps.(s).(k): tenant s's model epoch render after the first k ops *)
  rc_jrn : string array array; (* the same for tenant s's journals *)
  rc_guarantees : int array array;
      (* rc_guarantees.(s).(k): crash at T >= it implies tenant s's snapshot
         k is durable.  Running max of per-op durability times —
         Store.durable_at for asynchronous checkpoints, the post-op clock for
         synchronous ops. *)
  rc_timeline : (int, int) Hashtbl.t; (* submission index -> ack completion *)
  rc_submissions : int;
}

let record ~misorder ~tenants ops =
  let ops_a = Array.of_list ops in
  let n = Array.length ops_a in
  let clock, devs, stores = setup ~misorder tenants in
  (* The fault handler goes in after format: submission 1 is the first
     workload write, and the enumerator never crashes inside format. *)
  let fault, timeline = Injector.counting () in
  set_fault devs (Some fault);
  let runners = Array.map Workload.runner stores in
  let models = Array.init tenants (fun _ -> Model.create ()) in
  let eps = Array.init tenants (fun _ -> Array.make (n + 1) "") in
  let jrn = Array.init tenants (fun _ -> Array.make (n + 1) "") in
  let gua = Array.init tenants (fun _ -> Array.make (n + 1) 0) in
  Array.iteri
    (fun s model ->
      let e0, j0 = Model.render_parts model in
      eps.(s).(0) <- e0;
      jrn.(s).(0) <- j0)
    models;
  Array.iteri
    (fun i (s, op) ->
      (* The other tenants' state is untouched by this op. *)
      for s' = 0 to tenants - 1 do
        eps.(s').(i + 1) <- eps.(s').(i);
        jrn.(s').(i + 1) <- jrn.(s').(i);
        gua.(s').(i + 1) <- gua.(s').(i)
      done;
      Workload.run_op runners.(s) op;
      Model.apply models.(s) op;
      let e, j = Model.render_parts models.(s) in
      eps.(s).(i + 1) <- e;
      jrn.(s).(i + 1) <- j;
      let g_op =
        match op with
        | Workload.Checkpoint _ -> Store.durable_at stores.(s)
        | Workload.Advance _ -> gua.(s).(i)
        | _ -> Clock.now clock
      in
      gua.(s).(i + 1) <- max gua.(s).(i) g_op)
    ops_a;
  set_fault devs None;
  {
    rc_eps = eps;
    rc_jrn = jrn;
    rc_guarantees = gua;
    rc_timeline = timeline;
    rc_submissions = Fault.submissions fault;
  }

(* Replay [ops] against fresh stores with a crash planted at global device
   submission [stop]; returns the crashed devices, the virtual time at which
   Crash_point fired (None if the workload completed first) and how many
   ops finished. *)
let replay_to_crash ~misorder ~tenants ops ~stop =
  let _clock, devs, stores = setup ~misorder tenants in
  set_fault devs (Some (Injector.crash_at ~index:stop));
  let runners = Array.map Workload.runner stores in
  let ops_done = ref 0 in
  let crash_now =
    try
      List.iter
        (fun (s, op) ->
          Workload.run_op runners.(s) op;
          incr ops_done)
        ops;
      None
    with Fault.Crash_point { now; _ } -> Some now
  in
  set_fault devs None;
  (devs, crash_now, !ops_done)

(* Crash-point enumeration --------------------------------------------------- *)

type failure = {
  f_boundary : int;
  f_mode : string;
  f_crash_time : int;
  f_detail : string;
}

type report = {
  r_boundaries : int;
  r_crash_points : int;
  r_failures : failure list;
}

let pp_failure f =
  Printf.sprintf "boundary %d (%s, T=%d): %s" f.f_boundary f.f_mode f.f_crash_time
    f.f_detail

let recover_observed dev ~crash_time =
  let rclock = Clock.create () in
  Clock.on_advance rclock (fun t ->
      if t > crash_time + recovery_budget_ns then
        failwith "recovery watchdog: virtual-time budget exhausted");
  let store = Store.recover ~dev ~clock:rclock in
  observe_parts store

(* One crash scenario: replay to [stop], cut every device at the same
   durability horizon [crash_time], recover each tenant, and demand its
   observation equal one of its own model snapshots in the window its
   durability guarantees allow.  A crash planted mid-flush of one tenant
   thus also checks the others: their recovery must land on a consistent
   epoch whatever the cut did to the shared submission stream.  Epochs and
   journals may match different snapshots: checkpoint durability is
   asynchronous while journal appends are synchronous, so the journals
   legitimately run ahead. *)
let check_point rc ops ~misorder ~nops ~boundary ~mode ~stop ~time =
  let tenants = Array.length rc.rc_eps in
  let devs, crash_now, ops_done = replay_to_crash ~misorder ~tenants ops ~stop in
  let crash_time =
    match time with
    | `At_raise -> ( match crash_now with Some t -> t | None -> 0)
    | `Fixed t -> t
  in
  Array.iter (fun dev -> Striped.crash dev ~now:crash_time) devs;
  (* An op interrupted mid-flight may have made its decisive write durable
     already (e.g. a truncate's generation bump), so the in-progress op's
     snapshot stays in the window. *)
  let ub = match crash_now with Some _ -> min nops (ops_done + 1) | None -> nops in
  (* Durability guarantees assume the op issued all of its writes, so they
     bind only up to the last op that finished: the in-progress op's
     submissions were cut off, and [crash_time] can lie far past the cut
     (a crashed host whose device drained its queue). *)
  let glimit = match crash_now with Some _ -> ops_done | None -> nops in
  let check_tenant s dev =
    let fail detail =
      let tenant =
        if tenants = 1 then "" else Printf.sprintf "tenant %c: " (Char.chr (65 + s))
      in
      Some
        {
          f_boundary = boundary;
          f_mode = mode;
          f_crash_time = crash_time;
          f_detail = tenant ^ detail;
        }
    in
    let lb =
      let rec go best k =
        if k > glimit then best
        else if rc.rc_guarantees.(s).(k) <= crash_time then go k (k + 1)
        else best
      in
      go 0 0
    in
    match recover_observed dev ~crash_time with
    | eobs, jobs ->
        let find arr target =
          let rec go k =
            if k > ub then None else if arr.(k) = target then Some k else go (k + 1)
          in
          go lb
        in
        let me = find rc.rc_eps.(s) eobs and mj = find rc.rc_jrn.(s) jobs in
        if me <> None && mj <> None then None
        else
          let part name = function
            | Some k -> Printf.sprintf "%s = snapshot %d" name k
            | None -> Printf.sprintf "%s matches none" name
          in
          fail
            (Printf.sprintf "no snapshot in [%d,%d] fits (%s; %s)" lb ub
               (part "epochs" me) (part "journals" mj))
    | exception exn -> fail ("recovery raised " ^ Printexc.to_string exn)
  in
  List.filter_map Fun.id (List.mapi check_tenant (Array.to_list devs))

let enumerate ?(misorder = false) workloads =
  let ops = interleave workloads in
  let rc = record ~misorder ~tenants:(List.length workloads) ops in
  let nops = List.length ops in
  let failures = ref [] in
  let points = ref 0 in
  let run ~boundary ~mode ~stop ~time =
    incr points;
    failures :=
      List.rev_append
        (check_point rc ops ~misorder ~nops ~boundary ~mode ~stop ~time)
        !failures
  in
  for k = 1 to rc.rc_submissions do
    let completion =
      match Hashtbl.find_opt rc.rc_timeline k with
      | Some c -> c
      | None -> invalid_arg "Torture.enumerate: missing timeline entry"
    in
    (* Three durability horizons around boundary k: before its submission
       is issued, after it is issued but before it completes, and exactly
       at its completion. *)
    run ~boundary:k ~mode:"pre-submit" ~stop:k ~time:`At_raise;
    run ~boundary:k ~mode:"pre-complete" ~stop:(k + 1) ~time:(`Fixed (completion - 1));
    run ~boundary:k ~mode:"post-complete" ~stop:(k + 1) ~time:(`Fixed completion)
  done;
  {
    r_boundaries = rc.rc_submissions;
    r_crash_points = !points;
    r_failures = List.rev !failures;
  }

(* Randomized fault sweeps ---------------------------------------------------- *)

type sweep_report = {
  s_runs : int;
  s_final_matches : int; (* recovered/observed state == the model's final state *)
  s_detected : int; (* recovery or observation raised: corruption detected *)
  s_degraded : int;
      (* parseable but different state.  Without block checksums the store
         cannot always detect silently dropped writes; these are counted,
         not failed. *)
  s_read_faults : int; (* transient read errors absorbed by store retries *)
}

let read_only_profile (p : Injector.profile) =
  p.p_drop = 0. && p.p_torn = 0. && p.p_delay = 0.

let sweep ~seed ~runs (profile : Injector.profile) =
  let final_matches = ref 0 in
  let detected = ref 0 in
  let degraded = ref 0 in
  let read_faults = ref 0 in
  for r = 0 to runs - 1 do
    let rng = Rng.create (seed + (r * 7919)) in
    let ops = Workload.gen_ops rng ~n:12 ~max_oid:6 ~max_pages:20 in
    let model = Model.create () in
    List.iter (Model.apply model) ops;
    let want = Model.render model in
    let clock = Clock.create () in
    let dev = Striped.create () in
    let store = Store.format ~dev ~clock in
    if profile.p_read_fail > 0. || profile.p_flip > 0. then
      (* Deep retry budget so a sweep-scale observation survives unlucky
         streaks; persistence past it still surfaces as Io_error. *)
      Store.set_read_policy store ~retries:8 ~backoff_ns:20_000;
    Striped.set_fault dev (Some (Injector.random ~seed:(seed lxor (r * 31)) profile));
    let runner =
      Workload.runner ~check_counts:(profile.p_drop = 0. && profile.p_torn = 0.) store
    in
    List.iter (Workload.run_op runner) ops;
    Store.wait_durable store;
    Striped.settle dev ~clock;
    if read_only_profile profile then begin
      (* Read-path faults leave the media intact: observing the live store
         through the installed fault must still reproduce the model, with
         the retry policy absorbing the transient errors. *)
      (match observe store with
      | obs -> if obs = want then incr final_matches else incr degraded
      | exception _ -> incr detected);
      read_faults := !read_faults + Store.read_faults store
    end
    else begin
      Striped.set_fault dev None;
      Striped.crash dev ~now:(Clock.now clock);
      match
        let eobs, jobs = recover_observed dev ~crash_time:(Clock.now clock) in
        eobs ^ jobs
      with
      | obs -> if obs = want then incr final_matches else incr degraded
      | exception _ -> incr detected
    end
  done;
  {
    s_runs = runs;
    s_final_matches = !final_matches;
    s_detected = !detected;
    s_degraded = !degraded;
    s_read_faults = !read_faults;
  }
