(* http_stw and http_spec: the event-loop HTTP server under continuous
   checkpointing, driven by an open-loop client.

   Send times are fixed in advance (Poisson, from the seed), each request
   is timed from its scheduled send, and a checkpoint's stop window holds
   every segment that reaches the server inside it until the window ends
   — so a stall delays the requests queued behind it too, as it does on a
   real server whose worker pool is frozen.  The client side mirrors
   [Http_sim.run] (one queued link per direction, requests split into two
   segments with the same probability, keep-alive probes), which the
   cross-check in [Selftest] holds it to. *)

module Clock = Aurora_sim.Clock
module Event_queue = Aurora_sim.Event_queue
module Resource = Aurora_sim.Resource
module Machine = Aurora_kern.Machine
module Link = Aurora_net.Link
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Http_sim = Aurora_apps.Http_sim
module Http_load = Aurora_workloads.Http_load
module Trace = Aurora_obs.Trace

type config = {
  conns : int;
  rate : float;  (** requests per second, open loop *)
  duration_ns : int;  (** virtual length; the first fifth is warm-up *)
  period_ns : int;  (** checkpoint period *)
  speculative : bool;
  static_routes : int;
  dynamic_routes : int;
  keep_alive_max : int;
  probe_interval_ns : int;
  prune_every : int;  (** checkpoints between history prunes *)
  keep : int;  (** epochs a prune retains *)
}

(* One repetition at [scale] 1.0 covers 1.2 s of virtual time: 36k
   requests, 29k of them measured, and 192 measured checkpoints. *)
let config ~speculative ~scale =
  {
    conns = 384;
    rate = 30_000.0;
    duration_ns = int_of_float (scale *. 1.2e9);
    period_ns = 5_000_000;
    speculative;
    static_routes = 96;
    dynamic_routes = 32;
    keep_alive_max = 64;
    probe_interval_ns = 2_500_000;
    prune_every = 10;
    keep = 16;
  }

let sizes c =
  [
    ("conns", string_of_int c.conns);
    ("rate_rps", Printf.sprintf "%.0f" c.rate);
    ("duration_ns", string_of_int c.duration_ns);
    ("warmup_ns", string_of_int (c.duration_ns / 5));
    ("period_ns", string_of_int c.period_ns);
    ("routes", Printf.sprintf "%d static + %d dynamic" c.static_routes c.dynamic_routes);
    ("keep_alive_max", string_of_int c.keep_alive_max);
    ("probe_interval_ns", string_of_int c.probe_interval_ns);
    ("prune", Printf.sprintf "keep %d every %d checkpoints" c.keep c.prune_every);
    ("mode", if c.speculative then "speculative" else "stop-the-world");
  ]

let slo_ns = 500_000

type event =
  | Deliver of int * string * bool  (** request index, bytes, completes the request *)
  | Ckpt_due
  | Probe of int
  | Release  (** the current stop window ends *)

let run_rep (r : Common.t) cfg ~seed ~last =
  let schedule =
    Array.of_list
      (Http_load.generate ~seed ~rate:cfg.rate ~duration_ns:cfg.duration_ns ~conns:cfg.conns
         ~static_routes:cfg.static_routes ~dynamic_routes:cfg.dynamic_routes ())
  in
  let sys, srv, clk, group, slots, link_up, link_down, hook_ops =
    Common.setup r (fun () ->
        let sys = Sls.boot () in
        let machine = sys.Sls.machine in
        let clk = machine.Machine.clock in
        Common.trace_on r clk;
        let srv = Http_sim.create ~machine ~keep_alive_max:cfg.keep_alive_max () in
        let link_up = Link.create ~name:"bench-up" () in
        let link_down = Link.create ~name:"bench-down" () in
        let slots = Array.init cfg.conns (fun _ -> Http_sim.connect srv) in
        let group = Sls.attach ~period_ns:cfg.period_ns sys [ Http_sim.proc srv ] in
        ignore (Group.checkpoint ~wait_durable:true group);
        Common.drain r;
        let hook_ops = ref 0 in
        if cfg.speculative then begin
          Group.set_speculative group true;
          (* Background dynamic requests served on a spare core inside
             the soft-quiesce yield windows, as [Http_sim.run] does. *)
          let spare = Resource.create ~name:"bench-spare-core" in
          let hook_conn = ref (Http_sim.connect srv) in
          let hook_route = ref 0 in
          Machine.set_run_hook machine
            (Some
               (fun window_ns ->
                 for _ = 1 to max 1 (window_ns / 150_000) do
                   if !hook_conn.Http_sim.c_closed then hook_conn := Http_sim.connect srv;
                   let route = Http_load.Dynamic (!hook_route mod cfg.dynamic_routes) in
                   incr hook_route;
                   ignore
                     (Http_sim.feed srv !hook_conn ~now:(Clock.now clk) ~on:spare
                        (Http_sim.request route));
                   incr hook_ops
                 done))
        end;
        (sys, srv, clk, group, slots, link_up, link_down, hook_ops))
  in
  let n = Array.length schedule in
  let t_start = Clock.now clk in
  let warmup_until = t_start + (cfg.duration_ns / 5) in
  let t_end = t_start + cfg.duration_ns in
  let send_time i = t_start + schedule.(i).Http_load.hl_time in
  let answered = Array.make n 0 in
  let last_answered = Array.make cfg.conns (-1) in
  let q : event Event_queue.t = Event_queue.create () in
  Array.iteri
    (fun i (req : Http_load.req) ->
      let send_t = send_time i in
      let payload = Http_sim.request req.hl_route in
      if req.hl_frag then begin
        let cut = String.length payload / 2 in
        let a1 = Link.delivery_time link_up ~now:send_t ~bytes:cut in
        let a2 =
          Link.delivery_time link_up ~now:(send_t + 1_500)
            ~bytes:(String.length payload - cut)
        in
        Event_queue.schedule q ~time:a1 (Deliver (i, String.sub payload 0 cut, false));
        Event_queue.schedule q ~time:(max a2 (a1 + 1))
          (Deliver (i, String.sub payload cut (String.length payload - cut), true))
      end
      else
        Event_queue.schedule q
          ~time:(Link.delivery_time link_up ~now:send_t ~bytes:(String.length payload))
          (Deliver (i, payload, true)))
    schedule;
  Event_queue.schedule q ~time:(t_start + cfg.period_ns) Ckpt_due;
  for i = 0 to cfg.conns - 1 do
    Event_queue.schedule q ~time:(t_start + (i * cfg.probe_interval_ns / cfg.conns)) (Probe i)
  done;
  let reconnects = ref 0 in
  let stall_until = ref 0 in
  let held = Queue.create () in
  let answer i (resp : Http_sim.response) ~arrived ~fed =
    let slot = schedule.(i).Http_load.hl_conn in
    answered.(i) <- answered.(i) + 1;
    Common.checkf r (i > last_answered.(slot))
      "http: request %d answered after request %d on connection %d" i last_answered.(slot)
      slot;
    last_answered.(slot) <- i;
    let send = send_time i in
    let back = Link.delivery_time link_down ~now:resp.r_done ~bytes:resp.r_bytes in
    if send >= warmup_until then begin
      (* The four segments of a request's round trip. *)
      let uplink = arrived - send
      and stall = fed - arrived
      and server = resp.r_done - fed
      and downlink = back - resp.r_done in
      Common.checkf r
        (uplink >= 0 && stall >= 0 && server >= 0 && downlink >= 0
        && uplink + stall + server + downlink = back - send)
        "http: request %d segments do not sum to its round trip" i;
      Common.sample r "req_us" (Common.us (back - send));
      Common.add r "http.link_us" (Common.us (uplink + downlink));
      Common.add r "http.stall_us" (Common.us stall);
      Common.add r "http.server_us" (Common.us server);
      if back - send > slo_ns then Common.add r "slo_misses" 1.;
      if r.tracing then
        List.iter
          (fun (name, ts, dur) ->
            Trace.complete ~ts ~dur ~args:[ ("id", Trace.Int i) ] ~cat:"req" name)
          [
            ("uplink", send, uplink);
            ("stall", arrived, stall);
            ("server", fed, server);
            ("downlink", resp.r_done, downlink);
          ]
    end
  in
  let deliver i bytes completes ~arrived ~fed =
    let slot = schedule.(i).Http_load.hl_conn in
    let conn =
      if slots.(slot).Http_sim.c_closed then begin
        incr reconnects;
        let c = Http_sim.connect srv in
        slots.(slot) <- c;
        c
      end
      else slots.(slot)
    in
    let responses =
      Common.span r ~clock:clk "http.feed" ~args:[ ("id", Trace.Int i) ] (fun () ->
          Http_sim.feed srv conn ~now:fed bytes)
    in
    match (completes, responses) with
    | true, [ resp ] -> answer i resp ~arrived ~fed
    | false, [] | true, [] -> ()
    | _, _ ->
        Common.checkf r false "http: segment of request %d produced %d responses" i
          (List.length responses)
  in
  let release () =
    while not (Queue.is_empty held) do
      let arrived, i, bytes, completes = Queue.pop held in
      deliver i bytes completes ~arrived ~fed:!stall_until
    done
  in
  let handle time = function
    | Deliver (i, bytes, completes) ->
        if time < !stall_until then Queue.push (time, i, bytes, completes) held
        else begin
          release ();
          deliver i bytes completes ~arrived:time ~fed:time
        end
    | Release -> release ()
    | Ckpt_due ->
        release ();
        let s = Common.checkpoint ~measured:(time >= warmup_until) r group in
        stall_until := time + s.Group.stop_ns;
        if Group.last_epoch group mod cfg.prune_every = 0 then begin
          let freed =
            Common.span r ~clock:clk "store.prune" (fun () ->
                Aurora_objstore.Store.prune_history sys.Sls.store ~keep:cfg.keep)
          in
          Common.add r "store.prune_freed_blocks" (float_of_int freed)
        end;
        Event_queue.schedule q ~time:!stall_until Release;
        if time + cfg.period_ns < t_end then
          Event_queue.schedule q ~time:(time + cfg.period_ns) Ckpt_due
    | Probe slot ->
        Http_sim.keepalive srv slots.(slot);
        if time + cfg.probe_interval_ns < t_end then
          Event_queue.schedule q ~time:(time + cfg.probe_interval_ns) (Probe slot)
  in
  let run_until until = Event_queue.run q ~clock:clk ~handler:handle ~until in
  run_until warmup_until;
  let proc = Http_sim.proc srv in
  let finish_counters = Common.begin_counters r ~devs:[ sys.Sls.device ] ~procs:[ proc ] in
  let hook0 = !hook_ops in
  (* Past the end of the schedule the loop still drains the requests in
     flight, so every measured request gets its answer. *)
  Common.measure r (fun () -> run_until max_int);
  release ();
  Common.drain r;
  finish_counters ~procs:[ proc ];
  Machine.set_run_hook sys.Sls.machine None;
  Common.add r "http.hook_ops" (float_of_int (!hook_ops - hook0));
  Common.add r "http.reconnects" (float_of_int !reconnects);
  let requests = ref 0 and unanswered = ref 0 in
  Array.iteri
    (fun i a ->
      if send_time i >= warmup_until then begin
        incr requests;
        Common.attempt r (a = 1);
        if a <> 1 then begin
          incr unanswered;
          if !unanswered <= 5 then
            Common.checkf r false "http: request %d answered %d times" i a
        end
      end)
    answered;
  Common.add r "slo_misses" (float_of_int !unanswered);
  Common.add r "requests" (float_of_int !requests);
  Common.space_amp r sys.Sls.store group;
  if last then Common.crash_and_recover r ~dev:sys.Sls.device ~clock:clk;
  Common.trace_off r

let metrics (r : Common.t) =
  let req = Common.hist r "req_us" in
  let requests = Common.total r "requests" in
  [
    Metric.dist "req_p50_us" "us" req 50.;
    Metric.tail "req_p99_us" "us" req 99.;
    Metric.tail "req_p9999_us" "us" req 99.99;
    Metric.v "slo_miss_frac" "ratio"
      (Common.total r "slo_misses" /. Float.max 1. requests)
      ~n:(int_of_float requests);
  ]
  @ Metric.stop_metrics r
