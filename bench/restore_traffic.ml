(* Traffic after an on-demand restore.  A restore leaves every
   connection socket a shell whose rebuild is charged at its first use,
   so the restore itself is short; this measures what the HTTP server's
   own traffic does next: how soon the first response leaves, and how
   many sockets the traffic has rebuilt by then and after.

   The server and its traffic are the repo benchmark's http_stw: 384
   keep-alive connections closing after 64 requests, an open-loop
   schedule of 30k requests/s (zipf routes, some requests in two
   segments) over a 10 GbE link, a keepalive probe per connection every
   2.5 ms, a stop-the-world checkpoint every 5 ms, history pruned to 16
   epochs every 10.  Unlike http_stw, a checkpoint's stop window does not
   hold the segments that arrive inside it.

   The server runs the schedule until [crash_ns], checkpoints there and
   waits for it to be durable, and its device image is saved.  Each arm
   boots a fresh machine on that image at the crash instant, recovers the
   store, restores the server (verified, eager pages) and replays the
   schedule's continuation, probes and checkpoints included, from the
   crash instant on, for [replay_ns]: the checkpoint's flush takes no
   traffic time.  Segments due while the restore runs are handled, in
   order, once it ends, as http_stw handles those held by a stop window.
   A connection's client reaches the restored socket again at its first
   segment ([Http_sim.reattach]), which rebuilds a shell.  Arms: "on
   demand" (sockets left as shells) and "eager" (every socket rebuilt
   right after the restore, as a restore without shells charges).

     dune exec bench/main.exe -- restore-traffic          # seeds 1 and 7, crash at 1.2 s
     dune exec bench/main.exe -- restore-traffic smoke    # seed 1, crash at 100 ms, gated *)

module Clock = Aurora_sim.Clock
module Event_queue = Aurora_sim.Event_queue
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Fdesc = Aurora_kern.Fdesc
module Socket = Aurora_kern.Socket
module Link = Aurora_net.Link
module Striped = Aurora_block.Striped
module Store = Aurora_objstore.Store
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore
module Http_sim = Aurora_apps.Http_sim
module Http_load = Aurora_workloads.Http_load
module Units = Aurora_util.Units

let conns = 384
let rate = 30_000.0
let period_ns = 5_000_000
let probe_ns = 2_500_000
let prune_every = 10
let keep = 16

(* Offsets past the crash at which the rebuilt sockets are counted; the
   last one ends the replay. *)
let offsets = [ 1_000_000; 2_500_000; 5_000_000; 10_000_000 ]
let replay_ns = List.fold_left max 0 offsets

type event =
  | Deliver of int * string  (** connection slot, bytes *)
  | Probe of int
  | Ckpt_due
  | Tally of int  (** the offset to count rebuilt sockets at *)

type row = {
  seed : int;
  arm : string;
  sockets : int;  (** sockets the restore brought back *)
  restore_ns : int;  (** crash to the end of the restore, recovery included *)
  first_ns : int;  (** crash to the restoring clock when the first response is written *)
  first_built : int;  (** sockets rebuilt by then *)
  built : (int * int) list;  (** offset past the crash -> sockets rebuilt *)
}

let rebuilt sockets = List.length (List.filter (fun s -> not (Socket.is_shell s)) sockets)

let sockets_of (p : Process.t) =
  List.filter_map
    (fun (_, d) -> match d.Fdesc.kind with Fdesc.Socket_fd s -> Some s | _ -> None)
    (Process.fds p)

(* The server before the crash: the saved device image, the server and
   its connection slots as the crash left them, and the schedule's
   remaining events in order, timed from the crash. *)
let run_to_crash ~seed ~crash_ns path =
  let sys = Sls.boot () in
  let machine = sys.Sls.machine in
  let clk = machine.Machine.clock in
  let srv = Http_sim.create ~machine ~keep_alive_max:64 () in
  let slots = Array.init conns (fun _ -> Http_sim.connect srv) in
  let group = Sls.attach ~period_ns sys [ Http_sim.proc srv ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let t_start = Clock.now clk in
  let t_end = t_start + crash_ns + replay_ns + period_ns in
  let link_up = Link.create ~name:"restore-traffic-up" () in
  let q = Event_queue.create () in
  List.iter
    (fun (r : Http_load.req) ->
      let send = t_start + r.hl_time in
      let payload = Http_sim.request r.hl_route in
      if r.hl_frag then begin
        let cut = String.length payload / 2 in
        let a1 = Link.delivery_time link_up ~now:send ~bytes:cut in
        let a2 =
          Link.delivery_time link_up ~now:(send + 1_500) ~bytes:(String.length payload - cut)
        in
        Event_queue.schedule q ~time:a1 (Deliver (r.hl_conn, String.sub payload 0 cut));
        Event_queue.schedule q ~time:(max a2 (a1 + 1))
          (Deliver (r.hl_conn, String.sub payload cut (String.length payload - cut)))
      end
      else
        Event_queue.schedule q
          ~time:(Link.delivery_time link_up ~now:send ~bytes:(String.length payload))
          (Deliver (r.hl_conn, payload)))
    (Http_load.generate ~seed ~rate ~duration_ns:(t_end - t_start) ~conns ~static_routes:96
       ~dynamic_routes:32 ());
  Event_queue.schedule q ~time:(t_start + period_ns) Ckpt_due;
  for i = 0 to conns - 1 do
    Event_queue.schedule q ~time:(t_start + (i * probe_ns / conns)) (Probe i)
  done;
  let conn slot =
    if slots.(slot).Http_sim.c_closed then slots.(slot) <- Http_sim.connect srv;
    slots.(slot)
  in
  let handle time = function
    | Deliver (slot, bytes) -> ignore (Http_sim.feed srv (conn slot) ~now:time bytes)
    | Probe slot ->
        Http_sim.keepalive srv slots.(slot);
        Event_queue.schedule q ~time:(time + probe_ns) (Probe slot)
    | Ckpt_due ->
        ignore (Group.checkpoint group);
        if Group.last_epoch group mod prune_every = 0 then
          ignore (Store.prune_history sys.Sls.store ~keep);
        Event_queue.schedule q ~time:(time + period_ns) Ckpt_due
    | Tally _ -> ()
  in
  Event_queue.run q ~clock:clk ~handler:handle ~until:(t_start + crash_ns);
  ignore (Group.checkpoint ~wait_durable:true group);
  Striped.save_file sys.Sls.device ~clock:clk path;
  let crash_at = t_start + crash_ns in
  let rest = ref [] in
  while not (Event_queue.is_empty q) do
    Option.iter (fun (time, ev) -> rest := (time - crash_at, ev) :: !rest) (Event_queue.pop q)
  done;
  (srv, Array.copy slots, List.rev !rest)

(* One arm: boot on the saved image, recover, restore, replay. *)
let replay ~seed ~eager path (srv, slots, rest) =
  let dev, at = Striped.load_file path in
  let machine = Machine.create () in
  let clk = machine.Machine.clock in
  Clock.advance_to clk at;
  let store = Store.recover ~dev ~clock:clk in
  let r =
    match Restore.restore_verified ~machine ~store () with
    | Ok v -> v.Restore.vr_result
    | Error e -> failwith ("restore-traffic: " ^ Restore.pp_restore_error e)
  in
  let proc = List.hd r.Restore.procs in
  let sockets = sockets_of proc in
  if eager then List.iter Socket.materialize sockets;
  let restored_at = Clock.now clk in
  let srv = Http_sim.resume srv ~machine ~proc in
  let until = at + replay_ns in
  (* A slot's connection as its next segment finds it: reattached once,
     or a fresh one through the listener when it had closed. *)
  let live = Array.make conns None in
  let conn slot =
    match live.(slot) with
    | Some c when not c.Http_sim.c_closed -> c
    | Some _ ->
        let c = Http_sim.connect srv in
        live.(slot) <- Some c;
        c
    | None ->
        let old = slots.(slot) in
        let c = if old.Http_sim.c_closed then Http_sim.connect srv else Http_sim.reattach srv old in
        live.(slot) <- Some c;
        c
  in
  let q = Event_queue.create () in
  List.iter (fun (time, ev) -> Event_queue.schedule q ~time:(at + time) ev) rest;
  List.iter (fun off -> Event_queue.schedule q ~time:(at + off) (Tally off)) offsets;
  let first = ref None and built = ref [] in
  let handle time = function
    | Deliver (slot, bytes) ->
        let responses = Http_sim.feed srv (conn slot) ~now:(Clock.now clk) bytes in
        if responses <> [] && !first = None then first := Some (Clock.now clk - at, rebuilt sockets)
    | Probe slot ->
        Http_sim.keepalive srv (conn slot);
        Event_queue.schedule q ~time:(time + probe_ns) (Probe slot)
    | Ckpt_due ->
        ignore (Group.checkpoint r.Restore.group);
        Event_queue.schedule q ~time:(time + period_ns) Ckpt_due
    | Tally off -> built := (off, rebuilt sockets) :: !built
  in
  Event_queue.run q ~clock:clk ~handler:handle ~until;
  let first_ns, first_built =
    match !first with Some f -> f | None -> failwith "restore-traffic: no response"
  in
  {
    seed;
    arm = (if eager then "eager" else "on demand");
    sockets = List.length sockets;
    restore_ns = restored_at - at;
    first_ns;
    first_built;
    built = List.rev !built;
  }

let measure ~seed ~crash_ns =
  let path = Filename.temp_file "aurora_restore_traffic" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let crashed = run_to_crash ~seed ~crash_ns path in
      [ replay ~seed ~eager:false path crashed; replay ~seed ~eager:true path crashed ])

let columns : row Report.column list =
  Report.
    [
      ("seed", "seed", fun r -> Count r.seed);
      ("arm", "arm", fun r -> Str r.arm);
      ("sockets", "sockets", fun r -> Count r.sockets);
      ("restore", "restore_ns", fun r -> Ns (float_of_int r.restore_ns));
      ("1st resp", "first_response_ns", fun r -> Ns (float_of_int r.first_ns));
      ("built@1st", "built_at_first", fun r -> Count r.first_built);
    ]
  @ List.map
      (fun off ->
        ( Printf.sprintf "built@+%s" (Units.ns_to_string off),
          Printf.sprintf "built_at_%d_ns" off,
          fun r -> Report.Count (List.assoc off r.built) ))
      offsets
  @ [
      ( "rebuilds paid",
        "rebuild_ns",
        fun r -> Report.Ns (float_of_int (List.assoc replay_ns r.built * Restore.socket_restore_ns)) );
    ]

(* Gates: on demand reaches its first response sooner than eager, and
   never pays more rebuilds than eager over the replay. *)
let gates rows =
  let arm name = List.find (fun r -> r.arm = name) rows in
  let od = arm "on demand" and eg = arm "eager" in
  let last r = List.assoc replay_ns r.built in
  Report.gates "restore-traffic"
    [
      ( "first response, on demand / eager",
        Num (3, float_of_int od.first_ns /. float_of_int eg.first_ns),
        "< 1",
        od.first_ns < eg.first_ns );
      ( "sockets rebuilt by the end, on demand - eager",
        Count (last od - last eg),
        "<= 0",
        last od <= last eg );
    ]

let sweep mode ~seeds ~crash_ns =
  Printf.printf
    "restore-traffic: http_stw's server crashed at %s, restored, its schedule replayed %s \
     past the crash\n\n"
    (Units.ns_to_string crash_ns) (Units.ns_to_string replay_ns);
  let rows = List.concat_map (fun seed -> measure ~seed ~crash_ns) seeds in
  Report.emit mode ~bench:"restore_traffic" ~file:"BENCH_restore_traffic.json" columns rows;
  gates (List.filter (fun r -> r.seed = List.hd seeds) rows)

let run = function
  | Report.Smoke as mode -> sweep mode ~seeds:[ 1 ] ~crash_ns:100_000_000
  | Full as mode -> sweep mode ~seeds:[ 1; 7 ] ~crash_ns:1_200_000_000
  | _ -> raise Report.Usage
