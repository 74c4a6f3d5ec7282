module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Event_queue = Aurora_sim.Event_queue
module Resource = Aurora_sim.Resource
module Histogram = Aurora_util.Histogram
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Socket = Aurora_kern.Socket
module Kqueue = Aurora_kern.Kqueue
module Fdesc = Aurora_kern.Fdesc
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Link = Aurora_net.Link
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Http_load = Aurora_workloads.Http_load
module Trace = Aurora_obs.Trace

let static_service_ns = 600
let dynamic_service_ns = 1_800
let parse_ns_base = 180
let static_body_bytes = 512
let dynamic_body_bytes = 128

type conn = {
  c_id : int;
  c_server_fd : int;
  c_client_fd : int;
  c_buf : Buffer.t;
  mutable c_served : int;
  mutable c_closed : bool;
}

type t = {
  machine : Machine.t;
  http_proc : Process.t;
  client_proc : Process.t;
  listen_fd : int;
  kq_fd : int;
  workers : Resource.t array;
  static_base : int;
  dynamic_base : int;
  keep_alive_max : int;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn_id : int;
  mutable served : int;
}

(* Pages in the read-only static-content arena and in the dynamic
   handlers' arena. *)
let static_pages = 64
let dynamic_pages = 64

let create ~machine ?(workers = 4) ?(keep_alive_max = 200) () =
  let proc = Syscall.spawn machine ~name:"httpd" in
  let client = Syscall.spawn machine ~name:"wrk" in
  let listen_fd = Syscall.socket machine proc Socket.Inet Socket.Tcp in
  Syscall.bind proc ~fd:listen_fd { Socket.host = "0.0.0.0"; port = 80 };
  Syscall.listen proc ~fd:listen_fd;
  let kq_fd = Syscall.kqueue machine proc in
  Syscall.kevent_register proc ~fd:kq_fd
    { Kqueue.ident = listen_fd; filter = Kqueue.Ev_read; flags = 0; udata = 0 };
  let sarena = Syscall.mmap_anon proc ~npages:static_pages in
  let darena = Syscall.mmap_anon proc ~npages:dynamic_pages in
  let static_base = Vm_space.addr_of_entry sarena in
  let dynamic_base = Vm_space.addr_of_entry darena in
  (* Populate both arenas so the first checkpoint is the full one and the
     measured epochs see steady-state incremental behaviour. *)
  for i = 0 to static_pages - 1 do
    Vm_space.write_byte proc.Process.space
      ~addr:(static_base + (i * Page.logical_size))
      's'
  done;
  for i = 0 to dynamic_pages - 1 do
    Vm_space.write_byte proc.Process.space
      ~addr:(dynamic_base + (i * Page.logical_size))
      'd'
  done;
  {
    machine;
    http_proc = proc;
    client_proc = client;
    listen_fd;
    kq_fd;
    workers = Array.init (max 1 workers) (fun i ->
        Resource.create ~name:(Printf.sprintf "httpd-worker-%d" i));
    static_base;
    dynamic_base;
    keep_alive_max;
    conns = Hashtbl.create 64;
    next_conn_id = 0;
    served = 0;
  }

let proc t = t.http_proc
let served t = t.served

let connect t =
  let cfd = Syscall.socket t.machine t.client_proc Socket.Inet Socket.Tcp in
  if
    not
      (Syscall.tcp_connect t.machine t.client_proc ~fd:cfd
         { Socket.host = "10.0.0.1"; port = 80 })
  then failwith "http_sim: SYN to a dead listener";
  let sfd =
    Trace.with_span ~cat:"http" ~name:"accept" (fun () ->
        (* The acceptor wakes from the event loop, not from a blocking
           accept: the listener must show up ready in the kqueue. *)
        let ready = Syscall.kevent_poll t.machine t.http_proc ~fd:t.kq_fd in
        if not (List.exists (fun ev -> ev.Kqueue.ident = t.listen_fd) ready)
        then failwith "http_sim: kqueue missed a pending SYN";
        match Syscall.accept t.machine t.http_proc ~fd:t.listen_fd with
        | Some fd -> fd
        | None -> failwith "http_sim: accept with empty queue")
  in
  Syscall.kevent_register t.http_proc ~fd:t.kq_fd
    { Kqueue.ident = sfd; filter = Kqueue.Ev_read; flags = 0; udata = 0 };
  let id = t.next_conn_id in
  t.next_conn_id <- id + 1;
  let c =
    {
      c_id = id;
      c_server_fd = sfd;
      c_client_fd = cfd;
      c_buf = Buffer.create 256;
      c_served = 0;
      c_closed = false;
    }
  in
  Hashtbl.replace t.conns id c;
  c

(* Restore keeps fd numbers and mappings, so the listener, the kqueue and
   both arenas are where they were; the parse buffers and request counts
   live outside the process and carry over with the records. *)
let resume t ~machine ~proc =
  {
    t with
    machine;
    http_proc = proc;
    client_proc = Syscall.spawn machine ~name:"wrk";
    workers = Array.map (fun w -> Resource.create ~name:(Resource.name w)) t.workers;
    conns = Hashtbl.copy t.conns;
  }

let reattach t c =
  let cfd = Syscall.socket t.machine t.client_proc Socket.Inet Socket.Tcp in
  let sock p fd =
    match (Syscall.fd_exn p fd).Fdesc.kind with
    | Fdesc.Socket_fd s -> s
    | _ -> invalid_arg "http_sim: reattach to a non-socket"
  in
  Socket.pair (sock t.client_proc cfd) (sock t.http_proc c.c_server_fd);
  let c_buf = Buffer.create 256 in
  Buffer.add_buffer c_buf c.c_buf;
  let c' = { c with c_client_fd = cfd; c_buf } in
  Hashtbl.replace t.conns c.c_id c';
  c'

let request route =
  Printf.sprintf "GET %s HTTP/1.1\r\nHost: aurora\r\nConnection: keep-alive\r\n\r\n"
    (Http_load.path_of_route route)

(* Parse the request line out of one complete head.  The router only
   needs the path; everything else is keep-alive boilerplate. *)
let route_of_head head =
  match String.split_on_char ' ' head with
  | _meth :: path :: _ -> (
      match String.split_on_char '/' path with
      | [ ""; "static"; n ] -> Some (Http_load.Static (int_of_string n))
      | [ ""; "api"; n ] -> Some (Http_load.Dynamic (int_of_string n))
      | _ -> None)
  | _ -> None

let find_terminator s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go 0

type response = {
  r_conn : int;
  r_done : int;
  r_bytes : int;
  r_closed : bool;
}

let least_loaded t =
  let best = ref t.workers.(0) in
  Array.iter
    (fun w -> if Resource.next_free w < Resource.next_free !best then best := w)
    t.workers;
  !best

(* A TCP keepalive probe: one byte from the client, read and discarded by
   the server.  Its only observable effect is the one a loaded server
   exhibits anyway — every established connection's socket has seen
   buffer activity by the time a checkpoint lands, so the OS serialize
   pass pays for the whole connection table, not just the conns that
   happened to carry a request this epoch. *)
let keepalive t c =
  if not c.c_closed then begin
    ignore (Syscall.write t.machine t.client_proc ~fd:c.c_client_fd "k");
    ignore (Syscall.read t.machine t.http_proc ~fd:c.c_server_fd ~len:1)
  end

(* Run one routed request on the worker pool.  Arena touches happen on the
   real address space, so post-checkpoint PTE downgrades surface as fault
   cost inside the service time, exactly like the memcached sim. *)
let serve_one t c ~now ~head_bytes ?on route =
  let clk = t.machine.Machine.clock in
  let t0 = Clock.now clk in
  let body_bytes, base_ns =
    match route with
    | Http_load.Static i ->
        let page = i mod static_pages in
        Vm_space.touch_read t.http_proc.Process.space
          ~addr:(t.static_base + (page * Page.logical_size))
          ~len:static_body_bytes;
        (static_body_bytes, static_service_ns)
    | Http_load.Dynamic i ->
        let page = i mod dynamic_pages in
        Vm_space.touch_write t.http_proc.Process.space
          ~addr:(t.dynamic_base + (page * Page.logical_size))
          ~len:dynamic_body_bytes;
        (dynamic_body_bytes, dynamic_service_ns)
  in
  let fault_ns = Clock.now clk - t0 in
  let parse_ns = parse_ns_base + (head_bytes / 8) in
  let service_ns = parse_ns + base_ns + fault_ns in
  let worker =
    match on with Some w -> w | None -> least_loaded t
  in
  let start, completion = Resource.submit_timed worker ~now ~duration:service_ns in
  if Trace.is_on () then begin
    Trace.complete ~ts:start ~dur:parse_ns
      ~args:[ ("conn", Trace.Int c.c_id); ("bytes", Trace.Int head_bytes) ]
      ~cat:"http" "parse";
    Trace.complete ~ts:(start + parse_ns) ~dur:(base_ns + fault_ns)
      ~args:
        [
          ("conn", Trace.Int c.c_id);
          ( "route",
            Trace.Str
              (match route with
              | Http_load.Static i -> Printf.sprintf "static/%d" i
              | Http_load.Dynamic i -> Printf.sprintf "api/%d" i) );
        ]
      ~cat:"http" "route"
  end;
  let body = String.make body_bytes 'x' in
  let resp =
    Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" body_bytes
      body
  in
  ignore (Syscall.write t.machine t.http_proc ~fd:c.c_server_fd resp);
  (* The client side drains its receive queue so socket buffers stay
     bounded across checkpoints. *)
  ignore (Syscall.read t.machine t.client_proc ~fd:c.c_client_fd ~len:(String.length resp));
  if Trace.is_on () then
    Trace.instant ~ts:completion
      ~args:[ ("conn", Trace.Int c.c_id) ]
      ~cat:"http" "respond";
  c.c_served <- c.c_served + 1;
  t.served <- t.served + 1;
  let closed = c.c_served >= t.keep_alive_max in
  if closed then begin
    (match (Syscall.fd_exn t.http_proc t.kq_fd).Aurora_kern.Fdesc.kind with
    | Aurora_kern.Fdesc.Kqueue_fd kq ->
        Kqueue.deregister kq ~ident:c.c_server_fd ~filter:Kqueue.Ev_read
    | _ -> assert false);
    Syscall.close t.http_proc c.c_server_fd;
    Syscall.close t.client_proc c.c_client_fd;
    c.c_closed <- true
  end;
  { r_conn = c.c_id; r_done = completion; r_bytes = String.length resp; r_closed = closed }

let feed t c ~now ?on bytes =
  if c.c_closed then invalid_arg "http_sim: feed on closed conn";
  ignore (Syscall.write t.machine t.client_proc ~fd:c.c_client_fd bytes);
  (* Event-loop dispatch: the connection must be readable in the kqueue
     before the server looks at it. *)
  let ready = Syscall.kevent_poll t.machine t.http_proc ~fd:t.kq_fd in
  if
    not
      (List.exists
         (fun ev ->
           ev.Kqueue.ident = c.c_server_fd && ev.Kqueue.filter = Kqueue.Ev_read)
         ready)
  then []
  else begin
    let rec drain () =
      match Syscall.read t.machine t.http_proc ~fd:c.c_server_fd ~len:4096 with
      | "" -> ()
      | data ->
          Buffer.add_string c.c_buf data;
          drain ()
    in
    drain ();
    (* Per-connection parse buffer: pull out every complete head, leave
       any trailing fragment for the next segment. *)
    let responses = ref [] in
    let continue = ref true in
    while !continue && not c.c_closed do
      let pending = Buffer.contents c.c_buf in
      match find_terminator pending with
      | None -> continue := false
      | Some head_end ->
          Buffer.clear c.c_buf;
          Buffer.add_string c.c_buf
            (String.sub pending head_end (String.length pending - head_end));
          let head = String.sub pending 0 head_end in
          (match route_of_head head with
          | None -> ()
          | Some route ->
              responses :=
                serve_one t c ~now ~head_bytes:head_end ?on route :: !responses)
    done;
    List.rev !responses
  end

(* ------------------------------------------------------------------ *)
(* Benchmark runner: open-loop zipf client over a 10 GbE link.        *)
(* ------------------------------------------------------------------ *)

type config = {
  seed : int;
  conns : int;
  rate : float;
  duration_ns : int;
  period_ns : int option;
  speculative : bool;
}

let default_config =
  {
    seed = 42;
    conns = 32;
    rate = 30_000.0;
    duration_ns = 300_000_000;
    period_ns = None;
    speculative = false;
  }

(* The route mix of the zipf client, and the keepalive probe period per
   connection. *)
let static_routes = 96
let dynamic_routes = 32
let probe_interval_ns = 2_500_000

type outcome = {
  completed : int;
  throughput_rps : float;
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  max_ns : float;
  checkpoints : int;
  avg_stop_ns : float;
  hook_ops : int;
  reconnects : int;
}

type event = Deliver of int * string * int | Ckpt_due | Probe of int

let run cfg =
  let sys = Sls.boot () in
  let machine = sys.Sls.machine in
  let clk = machine.Machine.clock in
  let srv = create ~machine () in
  (* One queued link per direction: requests serialize onto the wire in
     schedule order, responses in completion order.  Sharing one resource
     would make responses queue behind requests scheduled far in the
     future. *)
  let link_up = Link.create ~name:"http-link-up" () in
  let link_down = Link.create ~name:"http-link-down" () in
  (* conn index (schedule space) -> live connection *)
  let slots = Array.init cfg.conns (fun _ -> connect srv) in
  let reconnects = ref 0 in
  let hook_ops = ref 0 in
  let group_opt =
    match cfg.period_ns with
    | None -> None
    | Some period ->
        let group = Sls.attach ~period_ns:period sys [ srv.http_proc ] in
        ignore (Group.checkpoint ~wait_durable:true group);
        if cfg.speculative then begin
          Group.set_speculative group true;
          (* A run hook keeps the service live inside soft-quiesce yield
             windows: background dynamic requests on a dedicated
             connection, served on the spare core rather than the worker
             pool (hook submissions carry mid-checkpoint timestamps; an
             FCFS worker cannot backfill around them).  Each one dirties
             an arena page — the mutation stream conflict validation must
             re-copy. *)
          let spare = Resource.create ~name:"httpd-spare-core" in
          let hook_conn = ref (connect srv) in
          let hook_route = ref 0 in
          Machine.set_run_hook machine
            (Some
               (fun window_ns ->
                 let n = max 1 (window_ns / 150_000) in
                 for _ = 1 to n do
                   if !hook_conn.c_closed then hook_conn := connect srv;
                   let route = Http_load.Dynamic (!hook_route mod dynamic_routes) in
                   incr hook_route;
                   ignore
                     (feed srv !hook_conn ~now:(Clock.now clk) ~on:spare
                        (request route));
                   incr hook_ops
                 done))
        end;
        Some (group, period)
  in
  let q : event Event_queue.t = Event_queue.create () in
  let latencies = Histogram.create () in
  let stops = Histogram.create () in
  let completed = ref 0 in
  let checkpoints = ref 0 in
  let t_start = Clock.now clk in
  let warmup_until = t_start + (cfg.duration_ns / 5) in
  let t_end = t_start + cfg.duration_ns in
  (* In-order response matching: HTTP/1.1 keep-alive responses come back
     in request order per connection, so a FIFO of send times suffices. *)
  let inflight = Array.make cfg.conns (Queue.create ()) in
  for i = 0 to cfg.conns - 1 do
    inflight.(i) <- Queue.create ()
  done;
  let schedule =
    Http_load.generate ~seed:cfg.seed ~rate:cfg.rate ~duration_ns:cfg.duration_ns
      ~conns:cfg.conns ~static_routes ~dynamic_routes ()
  in
  List.iter
    (fun r ->
      let send_t = t_start + r.Http_load.hl_time in
      let payload = request r.Http_load.hl_route in
      if r.Http_load.hl_frag then begin
        (* Two TCP segments: the head of the request lands first, the
           tail a little later; only the second completes a parse. *)
        let cut = String.length payload / 2 in
        let seg1 = String.sub payload 0 cut in
        let seg2 = String.sub payload cut (String.length payload - cut) in
        let a1 = Link.delivery_time link_up ~now:send_t ~bytes:cut in
        let a2 =
          Link.delivery_time link_up ~now:(send_t + 1_500)
            ~bytes:(String.length payload - cut)
        in
        Event_queue.schedule q ~time:a1
          (Deliver (r.Http_load.hl_conn, seg1, send_t));
        Event_queue.schedule q ~time:(max a2 (a1 + 1))
          (Deliver (r.Http_load.hl_conn, seg2, send_t))
      end
      else
        let arrival =
          Link.delivery_time link_up ~now:send_t ~bytes:(String.length payload)
        in
        Event_queue.schedule q ~time:arrival
          (Deliver (r.Http_load.hl_conn, payload, send_t)))
    schedule;
  (match group_opt with
  | Some (_, period) -> Event_queue.schedule q ~time:(t_start + period) Ckpt_due
  | None -> ());
  for i = 0 to cfg.conns - 1 do
    (* Stagger first probes across one interval so they don't arrive as
       a synchronized burst. *)
    Event_queue.schedule q ~time:(t_start + (i * probe_interval_ns / cfg.conns)) (Probe i)
  done;
  let handle time = function
    | Deliver (slot, bytes, send_t) ->
        let conn =
          if slots.(slot).c_closed then begin
            (* Keep-alive budget exhausted server-side: the client opens a
               fresh connection (SYN + accept) before resending. *)
            incr reconnects;
            let c = connect srv in
            slots.(slot) <- c;
            c
          end
          else slots.(slot)
        in
        (* The send time enters the FIFO when the segment that will
           complete the request arrives; fragments deliver in order. *)
        let before = conn.c_served in
        let responses = feed srv conn ~now:time bytes in
        let finished = conn.c_served - before in
        if finished > 0 then Queue.push send_t inflight.(slot);
        List.iter
          (fun r ->
            let sent =
              if Queue.is_empty inflight.(slot) then send_t
              else Queue.pop inflight.(slot)
            in
            let back = Link.delivery_time link_down ~now:r.r_done ~bytes:r.r_bytes in
            let latency = back - sent in
            if sent >= warmup_until then begin
              Histogram.add latencies (float_of_int latency);
              incr completed
            end)
          responses
    | Ckpt_due -> (
        match group_opt with
        | None -> ()
        | Some (group, period) ->
            let stats = Group.checkpoint group in
            incr checkpoints;
            if time >= warmup_until then
              Histogram.add stops (float_of_int stats.Group.stop_ns);
            (* The stop window stalls the whole worker pool; under the
               speculative arm stop_ns is just quiesce + validate, so the
               stall collapses. *)
            Array.iter
              (fun w ->
                ignore (Resource.submit w ~now:time ~duration:stats.Group.stop_ns))
              srv.workers;
            if time + period < t_end then
              Event_queue.schedule q ~time:(time + period) Ckpt_due)
    | Probe slot ->
        keepalive srv slots.(slot);
        if time + probe_interval_ns < t_end then
          Event_queue.schedule q ~time:(time + probe_interval_ns) (Probe slot)
  in
  Event_queue.run q ~clock:clk ~handler:(fun time ev -> handle time ev) ~until:t_end;
  Machine.set_run_hook machine None;
  let measured_ns = max 1 (min (Clock.now clk) t_end - warmup_until) in
  {
    completed = !completed;
    throughput_rps = float_of_int !completed /. (float_of_int measured_ns /. 1e9);
    p50_ns = Histogram.percentile latencies 50.0;
    p99_ns = Histogram.percentile latencies 99.0;
    p999_ns = Histogram.percentile latencies 99.9;
    max_ns = Histogram.max latencies;
    checkpoints = !checkpoints;
    avg_stop_ns = Histogram.mean stops;
    hook_ops = !hook_ops;
    reconnects = !reconnects;
  }
