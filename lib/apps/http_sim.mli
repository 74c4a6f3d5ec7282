(** An event-loop HTTP/1.1 server model under continuous checkpointing.

    The server is a real process on the simulated kernel: a listening TCP
    socket, a kqueue the acceptor and readers dispatch on, per-connection
    parse buffers, a static file arena (reads) and a dynamic handler
    arena (writes that dirty pages every epoch), and a worker pool of
    queued resources.  Keep-alive connections close after a request
    budget and clients reconnect through the full SYN/accept path — so a
    checkpoint always finds a realistic mix of listening and established
    sockets, kqueue registrations and half-parsed request fragments.

    {!run} drives it with a zipf-distributed open-loop client over a
    10 GbE {!Aurora_net.Link} and reports SLO tail latencies versus
    checkpoint period, with stop-the-world and speculative arms. *)

type t

type conn = {
  c_id : int;
  c_server_fd : int;  (** established socket in the server process *)
  c_client_fd : int;  (** the client's end *)
  c_buf : Buffer.t;  (** per-connection incremental parse buffer *)
  mutable c_served : int;
  mutable c_closed : bool;
}

val create :
  machine:Aurora_kern.Machine.t ->
  ?workers:int ->
  ?keep_alive_max:int ->
  unit ->
  t
(** Spawn the server ("httpd") and client ("wrk") processes, bind and
    listen on port 80, register the listener with the kqueue, and map and
    warm both arenas. *)

val proc : t -> Aurora_kern.Process.t
(** The server process — the thing a consistency group checkpoints. *)

val served : t -> int
(** Total requests served since {!create}. *)

val connect : t -> conn
(** Client-side connect: SYN to the listener, acceptor wakes via
    {!Aurora_kern.Syscall.kevent_poll}, accepts, and registers the new
    connection for reads.  Emits an ["accept"] span under [cat:"http"]. *)

val resume : t -> machine:Aurora_kern.Machine.t -> proc:Aurora_kern.Process.t -> t
(** The server as restored onto [machine] as [proc]: the same listener,
    kqueue and arenas, a fresh client process and worker pool.  Its
    connections' clients come back one at a time with {!reattach}. *)

val reattach : t -> conn -> conn
(** A connection of the server before the restore, as its client reaches
    it again: a new client socket paired with the restored server socket
    [c_server_fd], which rebuilds a shell (the first segment to reach a
    restored connection needs its socket), and the parse buffer and
    request count carried over.  Call it for a connection that was open
    at the checkpoint. *)

val request : Aurora_workloads.Http_load.route -> string
(** The GET request bytes for a route, keep-alive headers included. *)

type response = {
  r_conn : int;
  r_done : int;  (** virtual time the response left a worker *)
  r_bytes : int;  (** size on the wire *)
  r_closed : bool;  (** the server closed the connection afterwards *)
}

val keepalive : t -> conn -> unit
(** A client-side TCP keepalive probe, read and discarded by the server:
    marks the connection's socket buffers active so a checkpoint's OS
    serialize pass pays for the whole connection table, as it would on a
    loaded server. *)

val feed :
  t -> conn -> now:int -> ?on:Aurora_sim.Resource.t -> string -> response list
(** Deliver request bytes (possibly a fragment) to the server NIC at
    [now]: the bytes traverse the client socket into the server's receive
    queue, the event loop polls the kqueue, drains the connection into
    its parse buffer, and serves every complete request on the
    least-loaded worker ([?on] overrides the worker choice — the
    speculative run hook serves on a spare core).  Emits
    ["parse"]/["route"] spans and a ["respond"] instant per request.
    Returns the responses produced (0 for a fragment that did not
    complete a head). *)

(** {1 Benchmark} *)

type config = {
  seed : int;
  conns : int;
  rate : float;  (** offered load, requests per second *)
  duration_ns : int;
  period_ns : int option;  (** [None] = uncheckpointed baseline *)
  speculative : bool;
}
(** The server runs 4 workers and a 64-page dynamic arena; the client
    spreads its requests over 96 static and 32 dynamic routes and probes
    each connection every 2.5 ms. *)

val default_config : config

type outcome = {
  completed : int;
  throughput_rps : float;
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  max_ns : float;
  checkpoints : int;
  avg_stop_ns : float;
  hook_ops : int;  (** requests served inside soft-quiesce yield windows *)
  reconnects : int;
}

val run : config -> outcome
(** Boot an SLS system, run the open-loop schedule against a fresh
    server, checkpointing at [period_ns] (STW, or speculative with a
    run hook that keeps serving background dynamic requests inside yield
    windows).  Latency = request send to response arrival back at the
    client, both directions over the link; the first 20% of the run is
    warm-up and unmeasured. *)
