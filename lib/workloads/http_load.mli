(** Open-loop HTTP client load: a zipf-distributed request schedule.

    The generator fixes every arrival time up front (Poisson arrivals at
    [rate] requests per second), so offered load is independent of server
    responses — the open-loop discipline under which checkpoint stop
    windows surface as tail latency.  Routes are zipf-popular over a
    combined rank space with each rank deterministically pinned to the
    static (cacheable) or dynamic (mutating) class. *)

type route = Static of int | Dynamic of int

type req = {
  hl_time : int;  (** client send time, virtual ns from schedule start *)
  hl_conn : int;  (** keep-alive connection index in [0, conns) *)
  hl_route : route;
  hl_frag : bool;  (** deliver the request in two TCP segments *)
}

val path_of_route : route -> string
(** ["/static/<i>"] or ["/api/<i>"]. *)

val generate :
  seed:int ->
  rate:float ->
  duration_ns:int ->
  conns:int ->
  static_routes:int ->
  dynamic_routes:int ->
  ?theta:float ->
  unit ->
  req list
(** Deterministic for a fixed seed; arrival times strictly increase.
    30% of the probability mass is routed to mutating handlers.  [theta]
    (default 0.99) is the zipf skew; 15% of requests are split across
    two segments. *)
