(** Discrete-event scheduling.

    The client-server benchmarks (Memcached under Mutilate load, RocksDB
    latency percentiles) are queueing simulations: request arrivals, service
    completions and checkpoint triggers are events ordered by virtual time.
    This module is the priority queue driving them.

    Events scheduled for the same instant fire in insertion order, which
    keeps simulations deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val schedule : 'a t -> time:int -> 'a -> unit
(** Insert an event at the given virtual time. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest event, or [None] when empty. *)

val run : 'a t -> clock:Clock.t -> handler:(int -> 'a -> unit) -> until:int -> unit
(** [run q ~clock ~handler ~until] pops events in order, advancing [clock]
    to each event's time and calling [handler time event], until the queue is
    empty or the next event is later than [until].  The handler may schedule
    further events. *)
