(** External synchrony: withhold outgoing messages until the computation
    that produced them is durable (Nightingale et al., applied to
    consistency groups in paper section 3).

    Messages sent outside the consistency group on descriptors with
    external synchrony enabled are buffered here; when a checkpoint
    covering the send becomes durable, the buffered messages are released
    to their destinations with the durability time as their effective send
    time.  Communication {e within} a group is never buffered — the group
    is checkpointed atomically. *)

type t

type release = { tag : string; deliver : release_time:int -> unit }

val create : unit -> t

val buffer : t -> epoch:int -> release -> unit
(** Hold a message produced during checkpoint interval [epoch]. *)

val pending : t -> int

val observe : t -> now:int -> unit
(** The holder looked at the outbox at [now]: every message buffered so
    far was buffered no later than [now].  A holder that releases at an
    instant earlier than its own clock (an ack's arrival, found by a later
    poll) observes first, so no release precedes its message's buffering. *)

val release_up_to : t -> epoch:int -> now:int -> int
(** A checkpoint covering intervals up to [epoch] became durable at [now]:
    deliver every buffered message from those intervals, each at [now] or
    at the {!observe} instant that first found it, whichever is later;
    returns how many were released. *)

val drop_all : t -> int
(** A crash: buffered messages were never visible outside, which is the
    correctness property external synchrony buys. *)

val drop_after : t -> epoch:int -> int
(** Failover recovered [epoch]: discard exactly the messages produced in
    later intervals (the discarded window) and keep the rest eligible for
    release; returns how many were dropped. *)
