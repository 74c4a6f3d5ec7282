(** A 10 GbE point-to-point link (client machines to the server under
    test, as in the paper's client-server benchmarks).

    Messages pay a one-way latency plus serialization at link bandwidth;
    the link queues (it is a {!Aurora_sim.Resource}), so saturating
    offered load produces realistic queueing delay.

    {2 Fault plane}

    For the HA torture harness the link carries an injectable fault plane
    driven by a deterministic PRNG, in the style of
    [Aurora_block.Fault]: transmissions can be dropped, duplicated,
    reordered (delivered late), corrupted (one byte flipped) or swallowed
    by a network partition that keeps the link dark for a configured
    window of virtual time.  Every run with the same seed and profile
    makes identical decisions. *)

type t

val create : ?name:string -> unit -> t

val delivery_time : t -> now:int -> bytes:int -> int
(** When a message of [bytes] sent at [now] arrives at the other end. *)

val rtt : bytes:int -> int
(** Unloaded round-trip estimate for a request/response pair of the given
    total size. *)

val reset : t -> unit
(** Clear queued-resource state, any active partition and the counters;
    an installed fault plane is re-seeded so the next run replays the
    same decision sequence. *)

(** {1 Fault injection} *)

type fault_profile = {
  p_drop : float;  (** transmission silently lost *)
  p_duplicate : float;  (** delivered twice, second copy late *)
  p_reorder : float;  (** delivery delayed by up to [reorder_ns] *)
  p_corrupt : float;  (** one payload byte flipped in flight *)
  p_partition : float;  (** transmission opens a partition window *)
  partition_ns : int;  (** how long a partition keeps the link dark *)
  reorder_ns : int;  (** max extra delay for reorder/duplicate copies *)
}

val no_faults : fault_profile

val lossy_profile : float -> fault_profile
(** Drop rate [p], with duplicate/reorder/corrupt each at [p/2]. *)

val set_faults : t -> seed:int -> fault_profile -> unit
(** Install a deterministic fault plane; replaces any previous one. *)

val partition : t -> now:int -> duration:int -> unit
(** Explicitly cut the link for [duration] ns of virtual time; both
    directions drop everything transmitted before the window closes. *)

val partition_at : t -> at:int -> duration:int -> unit
(** Script a partition window [\[at, at+duration)] of virtual time in
    advance.  Unlike {!partition} this does not need the caller to be
    holding the clock at the cut instant: the window arms itself when a
    transmission first lands inside it, so torture scenarios can pin a
    partition to a specific protocol boundary (e.g. the middle of a
    shipping window) instead of fishing for one with seeds.  Scripted
    windows survive {!reset} — they are part of the deterministic
    scenario, like the fault profile. *)

val scheduled_partitions : t -> (int * int) list
(** The scripted [(start, heal)] windows, sorted by start. *)

val partitioned_until : t -> int
(** Virtual time at which the current partition heals (0 if none).
    Scripted windows count only once armed by a transmission inside
    them. *)

(** {1 Transmission} *)

type delivery = { d_payload : string; d_arrival : int }

val transmit : t -> ?retransmit:bool -> now:int -> payload:string -> unit -> delivery list
(** Send [payload] at [now] through the fault plane.  The result is what
    the other end will observe: [] if the message was dropped or eaten by
    a partition, one delivery normally, two if duplicated; payloads may
    differ from [payload] if corrupted.  [~retransmit:true] only marks
    the send in the stats. *)

(** {1 Statistics} *)

type stats = {
  l_sent : int;
  l_delivered : int;
  l_dropped : int;
  l_duplicated : int;
  l_reordered : int;
  l_corrupted : int;
  l_retransmits : int;
  l_partition_drops : int;
}

val stats : t -> stats
