(** A striped array of devices (RAID-0), as in the paper's testbed: four
    Optane 900P namespaces striped at 64 KiB.

    Writes are split on stripe boundaries and submitted to the member
    devices' independent queues, so a large sequential write approaches the
    aggregate bandwidth of the array while a 4 KiB write pays a single
    device's latency. *)

type t

val create : ?devices:int -> ?stripe:int -> unit -> t
(** Defaults come from {!Cost.nvme_stripe_devices} and
    {!Cost.nvme_stripe_size}. *)

val write : ?charge:int -> t -> now:int -> off:int -> bytes -> int
(** Submit a write; returns the completion time of its last fragment.
    [?charge] gives the logical length used both for stripe fragmentation
    and timing when it exceeds the payload length (see {!Device.write}). *)

val write_vec : t -> now:int -> off:int -> len:int -> (int * bytes) array -> int
(** [write_vec t ~now ~off ~len segments] submits one coalesced extent
    covering the logical range [[off, off+len)] as a single vectored
    submission per member device ({!Device.submit_extent}), returning the
    completion time of the last fragment.  [segments] are
    [(extent-relative offset, payload)] pairs, ideally in ascending offset
    order (unsorted input is sorted on a copy); gaps between payloads are
    charged (they stand for the logical remainder of partially materialized
    blocks) but carry no data.  The checkpoint flush pipeline uses this to
    turn an epoch's dirty pages into a handful of stripe-spanning
    sequential writes. *)

val write_priority : t -> now:int -> off:int -> bytes -> completion:int -> int
(** Priority-lane write ({!Device.write_priority}): all fragments become
    durable at the caller-supplied [completion], which is also returned. *)

val submit_vec :
  t -> now:int -> (int * int) array -> (int * (bytes, string) result) array
(** [submit_vec t ~now ranges] reads every [(off, len)] range in one
    vectored batch without waiting: every stripe fragment of every range
    is submitted to its member device's queue at [now]
    ({!Device.submit_read}), each device still serialising its own
    transfers, and each range comes back with its arrival (the completion
    of its last fragment) and its bytes, taken at submission.  A batch of
    one-block reads spread over the members therefore arrives after one
    read latency plus the busiest member's queued transfers, not one
    round trip per range.  The fault handler is consulted per fragment
    ({!Device.collect_read}), in range order; a range is [Error] (the
    transient failure's message) at its first failed fragment, and a
    failure or corruption touches only its own range.  A batch of more
    than one range emits one [blk:read_vec] trace instant (ranges,
    bytes). *)

val read_nocharge : t -> off:int -> len:int -> bytes
(** The newest bytes of a range, without device time, the fault handler
    or the read counters: uncharged parses and integrity checks, and
    tests.  No charged read uses it. *)

val set_fault : t -> Fault.t option -> unit
(** Install one fault handler on every member device.  The handler's
    submission counter is shared, so a submission index identifies a global
    device-submission boundary of the array. *)

val set_arbiter : t -> (Arbiter.t * Arbiter.tenant) option -> unit
(** Install one shared flush-bandwidth arbiter lane on every member
    device ({!Device.set_arbiter}); fragment writes each charge the lane
    for their own bytes, so a striped extent consumes lane bandwidth
    exactly once. *)

val discard : t -> now:int -> off:int -> len:int -> unit
(** Deallocate the logical range [[off, off+len)]: each stripe fragment
    is a {!Device.discard} on its member device, completing at [now].
    Reads see the range as zeros at once; a crash before [now] undoes
    it; once durable, the member devices drop the sectors it fully
    covers.  No queue time, no fault-handler submission, no trace
    event. *)

val settle : t -> clock:Aurora_sim.Clock.t -> unit
val apply_durable : t -> now:int -> unit
val crash : t -> now:int -> unit

val save_file : t -> clock:Aurora_sim.Clock.t -> string -> unit
(** Settle the queues, then write the array's durable image (all member
    devices' committed sectors plus the virtual-time high-water mark) to
    a host file. *)

val load_file : string -> t * int
(** Rebuild an array from a host image file; returns it with the saved
    virtual time (to resume the clock from).  Raises [Sys_error] or
    [Failure] on a missing or corrupt image. *)

val sectors_held : t -> int
(** Committed sectors over every member device ({!Device.sectors_held}). *)

val bytes_held : t -> int
(** Their bytes ({!Device.bytes_held}). *)

val bytes_written : t -> int
val bytes_read : t -> int
val write_ops : t -> int
val reset_stats : t -> unit
