(** A simulated NVMe namespace.

    The device stores real bytes (so recovery tests can verify durability
    bit-for-bit) behind a queued timing model.  Writes are submitted to the
    device's queue and become durable at their completion time; a simulated
    power failure ({!crash}) discards every write whose completion time is
    still in the future, exactly like losing a volatile device queue.

    Reads return the newest submitted data (the device services reads from
    its internal buffers), but durability is decided strictly by completion
    times. *)

type t

val create : name:string -> t

(** {1 Fault injection} *)

val set_fault : t -> Fault.t option -> unit
(** Install (or clear) a fault handler consulted at every submission and
    every charged read; see {!Fault}. *)

(** {1 Fleet arbitration} *)

val set_arbiter : t -> (Arbiter.t * Arbiter.tenant) option -> unit
(** Route this device's writes through a shared flush-bandwidth arbiter,
    billed to the given tenant.  Every write then also occupies the
    arbiter's lane for its bytes, and its completion is the later of the
    device-queue completion and the lane grant.  Reads and the priority
    lane (synchronous journal appends) bypass arbitration.  With no
    arbiter installed the device behaves exactly as before. *)

(** {1 Data path} *)

val write : ?charge:int -> t -> now:int -> off:int -> bytes -> int
(** [write t ~now ~off data] submits a write and returns its completion
    time.  The caller chooses whether to wait (synchronous) or not.

    [?charge] is the logical transfer size used for timing when it differs
    from [Bytes.length data]; the object store uses it because pages carry a
    64-byte payload standing in for a logical 4 KiB of data (see
    DESIGN.md).  Defaults to the data length. *)

val submit_extent : t -> now:int -> off:int -> len:int -> (int * bytes) list -> int
(** [submit_extent t ~now ~off ~len segments] submits one vectored write
    covering the device range [[off, off+len)]: the queue is charged for
    one [len]-byte transfer plus a single write latency, and every
    [(rel, payload)] segment lands at [off + rel] with that shared
    completion time.  The device takes ownership of the payload bytes —
    callers must pass freshly allocated slices (as {!Striped.write_vec}
    does) and not mutate them afterwards.  Counts as one device
    operation.  This is the unit the coalesced checkpoint flush pipeline
    submits per device per extent. *)

val write_priority : t -> now:int -> off:int -> bytes -> completion:int -> int
(** [write_priority t ~now ~off data ~completion] submits through the
    priority lane: the shared queue is occupied for the transfer (bandwidth
    accounting) but the write completes — and becomes durable — at the
    caller-supplied [completion].  The synchronous journal append path uses
    this so its acknowledgement time and durability time coincide. *)

val submit_read : t -> now:int -> off:int -> len:int -> int
(** [submit_read t ~now ~off ~len] queues a read of [len] bytes at [off]
    and returns its completion: the queue is occupied for the transfer
    behind whatever it already holds, and the read latency trails it.
    Nothing is returned yet; {!collect_read} takes the bytes.  The
    device time is charged here, whatever the outcome. *)

val collect_read : t -> completion:int -> off:int -> len:int -> (bytes, string) result
(** The bytes of a read {!submit_read} queued, as the device holds them
    when called, under the installed fault handler's verdict as of its
    [completion] ({!Fault.read_outcome}, consulted once per call):
    [Error] is the message of a transient failure; a [Flip] verdict returns the corrupted bytes.  Unwritten
    ranges read as zeroes, as on a trimmed flash namespace. *)

val read_nocharge : t -> off:int -> len:int -> bytes
(** Read without charging time; used by integrity checks in tests. *)

val discard : t -> now:int -> off:int -> len:int -> unit
(** [discard t ~now ~off ~len] deallocates [[off, off+len)], as an NVMe
    Deallocate does.  It is an in-flight entry completing at [now]: from
    then on newest-data reads see the range as zeros (until a later
    write lands there), and once its completion passes ({!apply_durable},
    {!settle}, {!crash} at or after [now]) the committed sectors it fully
    covers leave the device, and the bytes it covers of a partly covered
    one read as zeros.  A crash before [now] undoes it.  A write
    submitted after the discard lands over it as usual.  No data moves:
    a discard occupies no queue time, is no fault-handler submission (so
    it adds no crash-point boundary), counts in no accounting counter
    and emits no trace event. *)

(** {1 Durability} *)

val settle : t -> clock:Aurora_sim.Clock.t -> unit
(** Advance the clock until the device queue is drained and make all
    submitted writes durable. *)

val durable_until : t -> int
(** Completion time of the last submitted write (0 if none). *)

val apply_durable : t -> now:int -> unit
(** Fold writes whose completion is at or before [now] into the committed
    store without touching the queue; keeps the in-flight list short on
    long runs.  Durability semantics are unchanged. *)

val crash : t -> now:int -> unit
(** Power failure at virtual time [now]: writes with completion <= [now]
    are durable, all others vanish.  The queue resets, {!durable_until}
    returns 0 again, and the accounting counters restart — the rebooted
    machine's measurements start from a consistent baseline. *)

(** {1 Host-file persistence}

    A device's durable (committed) bytes can be exported and re-imported,
    which lets a whole simulated machine image live in a host file across
    tool invocations.  Only committed state is exported: the caller
    settles the queue first, exactly like powering a machine down
    cleanly. *)

val export_sectors : t -> (int * bytes) list
(** [(sector index, 4 KiB sector)] of every committed sector. *)

val import_sectors : t -> (int * bytes) list -> unit
(** Replace the device's state with the given committed sectors.  Existing
    committed sectors, queued writes and statistics are discarded first, so
    the call is consistent on a used device as well as a fresh one. *)

(** {1 Accounting} *)

val sectors_held : t -> int
(** Committed sectors the device holds: the host memory its durable
    state takes, in sectors.  Writes and discards still in flight are not
    counted until their completion is folded in. *)

val bytes_held : t -> int
(** The bytes those sectors hold: each keeps only its written prefix. *)

val bytes_written : t -> int
(** Logical bytes written: the [?charge] size when given. *)


val bytes_read : t -> int
val write_ops : t -> int
val reset_stats : t -> unit
