(** Virtual time.

    Every simulated machine owns one clock.  Operations on the simulated
    kernel, VM system, object store and devices charge their modeled cost
    against the clock with {!advance}; benchmark harnesses read elapsed
    virtual time with {!now} and {!elapsed_since}.

    Time is an [int] count of nanoseconds, which covers ~292 years on a
    63-bit platform. *)

type t

val create : unit -> t
(** A clock at time 0. *)

val now : t -> int

val advance : t -> int -> unit
(** [advance t ns] moves time forward. [ns] must be non-negative. *)

val advance_to : t -> int -> unit
(** [advance_to t when_] moves time forward to [when_] if it is in the
    future; no-op otherwise.  Used when waiting for an asynchronous device
    completion. *)

val on_advance : t -> (int -> unit) -> unit
(** [on_advance t f] registers a watcher called with the new time after
    every forward move.  The torture harness uses this as a virtual-time
    watchdog: a replay run that spins (for example an unbounded retry loop
    against a persistently failing device) trips the watcher's budget
    instead of hanging the sweep.  Watchers must not advance the clock. *)

val elapsed_since : t -> int -> int
(** [elapsed_since t start] is [now t - start]. *)
