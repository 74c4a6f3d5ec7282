(** Named latency histograms.

    A process-wide registry, off by default.  Instrumentation sites
    obtain handles once at module initialization ([let h =
    Metrics.histogram "dev.service_ns"]) and record through them; when
    the registry is disabled a record is a single branch, so handles can
    live in hot paths.  Histograms store exact samples
    ({!Aurora_util.Histogram}).

    Only values the library returns nowhere else belong here: a number
    that a call already returns per group or per store (a
    [Group.ckpt_stats] or [Store.flush_stats] field) is read from that
    record, not mirrored into this unlabeled singleton.

    Registration is idempotent by name: asking for an existing histogram
    returns the same handle, so tests and instrumentation sites can
    share handles by name alone. *)

type histogram

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val histogram : string -> histogram

val observe_ns : histogram -> int -> unit
(** Add one sample when the registry is enabled; otherwise one branch. *)

val samples : histogram -> Aurora_util.Histogram.t

val reset : unit -> unit
(** Clear every histogram (handles stay valid; the enabled flag is
    untouched). *)
