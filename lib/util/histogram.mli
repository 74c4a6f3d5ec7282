(** Sample accumulation and percentile reporting.

    Used by the benchmark harness for latency distributions and by tests for
    statistical assertions.  Samples are stored exactly (growable array), so
    percentiles are exact order statistics rather than bucket approximations;
    the workloads in this repository produce at most a few million samples. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val clear : t -> unit

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
(** Fold over the samples in insertion order. *)

val mean : t -> float
(** Mean of the samples; 0 when empty. *)

val stddev : t -> float
(** Population standard deviation; 0 when empty. *)

val min : t -> float
val max : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0, 100]; nearest-rank order statistic.
    Returns 0 when empty. *)

val percentile_interp : t -> float -> float
(** [percentile_interp t p] with [p] clamped to [0, 100]; linear
    interpolation between the closest order statistics (inclusive
    method), so [p = 0] is the minimum and [p = 100] the maximum even
    for single-sample histograms.  Returns 0 when empty.  Used by the
    observability phase report; {!percentile} keeps the historical
    nearest-rank semantics. *)

val merge : t -> t -> unit
(** [merge dst src] adds all samples from [src] into [dst]. *)
