(** Span tracing over the virtual clock.

    A Dapper-style tracer for the checkpoint pipeline: spans nest, carry
    a category and key/value arguments, and are stamped from the
    simulator's virtual clock, so a trace is a deterministic function of
    the workload — two runs with the same seed export byte-identical
    traces.  Events land in a fixed-capacity ring buffer (oldest events
    are dropped and counted once full) and export either as Chrome
    trace-event JSON (load in [chrome://tracing] / Perfetto) or as an
    indented text timeline.

    The tracer is a process-wide singleton and is {e off} by default.
    Every recording entry point first checks the singleton: when
    disabled, [with_span] is a single branch plus the call to the traced
    thunk, and the other entry points are a single branch — cheap enough
    to leave in every hot path (gated by [bench/main.exe obs-overhead]).
    Call sites that must compute arguments should guard with {!is_on} so
    argument construction is also skipped when disabled. *)

type arg = Int of int | Str of string

type phase =
  | Begin  (** span open ([ph:"B"]) *)
  | End  (** span close ([ph:"E"]) *)
  | Instant  (** point event ([ph:"i"]) *)
  | Complete  (** explicit-duration event ([ph:"X"]) *)
  | Counter  (** sampled value ([ph:"C"]) *)

type event = {
  ev_ts : int;  (** virtual nanoseconds *)
  ev_dur : int;  (** [Complete] events only; 0 otherwise *)
  ev_ph : phase;
  ev_cat : string;
  ev_name : string;
  ev_args : (string * arg) list;
}

val enable : ?capacity:int -> clock:Aurora_sim.Clock.t -> unit -> unit
(** Turn the tracer on, stamping events from [clock].  [capacity]
    (default 65536) bounds the ring buffer.  Replaces any previous
    tracer and discards its events. *)

val disable : unit -> unit
(** Turn the tracer off and discard all buffered events. *)

val is_on : unit -> bool

val with_span :
  ?args:(string * arg) list ->
  ?end_args:('a -> (string * arg) list) ->
  cat:string ->
  name:string ->
  (unit -> 'a) ->
  'a
(** Run the thunk inside a span: a [Begin] event carrying [args] at the
    current virtual time, the thunk, an [End] event at the (possibly
    advanced) virtual time carrying [end_args] of the thunk's result
    (arguments known only once the span's work is done; Chrome merges
    them into the span's).  Exception-safe: the span is closed, with no
    arguments, even if the thunk raises.  When the tracer is off this is
    one branch and a call. *)

val instant : ?ts:int -> ?args:(string * arg) list -> cat:string -> string -> unit
(** A point event, at virtual-now unless [ts] is given (events recorded
    from a clock other than the tracer's, e.g. an HA standby). *)

val complete :
  ts:int -> dur:int -> ?args:(string * arg) list -> cat:string -> string -> unit
(** An explicit-timestamp, explicit-duration event — the shape for
    asynchronous windows whose completion trails the submitting code
    (device submissions, the checkpoint flush-to-durable window). *)

val counter : ?ts:int -> cat:string -> name:string -> int -> unit
(** A sampled counter value (renders as a stacked chart in Chrome). *)

val events : unit -> event list
(** Buffered events, oldest first.  Empty when disabled. *)

val spans : string -> event list -> (int * int) list
(** [spans name events] pairs each [Begin]/[End] of a span called [name]
    and returns its (start, duration) in virtual ns, in closing order —
    so a span nested in a same-named one comes first.  An [End] with no
    open span is ignored. *)

val dropped : unit -> int
(** Events evicted from the ring since {!enable}/{!reset}. *)

val reset : unit -> unit
(** Discard buffered events but keep the tracer enabled. *)

val export_json : unit -> string
(** Chrome trace-event JSON ([{"traceEvents": [...]}]); timestamps are
    integer virtual nanoseconds (the file declares
    ["displayTimeUnit": "ns"]). *)

val export_text : unit -> string
(** Indented text timeline: one line per event, [Begin]/[End] pairs
    rendered as a nested tree with per-span virtual durations. *)
