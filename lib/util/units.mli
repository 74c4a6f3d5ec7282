(** Size and time units.

    Virtual time throughout the repository is an [int] count of nanoseconds;
    sizes are [int] counts of bytes.  This module holds the conversion
    constants and human-readable formatters used by the CLI and the benchmark
    harness. *)

val kib : int
val mib : int
val gib : int

val page_size : int
(** 4096: the page size of the simulated machine. *)

val pages_of_bytes : int -> int
(** Number of pages covering [bytes], rounding up. *)

val us : int
(** Nanoseconds in a microsecond. *)

val ms : int
(** Nanoseconds in a millisecond. *)

val sec : int
(** Nanoseconds in a second. *)

val bytes_to_string : int -> string
val ns_to_string : int -> string
