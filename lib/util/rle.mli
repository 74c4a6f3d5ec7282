(** Run-length coding for checkpoint page payloads.

    The object store compresses page payloads on the flush path and the
    cost model charges compression time by compressibility class; both
    live here so the transform and its classifier cannot drift apart. *)

type cls = Zero | Text | Binary | Random
    (** Compressibility class: [Zero] is a constant page (one run),
        [Text] codes to at most half size, [Binary] wins at least 10%,
        [Random] is not worth coding. *)

val classify : bytes -> cls

val compress : bytes -> bytes option
(** [Some coded] iff the coded form is strictly smaller than the input;
    [None] means "store raw".  Empty input is never coded. *)

val decompress : olen:int -> bytes -> bytes
(** Inverse of [compress]; [olen] is the original length recorded in
    the leaf entry.  Raises [Invalid_argument] on a stream that does
    not decode to exactly [olen] bytes. *)
