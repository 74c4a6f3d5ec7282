(** 64-bit-class content hash (FNV-1a folded into a 62-bit native int).

    Used as the content key of the object store's page-dedup index and
    as the per-page digest inside manifest fingerprints.  Values are
    always in [0, 2^62), so they serialize through [Wire.u64] and
    compare as plain ints. *)

val of_bytes : bytes -> int
(** Hash of a byte buffer's full contents. *)

val of_string : string -> int
(** [of_string s] = [of_bytes (Bytes.of_string s)], without the copy. *)

val pair : int -> int -> int
(** [pair a b] hashes the ordered pair [(a, b)]; distinct pairs map to
    well-distributed values, so an XOR fold of [pair idx digest] over a
    page set is order-independent yet sensitive to duplicates. *)
