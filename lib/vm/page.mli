(** Physical pages.

    A page logically holds 4 KiB ({!logical_size}).  To keep multi-GiB
    benchmark working sets affordable in a test process, pages carry a
    variable-sized {e payload}: anonymous memory uses a compact
    {!payload_size}-byte payload (byte offsets fold into it, so distinct
    small writes stay distinguishable), while file pages use a faithful
    full-size payload ({!alloc_full}) because file contents must round-trip
    exactly through read/write.  Every cost calculation and on-store layout
    uses the logical size; every content-correctness check (COW isolation,
    checkpoint/restore round trips, crash recovery) uses the payload, which
    is real byte data flowing end to end through the object store and the
    block devices. *)

type t

val logical_size : int
(** 4096. *)

val payload_size : int
(** 64: the default compact payload. *)

val alloc : unit -> t
(** A fresh zero page with the compact payload. *)

val alloc_full : unit -> t
(** A fresh zero page whose payload is the full logical size (file data). *)

val alloc_sized : payload:int -> t

val alloc_init : (int -> char) -> t
(** A fresh compact page with payload byte [i] = [f i]. *)

val id : t -> int
(** Unique identity; survives moves between VM objects but not copies. *)

val copy : t -> t
(** A fresh page with the same payload (used by COW faults). *)

val get : t -> int -> char
(** [get p off] with [off] a logical offset in [0, logical_size). *)

val set : t -> int -> char -> unit

val blit_payload : t -> bytes
(** A copy of the payload (what the object store persists). *)

val load_payload : t -> bytes -> unit
(** Replace the payload (restore path); adopts the input's length. *)

val equal_content : t -> t -> bool
