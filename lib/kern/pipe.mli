(** Pipes: a bounded in-kernel byte queue with a read end and a write end. *)

type t

val capacity : int
(** 64 KiB, as in FreeBSD. *)

val create : unit -> t
val id : t -> int

val generation : t -> int
(** Monotonic mutation stamp: bumped by every state change that would alter
    the serialized image (writes, reads, end closes).  Incremental
    checkpoints skip re-serializing a pipe whose stamp matches the last
    persisted one. *)

val touch : t -> unit
(** Bump the generation stamp explicitly, and {!Kqueue.activate} the
    pipe's knotes. *)

val knotes : t -> Kqueue.knlist
(** The knotes of the kqueue registrations that name either end. *)

val write : t -> string -> int
(** Append up to the free space; returns the number of bytes accepted. *)

val read : t -> len:int -> string
(** Consume up to [len] buffered bytes (may be empty). *)

val buffered : t -> int
val peek_all : t -> string
(** Buffered contents without consuming (checkpoint serialization). *)

val refill : t -> string -> unit
(** Replace the buffer contents (restore path). *)

val close_read : t -> unit
val close_write : t -> unit
val read_open : t -> bool
val write_open : t -> bool

val unstamped_poke_for_tests : t -> string -> unit
(** Replace the buffered bytes WITHOUT bumping the generation — a deliberate
    violation of the stamp discipline, for negative-control tests only.
    The pipe's knotes still activate. *)
