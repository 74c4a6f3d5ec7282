(** A Redis miniature for the checkpointing comparisons (Tables 1 and 7).

    The process holds a configurable resident set in a real mapped region
    plus the kernel-object population of a busy Redis server (client
    sockets, pipes, a kqueue) — the object count is what CRIU's
    process-centric traversal pays for.  {!rdb_save} reproduces Redis' own
    persistence: fork (paying the COW stop) and a child that serializes
    the keyspace to disk. *)

type t

val create :
  machine:Aurora_kern.Machine.t ->
  ?client_connections:int ->
  resident_mib:int ->
  unit ->
  t

val proc : t -> Aurora_kern.Process.t
val resident_pages : t -> int

type rdb_breakdown = {
  fork_stop_ns : int;  (** application stopped while fork marks COW *)
  serialize_write_ns : int;  (** child walks the keyspace and writes *)
}

val rdb_save : t -> dev:Aurora_block.Striped.t -> rdb_breakdown
(** BGSAVE: fork + serialize.  The child is reaped before returning. *)
