(** The Aurora-customized RocksDB (paper section 9.6).

    The modification the paper describes, reproduced structurally: the
    log-structured merge tree is {e deleted} — Aurora persists the
    memtable itself — and RocksDB's WAL is replaced by an [sls_journal]
    region updated with group-committed synchronous appends.  When the
    journal fills, the application triggers a full Aurora checkpoint and
    truncates the journal (recovery therefore replays at most one
    journal's worth of operations on top of the last checkpoint).

    The paper replaced 81k SLOC of persistence code with 109 lines; this
    module is correspondingly a fraction of {!Rocksdb}'s size, with the
    same write-consistency guarantee as its WAL mode. *)

type t

val record_codec : (int * int) list Aurora_objstore.Wire.codec
(** One group-committed WAL record: the batch's (key, value size) pairs. *)

val create :
  sys:Aurora_core.Sls.system ->
  nkeys:int ->
  ?wal_limit:int ->
  ?wal_group_size:int ->
  unit ->
  t
(** [wal_limit] defaults to 32 MiB — checkpoints amortize over tens of
    thousands of writes, with the post-checkpoint refault cost spread
    correspondingly thin. *)

val group : t -> Aurora_core.Group.t
val proc : t -> Aurora_kern.Process.t

val put : t -> key:int -> value_bytes:int -> int
(** Durable on return (same guarantee as the vanilla WAL); returns
    latency in ns.  Puts that fill the journal trigger the checkpoint and
    pay for it — the paper's 99.9th-percentile caveat. *)

val get : t -> key:int -> int
val read_value_size : t -> key:int -> int option

val recover : sys:Aurora_core.Sls.system -> t * int
(** After a crash: restore the last checkpoint and replay the journal;
    returns the rebuilt instance and the number of replayed records. *)

val checkpoints_triggered : t -> int
