(** The store's non-COW journals ([sls_journal]): preallocated block
    ranges updated in place with synchronous appends, and recovered by
    scanning self-describing records.

    A journal's records are {!Store_format.journal_record_codec} values
    back to back from its first byte, each tagged with the journal's
    truncation generation.  {!truncate} bumps the generation, so a stale
    record beyond the new head is never replayed.  The registry (each
    journal's id, extent and generation) lives in the superblock, which
    the store writes; a recovered journal's append offset is not
    persisted and is found by a scan, on its first {!records} or
    {!append}, at the end of the last valid record of the current
    generation.  A store with no journal is charged nothing for this. *)

type t
(** One journal. *)

type registry
(** The store's journals, and the queue that serializes their appends. *)

val registry : (int * int * int * int) list -> registry
(** The journals a superblock lists, as [(id, first block, blocks,
    generation)]; [[]] for a fresh store. *)

val entries : registry -> (int * int * int * int) list
(** The registry as the superblock stores it. *)

val all : registry -> t list
val find : registry -> int -> t option

val create : registry -> start:int -> blocks:int -> t
(** Register a new, empty journal over [blocks] blocks from [start]; its
    id is one more than the number of journals. *)

val id : t -> int
val extent : t -> int * int
(** First block and blocks. *)

type read = off:int -> len:int -> bytes
(** The store's charged read of a byte range. *)

val records : t -> read:read -> string list
(** Read the journal with [read] and parse its records of the current
    generation, in order; a recovered journal's append offset is set from
    the scan.  The scan reads one block, then doubles what it has read,
    until it ends inside what it has read (or at the capacity). *)

val append :
  registry ->
  t ->
  dev:Aurora_block.Striped.t ->
  clock:Aurora_sim.Clock.t ->
  read:read ->
  string ->
  unit
(** Synchronous in-place append at the journal's head (a recovered
    journal is scanned first, see {!records}).  The device write carries
    the real bytes; the caller's clock advances to the synchronous
    append's completion.  Raises [Invalid_argument] when the record does
    not fit. *)

val truncate :
  t -> dev:Aurora_block.Striped.t -> clock:Aurora_sim.Clock.t -> persist:(unit -> unit) -> unit
(** Empty the journal: bump its generation, [persist] the registry, then
    invalidate the first record header. *)
