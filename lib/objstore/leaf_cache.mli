(** The store's parsed-leaf cache, and the only code that makes a leaf
    resident.

    A cached leaf holds its parsed entries and whether a paid device read
    of its block ({!paid}) has brought it into memory.  Only a resident
    leaf serves a paid lookup without device time; {!entries}, the
    uncharged parse that verification CRCs, commit, prune, the layout
    switch and the consistency oracle use, never makes a leaf resident.
    Leaf blocks are copy-on-write (written once), so the cache is exact
    as long as a freed block is {!forget}ten before reuse and a
    recovered store starts cold.  At 65,536 entries the cache is
    recycled wholesale. *)

type t

val create : Aurora_block.Striped.t -> t

val entries : t -> int -> Store_format.leaf_entry list
(** The parsed entries of a leaf block, uncharged: a cold leaf is read
    with {!Aurora_block.Striped.read_nocharge} and cached non-resident.
    Raises {!Store_format.Corrupt_store} for bytes that do not parse. *)

val add : t -> int -> Store_format.leaf_entry list -> unit
(** Cache a leaf the store has just written (write-through), non-resident. *)

val forget : t -> int -> unit
(** Drop a block's leaf: its block is freed and may be reused. *)

val recycle : t -> unit
(** Recycle the cache, as a full one is. *)

val hits : t -> int
val misses : t -> int
(** Lookups, over the cache's lifetime, that found the block cached
    (resident or not) or did not. *)

type submit = now:int -> (int * int) array -> (int * (bytes, string) result) array
(** A charged vectored read of byte ranges [(off, len)] submitted at
    [now] without waiting: each range's arrival and its bytes or the
    error of its last attempt. *)

val paid :
  t -> submit:submit -> now:int -> int list ->
  (int, int * (Store_format.leaf_entry list, exn) result) Hashtbl.t
(** The one paid leaf read.  The distinct blocks are looked up at [now]
    and the clock does not move: a resident leaf is known at [now];
    every other one is read in one [submit] batch at [now], the cache
    recycled first if the batch would overflow it.  A leaf that reads and
    parses becomes resident, so it costs device time once, not once per
    page.  Each block maps to its arrival and its entries, or the
    exception a demand for it raises: {!Aurora_block.Fault.Io_error} for
    a read that kept failing, {!Store_format.Corrupt_store} for bytes
    that do not parse.  A cached leaf counts as a hit, any other as a
    miss. *)

val resident :
  t -> Aurora_sim.Clock.t -> submit:submit -> int list -> int -> Store_format.leaf_entry list
(** {!paid} at the clock's time, waiting for the whole batch.  The first
    read that kept failing, in block order, raises
    {!Aurora_block.Fault.Io_error}; the entries of the blocks are then
    looked up with the function returned, which raises
    {!Store_format.Corrupt_store} for a leaf that does not parse. *)
