(** The object store's block allocator: which blocks are free, and how
    many live items cover each block that is not.

    Block 0 is the superblock.  Blocks [1 .. frontier - 1] are allocated
    unless they are in the free set, and every block from the frontier
    up is free.  {!alloc_block} reuses the most recently freed block
    first; {!alloc_extent} carves from the frontier only, so an extent
    never overlaps the single-block reuse path.  A freed block at the top
    of the allocated range folds back into the frontier, together with
    every free block directly below it, so future extents stay long and
    contiguous.

    Each block carries a reference count: the live items covering it
    (the store's one coverage rule says which blocks an item covers).
    The store counts what it writes ({!retain}), uncounts what a prune
    finds dead ({!release}) and frees a block whose count reaches zero.
    Neither the counts nor the free set is persisted: {!recount} rebuilds
    both from one walk over the live items, and {!consistent} checks the
    incrementally kept state against such a walk.  Nothing else in the
    store touches the frontier, the free set or the counts. *)

type t

val create : ?frontier:int -> unit -> t
(** An allocator with nothing counted and nothing free below [frontier]
    (default 1, an empty store's).  A recovered store starts at the
    frontier its superblock names, until {!recount}. *)

val frontier : t -> int
(** The lowest block no allocation has reached. *)

val alloc_block : t -> int
(** One block: the most recently freed block still free, else the
    frontier's. *)

val alloc_extent : t -> int -> int
(** [alloc_extent t n]: the first of [n] contiguous blocks, carved from
    the frontier. *)

val free : t -> int -> unit
(** Give a block back.  A double free, the superblock and a block at or
    above the frontier are ignored: handing one block to two
    allocations would corrupt the store. *)

val retain : t -> int -> unit
(** Count one more live item covering the block. *)

val release : t -> int -> bool
(** Count one item fewer; [true] when the block's count reaches zero, so
    the caller frees it. *)

val count : t -> int -> int
(** Live items covering the block (0 for a block never counted). *)

val is_free : t -> int -> bool
(** The block is in the free set or at or above the frontier: no
    allocation holds it. *)

val allocated : t -> int
(** Blocks below the frontier outside the free set, the superblock
    included. *)

val calls : t -> int
(** Allocations over the allocator's lifetime; an extent counts once. *)

val recount : t -> ((int -> unit) -> unit) -> int list
(** Rebuild a recovered store's counts and free set.  [walk f] must call
    [f b] once per live item covering block [b], over every live item;
    only blocks below the current frontier (the one read off the device)
    are counted.  The frontier then moves to just above the
    highest counted block, and every uncounted block below it (freed
    before a crash, or taken by a commit that never completed) is freed,
    highest first, so the lowest free block is reused first.  Returns,
    ascending, every uncounted block between the superblock and the old
    frontier: the freed ones and those the frontier moved below. *)

val consistent : t -> ((int -> unit) -> unit) -> bool
(** The allocator's half of the store's oracle: the counts equal a fresh
    count of [walk] (as for {!recount}) block for block, and the free set
    is exactly the uncounted blocks between the superblock and the
    frontier. *)
