(** The content-addressed page index: content hash -> the leaf entry of
    a stored page.

    The commit's CPU pass {!probe}s it for every staged page: a hit is a
    reference to the already-stored bytes, at the page's own index, and
    is never re-written; a miss is placed and {!insert}ed at once, so a
    later identical page of the same commit hits.  The index is derived
    state: {!forget_freed} drops every entry over a block a prune freed,
    before anything can dedup against it (a block -> hashes map finds
    them), and {!rebuild} recomputes it from the durable leaves, whose
    entries carry the hash, so no data block is read.  An entry names
    allocated blocks only, though no live leaf need still reference it:
    blocks are immutable while allocated, and a leaf that dedups against
    the entry counts its blocks again. *)

type t

val create : unit -> t

val probe : t -> hash:int -> olen:int -> crc:int -> Store_format.leaf_entry option
(** The indexed entry of [hash] when its original length and CRC-32 are
    [olen] and [crc] too. *)

val insert : t -> Store_format.leaf_entry -> unit
(** Index a freshly stored page under its hash, replacing any entry. *)

val rebuild : t -> ((Store_format.leaf_entry -> unit) -> unit) -> unit
(** Empty the index, then [walk note]: [walk] calls [note] on the
    entries of every live leaf, and the first entry noted for a hash
    names its location. *)

val size : t -> int
(** Distinct hashes indexed. *)

val forget_freed : t -> int list -> unit
(** [forget_freed t freed] drops every entry over a block of [freed],
    the blocks a prune just freed.  A block -> hashes map kept by
    {!insert} finds them, so the cost is the entries ever inserted over
    those blocks, not the index's size.  Every other entry already lies
    in counted blocks, so this drops every entry over a block no live
    item covers. *)

val consistent : t -> Allocator.t -> payload:(Store_format.leaf_entry -> bytes option) -> bool
(** The index's half of the store's oracle: every entry lies in counted
    blocks, each of which maps back to the entry's hash, and [payload]
    of it (its stored bytes decoded, [None] when they do not decode) has
    the entry's hash, original length and CRC-32. *)
