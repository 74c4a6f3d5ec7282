(** The stored-page read path: how the store reads, decodes, checks and
    hands out page payloads.

    {!Store} decides which pages to read (version and leaf lookups, the
    delta's location diff, verification's walk) and hands this module
    their leaf entries, a submit function and a clock.  Every page read
    follows the same rules:
    - each distinct stored range (offset, stored length) is read once,
      in one vectored batch through [submit], whose retries are the
      store's read policy;
    - each range is decoded once, however many deduplicated pages name
      it, and its decompression is charged once, when the first
      consumer waits for it;
    - each page is checked against its leaf CRC: one that fails it
      ("oid N page I payload corrupt") or does not decode raises
      {!Store_format.Corrupt_store}, a read that kept failing
      {!Aurora_block.Fault.Io_error};
    - the first page to take a decoded buffer keeps it, and every other
      page gets a copy, so no two returned pages share a buffer;
    - a fault brings in its window of {!fault_cluster} pages. *)

val payload : Store_format.leaf_entry -> bytes -> bytes option
(** An entry's payload decoded from its stored bytes, unchecked and
    uncharged; [None] for coded bytes that do not decode.  The
    consistency oracle's decoder. *)

val fault_cluster : int
(** Pages one lazy page-in brings in: the faulting page's aligned window
    of 16 pages, 64 KiB of 4 KiB pages.  That is the paper's stripe unit
    and Linux's default [fault_around_bytes]: a window's reads cost one
    device round trip, close to what the faulting page alone costs.  A
    page [i] is in [idx]'s window of [span] pages when both lie in the
    same aligned run of [span] pages and in the same radix leaf. *)

val read_window :
  submit:Leaf_cache.submit ->
  Aurora_sim.Clock.t ->
  oid:int ->
  idx:int ->
  span:int ->
  Store_format.leaf_entry list ->
  (int * bytes) list
(** [read_window ~submit clk ~oid ~idx ~span entries]: the pages of
    [entries] (one leaf of [oid]) in [idx]'s window of [span] pages, read
    in one batch at the clock's time and waited for, sorted by index.
    [[]], with no read, when [idx] is not among [entries].  Only [idx]'s
    own read or payload raises; a neighbour that fails is left out. *)

val read :
  submit:Leaf_cache.submit ->
  Aurora_sim.Clock.t ->
  (int * Store_format.leaf_entry list) list ->
  (int * bytes) list list
(** Every page of each [(oid, entries)] object, in one batch at the
    clock's time, with one wait and one decompression charge for the
    batch; each object's pages in entry order.  The first page whose read
    kept failing or whose payload fails raises, before any is returned. *)

type share
(** One object's share of a {!stream}: its pages not yet taken, by
    index, and its unlisted leaves (those the leaf batch could not read
    or parse), by leaf index.  It holds the clock its consumers wait on,
    and outlives the epoch it was read from. *)

val stream :
  submit:Leaf_cache.submit ->
  Aurora_sim.Clock.t ->
  now:int ->
  (int, int * (Store_format.leaf_entry list, exn) result) Hashtbl.t ->
  (int * int Map.Make(Int).t) list ->
  (int * share) list
(** [stream ~submit clk ~now listed objects] submits every page of the
    [(oid, leaves)] objects (leaf index to leaf block) in one batch when
    the last leaf of [listed] (the leaf batch's results, as
    {!Leaf_cache.paid} returns them) arrives, without waiting, and
    returns each oid with its share.  The clock does not move; the
    consumers below issue no device read. *)

val pager : share -> int -> (int * bytes) list
(** The fault pager: wait for [idx]'s window of {!fault_cluster} pages,
    decode it, and return the window's pages not taken before, dropping
    them from the share.  [[]] for a page the share does not hold.  A
    fault under an unlisted leaf waits for that leaf's arrival and raises
    its error. *)

val pager_stores : share -> int -> bool
(** Whether the share still holds page [idx], or [idx] lies under an
    unlisted leaf (its fault raises).  Uncharged. *)

val check : share -> unit
(** Wait for and decode every page left in the share, taking none: an
    unlisted leaf raises first, then the first page, by index, whose read
    kept failing or whose payload fails. *)

val take_all : share -> (int * bytes) list
(** Every page left in the share, sorted by index, decoded as {!pager}
    decodes, and dropped from the share.  Raises as {!check} does. *)
