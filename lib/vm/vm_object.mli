(** Mach-style VM objects with shadow chains.

    A VM object is a mappable collection of pages (indexed by page number
    within the object).  Copy-on-write is implemented by {e shadowing}: a
    shadow object sits above its parent, holds the private copies of
    modified pages, and defers to the parent for everything else.  This is
    the structure the paper's system shadowing manipulates (section 6), so
    both collapse directions are implemented:

    - [Stock_freebsd]: the parent's pages are inserted into the shadow;
      cost scales with the parent's resident pages (the common case is a
      nearly-full parent under a nearly-empty shadow).
    - [Aurora_reverse]: the shadow's pages are moved down into the parent;
      cost scales with the shadow's pages, which system shadowing keeps
      small because shadows live for one checkpoint period.

    Operations that have a modeled hardware cost take a [clock]. *)

type kind =
  | Anonymous
  | Vnode_backed of int  (** inode number; COW handled by the Aurora FS *)
  | Device_backed of string  (** e.g. "hpet0"; mapped read-only *)

type t

val create : kind -> t
val id : t -> int
val kind : t -> kind

val parent : t -> t option
val ref_ : t -> unit
val unref : t -> unit

val resident_pages : t -> int
(** Pages resident in this object only (not the chain). *)

val chain_length : t -> int
(** 1 for an object with no parent. *)

val insert_page : t -> int -> Page.t -> unit
(** [insert_page obj idx page] makes [page] the object's page [idx],
    replacing any previous one. *)

val remove_page : t -> int -> unit
(** Drop a resident page (swap-out: the content must already be durable
    elsewhere — the pager brings it back on demand). *)

val set_pager : t -> ?stores:(int -> bool) -> (int -> (int * bytes) list) option -> unit
(** Attach a pager: a fault that finds no page resident at this level
    consults its pager before descending the shadow chain.  Given the
    faulting index, the pager returns [(index, payload)] pages this level
    stores (backed by the object store): the faulting page and, by
    fault-around, its neighbours, or [[]] when it does not store the
    faulting page.  The fault handler maps the neighbours it may
    ({!Vm_space}), so their first read takes no fault.  This is the
    unified swap / lazy-restore data path of paper section 6.
    [stores idx] answers, without a charge, whether the pager stores
    [idx] and has not yet returned it; the default, every index, is
    the answer that never lets fault-around look past this level. *)

val pager_stores : t -> int -> bool
(** Whether this level has a pager that stores [idx] ([false] without a
    pager). *)

val find_local : t -> int -> Page.t option
(** Page [idx] in this object only. *)

val lookup :
  ?on_pagein:(int -> Page.t -> unit) ->
  clock:Aurora_sim.Clock.t ->
  t ->
  int ->
  (Page.t * t) option
(** Walk the shadow chain for page [idx]; charges one
    {!Aurora_sim.Cost.shadow_chain_hop} per level descended.  A level with
    no resident page [idx] consults its pager before descending: each
    returned page becomes that level's page unless the level already
    holds that index (a resident page is never replaced), and
    [on_pagein i page] is called once per page installed, after it is
    installed; the fault handler both counts and maps them.  The walk
    then resolves [idx] at that level, or descends.  Returns the page and
    the object it resides in.  This is the fault path's walk. *)

val iter_local : t -> (int -> Page.t -> unit) -> unit
(** Iterate this object's resident pages (not the chain). *)

val shadow : clock:Aurora_sim.Clock.t -> t -> t
(** Create a shadow above [t]: a fresh anonymous object whose parent is
    [t].  Transfers the caller's reference: the mapping that used [t] now
    uses the shadow. *)

type collapse_direction = Stock_freebsd | Aurora_reverse

val collapse : clock:Aurora_sim.Clock.t -> direction:collapse_direction -> t -> t
(** [collapse ~clock ~direction shadow] merges [shadow] with its parent and
    returns the surviving object (the shadow under [Stock_freebsd], the
    parent under [Aurora_reverse]).  The shadow's version of a page wins in
    both directions.  Raises [Invalid_argument] if [shadow] has no parent.
    The caller re-points mappings at the survivor. *)

val pages_moved_by_last_collapse : unit -> int
(** Instrumentation for the collapse-direction ablation. *)

val set_parent : t -> t option -> unit
(** Re-point the shadow parent.  The orchestrator uses this after a
    reverse collapse to re-attach the surviving parent to the objects that
    shadowed the collapsed one. *)
