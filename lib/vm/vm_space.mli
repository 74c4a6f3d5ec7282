(** A process address space: VM map + pmap + fault handler.

    This module implements the memory semantics the SLS relies on:

    - demand paging with zero-fill of anonymous memory;
    - copy-on-write through shadow chains (a write to a page resident in an
      ancestor object copies it into the entry's top object);
    - pmap caching with hardware-faithful invalidation costs — a PTE made
      stale by a sharer's copy-on-write, or downgraded by checkpoint
      shadowing, costs a fault to reestablish;
    - fork with Mach-style symmetric shadowing of private writable regions.

    All addresses in the byte-level API are virtual byte addresses; page
    numbers appear in the mapping API. *)

exception Fault of string
(** Raised on access outside any mapping, write to a read-only or
    device-backed region, etc. *)

type stats = {
  mutable soft_faults : int;
  mutable cow_faults : int;
  mutable zero_fills : int;
  mutable stale_refaults : int;
  mutable pageins : int;  (** pages a pager installed (swap / lazy restore) *)
  mutable mapped_around : int;
      (** fault-around: PTEs a fault mapped besides its own page *)
}

type t

val create : clock:Aurora_sim.Clock.t -> t

val clock : t -> Aurora_sim.Clock.t
val map : t -> Vm_map.t
val pmap : t -> Pmap.t
val stats : t -> stats

(** {1 Mapping} *)

val map_anonymous : t -> npages:int -> prot:Vm_map.prot -> Vm_map.entry
(** Map fresh anonymous zero-fill memory at a free range. *)

val map_object :
  ?shared:bool ->
  t ->
  obj:Vm_object.t ->
  obj_pgoff:int ->
  npages:int ->
  prot:Vm_map.prot ->
  Vm_map.entry
(** Map an existing object (shared memory, file mappings); takes a new
    reference on the object. *)

val unmap : t -> Vm_map.entry -> unit

(** {1 Access} *)

val addr_of_entry : Vm_map.entry -> int
(** Byte address of the entry's start. *)

val write_byte : t -> addr:int -> char -> unit
val read_byte : t -> addr:int -> char

val write_string : t -> addr:int -> string -> unit
val read_string : t -> addr:int -> len:int -> string

val touch_write : t -> addr:int -> len:int -> unit
(** Dirty every page in the range by writing one byte per page; the cheap
    bulk path used by workload generators. *)

val touch_read : t -> addr:int -> len:int -> unit

(** {1 Checkpoint support} *)

val layout_generation : t -> int
(** Monotonic stamp over the serialized entry list: the map-level stamp
    (map/unmap; unmap folds the dead entry's stamp in so the sum never
    regresses) plus every live entry's stamp (mprotect, exclusion flips,
    fork's object swing).  Checkpoint shadow interposition does not move
    it. *)

val unique_objects : t -> Vm_object.t list
(** Distinct top objects of non-excluded writable anonymous entries — the
    set system shadowing must cover for this space. *)

val replace_object : t -> old_obj:Vm_object.t -> new_obj:Vm_object.t -> int
(** Point every entry backed by [old_obj] at [new_obj]: the writable PTEs
    in the affected ranges are downgraded (charging the per-page
    COW-marking cost) and then every PTE of the ranges is dropped — the
    TLB flush — so reads and writes alike refault after a checkpoint.
    Returns the number of PTEs that were writable.  Used when interposing
    a system shadow, where [new_obj] is [shadow old_obj]. *)

val fork : t -> t
(** A child address space: shared entries alias the same objects; private
    writable entries get symmetric shadows (parent and child each shadow
    the previously shared object). *)

val resident_pages : t -> int
(** Unique resident pages reachable from this space's objects. *)

val dirty_top_pages : t -> int
(** Pages resident in the top objects of writable entries — the dirty set
    the next incremental checkpoint must flush. *)

(** {1 Speculative soft-quiesce}

    While a speculative checkpoint serializes pages without stopping the
    workload, the space tracks a second, independently cleared dirty-bit
    plane plus a structural-hazard latch.  See {!Pmap.spec_dirty_vpns}. *)

val spec_begin : t -> unit
(** Arm the speculation epoch: clears the spec dirty plane and the
    structural latch.  The incremental plane is untouched. *)

val spec_drain : t -> int list
(** VPNs written since the last drain (ascending); clears their spec
    bits so the next drain reports only the following window. *)

val spec_structural : t -> bool
(** True if a fork or unmap happened during the armed epoch: per-page
    conflict tracking is no longer sound (PTEs carrying spec bits were
    discarded or entries swung to new shadow objects), and the validator
    must re-copy harvested objects wholesale. *)

val spec_end : t -> unit
(** Disarm; clears the structural latch. *)
