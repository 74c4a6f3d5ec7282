(** The VM map: the list of regions mapped in an address space.

    Each entry covers a contiguous virtual page range, carries protection
    bits and checkpoint-control flags, and is backed by exactly one VM
    object (possibly at an offset, and possibly shared with other maps). *)

type prot = { read : bool; write : bool; exec : bool }

val prot_rw : prot
val prot_ro : prot

type entry = {
  mutable start_vpn : int;
  mutable npages : int;
  mutable prot : prot;
  mutable obj : Vm_object.t;
  mutable obj_pgoff : int;  (** page offset of the entry within the object *)
  mutable shared : bool;
      (** shared mapping: fork children reference the same object instead of
          getting copy-on-write semantics *)
  mutable excluded : bool;  (** excluded from checkpoints via [sls_mctl] *)
  mutable evict_first : bool;
      (** madvise(MADV_DONTNEED-style) hint: prefer this region when the
          swap policy needs victims (paper section 6) *)
  mutable e_gen : int;
      (** per-entry mutation stamp; bump via [touch_entry] (or the setters)
          whenever a serialized entry field changes in place *)
}

type t

val create : unit -> t

val generation : t -> int
(** Map-level layout stamp: bumped by every [map]/[unmap].  Together with
    the per-entry stamps this covers the serialized entry list. *)

val touch_entry : entry -> unit

val set_excluded : entry -> bool -> unit
(** Flip the checkpoint-exclusion flag ([sls_mctl]), stamping on change. *)

val entries : t -> entry list
(** In ascending address order. *)

val entry_count : t -> int

val map :
  ?shared:bool ->
  t ->
  vpn:int ->
  npages:int ->
  prot:prot ->
  obj:Vm_object.t ->
  obj_pgoff:int ->
  entry
(** Insert a new entry.  Raises [Invalid_argument] on overlap with an
    existing entry. *)

val unmap : t -> entry -> unit
(** Remove the entry and drop its object reference. *)

val find : t -> int -> entry option
(** The entry containing virtual page [vpn], if any. *)

val find_free_range : t -> npages:int -> int
(** A free virtual page range of the requested size (simple first-fit above
    the highest mapping). *)
