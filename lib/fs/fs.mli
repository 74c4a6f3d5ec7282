(** The Aurora file system: a namespace into the single level store.

    Files are vnodes whose pages live in VM objects (so memory-mapped
    regions and files are identical in the object store); the namespace
    (path -> inode) is itself a store object, and every vnode is a store
    object named by its inode.  Three properties from the paper
    (section 5.2):

    - {b Anonymous files survive}: an open-but-unlinked file is still a
      store object referenced by the checkpoint, so restore brings it back
      even though it has no name — conventional file systems reclaim it.
    - {b Vnodes are checkpointed by inode number}, avoiding namei/name-cache
      lookups during the checkpoint stop window.
    - {b fsync is a no-op}: durability comes from checkpoint consistency
      (the SLS flushes dirty file pages with every checkpoint); external
      synchrony and the Aurora API provide ordering where it matters.

    File creation takes a global namespace lock (the paper notes this is
    unoptimized, visible in Figure 3c's createfiles column). *)

type t

(** {1 Object kind tags used in the store} *)

val kind_namespace : string
val kind_vnode : string

val namespace_codec : ((string * int) list * int) Aurora_objstore.Wire.codec
(** The {!kind_namespace} object's metadata: (path, inode) pairs sorted by
    path, then the next inode number. *)

val vnode_codec : (int * int * int) Aurora_objstore.Wire.codec
(** A {!kind_vnode} object's metadata: (inode, size, link count). *)

val create : store:Aurora_objstore.Store.t -> t
(** A fresh, empty file system over the store. *)

val store : t -> Aurora_objstore.Store.t
val clock : t -> Aurora_sim.Clock.t

(** {1 Namespace} *)

val lookup : t -> string -> Aurora_kern.Vnode.t option
val create_file : t -> string -> Aurora_kern.Vnode.t
val unlink : t -> string -> bool
val rename : t -> src:string -> dst:string -> bool
val paths : t -> string list
val vnode_by_inode : t -> int -> Aurora_kern.Vnode.t option

(** {1 Data} *)

val write : t -> Aurora_kern.Vnode.t -> off:int -> string -> unit
val read : t -> Aurora_kern.Vnode.t -> off:int -> len:int -> string
val fsync : t -> Aurora_kern.Vnode.t -> unit
(** No-op under checkpoint consistency; charges only the syscall. *)

(** {1 Checkpoint integration (called by the SLS orchestrator)} *)

val flush_to_store : t -> unit
(** Stage the namespace and every dirty vnode's dirty pages into the
    store's open checkpoint.  Vnodes are staged by inode number; unlinked
    vnodes that are still open are staged too (the hidden reference). *)

val restore_from_store :
  store:Aurora_objstore.Store.t -> epoch:int -> pages:(int -> (int * bytes) list) -> t
(** Rebuild the file system from a checkpoint: namespace, vnodes, sizes
    and page contents, [pages oid] being vnode object [oid]'s pages. *)

val oid_of_inode : t -> int -> int option
(** The store object backing an inode, once flushed; used by the SLS to
    reference file state from file-descriptor objects. *)

val vnode_by_oid : t -> int -> Aurora_kern.Vnode.t option
(** Inverse of {!oid_of_inode} (restore path: memory-mapped files). *)

val vfs_ops : t -> Aurora_kern.Vfs.ops
(** Mount adapter for the kernel. *)

val mark_open_after_restore : t -> int -> unit
(** Re-establish an open count on a restored vnode (called while the SLS
    relinks restored file descriptors). *)
