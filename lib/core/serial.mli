(** Serialization of POSIX objects to and from store images.

    Each kernel object kind has an image record (what restore needs), a
    serializer to the store's wire format, and a parser back.  References
    between objects — a file-descriptor slot pointing at a description, a
    description pointing at a pipe, a VM entry pointing at a memory object —
    are encoded as 64-bit object identifiers, which is the heart of the
    POSIX object model: sharing is represented structurally, never
    re-inferred.

    Serializers are pure; the checkpoint path charges the modeled
    serialization costs separately. *)

(** {1 Images} *)

type regs_image = {
  i_rip : int;
  i_rsp : int;
  i_rflags : int;
  i_gp : int array;
  i_fpu : string;
}

type thread_image = {
  i_tid_local : int;
  i_regs : regs_image;
  i_sigmask : int;
  i_pending : int list;
  i_priority : int;
}

type entry_image = {
  i_start_vpn : int;
  i_npages : int;
  i_read : bool;
  i_write : bool;
  i_exec : bool;
  i_shared : bool;
  i_excluded : bool;
  i_obj_oid : int;
  i_obj_pgoff : int;
}

type proc_image = {
  i_pid_local : int;
  i_ppid_local : int;
  i_pgid : int;
  i_sid : int;
  i_name : string;
  i_ephemeral : bool;
  i_cwd : string;
  i_threads : thread_image list;
  i_fds : (int * int) list;  (** (slot, description oid) *)
  i_entries : entry_image list;
  i_proc_pending : int list;
  i_aio_reads : (int * int * int) list;
      (** in-flight asynchronous reads [(fd slot, offset, length)]: they
          are recorded in the checkpoint and reissued at restore (paper
          section 5.3); in-flight writes are not recorded — the checkpoint
          instead waits for them before completing *)
}

type fdesc_kind_image =
  | I_vnode of { inode : int; offset : int; append : bool }
  | I_pipe_r of int
  | I_pipe_w of int
  | I_socket of int
  | I_kqueue of int
  | I_pty_m of int
  | I_pty_s of int
  | I_shm of int
  | I_device of string

type fdesc_image = { i_kind : fdesc_kind_image; i_ext_sync : bool }

type pipe_image = { i_data : string; i_rd_open : bool; i_wr_open : bool }

type msg_image = { i_msg_data : string; i_ctl_oids : int list }

type socket_image = {
  i_domain : int;
  i_proto : int;
  i_laddr : (string * int) option;
  i_raddr : (string * int) option;
  i_opts : (string * int) list;
  i_tcp : int;  (** 0 closed, 1 listening, 2 established *)
  i_snd_seq : int;
  i_rcv_seq : int;
  i_peer_oid : int;  (** 0 when unconnected *)
  i_recvq : msg_image list;
  i_sendq : msg_image list;
}

type kevent_image = { i_ident : int; i_filter : int; i_flags : int; i_udata : int }

type pty_image = {
  i_unit : int;
  i_echo : bool;
  i_canonical : bool;
  i_baud : int;
  i_input : string;
  i_output : string;
}

type shm_image = { i_shm_kind : (string, int) Either.t; i_npages : int; i_backing_oid : int }

type memobj_image = { i_parent_oid : int option; i_anon : bool }

type group_image = {
  i_proc_oids : int list;
  i_period : int;
  i_ext_sync_on : bool;
  i_name_ckpts : (string * int) list;  (** named checkpoints -> epoch *)
  i_ephemeral_parents : int list;
      (** local pids to signal with SIGCHLD after restore: their ephemeral
          children were not persisted and look exited (section 3) *)
}

(** {1 Object kind tags used in the store} *)

val kind_group : string
val kind_proc : string
val kind_fdesc : string
val kind_pipe : string
val kind_socket : string
val kind_kqueue : string
val kind_pty : string
val kind_shm : string
val kind_memobj : string

exception Malformed of string
(** The single typed error every [*_of_string] parser raises on malformed
    input (object kind and byte offset in the message) — short reads, bad
    tags, and anything a hostile payload would otherwise provoke out of
    the runtime as [Failure]/[Invalid_argument]. *)

(** {1 Serializers} *)

val proc_to_string : proc_image -> string
val proc_of_string : string -> proc_image
val fdesc_to_string : fdesc_image -> string
val fdesc_of_string : string -> fdesc_image
val pipe_to_string : pipe_image -> string
val pipe_of_string : string -> pipe_image
val socket_to_string : socket_image -> string
val socket_of_string : string -> socket_image
val kqueue_to_string : kevent_image list -> string
val kqueue_of_string : string -> kevent_image list
val pty_to_string : pty_image -> string
val pty_of_string : string -> pty_image
val shm_to_string : shm_image -> string
val shm_of_string : string -> shm_image
val memobj_to_string : memobj_image -> string
val memobj_of_string : string -> memobj_image
val group_to_string : group_image -> string
val group_of_string : string -> group_image

val parse_check : kind:string -> string -> (unit, string) result
(** Try parsing [meta] as a [kind] image; [Ok ()] for kinds serialized
    elsewhere (file-system objects, raw memory). *)

(** {1 Capture helpers (kernel object -> image)} *)

val image_of_regs : Aurora_kern.Thread.regs -> regs_image
val regs_of_image : regs_image -> Aurora_kern.Thread.regs
val image_of_thread : Aurora_kern.Thread.t -> thread_image
val thread_of_image : thread_image -> tid_global:int -> Aurora_kern.Thread.t
