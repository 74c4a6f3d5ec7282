(* The image of each POSIX object kind: the record restore needs, and the
   one [Wire.codec] that both writes and reads it.  [Serial] includes this
   module and exports it whole, so it has no .mli that would restate each
   record. *)

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

(* Codecs ---------------------------------------------------------------------- *)

open Aurora_objstore.Wire.Codec

let regs =
  record (fun i_rip i_rsp i_rflags i_gp i_fpu -> { i_rip; i_rsp; i_rflags; i_gp; i_fpu })
  |> field u64 (fun r -> r.i_rip)
  |> field u64 (fun r -> r.i_rsp)
  |> field u64 (fun r -> r.i_rflags)
  |> field (conv Array.to_list Array.of_list (list u64)) (fun r -> r.i_gp)
  |> field str (fun r -> r.i_fpu)
  |> seal

let thread =
  record (fun i_tid_local i_regs i_sigmask i_pending i_priority ->
      { i_tid_local; i_regs; i_sigmask; i_pending; i_priority })
  |> field u64 (fun t -> t.i_tid_local)
  |> field regs (fun t -> t.i_regs)
  |> field u64 (fun t -> t.i_sigmask)
  |> field (list u32) (fun t -> t.i_pending)
  |> field u32 (fun t -> t.i_priority)
  |> seal

let entry =
  record
    (fun i_start_vpn i_npages i_read i_write i_exec i_shared i_excluded i_obj_oid i_obj_pgoff ->
      { i_start_vpn; i_npages; i_read; i_write; i_exec; i_shared; i_excluded; i_obj_oid;
        i_obj_pgoff })
  |> field u64 (fun e -> e.i_start_vpn)
  |> field u64 (fun (e : entry_image) -> e.i_npages)
  |> field bool (fun e -> e.i_read)
  |> field bool (fun e -> e.i_write)
  |> field bool (fun e -> e.i_exec)
  |> field bool (fun e -> e.i_shared)
  |> field bool (fun e -> e.i_excluded)
  |> field u64 (fun e -> e.i_obj_oid)
  |> field u64 (fun e -> e.i_obj_pgoff)
  |> seal

let proc =
  record
    (fun i_pid_local i_ppid_local i_pgid i_sid i_name i_ephemeral i_cwd i_threads i_fds
         i_entries i_proc_pending i_aio_reads ->
      { i_pid_local; i_ppid_local; i_pgid; i_sid; i_name; i_ephemeral; i_cwd; i_threads;
        i_fds; i_entries; i_proc_pending; i_aio_reads })
  |> field u64 (fun p -> p.i_pid_local)
  |> field u64 (fun p -> p.i_ppid_local)
  |> field u64 (fun p -> p.i_pgid)
  |> field u64 (fun p -> p.i_sid)
  |> field str (fun p -> p.i_name)
  |> field bool (fun p -> p.i_ephemeral)
  |> field str (fun p -> p.i_cwd)
  |> field (list thread) (fun p -> p.i_threads)
  |> field (list (pair u32 u64)) (fun p -> p.i_fds)
  |> field (list entry) (fun p -> p.i_entries)
  |> field (list u32) (fun p -> p.i_proc_pending)
  |> field (list (triple u32 u64 u64)) (fun p -> p.i_aio_reads)
  |> seal

let fdesc_kind =
  tagged "fdesc kind"
    [
      case 0 (triple u64 u64 bool)
        (fun (inode, offset, append) -> I_vnode { inode; offset; append })
        (function I_vnode { inode; offset; append } -> Some (inode, offset, append) | _ -> None);
      case 1 u64 (fun o -> I_pipe_r o) (function I_pipe_r o -> Some o | _ -> None);
      case 2 u64 (fun o -> I_pipe_w o) (function I_pipe_w o -> Some o | _ -> None);
      case 3 u64 (fun o -> I_socket o) (function I_socket o -> Some o | _ -> None);
      case 4 u64 (fun o -> I_kqueue o) (function I_kqueue o -> Some o | _ -> None);
      case 5 u64 (fun o -> I_pty_m o) (function I_pty_m o -> Some o | _ -> None);
      case 6 u64 (fun o -> I_pty_s o) (function I_pty_s o -> Some o | _ -> None);
      case 7 u64 (fun o -> I_shm o) (function I_shm o -> Some o | _ -> None);
      case 8 str (fun n -> I_device n) (function I_device n -> Some n | _ -> None);
    ]

let fdesc =
  record (fun i_kind i_ext_sync -> { i_kind; i_ext_sync })
  |> field fdesc_kind (fun f -> f.i_kind)
  |> field bool (fun f -> f.i_ext_sync)
  |> seal

let pipe =
  record (fun i_data i_rd_open i_wr_open -> { i_data; i_rd_open; i_wr_open })
  |> field str (fun p -> p.i_data)
  |> field bool (fun p -> p.i_rd_open)
  |> field bool (fun p -> p.i_wr_open)
  |> seal

let msg =
  record (fun i_msg_data i_ctl_oids -> { i_msg_data; i_ctl_oids })
  |> field str (fun m -> m.i_msg_data)
  |> field (list u64) (fun m -> m.i_ctl_oids)
  |> seal

let socket =
  record
    (fun i_domain i_proto i_laddr i_raddr i_opts i_tcp i_snd_seq i_rcv_seq i_peer_oid i_recvq
         i_sendq ->
      { i_domain; i_proto; i_laddr; i_raddr; i_opts; i_tcp; i_snd_seq; i_rcv_seq; i_peer_oid;
        i_recvq; i_sendq })
  |> field u8 (fun s -> s.i_domain)
  |> field u8 (fun s -> s.i_proto)
  |> field (option (pair str u32)) (fun s -> s.i_laddr)
  |> field (option (pair str u32)) (fun s -> s.i_raddr)
  |> field (list (pair str u64)) (fun s -> s.i_opts)
  |> field u8 (fun s -> s.i_tcp)
  |> field u64 (fun s -> s.i_snd_seq)
  |> field u64 (fun s -> s.i_rcv_seq)
  |> field u64 (fun s -> s.i_peer_oid)
  |> field (list msg) (fun s -> s.i_recvq)
  |> field (list msg) (fun s -> s.i_sendq)
  |> seal

let kevent =
  record (fun i_ident i_filter i_flags i_udata -> { i_ident; i_filter; i_flags; i_udata })
  |> field u64 (fun e -> e.i_ident)
  |> field u8 (fun e -> e.i_filter)
  |> field u32 (fun e -> e.i_flags)
  |> field u64 (fun e -> e.i_udata)
  |> seal

let kqueue = list kevent

let pty =
  record (fun i_unit i_echo i_canonical i_baud i_input i_output ->
      { i_unit; i_echo; i_canonical; i_baud; i_input; i_output })
  |> field u32 (fun p -> p.i_unit)
  |> field bool (fun p -> p.i_echo)
  |> field bool (fun p -> p.i_canonical)
  |> field u32 (fun p -> p.i_baud)
  |> field str (fun p -> p.i_input)
  |> field str (fun p -> p.i_output)
  |> seal

let shm_kind =
  tagged "shm kind"
    [
      case 0 str Either.left Either.find_left;
      case 1 u64 Either.right Either.find_right;
    ]

let shm =
  record (fun i_shm_kind i_npages i_backing_oid -> { i_shm_kind; i_npages; i_backing_oid })
  |> field shm_kind (fun s -> s.i_shm_kind)
  |> field u64 (fun s -> s.i_npages)
  |> field u64 (fun s -> s.i_backing_oid)
  |> seal

let memobj =
  record (fun i_parent_oid i_anon -> { i_parent_oid; i_anon })
  |> field (option u64) (fun m -> m.i_parent_oid)
  |> field bool (fun m -> m.i_anon)
  |> seal

let group =
  record (fun i_proc_oids i_period i_ext_sync_on i_name_ckpts i_ephemeral_parents ->
      { i_proc_oids; i_period; i_ext_sync_on; i_name_ckpts; i_ephemeral_parents })
  |> field (list u64) (fun g -> g.i_proc_oids)
  |> field u64 (fun g -> g.i_period)
  |> field bool (fun g -> g.i_ext_sync_on)
  |> field (list (pair str u64)) (fun g -> g.i_name_ckpts)
  |> field (list u64) (fun g -> g.i_ephemeral_parents)
  |> seal
