(* The image of each POSIX object kind, stated once over the kernel's own
   types: the record restore needs, and the one [Wire.codec] that both
   writes and reads it.  A thread, a kevent, a socket's state and a shm
   segment's kind are written and read as the kernel values themselves,
   so no other module maps them to or from integers; a byte that names no
   value of its kernel type (an unknown filter, domain, protocol, TCP
   state or shm kind) is [Wire.Corrupt], which [Serial] reports as
   [Malformed].  [Serial] includes this module and exports it whole, so
   it has no .mli that would restate each record. *)

open Aurora_kern
open Aurora_vm

type entry_image = {
  i_start_vpn : int;
  i_npages : int;
  i_prot : Vm_map.prot;
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
  i_threads : Thread.t list;  (** restore gives each its global tid *)
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

type socket_image = {
  i_domain : Socket.domain;
  i_proto : Socket.proto;
  i_peer_oid : int;  (** 0 when unconnected *)
  i_state : Socket.image;
      (** each message's [ctl_fds] names SCM_RIGHTS description oids *)
}

type pty_image = {
  i_unit : int;
  i_echo : bool;
  i_canonical : bool;
  i_baud : int;
  i_input : string;
  i_output : string;
}

type shm_image = { i_shm_kind : Shm.kind; i_npages : int; i_backing_oid : int }

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
  record (fun rip rsp rflags gp fpu -> { Thread.rip; rsp; rflags; gp; fpu })
  |> field u64 (fun r -> r.Thread.rip)
  |> field u64 (fun r -> r.Thread.rsp)
  |> field u64 (fun r -> r.Thread.rflags)
  |> field (conv Array.to_list Array.of_list (list u64)) (fun r -> r.Thread.gp)
  |> field (conv Bytes.to_string Bytes.of_string str) (fun r -> r.Thread.fpu)
  |> seal

let thread =
  record (fun tid regs sigmask pending_signals priority ->
      { (Thread.create ~tid) with Thread.regs; sigmask; pending_signals; priority })
  |> field u64 (fun t -> t.Thread.tid_local)
  |> field regs (fun t -> t.Thread.regs)
  |> field u64 (fun t -> t.Thread.sigmask)
  |> field (list u32) (fun t -> t.Thread.pending_signals)
  |> field u32 (fun t -> t.Thread.priority)
  |> seal

let prot =
  conv
    (fun { Vm_map.read; write; exec } -> (read, write, exec))
    (fun (read, write, exec) -> { Vm_map.read; write; exec })
    (triple bool bool bool)

let entry =
  record (fun i_start_vpn i_npages i_prot i_shared i_excluded i_obj_oid i_obj_pgoff ->
      { i_start_vpn; i_npages; i_prot; i_shared; i_excluded; i_obj_oid; i_obj_pgoff })
  |> field u64 (fun e -> e.i_start_vpn)
  |> field u64 (fun (e : entry_image) -> e.i_npages)
  |> field prot (fun e -> e.i_prot)
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
  record (fun data ctl_fds -> { Socket.data; ctl_fds })
  |> field str (fun m -> m.Socket.data)
  |> field (list u64) (fun m -> m.Socket.ctl_fds)
  |> seal

let addr =
  option
    (conv (fun { Socket.host; port } -> (host, port)) (fun (host, port) -> { Socket.host; port })
       (pair str u32))

(* The tag, then both sequence numbers (zero unless established). *)
let tcp_state =
  tagged "tcp state"
    [
      case 0 (pair u64 u64) (fun _ -> Socket.Tcp_closed)
        (function Socket.Tcp_closed -> Some (0, 0) | _ -> None);
      case 1 (pair u64 u64) (fun _ -> Socket.Tcp_listening)
        (function Socket.Tcp_listening -> Some (0, 0) | _ -> None);
      case 2 (pair u64 u64)
        (fun (snd_seq, rcv_seq) -> Socket.Tcp_established { snd_seq; rcv_seq })
        (function Socket.Tcp_established e -> Some (e.snd_seq, e.rcv_seq) | _ -> None);
    ]

let socket =
  record (fun i_domain i_proto im_laddr im_raddr im_opts im_state i_peer_oid im_recvq im_sendq ->
      { i_domain; i_proto; i_peer_oid;
        i_state = { Socket.im_laddr; im_raddr; im_opts; im_state; im_recvq; im_sendq } })
  |> field (enum "socket domain" Socket.[ Inet; Unix_dom ]) (fun s -> s.i_domain)
  |> field (enum "socket protocol" Socket.[ Udp; Tcp ]) (fun s -> s.i_proto)
  |> field addr (fun s -> s.i_state.Socket.im_laddr)
  |> field addr (fun s -> s.i_state.Socket.im_raddr)
  |> field (list (pair str u64)) (fun s -> s.i_state.Socket.im_opts)
  |> field tcp_state (fun s -> s.i_state.Socket.im_state)
  |> field u64 (fun s -> s.i_peer_oid)
  |> field (list msg) (fun s -> s.i_state.Socket.im_recvq)
  |> field (list msg) (fun s -> s.i_state.Socket.im_sendq)
  |> seal

let kevent =
  record (fun ident filter flags udata -> { Kqueue.ident; filter; flags; udata })
  |> field u64 (fun e -> e.Kqueue.ident)
  |> field
       (enum "kqueue filter" Kqueue.[ Ev_read; Ev_write; Ev_timer; Ev_signal; Ev_proc ])
       (fun e -> e.Kqueue.filter)
  |> field u32 (fun e -> e.Kqueue.flags)
  |> field u64 (fun e -> e.Kqueue.udata)
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
      case 0 str (fun name -> Shm.Posix_shm name)
        (function Shm.Posix_shm name -> Some name | Shm.Sysv_shm _ -> None);
      case 1 u64 (fun key -> Shm.Sysv_shm key)
        (function Shm.Sysv_shm key -> Some key | Shm.Posix_shm _ -> None);
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
