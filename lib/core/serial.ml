module Wire = Aurora_objstore.Wire
module Thread = Aurora_kern.Thread

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
  i_fds : (int * int) list;
  i_entries : entry_image list;
  i_proc_pending : int list;
  i_aio_reads : (int * int * int) list;
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
  i_tcp : int;
  i_snd_seq : int;
  i_rcv_seq : int;
  i_peer_oid : int;
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
  i_name_ckpts : (string * int) list;
  i_ephemeral_parents : int list;
}

let kind_group = "sls.group"
let kind_proc = "sls.proc"
let kind_fdesc = "sls.fdesc"
let kind_pipe = "sls.pipe"
let kind_socket = "sls.socket"
let kind_kqueue = "sls.kqueue"
let kind_pty = "sls.pty"
let kind_shm = "sls.shm"
let kind_memobj = "sls.memobj"

exception Malformed of string

(* Every exported parser funnels malformed input through [Malformed]:
   short reads and bad tags (Wire.Corrupt, with the byte offset) as well
   as anything a hostile payload provokes out of the runtime
   (Failure/Invalid_argument from string indexing and conversions). *)
let hardened kind parse s =
  try parse s with
  | Malformed _ as e -> raise e
  | Wire.Corrupt msg -> raise (Malformed (Printf.sprintf "%s: %s" kind msg))
  | Failure msg | Invalid_argument msg ->
      raise (Malformed (Printf.sprintf "%s: %s" kind msg))

let bool_w w b = Wire.u8 w (if b then 1 else 0)
let bool_r r = Wire.ru8 r = 1

let finish w = Bytes.to_string (Wire.contents w)
let start s = Wire.reader (Bytes.of_string s)

(* Registers and threads --------------------------------------------------- *)

let regs_w w (r : regs_image) =
  Wire.u64 w r.i_rip;
  Wire.u64 w r.i_rsp;
  Wire.u64 w r.i_rflags;
  Wire.list w (fun g -> Wire.u64 w g) (Array.to_list r.i_gp);
  Wire.str w r.i_fpu

let regs_r r =
  let i_rip = Wire.ru64 r in
  let i_rsp = Wire.ru64 r in
  let i_rflags = Wire.ru64 r in
  let i_gp = Array.of_list (Wire.rlist r Wire.ru64) in
  let i_fpu = Wire.rstr r in
  { i_rip; i_rsp; i_rflags; i_gp; i_fpu }

let thread_w w (t : thread_image) =
  Wire.u64 w t.i_tid_local;
  regs_w w t.i_regs;
  Wire.u64 w t.i_sigmask;
  Wire.list w (fun s -> Wire.u32 w s) t.i_pending;
  Wire.u32 w t.i_priority

let thread_r r =
  let i_tid_local = Wire.ru64 r in
  let i_regs = regs_r r in
  let i_sigmask = Wire.ru64 r in
  let i_pending = Wire.rlist r Wire.ru32 in
  let i_priority = Wire.ru32 r in
  { i_tid_local; i_regs; i_sigmask; i_pending; i_priority }

(* Processes ----------------------------------------------------------------- *)

let entry_w w (e : entry_image) =
  Wire.u64 w e.i_start_vpn;
  Wire.u64 w e.i_npages;
  bool_w w e.i_read;
  bool_w w e.i_write;
  bool_w w e.i_exec;
  bool_w w e.i_shared;
  bool_w w e.i_excluded;
  Wire.u64 w e.i_obj_oid;
  Wire.u64 w e.i_obj_pgoff

let entry_r r =
  let i_start_vpn = Wire.ru64 r in
  let i_npages = Wire.ru64 r in
  let i_read = bool_r r in
  let i_write = bool_r r in
  let i_exec = bool_r r in
  let i_shared = bool_r r in
  let i_excluded = bool_r r in
  let i_obj_oid = Wire.ru64 r in
  let i_obj_pgoff = Wire.ru64 r in
  {
    i_start_vpn;
    i_npages;
    i_read;
    i_write;
    i_exec;
    i_shared;
    i_excluded;
    i_obj_oid;
    i_obj_pgoff;
  }

let proc_to_string (p : proc_image) =
  let w = Wire.writer () in
  Wire.u64 w p.i_pid_local;
  Wire.u64 w p.i_ppid_local;
  Wire.u64 w p.i_pgid;
  Wire.u64 w p.i_sid;
  Wire.str w p.i_name;
  bool_w w p.i_ephemeral;
  Wire.str w p.i_cwd;
  Wire.list w (thread_w w) p.i_threads;
  Wire.list w
    (fun (slot, oid) ->
      Wire.u32 w slot;
      Wire.u64 w oid)
    p.i_fds;
  Wire.list w (entry_w w) p.i_entries;
  Wire.list w (fun s -> Wire.u32 w s) p.i_proc_pending;
  Wire.list w
    (fun (slot, off, len) ->
      Wire.u32 w slot;
      Wire.u64 w off;
      Wire.u64 w len)
    p.i_aio_reads;
  finish w

let proc_of_string s =
  let r = start s in
  let i_pid_local = Wire.ru64 r in
  let i_ppid_local = Wire.ru64 r in
  let i_pgid = Wire.ru64 r in
  let i_sid = Wire.ru64 r in
  let i_name = Wire.rstr r in
  let i_ephemeral = bool_r r in
  let i_cwd = Wire.rstr r in
  let i_threads = Wire.rlist r thread_r in
  let i_fds =
    Wire.rlist r (fun r ->
        let slot = Wire.ru32 r in
        let oid = Wire.ru64 r in
        (slot, oid))
  in
  let i_entries = Wire.rlist r entry_r in
  let i_proc_pending = Wire.rlist r Wire.ru32 in
  let i_aio_reads =
    Wire.rlist r (fun r ->
        let slot = Wire.ru32 r in
        let off = Wire.ru64 r in
        let len = Wire.ru64 r in
        (slot, off, len))
  in
  {
    i_pid_local;
    i_ppid_local;
    i_pgid;
    i_sid;
    i_name;
    i_ephemeral;
    i_cwd;
    i_threads;
    i_fds;
    i_entries;
    i_proc_pending;
    i_aio_reads;
  }

(* File descriptions ------------------------------------------------------------ *)

let fdesc_to_string (f : fdesc_image) =
  let w = Wire.writer () in
  (match f.i_kind with
  | I_vnode { inode; offset; append } ->
      Wire.u8 w 0;
      Wire.u64 w inode;
      Wire.u64 w offset;
      bool_w w append
  | I_pipe_r oid ->
      Wire.u8 w 1;
      Wire.u64 w oid
  | I_pipe_w oid ->
      Wire.u8 w 2;
      Wire.u64 w oid
  | I_socket oid ->
      Wire.u8 w 3;
      Wire.u64 w oid
  | I_kqueue oid ->
      Wire.u8 w 4;
      Wire.u64 w oid
  | I_pty_m oid ->
      Wire.u8 w 5;
      Wire.u64 w oid
  | I_pty_s oid ->
      Wire.u8 w 6;
      Wire.u64 w oid
  | I_shm oid ->
      Wire.u8 w 7;
      Wire.u64 w oid
  | I_device name ->
      Wire.u8 w 8;
      Wire.str w name);
  bool_w w f.i_ext_sync;
  finish w

let fdesc_of_string s =
  let r = start s in
  let i_kind =
    match Wire.ru8 r with
    | 0 ->
        let inode = Wire.ru64 r in
        let offset = Wire.ru64 r in
        let append = bool_r r in
        I_vnode { inode; offset; append }
    | 1 -> I_pipe_r (Wire.ru64 r)
    | 2 -> I_pipe_w (Wire.ru64 r)
    | 3 -> I_socket (Wire.ru64 r)
    | 4 -> I_kqueue (Wire.ru64 r)
    | 5 -> I_pty_m (Wire.ru64 r)
    | 6 -> I_pty_s (Wire.ru64 r)
    | 7 -> I_shm (Wire.ru64 r)
    | 8 -> I_device (Wire.rstr r)
    | k ->
        raise
          (Wire.Corrupt
             (Printf.sprintf "bad fdesc kind %d at byte %d" k (Wire.pos r - 1)))
  in
  let i_ext_sync = bool_r r in
  { i_kind; i_ext_sync }

(* Pipes, sockets, kqueues, ptys -------------------------------------------------- *)

let pipe_to_string (p : pipe_image) =
  let w = Wire.writer () in
  Wire.str w p.i_data;
  bool_w w p.i_rd_open;
  bool_w w p.i_wr_open;
  finish w

let pipe_of_string s =
  let r = start s in
  let i_data = Wire.rstr r in
  let i_rd_open = bool_r r in
  let i_wr_open = bool_r r in
  { i_data; i_rd_open; i_wr_open }

let addr_w w = function
  | None -> bool_w w false
  | Some (host, port) ->
      bool_w w true;
      Wire.str w host;
      Wire.u32 w port

let addr_r r =
  if bool_r r then begin
    let host = Wire.rstr r in
    let port = Wire.ru32 r in
    Some (host, port)
  end
  else None

let msg_w w (m : msg_image) =
  Wire.str w m.i_msg_data;
  Wire.list w (fun oid -> Wire.u64 w oid) m.i_ctl_oids

let msg_r r =
  let i_msg_data = Wire.rstr r in
  let i_ctl_oids = Wire.rlist r Wire.ru64 in
  { i_msg_data; i_ctl_oids }

let socket_to_string (s : socket_image) =
  let w = Wire.writer () in
  Wire.u8 w s.i_domain;
  Wire.u8 w s.i_proto;
  addr_w w s.i_laddr;
  addr_w w s.i_raddr;
  Wire.list w
    (fun (k, v) ->
      Wire.str w k;
      Wire.u64 w v)
    s.i_opts;
  Wire.u8 w s.i_tcp;
  Wire.u64 w s.i_snd_seq;
  Wire.u64 w s.i_rcv_seq;
  Wire.u64 w s.i_peer_oid;
  Wire.list w (msg_w w) s.i_recvq;
  Wire.list w (msg_w w) s.i_sendq;
  finish w

let socket_of_string str =
  let r = start str in
  let i_domain = Wire.ru8 r in
  let i_proto = Wire.ru8 r in
  let i_laddr = addr_r r in
  let i_raddr = addr_r r in
  let i_opts =
    Wire.rlist r (fun r ->
        let k = Wire.rstr r in
        let v = Wire.ru64 r in
        (k, v))
  in
  let i_tcp = Wire.ru8 r in
  let i_snd_seq = Wire.ru64 r in
  let i_rcv_seq = Wire.ru64 r in
  let i_peer_oid = Wire.ru64 r in
  let i_recvq = Wire.rlist r msg_r in
  let i_sendq = Wire.rlist r msg_r in
  {
    i_domain;
    i_proto;
    i_laddr;
    i_raddr;
    i_opts;
    i_tcp;
    i_snd_seq;
    i_rcv_seq;
    i_peer_oid;
    i_recvq;
    i_sendq;
  }

let kqueue_to_string evs =
  let w = Wire.writer () in
  Wire.list w
    (fun (e : kevent_image) ->
      Wire.u64 w e.i_ident;
      Wire.u8 w e.i_filter;
      Wire.u32 w e.i_flags;
      Wire.u64 w e.i_udata)
    evs;
  finish w

let kqueue_of_string s =
  let r = start s in
  Wire.rlist r (fun r ->
      let i_ident = Wire.ru64 r in
      let i_filter = Wire.ru8 r in
      let i_flags = Wire.ru32 r in
      let i_udata = Wire.ru64 r in
      { i_ident; i_filter; i_flags; i_udata })

let pty_to_string (p : pty_image) =
  let w = Wire.writer () in
  Wire.u32 w p.i_unit;
  bool_w w p.i_echo;
  bool_w w p.i_canonical;
  Wire.u32 w p.i_baud;
  Wire.str w p.i_input;
  Wire.str w p.i_output;
  finish w

let pty_of_string s =
  let r = start s in
  let i_unit = Wire.ru32 r in
  let i_echo = bool_r r in
  let i_canonical = bool_r r in
  let i_baud = Wire.ru32 r in
  let i_input = Wire.rstr r in
  let i_output = Wire.rstr r in
  { i_unit; i_echo; i_canonical; i_baud; i_input; i_output }

(* Shared memory and memory objects ------------------------------------------------ *)

let shm_to_string (s : shm_image) =
  let w = Wire.writer () in
  (match s.i_shm_kind with
  | Either.Left name ->
      Wire.u8 w 0;
      Wire.str w name
  | Either.Right key ->
      Wire.u8 w 1;
      Wire.u64 w key);
  Wire.u64 w s.i_npages;
  Wire.u64 w s.i_backing_oid;
  finish w

let shm_of_string str =
  let r = start str in
  let i_shm_kind =
    match Wire.ru8 r with
    | 0 -> Either.Left (Wire.rstr r)
    | 1 -> Either.Right (Wire.ru64 r)
    | k ->
        raise
          (Wire.Corrupt
             (Printf.sprintf "bad shm kind %d at byte %d" k (Wire.pos r - 1)))
  in
  let i_npages = Wire.ru64 r in
  let i_backing_oid = Wire.ru64 r in
  { i_shm_kind; i_npages; i_backing_oid }

let memobj_to_string (m : memobj_image) =
  let w = Wire.writer () in
  (match m.i_parent_oid with
  | None -> bool_w w false
  | Some oid ->
      bool_w w true;
      Wire.u64 w oid);
  bool_w w m.i_anon;
  finish w

let memobj_of_string s =
  let r = start s in
  let i_parent_oid = if bool_r r then Some (Wire.ru64 r) else None in
  let i_anon = bool_r r in
  { i_parent_oid; i_anon }

(* Group ----------------------------------------------------------------------------- *)

let group_to_string (g : group_image) =
  let w = Wire.writer () in
  Wire.list w (fun oid -> Wire.u64 w oid) g.i_proc_oids;
  Wire.u64 w g.i_period;
  bool_w w g.i_ext_sync_on;
  Wire.list w
    (fun (name, epoch) ->
      Wire.str w name;
      Wire.u64 w epoch)
    g.i_name_ckpts;
  Wire.list w (fun pid -> Wire.u64 w pid) g.i_ephemeral_parents;
  finish w

let group_of_string s =
  let r = start s in
  let i_proc_oids = Wire.rlist r Wire.ru64 in
  let i_period = Wire.ru64 r in
  let i_ext_sync_on = bool_r r in
  let i_name_ckpts =
    Wire.rlist r (fun r ->
        let name = Wire.rstr r in
        let epoch = Wire.ru64 r in
        (name, epoch))
  in
  let i_ephemeral_parents = Wire.rlist r Wire.ru64 in
  { i_proc_oids; i_period; i_ext_sync_on; i_name_ckpts; i_ephemeral_parents }

(* Hardened exports ------------------------------------------------------------------ *)

let proc_of_string = hardened kind_proc proc_of_string
let fdesc_of_string = hardened kind_fdesc fdesc_of_string
let pipe_of_string = hardened kind_pipe pipe_of_string
let socket_of_string = hardened kind_socket socket_of_string
let kqueue_of_string = hardened kind_kqueue kqueue_of_string
let pty_of_string = hardened kind_pty pty_of_string
let shm_of_string = hardened kind_shm shm_of_string
let memobj_of_string = hardened kind_memobj memobj_of_string
let group_of_string = hardened kind_group group_of_string

(* Can [meta] be parsed as a [kind] image?  Restore verification passes
   this to [Store.verify_epoch] as its [check_meta], so a corrupt image is
   rejected *before* the restore path starts materializing kernel objects
   from it. *)
let parse_check ~kind meta =
  let parsers =
    [
      (kind_proc, fun s -> ignore (proc_of_string s));
      (kind_fdesc, fun s -> ignore (fdesc_of_string s));
      (kind_pipe, fun s -> ignore (pipe_of_string s));
      (kind_socket, fun s -> ignore (socket_of_string s));
      (kind_kqueue, fun s -> ignore (kqueue_of_string s));
      (kind_pty, fun s -> ignore (pty_of_string s));
      (kind_shm, fun s -> ignore (shm_of_string s));
      (kind_memobj, fun s -> ignore (memobj_of_string s));
      (kind_group, fun s -> ignore (group_of_string s));
    ]
  in
  match List.assoc_opt kind parsers with
  | None -> Ok () (* fs.* and raw memory objects have their own parsers *)
  | Some p -> ( try Ok (p meta) with Malformed msg -> Error msg)

(* Capture helpers --------------------------------------------------------------------- *)

let image_of_regs (r : Thread.regs) =
  {
    i_rip = r.Thread.rip;
    i_rsp = r.Thread.rsp;
    i_rflags = r.Thread.rflags;
    i_gp = Array.copy r.Thread.gp;
    i_fpu = Bytes.to_string r.Thread.fpu;
  }

let regs_of_image (i : regs_image) =
  {
    Thread.rip = i.i_rip;
    rsp = i.i_rsp;
    rflags = i.i_rflags;
    gp = Array.copy i.i_gp;
    fpu = Bytes.of_string i.i_fpu;
  }

let image_of_thread (t : Thread.t) =
  {
    i_tid_local = t.Thread.tid_local;
    i_regs = image_of_regs t.Thread.regs;
    i_sigmask = t.Thread.sigmask;
    i_pending = t.Thread.pending_signals;
    i_priority = t.Thread.priority;
  }

let thread_of_image (i : thread_image) ~tid_global =
  let t = Thread.create ~tid:i.i_tid_local in
  t.Thread.tid_global <- tid_global;
  let r = regs_of_image i.i_regs in
  t.Thread.regs.Thread.rip <- r.Thread.rip;
  t.Thread.regs.Thread.rsp <- r.Thread.rsp;
  t.Thread.regs.Thread.rflags <- r.Thread.rflags;
  Array.blit r.Thread.gp 0 t.Thread.regs.Thread.gp 0 (Array.length r.Thread.gp);
  Bytes.blit r.Thread.fpu 0 t.Thread.regs.Thread.fpu 0 (Bytes.length r.Thread.fpu);
  t.Thread.sigmask <- i.i_sigmask;
  t.Thread.pending_signals <- i.i_pending;
  t.Thread.priority <- i.i_priority;
  t
