module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Vm_map = Aurora_vm.Vm_map
module Vm_space = Aurora_vm.Vm_space
module Vm_object = Aurora_vm.Vm_object

exception Err of string

let err name = raise (Err name)

let charge m ns = Clock.advance m.Machine.clock ns
let syscall m = charge m Cost.syscall_overhead

let fd_exn p slot =
  match Process.fd p slot with Some d -> d | None -> err "EBADF"

let register m desc =
  Machine.register_description m desc;
  desc

(* Processes ------------------------------------------------------------- *)

let spawn m ~name =
  syscall m;
  let pid = Machine.alloc_pid m in
  let tid = Machine.alloc_tid m in
  let p = Process.create ~clock:m.Machine.clock ~pid ~tid ~ppid:0 ~name in
  Machine.add_proc m p;
  p

let fork m p =
  syscall m;
  let pid = Machine.alloc_pid m in
  let tid = Machine.alloc_tid m in
  (* Page-table duplication and COW marking dominate fork's cost; this is
     the stop time Redis' RDB snapshot pays (Table 7). *)
  let writable_pages = Vm_space.dirty_top_pages p.Process.space in
  charge m (writable_pages * Cost.fork_cow_per_page);
  let child_space = Vm_space.fork p.Process.space in
  let child : Process.t =
    {
      pid_local = pid;
      pid_global = pid;
      ppid = p.Process.pid_global;
      pgid = p.Process.pgid;
      sid = p.Process.sid;
      name = p.Process.name;
      threads = [ Thread.create ~tid ];
      fdtable = Hashtbl.create 16;
      next_fd = 0;
      space = child_space;
      proc_state = Process.Alive;
      children = [];
      pending_signals = [];
      ephemeral = false;
      cwd = p.Process.cwd;
      gen = 0;
      kq_views = [];
    }
  in
  (* fork shares descriptions: both fd tables point at the same objects,
     so offsets move in lockstep — the sharing Table 4's vnode discussion
     centers on. *)
  List.iter
    (fun (slot, desc) ->
      Fdesc.retain desc;
      Hashtbl.replace child.Process.fdtable slot desc)
    (Process.fds p);
  (* The fork duplicates the main thread's register file in the child. *)
  (match (p.Process.threads, child.Process.threads) with
  | parent_thr :: _, child_thr :: _ ->
      let r = Thread.copy_regs parent_thr.Thread.regs in
      child_thr.Thread.regs.Thread.rip <- r.Thread.rip;
      child_thr.Thread.regs.Thread.rsp <- r.Thread.rsp;
      child_thr.Thread.regs.Thread.rflags <- r.Thread.rflags;
      Array.blit r.Thread.gp 0 child_thr.Thread.regs.Thread.gp 0
        (Array.length r.Thread.gp);
      Bytes.blit r.Thread.fpu 0 child_thr.Thread.regs.Thread.fpu 0
        (Bytes.length r.Thread.fpu)
  | _ -> ());
  p.Process.children <- child.pid_global :: p.Process.children;
  Machine.add_proc m child;
  child

let exit m p ~code =
  syscall m;
  List.iter Kqueue.forget p.Process.kq_views;
  p.Process.kq_views <- [];
  List.iter (fun (slot, _) -> ignore (Process.close_fd p slot)) (Process.fds p);
  p.Process.proc_state <- Process.Zombie code;
  match Machine.proc m p.Process.ppid with
  | Some parent -> Process.signal parent Process.sigchld
  | None -> Machine.remove_proc m p.Process.pid_global

let waitpid m p =
  syscall m;
  let zombie =
    List.find_opt
      (fun pid ->
        match Machine.proc m pid with
        | Some c -> c.Process.proc_state <> Process.Alive
        | None -> false)
      p.Process.children
  in
  match zombie with
  | None -> None
  | Some pid ->
      let child = Option.get (Machine.proc m pid) in
      let status =
        match child.Process.proc_state with
        | Process.Zombie code -> code
        | Process.Alive -> assert false
      in
      p.Process.children <- List.filter (fun c -> c <> pid) p.Process.children;
      Machine.remove_proc m pid;
      Some (pid, status)

let spawn_thread m p =
  syscall m;
  let thr = Thread.create ~tid:(Machine.alloc_tid m) in
  p.Process.threads <- p.Process.threads @ [ thr ];
  Process.touch p;
  thr

let setsid p =
  p.Process.sid <- p.Process.pid_local;
  p.Process.pgid <- p.Process.pid_local;
  Process.touch p

let kill ?by m ~pid ~signo =
  match Machine.proc_by_local_pid ?scope:by m pid with
  | Some p ->
      Process.signal p signo;
      true
  | None -> false

(* Files ------------------------------------------------------------------ *)

let open_file m p ~path ~create =
  syscall m;
  let vfs = Machine.vfs_exn m in
  let vn =
    match vfs.Vfs.lookup path with
    | Some vn -> vn
    | None -> if create then vfs.Vfs.create path else err "ENOENT"
  in
  let desc =
    register m (Fdesc.create (Fdesc.Vnode_file { vn; offset = 0; append = false }))
  in
  Process.alloc_fd p desc

let close p slot = if not (Process.close_fd p slot) then err "EBADF"

let read m p ~fd ~len =
  syscall m;
  let desc = fd_exn p fd in
  match desc.Fdesc.kind with
  | Fdesc.Vnode_file f ->
      let data = Vnode.read f.vn ~clock:m.Machine.clock ~off:f.offset ~len in
      Fdesc.set_offset desc (f.offset + String.length data);
      data
  | Fdesc.Pipe_read pipe -> Pipe.read pipe ~len
  | Fdesc.Pty_master_fd pty -> Pty.master_read pty ~len
  | Fdesc.Pty_slave_fd pty -> Pty.slave_read pty ~len
  | Fdesc.Socket_fd s -> (
      match Socket.recv s with Some msg -> msg.Socket.data | None -> "")
  | Fdesc.Pipe_write _ -> err "EBADF"
  | Fdesc.Kqueue_fd _ | Fdesc.Shm_fd _ | Fdesc.Device_fd _ -> err "EINVAL"

let write m p ~fd data =
  syscall m;
  let desc = fd_exn p fd in
  match desc.Fdesc.kind with
  | Fdesc.Vnode_file f ->
      let off = if f.append then Vnode.size f.vn else f.offset in
      Vnode.write f.vn ~clock:m.Machine.clock ~off data;
      Fdesc.set_offset desc (off + String.length data);
      String.length data
  | Fdesc.Pipe_write pipe -> Pipe.write pipe data
  | Fdesc.Pty_master_fd pty ->
      Pty.master_write pty data;
      String.length data
  | Fdesc.Pty_slave_fd pty ->
      Pty.slave_write pty data;
      String.length data
  | Fdesc.Socket_fd s ->
      Socket.send s { Socket.data; ctl_fds = [] };
      String.length data
  | Fdesc.Pipe_read _ -> err "EBADF"
  | Fdesc.Kqueue_fd _ | Fdesc.Shm_fd _ | Fdesc.Device_fd _ -> err "EINVAL"

let lseek p ~fd ~off =
  let desc = fd_exn p fd in
  match desc.Fdesc.kind with
  | Fdesc.Vnode_file _ ->
      Fdesc.set_offset desc off;
      off
  | Fdesc.Pipe_read _ | Fdesc.Pipe_write _ | Fdesc.Socket_fd _ | Fdesc.Kqueue_fd _
  | Fdesc.Pty_master_fd _ | Fdesc.Pty_slave_fd _ | Fdesc.Shm_fd _
  | Fdesc.Device_fd _ ->
      err "ESPIPE"

let fsync m p ~fd =
  syscall m;
  let desc = fd_exn p fd in
  match desc.Fdesc.kind with
  | Fdesc.Vnode_file f -> (Machine.vfs_exn m).Vfs.fsync f.vn
  | Fdesc.Pipe_read _ | Fdesc.Pipe_write _ | Fdesc.Socket_fd _ | Fdesc.Kqueue_fd _
  | Fdesc.Pty_master_fd _ | Fdesc.Pty_slave_fd _ | Fdesc.Shm_fd _
  | Fdesc.Device_fd _ ->
      err "EINVAL"

let unlink m ~path = (Machine.vfs_exn m).Vfs.unlink path

let dup p ~fd =
  let desc = fd_exn p fd in
  Fdesc.retain desc;
  Process.alloc_fd p desc

let dup2 p ~src ~dst =
  let desc = fd_exn p src in
  Fdesc.retain desc;
  Process.install_fd_at p dst desc

(* Pipes ------------------------------------------------------------------ *)

let pipe m p =
  syscall m;
  let pipe_obj = Pipe.create () in
  let rd = register m (Fdesc.create (Fdesc.Pipe_read pipe_obj)) in
  let wr = register m (Fdesc.create (Fdesc.Pipe_write pipe_obj)) in
  (Process.alloc_fd p rd, Process.alloc_fd p wr)

(* Sockets ---------------------------------------------------------------- *)

let socket m p dom prot =
  syscall m;
  let s = Socket.create dom prot in
  let desc = register m (Fdesc.create (Fdesc.Socket_fd s)) in
  Process.alloc_fd p desc

let socket_of p fd =
  match (fd_exn p fd).Fdesc.kind with
  | Fdesc.Socket_fd s -> s
  | Fdesc.Vnode_file _ | Fdesc.Pipe_read _ | Fdesc.Pipe_write _ | Fdesc.Kqueue_fd _
  | Fdesc.Pty_master_fd _ | Fdesc.Pty_slave_fd _ | Fdesc.Shm_fd _
  | Fdesc.Device_fd _ ->
      err "ENOTSOCK"

let bind p ~fd addr = Socket.bind (socket_of p fd) addr
let listen p ~fd = Socket.listen (socket_of p fd)

let socketpair m p =
  syscall m;
  let a = Socket.create Socket.Unix_dom Socket.Udp in
  let b = Socket.create Socket.Unix_dom Socket.Udp in
  Socket.pair a b;
  let da = register m (Fdesc.create (Fdesc.Socket_fd a)) in
  let db = register m (Fdesc.create (Fdesc.Socket_fd b)) in
  (Process.alloc_fd p da, Process.alloc_fd p db)

(* Find a listening socket bound to [addr] anywhere on the machine. *)
let find_listener m (addr : Socket.addr) =
  Hashtbl.fold
    (fun _ proc acc ->
      match acc with
      | Some _ -> acc
      | None ->
          List.fold_left
            (fun acc (_, d) ->
              match (acc, d.Fdesc.kind) with
              | Some _, _ -> acc
              | None, Fdesc.Socket_fd s
                when Socket.tcp_state s = Socket.Tcp_listening
                     && (match Socket.local_addr s with
                        | Some a -> a.Socket.port = addr.Socket.port
                        | None -> false) ->
                  Some s
              | None, _ -> None)
            None (Process.fds proc))
    m.Machine.procs None

let tcp_connect m p ~fd addr =
  syscall m;
  let client = socket_of p fd in
  match find_listener m addr with
  | None -> false
  | Some listener ->
      Socket.connect client addr;
      (* The SYN lands in the accept queue as a half-open peer socket;
         accept completes the pair. *)
      Socket.accept_enqueue listener client;
      true

let accept m p ~fd =
  syscall m;
  let listener = socket_of p fd in
  if Socket.tcp_state listener <> Socket.Tcp_listening then err "EINVAL";
  match Socket.accept_dequeue listener with
  | None -> None
  | Some client ->
      let conn = Socket.create Socket.Inet Socket.Tcp in
      (match Socket.local_addr listener with
      | Some a -> Socket.bind conn a
      | None -> ());
      Socket.pair conn client;
      let seq = Machine.alloc_seq m in
      Socket.set_tcp_state conn
        (Socket.Tcp_established { snd_seq = seq; rcv_seq = seq + 1 });
      Socket.set_tcp_state client
        (Socket.Tcp_established { snd_seq = seq + 1; rcv_seq = seq });
      let desc = register m (Fdesc.create (Fdesc.Socket_fd conn)) in
      Some (Process.alloc_fd p desc)

let send_msg m p ~fd ?(fds = []) data =
  syscall m;
  let s = socket_of p fd in
  let ctl_fds =
    List.map
      (fun slot ->
        let desc = fd_exn p slot in
        (* The description travels in the control message; it stays alive
           via an extra reference until received. *)
        Fdesc.retain desc;
        Machine.register_description m desc;
        desc.Fdesc.desc_id)
      fds
  in
  if ctl_fds <> [] && Socket.domain s <> Socket.Unix_dom then err "EINVAL";
  Socket.send s { Socket.data; ctl_fds }

let recv_msg m p ~fd =
  syscall m;
  let s = socket_of p fd in
  match Socket.recv s with
  | None -> None
  | Some msg ->
      let slots =
        List.filter_map
          (fun desc_id ->
            match Machine.find_description m desc_id with
            | Some desc -> Some (Process.alloc_fd p desc)
            | None -> None)
          msg.Socket.ctl_fds
      in
      Some (msg.Socket.data, slots)

(* Kqueues ---------------------------------------------------------------- *)

let kqueue m p =
  syscall m;
  let kq = Kqueue.create () in
  let desc = register m (Fdesc.create (Fdesc.Kqueue_fd kq)) in
  Process.alloc_fd p desc

(* What [ev]'s ident names in [p]'s fd table, with the filter's level
   test.  Read-readiness means a read would consume data (or accept a
   pending connection) without blocking; write-readiness means a write
   would accept bytes. *)
let resolve p (ev : Kqueue.kevent) : Kqueue.target =
  match Process.fd p ev.Kqueue.ident with
  | None -> Kqueue.Never
  | Some desc -> (
      match (ev.Kqueue.filter, desc.Fdesc.kind) with
      | Kqueue.Ev_read, Fdesc.Socket_fd s ->
          Kqueue.On (Socket.knotes s, fun () -> Socket.readable s)
      | Kqueue.Ev_read, Fdesc.Pipe_read pipe ->
          Kqueue.On (Pipe.knotes pipe, fun () -> Pipe.buffered pipe > 0)
      | Kqueue.Ev_write, Fdesc.Socket_fd _ -> Kqueue.Always
      | Kqueue.Ev_write, Fdesc.Pipe_write pipe ->
          Kqueue.On
            ( Pipe.knotes pipe,
              fun () -> Pipe.read_open pipe && Pipe.buffered pipe < Pipe.capacity )
      | _ -> Kqueue.Never)

let kqueue_of p fd =
  match (fd_exn p fd).Fdesc.kind with
  | Fdesc.Kqueue_fd kq -> kq
  | Fdesc.Vnode_file _ | Fdesc.Pipe_read _ | Fdesc.Pipe_write _ | Fdesc.Socket_fd _
  | Fdesc.Pty_master_fd _ | Fdesc.Pty_slave_fd _ | Fdesc.Shm_fd _
  | Fdesc.Device_fd _ ->
      err "EBADF"

(* kevent without a timeout: the ready registrations, through [p]'s own
   view of the kqueue (made at its first poll).  Event-loop servers
   (lib/apps/http_sim) dispatch on the returned list. *)
let kevent_poll m p ~fd =
  syscall m;
  let kq = kqueue_of p fd in
  let view =
    match List.find_opt (fun v -> Kqueue.view_kqueue v == kq) p.Process.kq_views with
    | Some v -> v
    | None ->
        let v = Kqueue.view kq ~resolve:(resolve p) in
        p.Process.kq_views <- v :: p.Process.kq_views;
        v
  in
  Kqueue.poll view

let kevent_register p ~fd ev = Kqueue.register (kqueue_of p fd) ev

(* Pseudoterminals --------------------------------------------------------- *)

let posix_openpt m p =
  syscall m;
  let pty = Pty.create () in
  let desc = register m (Fdesc.create (Fdesc.Pty_master_fd pty)) in
  Process.alloc_fd p desc

let open_pty_slave m p ~master_fd =
  syscall m;
  match (fd_exn p master_fd).Fdesc.kind with
  | Fdesc.Pty_master_fd pty ->
      let desc = register m (Fdesc.create (Fdesc.Pty_slave_fd pty)) in
      Process.alloc_fd p desc
  | Fdesc.Vnode_file _ | Fdesc.Pipe_read _ | Fdesc.Pipe_write _ | Fdesc.Socket_fd _
  | Fdesc.Kqueue_fd _ | Fdesc.Pty_slave_fd _ | Fdesc.Shm_fd _ | Fdesc.Device_fd _
    ->
      err "EINVAL"

(* Shared memory ----------------------------------------------------------- *)

let shm_open m p ~name ~npages =
  syscall m;
  let shm =
    match Hashtbl.find_opt m.Machine.posix_shm name with
    | Some shm -> shm
    | None ->
        let shm = Shm.create (Shm.Posix_shm name) ~npages in
        Hashtbl.replace m.Machine.posix_shm name shm;
        shm
  in
  let desc = register m (Fdesc.create (Fdesc.Shm_fd shm)) in
  Process.alloc_fd p desc

let shmget m ~key ~npages =
  match Hashtbl.find_opt m.Machine.sysv_shm key with
  | Some shm -> shm
  | None ->
      let shm = Shm.create (Shm.Sysv_shm key) ~npages in
      Hashtbl.replace m.Machine.sysv_shm key shm;
      shm

let mmap_shm p ~fd =
  match (fd_exn p fd).Fdesc.kind with
  | Fdesc.Shm_fd shm ->
      Vm_space.map_object ~shared:true p.Process.space ~obj:(Shm.backing shm)
        ~obj_pgoff:0 ~npages:(Shm.npages shm) ~prot:Vm_map.prot_rw
  | Fdesc.Vnode_file _ | Fdesc.Pipe_read _ | Fdesc.Pipe_write _ | Fdesc.Socket_fd _
  | Fdesc.Kqueue_fd _ | Fdesc.Pty_master_fd _ | Fdesc.Pty_slave_fd _
  | Fdesc.Device_fd _ ->
      err "EINVAL"

let shmat p shm =
  Vm_space.map_object ~shared:true p.Process.space ~obj:(Shm.backing shm)
    ~obj_pgoff:0 ~npages:(Shm.npages shm) ~prot:Vm_map.prot_rw

(* Memory ------------------------------------------------------------------ *)

let mmap_anon p ~npages =
  Vm_space.map_anonymous p.Process.space ~npages ~prot:Vm_map.prot_rw

let mmap_file p ~fd ~npages =
  match (fd_exn p fd).Fdesc.kind with
  | Fdesc.Vnode_file { vn; _ } ->
      Vm_space.map_object ~shared:true p.Process.space ~obj:(Vnode.backing vn)
        ~obj_pgoff:0 ~npages ~prot:Vm_map.prot_rw
  | Fdesc.Pipe_read _ | Fdesc.Pipe_write _ | Fdesc.Socket_fd _ | Fdesc.Kqueue_fd _
  | Fdesc.Pty_master_fd _ | Fdesc.Pty_slave_fd _ | Fdesc.Shm_fd _
  | Fdesc.Device_fd _ ->
      err "ENODEV"

let munmap p entry = Vm_space.unmap p.Process.space entry

let madvise_dontneed p entry flag =
  ignore p;
  entry.Vm_map.evict_first <- flag

(* Asynchronous I/O --------------------------------------------------------- *)

let aio_completion_delay = 60_000 (* kernel thread wakeup + device *)

let vnode_of p fd =
  match (fd_exn p fd).Fdesc.kind with
  | Fdesc.Vnode_file { vn; _ } -> vn
  | Fdesc.Pipe_read _ | Fdesc.Pipe_write _ | Fdesc.Socket_fd _ | Fdesc.Kqueue_fd _
  | Fdesc.Pty_master_fd _ | Fdesc.Pty_slave_fd _ | Fdesc.Shm_fd _
  | Fdesc.Device_fd _ ->
      err "EINVAL"

let aio_write m p ~fd ~off data =
  syscall m;
  let vn = vnode_of p fd in
  (* The kernel owns the buffer from submission: the data is in the page
     cache immediately; completion is what arrives later. *)
  Vnode.write vn ~clock:m.Machine.clock ~off data;
  let aio =
    Aio.create ~op:Aio.Aio_write ~slot:fd ~off ~len:(String.length data)
      ~done_at:(Clock.now m.Machine.clock + aio_completion_delay)
  in
  Machine.add_aio m ~aio ~pid:p.Process.pid_global;
  Process.touch p;
  aio.Aio.aio_id

let aio_read m p ~fd ~off ~len =
  syscall m;
  let vn = vnode_of p fd in
  let aio =
    Aio.create ~op:Aio.Aio_read ~slot:fd ~off ~len
      ~done_at:(Clock.now m.Machine.clock + aio_completion_delay)
  in
  aio.Aio.result <- Some (Vnode.read vn ~clock:m.Machine.clock ~off ~len);
  Machine.add_aio m ~aio ~pid:p.Process.pid_global;
  Process.touch p;
  aio.Aio.aio_id

let aio_complete m p ~id =
  syscall m;
  ignore p;
  match Machine.remove_aio m ~aio_id:id with
  | None -> err "EINVAL"
  | Some (aio, owner_pid) ->
      Clock.advance_to m.Machine.clock aio.Aio.done_at;
      (* The owner's serialized image lists its in-flight AIOs: completing
         one changes it (the owner may differ from the caller). *)
      (match Machine.proc m owner_pid with
      | Some owner -> Process.touch owner
      | None -> ());
      Option.value ~default:"" aio.Aio.result

let aio_pending m p =
  Machine.aios_of_pid m p.Process.pid_global
  |> List.sort (fun a b -> compare a.Aio.aio_id b.Aio.aio_id)

(* Devices ------------------------------------------------------------------ *)

let open_device m p ~name =
  syscall m;
  if not (Machine.device_allowed m name) then err "EPERM";
  let desc = register m (Fdesc.create (Fdesc.Device_fd name)) in
  Process.alloc_fd p desc
