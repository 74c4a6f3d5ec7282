module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Thread = Aurora_kern.Thread
module Syscall = Aurora_kern.Syscall
module Vnode = Aurora_kern.Vnode
module Pipe = Aurora_kern.Pipe
module Socket = Aurora_kern.Socket
module Kqueue = Aurora_kern.Kqueue
module Vfs = Aurora_kern.Vfs
module Fdesc = Aurora_kern.Fdesc
module Shm = Aurora_kern.Shm
module Vm_space = Aurora_vm.Vm_space
module Clock = Aurora_sim.Clock

let machine () =
  let m = Machine.create () in
  Machine.mount m (Vfs.ram_ops ~clock:m.Machine.clock);
  m

let test_spawn_and_pid () =
  let m = machine () in
  let a = Syscall.spawn m ~name:"a" in
  let b = Syscall.spawn m ~name:"b" in
  Alcotest.(check bool) "distinct pids" true (a.Process.pid_global <> b.Process.pid_global);
  match Machine.proc m a.Process.pid_global with
  | Some found -> Alcotest.(check bool) "lookup works" true (found == a)
  | None -> Alcotest.fail "lookup failed"

let test_file_write_read () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd = Syscall.open_file m p ~path:"/data" ~create:true in
  let n = Syscall.write m p ~fd "persistent contents" in
  Alcotest.(check int) "wrote all" 19 n;
  ignore (Syscall.lseek p ~fd ~off:0);
  Alcotest.(check string) "readback" "persistent contents" (Syscall.read m p ~fd ~len:100);
  Alcotest.(check string) "eof" "" (Syscall.read m p ~fd ~len:100)

let test_open_missing_fails () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  Alcotest.check_raises "ENOENT" (Syscall.Err "ENOENT") (fun () ->
      ignore (Syscall.open_file m p ~path:"/missing" ~create:false))

let test_fork_shares_offset () =
  (* The paper's file-descriptor sharing example (section 5.1): after fork,
     a read by one process moves the offset seen by the other. *)
  let m = machine () in
  let p = Syscall.spawn m ~name:"parent" in
  let fd = Syscall.open_file m p ~path:"/f" ~create:true in
  ignore (Syscall.write m p ~fd "abcdefgh");
  ignore (Syscall.lseek p ~fd ~off:0);
  let child = Syscall.fork m p in
  let part1 = Syscall.read m child ~fd ~len:4 in
  let part2 = Syscall.read m p ~fd ~len:4 in
  Alcotest.(check string) "child reads prefix" "abcd" part1;
  Alcotest.(check string) "parent continues at shared offset" "efgh" part2

let test_separate_open_independent_offset () =
  (* A third process opening the same file gets its own descriptor over the
     same vnode. *)
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let q = Syscall.spawn m ~name:"q" in
  let fdp = Syscall.open_file m p ~path:"/f" ~create:true in
  ignore (Syscall.write m p ~fd:fdp "abcdefgh");
  let fdq = Syscall.open_file m q ~path:"/f" ~create:false in
  ignore (Syscall.lseek p ~fd:fdp ~off:0);
  Alcotest.(check string) "p reads" "abcd" (Syscall.read m p ~fd:fdp ~len:4);
  Alcotest.(check string) "q offset independent" "abcd" (Syscall.read m q ~fd:fdq ~len:4)

let test_fork_cow_memory () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let e = Syscall.mmap_anon p ~npages:2 in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.write_string p.Process.space ~addr "base";
  let c = Syscall.fork m p in
  Vm_space.write_string c.Process.space ~addr "kid!";
  Alcotest.(check string) "parent isolated" "base"
    (Vm_space.read_string p.Process.space ~addr ~len:4);
  Alcotest.(check string) "child sees own write" "kid!"
    (Vm_space.read_string c.Process.space ~addr ~len:4)

let test_exit_wait_sigchld () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"parent" in
  let c = Syscall.fork m p in
  Alcotest.(check (option (pair int int))) "no zombie yet" None (Syscall.waitpid m p);
  Syscall.exit m c ~code:7;
  Alcotest.(check (option int)) "SIGCHLD queued" (Some Process.sigchld)
    (Process.take_signal p);
  (match Syscall.waitpid m p with
  | Some (pid, status) ->
      Alcotest.(check int) "reaped child" c.Process.pid_global pid;
      Alcotest.(check int) "status" 7 status
  | None -> Alcotest.fail "expected zombie");
  Alcotest.(check (option (pair int int))) "only once" None (Syscall.waitpid m p)

let test_pipe_roundtrip () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let rd, wr = Syscall.pipe m p in
  ignore (Syscall.write m p ~fd:wr "through the pipe");
  Alcotest.(check string) "pipe data" "through the pipe" (Syscall.read m p ~fd:rd ~len:100)

let test_pipe_capacity () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let _rd, wr = Syscall.pipe m p in
  let big = String.make (Pipe.capacity + 1000) 'x' in
  let n = Syscall.write m p ~fd:wr big in
  Alcotest.(check int) "bounded by capacity" Pipe.capacity n

let test_dup_shares_offset () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd = Syscall.open_file m p ~path:"/f" ~create:true in
  ignore (Syscall.write m p ~fd "0123456789");
  ignore (Syscall.lseek p ~fd ~off:0);
  let fd2 = Syscall.dup p ~fd in
  ignore (Syscall.read m p ~fd ~len:3);
  Alcotest.(check string) "dup continues at shared offset" "345"
    (Syscall.read m p ~fd:fd2 ~len:3)

let test_socketpair_messages () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let a, b = Syscall.socketpair m p in
  Syscall.send_msg m p ~fd:a "ping";
  (match Syscall.recv_msg m p ~fd:b with
  | Some (data, fds) ->
      Alcotest.(check string) "data" "ping" data;
      Alcotest.(check int) "no rights" 0 (List.length fds)
  | None -> Alcotest.fail "expected message")

let test_scm_rights_transfers_descriptor () =
  (* Send an open file over a UNIX socket; the receiver's new fd shares
     the description (same offset). *)
  let m = machine () in
  let sender = Syscall.spawn m ~name:"sender" in
  let receiver = Syscall.spawn m ~name:"receiver" in
  let file_fd = Syscall.open_file m sender ~path:"/shared" ~create:true in
  ignore (Syscall.write m sender ~fd:file_fd "0123456789");
  ignore (Syscall.lseek sender ~fd:file_fd ~off:0);
  let a, b = Syscall.socketpair m sender in
  (* Hand the receiving socket end to the receiver process. *)
  let b_desc = Syscall.fd_exn sender b in
  Fdesc.retain b_desc;
  let b_recv = Process.alloc_fd receiver b_desc in
  Syscall.send_msg m sender ~fd:a ~fds:[ file_fd ] "here";
  match Syscall.recv_msg m receiver ~fd:b_recv with
  | Some (data, [ got_fd ]) ->
      Alcotest.(check string) "payload" "here" data;
      ignore (Syscall.read m sender ~fd:file_fd ~len:4);
      Alcotest.(check string) "offset shared across processes" "4567"
        (Syscall.read m receiver ~fd:got_fd ~len:4)
  | Some (_, fds) -> Alcotest.failf "expected 1 fd, got %d" (List.length fds)
  | None -> Alcotest.fail "expected message"

(* A shell answers the read-only calls as the restored socket does and
   rebuilds once, at the first call that mutates it or moves its data,
   moving no stamp. *)
let test_socket_shell () =
  let msg = { Socket.data = "queued"; ctl_fds = [] } in
  let image =
    {
      Socket.im_laddr = Some { Socket.host = "10.0.0.1"; port = 80 };
      im_raddr = Some { Socket.host = "10.0.0.2"; port = 4242 };
      im_opts = [ ("SO_KEEPALIVE", 1); ("TCP_NODELAY", 1) ];
      im_state = Socket.Tcp_established { snd_seq = 7; rcv_seq = 9 };
      im_recvq = [ msg ];
      im_sendq = [];
    }
  in
  let shell () =
    let built = ref 0 in
    let s = Socket.create Socket.Inet Socket.Tcp in
    Socket.restore s image ~on_materialize:(fun () -> incr built);
    (s, built)
  in
  let live = Socket.create Socket.Inet Socket.Tcp in
  Socket.restore live image ~on_materialize:ignore;
  Socket.materialize live;
  let s, built = shell () in
  let view s =
    ( (Socket.local_addr s, Socket.remote_addr s, Socket.options s, Socket.tcp_state s),
      (Socket.recv_buffered s, Socket.send_buffered s, Socket.buffered_bytes s),
      (Socket.readable s, Socket.peer s = None, Socket.accept_queue_length s, Socket.generation s)
    )
  in
  Alcotest.(check bool) "a shell reads as the restored socket" true (view s = view live);
  ignore (Socket.knotes s, Socket.id s, Socket.domain s, Socket.proto s);
  Alcotest.(check (pair bool int)) "reading rebuilds nothing" (true, 0) (Socket.is_shell s, !built);
  let first_uses =
    [
      ("touch", fun s -> Socket.touch s);
      ("bind", fun s -> Socket.bind s { Socket.host = "0.0.0.0"; port = 81 });
      ("connect", fun s -> Socket.connect s { Socket.host = "10.0.0.3"; port = 1 });
      ("set_option", fun s -> Socket.set_option s "SO_LINGER" 0);
      ("set_tcp_state", fun s -> Socket.set_tcp_state s Socket.Tcp_closed);
      ("listen", fun s -> Socket.listen s);
      ("accept_enqueue", fun s -> Socket.accept_enqueue s (Socket.create Socket.Inet Socket.Tcp));
      ("accept_dequeue", fun s -> ignore (Socket.accept_dequeue s));
      ("pair", fun s -> Socket.pair s (Socket.create Socket.Inet Socket.Tcp));
      ("send", fun s -> Socket.send s msg);
      ("recv", fun s -> ignore (Socket.recv s));
    ]
  in
  List.iter
    (fun (name, use) ->
      let s, built = shell () in
      use s;
      use s;
      Alcotest.(check (pair bool int)) (name ^ " rebuilds once") (false, 1) (Socket.is_shell s, !built))
    first_uses;
  (* Rebuilt, the socket is the one [restore] gives. *)
  let s, _ = shell () in
  let m = Socket.recv s in
  Alcotest.(check bool) "rebuilt from the image" true
    (m = Socket.recv live && view s = view live)

let test_kqueue_register () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let kq = Syscall.kqueue m p in
  for i = 0 to 9 do
    Syscall.kevent_register p ~fd:kq
      { Kqueue.ident = i; filter = Kqueue.Ev_read; flags = 1; udata = i * 10 }
  done;
  (* Re-registering the same (ident, filter) replaces. *)
  Syscall.kevent_register p ~fd:kq
    { Kqueue.ident = 3; filter = Kqueue.Ev_read; flags = 2; udata = 999 };
  match (Syscall.fd_exn p kq).Fdesc.kind with
  | Fdesc.Kqueue_fd k ->
      Alcotest.(check int) "ten events" 10 (Kqueue.event_count k);
      let ev = List.find (fun e -> e.Kqueue.ident = 3) (Kqueue.events k) in
      Alcotest.(check int) "replaced" 999 ev.Kqueue.udata
  | _ -> Alcotest.fail "not a kqueue"

let test_pty_echo_path () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"term" in
  let master = Syscall.posix_openpt m p in
  let slave = Syscall.open_pty_slave m p ~master_fd:master in
  ignore (Syscall.write m p ~fd:master "ls\n");
  Alcotest.(check string) "slave input" "ls\n" (Syscall.read m p ~fd:slave ~len:10);
  ignore (Syscall.write m p ~fd:slave "file1\n");
  Alcotest.(check string) "master output" "file1\n" (Syscall.read m p ~fd:master ~len:10)

let test_posix_shm_shared_between_processes () =
  let m = machine () in
  let a = Syscall.spawn m ~name:"a" in
  let b = Syscall.spawn m ~name:"b" in
  let fda = Syscall.shm_open m a ~name:"/seg" ~npages:4 in
  let fdb = Syscall.shm_open m b ~name:"/seg" ~npages:4 in
  let ea = Syscall.mmap_shm a ~fd:fda in
  let eb = Syscall.mmap_shm b ~fd:fdb in
  Vm_space.write_string a.Process.space ~addr:(Vm_space.addr_of_entry ea) "ipc!";
  Alcotest.(check string) "b sees a's write" "ipc!"
    (Vm_space.read_string b.Process.space ~addr:(Vm_space.addr_of_entry eb) ~len:4)

let test_sysv_shm () =
  let m = machine () in
  let a = Syscall.spawn m ~name:"a" in
  let b = Syscall.spawn m ~name:"b" in
  let seg = Syscall.shmget m ~key:1234 ~npages:2 in
  let seg2 = Syscall.shmget m ~key:1234 ~npages:2 in
  Alcotest.(check bool) "same segment by key" true (seg == seg2);
  let ea = Syscall.shmat a seg in
  let eb = Syscall.shmat b seg in
  Vm_space.write_string a.Process.space ~addr:(Vm_space.addr_of_entry ea) "sysv";
  Alcotest.(check string) "visible via key" "sysv"
    (Vm_space.read_string b.Process.space ~addr:(Vm_space.addr_of_entry eb) ~len:4)

let test_device_whitelist () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd = Syscall.open_device m p ~name:"hpet0" in
  Alcotest.(check bool) "hpet opens" true (fd >= 0);
  Alcotest.check_raises "EPERM" (Syscall.Err "EPERM") (fun () ->
      ignore (Syscall.open_device m p ~name:"gpu0"))

let test_dup2_replaces_slot () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd1 = Syscall.open_file m p ~path:"/a" ~create:true in
  let fd2 = Syscall.open_file m p ~path:"/b" ~create:true in
  ignore (Syscall.write m p ~fd:fd1 "AAA");
  Syscall.dup2 p ~src:fd1 ~dst:fd2;
  ignore (Syscall.lseek p ~fd:fd2 ~off:0);
  Alcotest.(check string) "dst now reads src's file" "AAA" (Syscall.read m p ~fd:fd2 ~len:8)

let test_setsid_and_kill () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"daemon" in
  Syscall.setsid p;
  Alcotest.(check int) "session leader" p.Process.pid_local p.Process.sid;
  Alcotest.(check bool) "kill by local pid" true (Syscall.kill m ~pid:p.Process.pid_local ~signo:15);
  Alcotest.(check (option int)) "signal pending" (Some 15) (Process.take_signal p);
  Alcotest.(check bool) "kill unknown pid" false (Syscall.kill m ~pid:9999 ~signo:15)

let test_tcp_connect_accept () =
  let m = machine () in
  let srv = Syscall.spawn m ~name:"srv" in
  let lfd = Syscall.socket m srv Socket.Inet Socket.Tcp in
  Syscall.bind srv ~fd:lfd { Socket.host = "0.0.0.0"; port = 8080 };
  Syscall.listen srv ~fd:lfd;
  let cli = Syscall.spawn m ~name:"cli" in
  let cfd = Syscall.socket m cli Socket.Inet Socket.Tcp in
  Alcotest.(check bool) "no listener on wrong port" false
    (Syscall.tcp_connect m cli ~fd:cfd { Socket.host = "0.0.0.0"; port = 9999 });
  Alcotest.(check bool) "syn lands" true
    (Syscall.tcp_connect m cli ~fd:cfd { Socket.host = "0.0.0.0"; port = 8080 });
  match Syscall.accept m srv ~fd:lfd with
  | Some conn ->
      ignore (Syscall.write m srv ~fd:conn "pong");
      Alcotest.(check string) "bytes flow" "pong" (Syscall.read m cli ~fd:cfd ~len:8);
      (match (Syscall.fd_exn srv conn).Fdesc.kind with
      | Fdesc.Socket_fd s -> (
          match Socket.tcp_state s with
          | Socket.Tcp_established e ->
              Alcotest.(check bool) "sequence numbers live" true (e.snd_seq > 0)
          | _ -> Alcotest.fail "not established")
      | _ -> Alcotest.fail "wrong kind")
  | None -> Alcotest.fail "accept returned nothing"

let test_spawn_thread () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let t1 = Syscall.spawn_thread m p in
  let t2 = Syscall.spawn_thread m p in
  Alcotest.(check int) "three threads" 3 (List.length p.Process.threads);
  Alcotest.(check bool) "distinct tids" true
    (t1.Aurora_kern.Thread.tid_global <> t2.Aurora_kern.Thread.tid_global)

let test_aio_write_and_complete () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd = Syscall.open_file m p ~path:"/f" ~create:true in
  let id = Syscall.aio_write m p ~fd ~off:0 "async data" in
  Alcotest.(check int) "pending" 1 (List.length (Syscall.aio_pending m p));
  let before = Clock.now m.Machine.clock in
  ignore (Syscall.aio_complete m p ~id);
  Alcotest.(check bool) "completion waited" true (Clock.now m.Machine.clock > before);
  Alcotest.(check int) "drained" 0 (List.length (Syscall.aio_pending m p));
  ignore (Syscall.lseek p ~fd ~off:0);
  Alcotest.(check string) "data landed" "async data" (Syscall.read m p ~fd ~len:64)

let test_aio_read_returns_data () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd = Syscall.open_file m p ~path:"/f" ~create:true in
  ignore (Syscall.write m p ~fd "readable");
  let id = Syscall.aio_read m p ~fd ~off:0 ~len:8 in
  Alcotest.(check string) "read result" "readable" (Syscall.aio_complete m p ~id);
  Alcotest.check_raises "unknown id" (Syscall.Err "EINVAL") (fun () ->
      ignore (Syscall.aio_complete m p ~id:9999))

let test_quiesce_rewinds_sleeping_syscall () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let thr = Process.main_thread p in
  thr.Thread.regs.Thread.rip <- 0x4444;
  thr.Thread.state <- Thread.Sleeping_syscall "read";
  Machine.quiesce m [ p ];
  Alcotest.(check bool) "at boundary" true (thr.Thread.state = Thread.At_boundary);
  Alcotest.(check int) "pc rewound for transparent restart"
    (0x4444 - Thread.syscall_insn_len) thr.Thread.regs.Thread.rip;
  Alcotest.(check int) "restart counted" 1 thr.Thread.syscall_restarts;
  Machine.resume m [ p ];
  Alcotest.(check bool) "running again" true (thr.Thread.state = Thread.Running_user)

let test_quiesce_running_thread_not_rewound () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let thr = Process.main_thread p in
  thr.Thread.regs.Thread.rip <- 0x5555;
  Machine.quiesce m [ p ];
  Alcotest.(check int) "pc untouched" 0x5555 thr.Thread.regs.Thread.rip

let test_anonymous_file () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd = Syscall.open_file m p ~path:"/tmpfile" ~create:true in
  ignore (Syscall.write m p ~fd "temp state");
  Alcotest.(check bool) "unlinked" true (Syscall.unlink m ~path:"/tmpfile");
  let desc = Syscall.fd_exn p fd in
  (match desc.Fdesc.kind with
  | Fdesc.Vnode_file { vn; _ } ->
      Alcotest.(check bool) "anonymous" true (Vnode.is_anonymous vn);
      ignore (Syscall.lseek p ~fd ~off:0);
      Alcotest.(check string) "data still readable" "temp state"
        (Syscall.read m p ~fd ~len:100)
  | _ -> Alcotest.fail "not a file");
  Alcotest.check_raises "name gone" (Syscall.Err "ENOENT") (fun () ->
      ignore (Syscall.open_file m p ~path:"/tmpfile" ~create:false))

let test_pid_virtualization_lookup () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  (* Simulate a restore allocating a fresh global pid. *)
  Machine.remove_proc m p.Process.pid_global;
  p.Process.pid_global <- Machine.alloc_pid m;
  Machine.add_proc m p;
  (match Machine.proc_by_local_pid m p.Process.pid_local with
  | Some found -> Alcotest.(check bool) "local pid still resolves" true (found == p)
  | None -> Alcotest.fail "local pid lookup failed");
  Alcotest.(check bool) "signal via local pid" true
    (Syscall.kill m ~pid:p.Process.pid_local ~signo:15)

(* kevent_poll's reference: re-test every registration through [p]'s fd
   table, newest registration first.  The kernel must return exactly
   this while testing only its active knotes. *)
let reference_poll p kq =
  List.filter
    (fun (ev : Kqueue.kevent) ->
      match Process.fd p ev.Kqueue.ident with
      | None -> false
      | Some desc -> (
          match (ev.Kqueue.filter, desc.Fdesc.kind) with
          | Kqueue.Ev_read, Fdesc.Socket_fd s -> (
              match Socket.tcp_state s with
              | Socket.Tcp_listening -> Socket.accept_queue_length s > 0
              | Socket.Tcp_established _ | Socket.Tcp_closed -> Socket.recv_buffered s <> [])
          | Kqueue.Ev_read, Fdesc.Pipe_read pipe -> Pipe.buffered pipe > 0
          | Kqueue.Ev_write, Fdesc.Socket_fd _ -> true
          | Kqueue.Ev_write, Fdesc.Pipe_write pipe ->
              Pipe.read_open pipe && Pipe.buffered pipe < Pipe.capacity
          | _ -> false))
    (Kqueue.events kq)

let kqueue_obj p fd =
  match (Syscall.fd_exn p fd).Fdesc.kind with
  | Fdesc.Kqueue_fd k -> k
  | _ -> Alcotest.fail "not a kqueue"

let ev_read ident = { Kqueue.ident; filter = Kqueue.Ev_read; flags = 0; udata = 0 }

(* One step of the kqueue model.  Integers pick a process (mod the live
   ones: the first holder of the kqueue, then forked children) and a
   slot (mod [slots]); steps that name something unusable do nothing. *)
type kq_step =
  | Socketpair of int
  | Pipe_open of int
  | Write of int * int * bool  (** proc, slot, fill a pipe to capacity *)
  | Read of int * int * int  (** proc, slot, length *)
  | Connect  (** a client SYN: enqueues on the listener *)
  | Accept of int
  | Register of int * int * int * int  (** proc, slot, filter, udata *)
  | Deregister of int * int  (** slot, filter *)
  | Close of int * int * bool  (** proc, slot, deregister first *)
  | Dup2 of int * int * int  (** proc, src, dst: [install_fd_at] *)
  | Fork of int
  | Exit of int  (** a forked child *)
  | Replace  (** restore's rebuild, in reversed order *)

let slots = 10

let kq_step_to_string = function
  | Socketpair p -> Printf.sprintf "socketpair p%d" p
  | Pipe_open p -> Printf.sprintf "pipe p%d" p
  | Write (p, s, full) -> Printf.sprintf "write p%d fd%d%s" p s (if full then " full" else "")
  | Read (p, s, n) -> Printf.sprintf "read p%d fd%d len %d" p s n
  | Connect -> "connect"
  | Accept p -> Printf.sprintf "accept p%d" p
  | Register (p, s, f, u) -> Printf.sprintf "register p%d fd%d filter%d udata %d" p s f u
  | Deregister (s, f) -> Printf.sprintf "deregister fd%d filter%d" s f
  | Close (p, s, d) -> Printf.sprintf "close p%d fd%d%s" p s (if d then " deregistered" else "")
  | Dup2 (p, a, b) -> Printf.sprintf "dup2 p%d fd%d -> fd%d" p a b
  | Fork p -> Printf.sprintf "fork p%d" p
  | Exit p -> Printf.sprintf "exit p%d" p
  | Replace -> "replace_events"

let kq_step_gen =
  let open QCheck.Gen in
  let pr = int_bound 2 and sl = int_bound (slots - 1) in
  frequency
    [
      (2, map (fun p -> Socketpair p) pr);
      (1, map (fun p -> Pipe_open p) pr);
      (4, map3 (fun p s f -> Write (p, s, f = 0)) pr sl (int_bound 5));
      (4, map3 (fun p s n -> Read (p, s, n)) pr sl (int_range 1 3));
      (2, return Connect);
      (2, map (fun p -> Accept p) pr);
      (5, map3 (fun p s (f, u) -> Register (p, s, f, u)) pr sl (pair (int_bound 2) (int_bound 3)));
      (1, map2 (fun s f -> Deregister (s, f)) sl (int_bound 2));
      (2, map3 (fun p s d -> Close (p, s, d)) pr sl bool);
      (1, map3 (fun p a b -> Dup2 (p, a, b)) pr sl sl);
      (1, map (fun p -> Fork p) pr);
      (1, map (fun p -> Exit p) pr);
      (1, return Replace);
    ]

let filter_of = function 0 -> Kqueue.Ev_read | 1 -> Kqueue.Ev_write | _ -> Kqueue.Ev_timer

(* Run [steps]; after each, every holder's poll must equal the reference
   scan through its own fd table. *)
let kevent_poll_matches_scan steps =
  let m = machine () in
  let srv = Syscall.spawn m ~name:"srv" in
  let cli = Syscall.spawn m ~name:"cli" in
  let lfd = Syscall.socket m srv Socket.Inet Socket.Tcp in
  Syscall.bind srv ~fd:lfd { Socket.host = "0.0.0.0"; port = 80 };
  Syscall.listen srv ~fd:lfd;
  let kq = Syscall.kqueue m srv in
  let k = kqueue_obj srv kq in
  Syscall.kevent_register srv ~fd:kq (ev_read lfd);
  let procs = ref [ srv ] in
  let proc i = List.nth !procs (i mod List.length !procs) in
  let usable slot = slot <> kq in
  let quietly f = try f () with Syscall.Err _ -> () in
  let step = function
    | Socketpair i -> ignore (Syscall.socketpair m (proc i))
    | Pipe_open i -> ignore (Syscall.pipe m (proc i))
    | Write (i, fd, full) ->
        quietly (fun () ->
            ignore
              (Syscall.write m (proc i) ~fd (if full then String.make Pipe.capacity 'x' else "ab")))
    | Read (i, fd, len) -> quietly (fun () -> ignore (Syscall.read m (proc i) ~fd ~len))
    | Connect ->
        let cfd = Syscall.socket m cli Socket.Inet Socket.Tcp in
        ignore (Syscall.tcp_connect m cli ~fd:cfd { Socket.host = "0.0.0.0"; port = 80 })
    | Accept i -> quietly (fun () -> ignore (Syscall.accept m (proc i) ~fd:lfd))
    | Register (i, ident, f, udata) ->
        Syscall.kevent_register (proc i) ~fd:kq
          { Kqueue.ident; filter = filter_of f; flags = 0; udata }
    | Deregister (ident, f) -> Kqueue.deregister k ~ident ~filter:(filter_of f)
    | Close (i, fd, dereg) ->
        if usable fd then begin
          if dereg then
            List.iter (fun filter -> Kqueue.deregister k ~ident:fd ~filter)
              [ Kqueue.Ev_read; Kqueue.Ev_write ];
          quietly (fun () -> Syscall.close (proc i) fd)
        end
    | Dup2 (i, src, dst) ->
        if usable dst then quietly (fun () -> Syscall.dup2 (proc i) ~src ~dst)
    | Fork i -> if List.length !procs < 3 then procs := !procs @ [ Syscall.fork m (proc i) ]
    | Exit i ->
        let child = proc i in
        if child != srv then begin
          Syscall.exit m child ~code:0;
          procs := List.filter (fun p -> p != child) !procs
        end
    | Replace -> Kqueue.replace_events k (List.rev (Kqueue.events k))
  in
  let agree () =
    List.for_all (fun p -> Syscall.kevent_poll m p ~fd:kq = reference_poll p k) !procs
  in
  agree ()
  && List.for_all
       (fun s ->
         step s;
         agree ())
       steps

(* A poll's work follows what is ready, not what is registered. *)
let test_kevent_poll_cost () =
  let examined idle =
    let m = machine () in
    let p = Syscall.spawn m ~name:"p" in
    let kq = Syscall.kqueue m p in
    let k = kqueue_obj p kq in
    ignore (Syscall.kevent_poll m p ~fd:kq);
    for _ = 1 to idle do
      let a, _ = Syscall.socketpair m p in
      Syscall.kevent_register p ~fd:kq (ev_read a)
    done;
    let a, b = Syscall.socketpair m p in
    Syscall.kevent_register p ~fd:kq (ev_read a);
    (* The first poll after registering tests each new knote once. *)
    Alcotest.(check int) "nothing ready yet" 0 (List.length (Syscall.kevent_poll m p ~fd:kq));
    ignore (Syscall.write m p ~fd:b "ping");
    let before = Kqueue.examined k in
    let ready = Syscall.kevent_poll m p ~fd:kq in
    Alcotest.(check (list int)) "the readable socket" [ a ]
      (List.map (fun ev -> ev.Kqueue.ident) ready);
    Kqueue.examined k - before
  in
  let small = examined 10 in
  Alcotest.(check int) "one event examined" 1 small;
  Alcotest.(check int) "10 and 1,000 idle registrations cost the same" small (examined 1_000);
  (* A SYN makes the listener readable without touching its image. *)
  let m = machine () in
  let srv = Syscall.spawn m ~name:"srv" in
  let lfd = Syscall.socket m srv Socket.Inet Socket.Tcp in
  Syscall.bind srv ~fd:lfd { Socket.host = "0.0.0.0"; port = 80 };
  Syscall.listen srv ~fd:lfd;
  let kq = Syscall.kqueue m srv in
  Syscall.kevent_register srv ~fd:kq (ev_read lfd);
  Alcotest.(check int) "idle listener" 0 (List.length (Syscall.kevent_poll m srv ~fd:kq));
  let listener =
    match (Syscall.fd_exn srv lfd).Fdesc.kind with
    | Fdesc.Socket_fd s -> s
    | _ -> Alcotest.fail "not a socket"
  in
  let gen = Socket.generation listener in
  let cli = Syscall.spawn m ~name:"cli" in
  let cfd = Syscall.socket m cli Socket.Inet Socket.Tcp in
  Alcotest.(check bool) "syn lands" true
    (Syscall.tcp_connect m cli ~fd:cfd { Socket.host = "0.0.0.0"; port = 80 });
  Alcotest.(check (list int)) "accept_enqueue wakes the listener" [ lfd ]
    (List.map (fun ev -> ev.Kqueue.ident) (Syscall.kevent_poll m srv ~fd:kq));
  Alcotest.(check int) "listener stamp unchanged" gen (Socket.generation listener)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"file offsets track random read/write sequences" ~count:100
         QCheck.(list_of_size (Gen.int_range 1 30) (string_of_size (Gen.int_range 0 50)))
         (fun chunks ->
           let m = machine () in
           let p = Syscall.spawn m ~name:"p" in
           let fd = Syscall.open_file m p ~path:"/f" ~create:true in
           List.iter (fun s -> ignore (Syscall.write m p ~fd s)) chunks;
           ignore (Syscall.lseek p ~fd ~off:0);
           let expected = String.concat "" chunks in
           Syscall.read m p ~fd ~len:(String.length expected + 10) = expected));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pipes deliver bytes in order" ~count:100
         QCheck.(list_of_size (Gen.int_range 1 20) (string_of_size (Gen.int_range 0 100)))
         (fun chunks ->
           let m = machine () in
           let p = Syscall.spawn m ~name:"p" in
           let rd, wr = Syscall.pipe m p in
           let written =
             List.fold_left (fun acc s -> acc + Syscall.write m p ~fd:wr s) 0 chunks
           in
           let data = Syscall.read m p ~fd:rd ~len:(written + 10) in
           String.length data = written
           && String.sub (String.concat "" chunks) 0 written = data));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"kevent_poll equals a full scan" ~count:300
         (QCheck.make
            ~print:(fun steps -> String.concat "; " (List.map kq_step_to_string steps))
            QCheck.Gen.(list_size (int_range 1 60) kq_step_gen))
         kevent_poll_matches_scan);
  ]

let () =
  Alcotest.run "aurora_kern"
    [
      ( "process",
        [
          Alcotest.test_case "spawn" `Quick test_spawn_and_pid;
          Alcotest.test_case "fork shares offsets" `Quick test_fork_shares_offset;
          Alcotest.test_case "separate opens" `Quick test_separate_open_independent_offset;
          Alcotest.test_case "fork COW memory" `Quick test_fork_cow_memory;
          Alcotest.test_case "exit/wait/SIGCHLD" `Quick test_exit_wait_sigchld;
          Alcotest.test_case "pid virtualization" `Quick test_pid_virtualization_lookup;
        ] );
      ( "files",
        [
          Alcotest.test_case "write/read" `Quick test_file_write_read;
          Alcotest.test_case "missing fails" `Quick test_open_missing_fails;
          Alcotest.test_case "dup shares offset" `Quick test_dup_shares_offset;
          Alcotest.test_case "anonymous file" `Quick test_anonymous_file;
        ] );
      ( "ipc",
        [
          Alcotest.test_case "pipe" `Quick test_pipe_roundtrip;
          Alcotest.test_case "pipe capacity" `Quick test_pipe_capacity;
          Alcotest.test_case "socketpair" `Quick test_socketpair_messages;
          Alcotest.test_case "SCM_RIGHTS" `Quick test_scm_rights_transfers_descriptor;
          Alcotest.test_case "socket shell" `Quick test_socket_shell;
          Alcotest.test_case "kqueue" `Quick test_kqueue_register;
          Alcotest.test_case "kevent_poll cost" `Quick test_kevent_poll_cost;
          Alcotest.test_case "pty" `Quick test_pty_echo_path;
          Alcotest.test_case "posix shm" `Quick test_posix_shm_shared_between_processes;
          Alcotest.test_case "sysv shm" `Quick test_sysv_shm;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "device whitelist" `Quick test_device_whitelist;
          Alcotest.test_case "quiesce rewinds sleeper" `Quick test_quiesce_rewinds_sleeping_syscall;
          Alcotest.test_case "quiesce leaves runner" `Quick test_quiesce_running_thread_not_rewound;
          Alcotest.test_case "aio write" `Quick test_aio_write_and_complete;
          Alcotest.test_case "aio read" `Quick test_aio_read_returns_data;
          Alcotest.test_case "dup2" `Quick test_dup2_replaces_slot;
          Alcotest.test_case "setsid/kill" `Quick test_setsid_and_kill;
          Alcotest.test_case "tcp connect/accept" `Quick test_tcp_connect_accept;
          Alcotest.test_case "spawn thread" `Quick test_spawn_thread;
        ] );
      ("properties", qcheck_tests);
    ]
