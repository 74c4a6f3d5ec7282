(* Table 4: checkpoint and restore times for POSIX objects.

   Each row is measured differentially: a process with N instances of the
   object versus the same process without them, divided by N.  The
   checkpoint side measures the OS-serialization window; the restore side
   measures the restore of the same checkpoint, plus one first use of
   each restored object: a socket comes back as a shell whose rebuild is
   charged at its first use, and the row times that rebuild as well. *)

module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Fdesc = Aurora_kern.Fdesc
module Socket = Aurora_kern.Socket
module Syscall = Aurora_kern.Syscall
module Kqueue = Aurora_kern.Kqueue
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore
module Text_table = Aurora_util.Text_table
module Units = Aurora_util.Units

(* Measure (checkpoint_ns, restore_ns) for a process population created by
   [setup], minus an empty-process baseline, per object.  The restore
   side runs [first_use] on the restored processes inside its window. *)
let measure ?(first_use = fun _ -> ()) ~count setup =
  let run build =
    let sys = Sls.boot () in
    let p = Syscall.spawn sys.Sls.machine ~name:"micro" in
    build sys p;
    let group = Sls.attach sys [ p ] in
    let stats = Group.checkpoint ~wait_durable:true group in
    let machine2 = Machine.create () in
    let result =
      Restore.restore ~machine:machine2 ~store:sys.Sls.store ~lazy_pages:true ()
    in
    let t1 = Clock.now machine2.Machine.clock in
    List.iter first_use result.Restore.procs;
    ( stats.Group.os_serialize_ns,
      result.Restore.restore_ns + Clock.elapsed_since machine2.Machine.clock t1 )
  in
  let with_objs = run (fun sys p -> setup sys p) in
  let baseline = run (fun _ _ -> ()) in
  ( (fst with_objs - fst baseline) / count,
    (snd with_objs - snd baseline) / count )

let run () =
  print_endline "Table 4: checkpoint and restore times for POSIX objects";
  print_endline
    "(paper: kqueue 35.2/2.7, pipes 1.7/2.6, pty 3.1/30.2, shm-posix 4.5/3.8,";
  print_endline "        shm-sysv 14.9/2.8, sockets 1.8/3.6, vnodes 1.7/2.0 us)";
  print_newline ();
  let rows =
    [
      ( "Kqueue w/1024 events",
        measure ~count:1 (fun sys p ->
            let kq = Syscall.kqueue sys.Sls.machine p in
            for i = 0 to 1023 do
              Syscall.kevent_register p ~fd:kq
                { Kqueue.ident = i; filter = Kqueue.Ev_read; flags = 1; udata = i }
            done) );
      ( "Pipes",
        measure ~count:16 (fun sys p ->
            for _ = 1 to 16 do
              ignore (Syscall.pipe sys.Sls.machine p)
            done) );
      ( "Pseudoterminals",
        measure ~count:16 (fun sys p ->
            for _ = 1 to 16 do
              ignore (Syscall.posix_openpt sys.Sls.machine p)
            done) );
      ( "Shared Memory (POSIX)",
        measure ~count:16 (fun sys p ->
            for i = 1 to 16 do
              ignore
                (Syscall.shm_open sys.Sls.machine p
                   ~name:(Printf.sprintf "/seg%d" i)
                   ~npages:1)
            done) );
      ( "Shared Memory (SysV)",
        measure ~count:16 (fun sys p ->
            for i = 1 to 16 do
              let shm = Syscall.shmget sys.Sls.machine ~key:i ~npages:1 in
              ignore (Syscall.shmat p shm)
            done) );
      ( "Sockets",
        (* One empty receive per socket: its first use rebuilds it. *)
        measure ~count:16
          ~first_use:(fun p ->
            List.iter
              (fun (_, d) ->
                match d.Fdesc.kind with
                | Fdesc.Socket_fd s -> ignore (Socket.recv s)
                | _ -> ())
              (Process.fds p))
          (fun sys p ->
            for _ = 1 to 16 do
              ignore
                (Syscall.socket sys.Sls.machine p Socket.Inet Socket.Udp)
            done) );
      ( "Vnodes",
        measure ~count:16 (fun sys p ->
            for i = 1 to 16 do
              ignore
                (Syscall.open_file sys.Sls.machine p
                   ~path:(Printf.sprintf "/f%d" i)
                   ~create:true)
            done) );
    ]
  in
  let t = Text_table.create ~header:[ "POSIX Object"; "Checkpoint"; "Restore" ] in
  List.iter
    (fun (name, (ckpt, restore)) ->
      Text_table.add_row t
        [ name; Units.ns_to_string (max 0 ckpt); Units.ns_to_string (max 0 restore) ])
    rows;
  Text_table.print t;
  print_newline ()
