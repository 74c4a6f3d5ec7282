(* A checkpointed TCP server saved as a device image, for the on-demand
   socket restore tests: restore it twice, once with shells and once
   with every socket rebuilt at once, from byte-identical devices. *)

module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Socket = Aurora_kern.Socket
module Kqueue = Aurora_kern.Kqueue
module Fdesc = Aurora_kern.Fdesc
module Striped = Aurora_block.Striped
module Store = Aurora_objstore.Store
module Manifest = Aurora_objstore.Manifest
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore

type layout = {
  listener : int;
  kq : int;
  conns : int list;  (** established connections, oldest first *)
  extras : int list;  (** the socketpair ends, when asked for *)
}

let addr = { Socket.host = "10.0.0.1"; port = 80 }

let socket_at p fd =
  match (Syscall.fd_exn p fd).Fdesc.kind with
  | Fdesc.Socket_fd s -> s
  | _ -> invalid_arg "Server_image.socket_at: not a socket"

let watch server ~kq fd =
  Syscall.kevent_register server ~fd:kq
    { Kqueue.ident = fd; filter = Kqueue.Ev_read; flags = 0; udata = fd }

(* A server with [conns] established connections, its kqueue watching
   the listener and every connection.  Its clients stay outside the
   group, so no connection's peer is restored.  Every third connection
   holds an unread request, and the server sets an option on every
   fourth.  With [extras] the server also holds a socketpair with bytes
   in flight, one message carrying an SCM_RIGHTS description: both ends
   are rebuilt eagerly.  Returns the booted system, checkpointed once. *)
let build ~conns ~extras =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let server = Syscall.spawn m ~name:"server" in
  let client = Syscall.spawn m ~name:"client" in
  let listener = Syscall.socket m server Socket.Inet Socket.Tcp in
  Syscall.bind server ~fd:listener addr;
  Syscall.listen server ~fd:listener;
  let kq = Syscall.kqueue m server in
  watch server ~kq listener;
  let conns =
    List.init conns (fun i ->
        let c = Syscall.socket m client Socket.Inet Socket.Tcp in
        if not (Syscall.tcp_connect m client ~fd:c addr) then failwith "connect refused";
        let fd =
          match Syscall.accept m server ~fd:listener with
          | Some fd -> fd
          | None -> failwith "accept found nothing"
        in
        watch server ~kq fd;
        if i mod 3 = 0 then ignore (Syscall.write m client ~fd:c (Printf.sprintf "GET /%d" i));
        if i mod 4 = 0 then
          Socket.set_option (socket_at server fd) "SO_KEEPALIVE" (i + 1);
        fd)
  in
  let extras =
    if not extras then []
    else begin
      let a, b = Syscall.socketpair m server in
      Syscall.send_msg m server ~fd:a "in flight";
      Syscall.send_msg m server ~fd:a ~fds:[ List.hd conns ] "with rights";
      watch server ~kq b;
      [ a; b ]
    end
  in
  let group = Sls.attach sys [ server ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  (sys, { listener; kq; conns; extras })

(* [build]'s server, saved as a device image: [f] gets the image's path,
   removed when it returns. *)
let with_image ~conns ?(extras = false) f =
  let sys, layout = build ~conns ~extras in
  let path = Filename.temp_file "aurora_server" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Striped.save_file sys.Sls.device ~clock:sys.Sls.machine.Machine.clock path;
      f path layout)

(* A fresh machine over the image at [path], its store recovered; the
   restore is the caller's. *)
let boot path =
  let dev, at = Striped.load_file path in
  let machine = Machine.create () in
  Clock.advance_to machine.Machine.clock at;
  (machine, Store.recover ~dev ~clock:machine.Machine.clock)

let sockets (p : Process.t) =
  List.filter_map
    (fun (_, d) -> match d.Fdesc.kind with Fdesc.Socket_fd s -> Some s | _ -> None)
    (Process.fds p)

let shells p = List.length (List.filter Socket.is_shell (sockets p))

(* Restore the newest epoch.  With [eager], every socket the restored
   processes hold is rebuilt before this returns, as if restore had
   rebuilt it: the reference a restore with shells is checked against. *)
let restore ~eager machine store =
  let r = Restore.restore ~machine ~store () in
  if eager then List.iter (fun p -> List.iter Socket.materialize (sockets p)) r.Restore.procs;
  r

(* Everything an epoch holds: each object's kind and metadata bytes, and
   the manifest's per-object page count and page-CRC fingerprint. *)
let epoch_contents store ~epoch =
  ( List.map
      (fun (oid, kind) -> (oid, kind, Store.read_meta store ~epoch ~oid))
      (Store.objects_at store ~epoch),
    match Store.manifest store ~epoch with
    | Ok m -> m.Manifest.m_entries
    | Error e -> failwith e )
