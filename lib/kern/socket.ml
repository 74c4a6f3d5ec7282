type domain = Inet | Unix_dom
type proto = Udp | Tcp
type addr = { host : string; port : int }
type msg = { data : string; ctl_fds : int list }

type tcp_state =
  | Tcp_closed
  | Tcp_listening
  | Tcp_established of { mutable snd_seq : int; mutable rcv_seq : int }

type image = {
  im_laddr : addr option;
  im_raddr : addr option;
  im_opts : (string * int) list;
  im_state : tcp_state;
  im_recvq : msg list;
  im_sendq : msg list;
}

type t = {
  sock_id : int;
  dom : domain;
  prot : proto;
  mutable laddr : addr option;
  mutable raddr : addr option;
  mutable opts : (string * int) list;
  mutable state : tcp_state;
  mutable accept_q : t list; (* oldest first *)
  mutable sock_peer : t option;
  recvq : msg Queue.t;
  sendq : msg Queue.t;
  mutable gen : int;
  knotes : Kqueue.knlist;
  mutable pending : (unit -> unit) option;
      (* a shell's rebuild charge, run once at its first use *)
}

let next_id = ref 0

let create dom prot =
  incr next_id;
  {
    sock_id = !next_id;
    dom;
    prot;
    laddr = None;
    raddr = None;
    opts = [];
    state = Tcp_closed;
    accept_q = [];
    sock_peer = None;
    recvq = Queue.create ();
    sendq = Queue.create ();
    gen = 0;
    knotes = Kqueue.knlist ();
    pending = None;
  }

let id t = t.sock_id
let domain t = t.dom
let proto t = t.prot
let generation t = t.gen
let knotes t = t.knotes
let is_shell t = t.pending <> None

(* Every change to the image may change readiness, so a stamp also
   activates the socket's knotes. *)
let stamp t =
  t.gen <- t.gen + 1;
  Aurora_sim.Genlog.note ~kind:Aurora_sim.Genlog.kind_socket ~id:t.sock_id;
  Kqueue.activate t.knotes

let restore t im ~on_materialize =
  t.laddr <- im.im_laddr;
  t.raddr <- im.im_raddr;
  t.opts <- im.im_opts;
  t.state <- im.im_state;
  Queue.clear t.recvq;
  List.iter (fun m -> Queue.push m t.recvq) im.im_recvq;
  Queue.clear t.sendq;
  List.iter (fun m -> Queue.push m t.sendq) im.im_sendq;
  t.pending <- Some on_materialize;
  stamp t

let materialize t =
  match t.pending with
  | None -> ()
  | Some f ->
      t.pending <- None;
      f ()

let touch t =
  materialize t;
  stamp t

let bind t a =
  materialize t;
  t.laddr <- Some a;
  stamp t

let connect t a =
  materialize t;
  t.raddr <- Some a;
  stamp t

let local_addr t = t.laddr
let remote_addr t = t.raddr

let set_option t k v =
  materialize t;
  t.opts <- (k, v) :: List.remove_assoc k t.opts;
  stamp t

let options t = t.opts
let tcp_state t = t.state

let set_tcp_state t s =
  materialize t;
  t.state <- s;
  stamp t

let listen t =
  materialize t;
  t.state <- Tcp_listening;
  stamp t

(* The accept queue is not in the image (checkpoint drops it), so no
   stamp; but a pending connection makes the listener readable. *)
let accept_enqueue t conn =
  materialize t;
  t.accept_q <- t.accept_q @ [ conn ];
  Kqueue.activate t.knotes

let accept_dequeue t =
  materialize t;
  match t.accept_q with
  | [] -> None
  | conn :: rest ->
      t.accept_q <- rest;
      Some conn

let accept_queue_length t = List.length t.accept_q

let pair a b =
  materialize a;
  materialize b;
  a.sock_peer <- Some b;
  b.sock_peer <- Some a;
  stamp a;
  stamp b

let peer t = t.sock_peer

let send t m =
  materialize t;
  match t.sock_peer with
  | Some p ->
      Queue.push m p.recvq;
      stamp p
  | None ->
      Queue.push m t.sendq;
      stamp t

let recv t =
  materialize t;
  let m = Queue.take_opt t.recvq in
  (match m with Some _ -> stamp t | None -> ());
  m

let readable t =
  match t.state with
  | Tcp_listening -> t.accept_q <> []
  | Tcp_established _ | Tcp_closed -> not (Queue.is_empty t.recvq)

let recv_buffered t = List.of_seq (Queue.to_seq t.recvq)
let send_buffered t = List.of_seq (Queue.to_seq t.sendq)

let buffered_bytes t =
  let bytes acc m = acc + String.length m.data in
  Queue.fold bytes (Queue.fold bytes 0 t.recvq) t.sendq
