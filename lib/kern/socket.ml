type domain = Inet | Unix_dom
type proto = Udp | Tcp
type addr = { host : string; port : int }
type msg = { data : string; ctl_fds : int list }

type tcp_state =
  | Tcp_closed
  | Tcp_listening
  | Tcp_established of { mutable snd_seq : int; mutable rcv_seq : int }

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
  }

let id t = t.sock_id
let domain t = t.dom
let proto t = t.prot
let generation t = t.gen
let knotes t = t.knotes

(* Every change to the image may change readiness, so a stamp also
   activates the socket's knotes. *)
let touch t =
  t.gen <- t.gen + 1;
  Aurora_sim.Genlog.note ~kind:Aurora_sim.Genlog.kind_socket ~id:t.sock_id;
  Kqueue.activate t.knotes

let bind t a =
  t.laddr <- Some a;
  touch t

let connect t a =
  t.raddr <- Some a;
  touch t

let local_addr t = t.laddr
let remote_addr t = t.raddr

let set_option t k v =
  t.opts <- (k, v) :: List.remove_assoc k t.opts;
  touch t

let options t = t.opts
let tcp_state t = t.state

let set_tcp_state t s =
  t.state <- s;
  touch t

let listen t =
  t.state <- Tcp_listening;
  touch t

(* The accept queue is not in the image (checkpoint drops it), so no
   stamp; but a pending connection makes the listener readable. *)
let accept_enqueue t conn =
  t.accept_q <- t.accept_q @ [ conn ];
  Kqueue.activate t.knotes

let accept_dequeue t =
  match t.accept_q with
  | [] -> None
  | conn :: rest ->
      t.accept_q <- rest;
      Some conn

let accept_queue_length t = List.length t.accept_q

let pair a b =
  a.sock_peer <- Some b;
  b.sock_peer <- Some a;
  touch a;
  touch b

let peer t = t.sock_peer

let send t m =
  match t.sock_peer with
  | Some p ->
      Queue.push m p.recvq;
      touch p
  | None ->
      Queue.push m t.sendq;
      touch t

let recv t =
  let m = Queue.take_opt t.recvq in
  (match m with Some _ -> touch t | None -> ());
  m

let readable t =
  match t.state with
  | Tcp_listening -> t.accept_q <> []
  | Tcp_established _ | Tcp_closed -> not (Queue.is_empty t.recvq)

let recv_buffered t = List.of_seq (Queue.to_seq t.recvq)
let send_buffered t = List.of_seq (Queue.to_seq t.sendq)

let refill t ~recvq ~sendq =
  Queue.clear t.recvq;
  List.iter (fun m -> Queue.push m t.recvq) recvq;
  Queue.clear t.sendq;
  List.iter (fun m -> Queue.push m t.sendq) sendq;
  touch t

let buffered_bytes t =
  let sum q = Queue.fold (fun acc m -> acc + String.length m.data) 0 q in
  sum t.recvq + sum t.sendq
