(** Sockets: UDP, TCP, and UNIX domain.

    Checkpointing saves the address, options and buffered data.  UNIX
    domain sockets additionally carry control messages whose file
    descriptors must themselves be checkpointed; Aurora scans the buffer
    for them (section 5.3).  TCP listening sockets drop their accept queue
    on checkpoint (clients retry the SYN); established connections save
    the 5-tuple, sequence numbers, options and buffers. *)

type domain = Inet | Unix_dom
type proto = Udp | Tcp

type addr = { host : string; port : int }

type msg = {
  data : string;
  ctl_fds : int list;
      (** SCM_RIGHTS control payload: file-description registry ids *)
}

type tcp_state =
  | Tcp_closed
  | Tcp_listening
  | Tcp_established of { mutable snd_seq : int; mutable rcv_seq : int }

type t

val create : domain -> proto -> t
val id : t -> int
val domain : t -> domain
val proto : t -> proto

val generation : t -> int
(** Monotonic mutation stamp over the serialized image (addresses, options,
    TCP state, peer link, buffered messages).  [send] to a connected peer
    stamps the {e peer} (whose receive queue changed), not the sender. *)

val touch : t -> unit
(** Bump the stamp and {!Kqueue.activate} the socket's knotes. *)

val knotes : t -> Kqueue.knlist
(** The knotes of the kqueue registrations that name this socket. *)

val bind : t -> addr -> unit
val connect : t -> addr -> unit
val local_addr : t -> addr option
val remote_addr : t -> addr option

val set_option : t -> string -> int -> unit
val options : t -> (string * int) list

val tcp_state : t -> tcp_state
val set_tcp_state : t -> tcp_state -> unit

val listen : t -> unit
val accept_enqueue : t -> t -> unit
(** Queue a pending connection.  Leaves the stamp alone (the accept
    queue is not in the image) but activates the listener's knotes. *)

val accept_dequeue : t -> t option
val accept_queue_length : t -> int

val pair : t -> t -> unit
(** Connect two UNIX domain sockets to each other. *)

val peer : t -> t option

val send : t -> msg -> unit
(** Deliver into the peer's receive queue if connected, else queue
    locally in the send buffer. *)

val recv : t -> msg option

val readable : t -> bool
(** [Ev_read] readiness, O(1): a listener with a pending connection, or
    any other socket with a buffered message. *)

val recv_buffered : t -> msg list
val send_buffered : t -> msg list
val refill : t -> recvq:msg list -> sendq:msg list -> unit

val buffered_bytes : t -> int
