(** Sockets: UDP, TCP, and UNIX domain.

    Checkpointing saves the address, options and buffered data.  UNIX
    domain sockets additionally carry control messages whose file
    descriptors must themselves be checkpointed; Aurora scans the buffer
    for them (section 5.3).  TCP listening sockets drop their accept queue
    on checkpoint (clients retry the SYN); established connections save
    the 5-tuple, sequence numbers, options and buffers.

    Restore brings a socket back as a {e shell}: a socket whose image is
    loaded but whose rebuild has not been paid for.  Its state is the
    restored socket's in every respect; what waits is the rebuild charge
    the caller supplied ([on_materialize] of {!restore}), which runs once,
    at the shell's first use, and moves no stamp.

    - Materialize a shell: {!touch}, {!bind}, {!connect}, {!set_option},
      {!set_tcp_state}, {!listen}, {!accept_enqueue}, {!accept_dequeue},
      {!pair} (both ends), {!send} and {!recv} (even one that finds
      nothing).
    - Never materialize: {!id}, {!domain}, {!proto}, {!generation},
      {!knotes}, {!is_shell}, {!readable}, and the accessors the
      checkpoint path reads, {!local_addr}, {!remote_addr}, {!options},
      {!tcp_state}, {!peer}, {!accept_queue_length}, {!recv_buffered},
      {!send_buffered} and {!buffered_bytes}.  So readiness polls and a
      checkpoint of a shell charge nothing for its rebuild. *)

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

(** {1 Restore} *)

(** What a checkpoint keeps of a socket besides its domain and protocol:
    options newest first (as {!options} returns them), and the queues
    oldest first. *)
type image = {
  im_laddr : addr option;
  im_raddr : addr option;
  im_opts : (string * int) list;
  im_state : tcp_state;
  im_recvq : msg list;
  im_sendq : msg list;
}

val restore : t -> image -> on_materialize:(unit -> unit) -> unit
(** Make a fresh socket's state [image], with one stamp, and leave it a
    shell: its first use (see the lists above) runs [on_materialize]
    once. *)

val is_shell : t -> bool
(** Its [on_materialize] has not run yet. *)

val materialize : t -> unit
(** Run a shell's [on_materialize] now, as its first use would; nothing
    for a socket that is not one.  Moves no stamp. *)

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

val buffered_bytes : t -> int
