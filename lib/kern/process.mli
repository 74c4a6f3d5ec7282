(** Processes: the unit of the process tree.

    Carries the grouping state POSIX job control needs (process group,
    session), the file-descriptor table (slots point at shared
    {!Fdesc.t} descriptions), the address space, and the thread list.

    PIDs are virtualized exactly as the paper describes (section 5.3):
    [pid_local] is the identifier the application saw at checkpoint time
    and continues to see after restore; [pid_global] is the identifier the
    host kernel allocated, unique machine-wide.  The two coincide until a
    restore makes them diverge. *)

type state = Alive | Zombie of int  (** exit status *)

type t = {
  pid_local : int;
  mutable pid_global : int;
  mutable ppid : int;  (** global pid of the parent *)
  mutable pgid : int;
  mutable sid : int;
  mutable name : string;
  mutable threads : Thread.t list;
  fdtable : (int, Fdesc.t) Hashtbl.t;
  mutable next_fd : int;
  space : Aurora_vm.Vm_space.t;
  mutable proc_state : state;
  mutable children : int list;  (** global pids, newest first *)
  mutable pending_signals : int list;
  mutable ephemeral : bool;
      (** part of a consistency group but not persisted (worker processes
          the application recreates; restore sends the parent SIGCHLD) *)
  mutable cwd : string;
  mutable gen : int;
      (** monotonic mutation stamp; bump via [touch] (or the setters) at
          every mutation that changes the serialized image *)
  mutable kq_views : Kqueue.view list;
      (** this process's views of the kqueues it has polled; not
          serialized.  [alloc_fd], [install_fd_at] and [close_fd]
          re-resolve a changed slot's registrations in each *)
}

val create :
  clock:Aurora_sim.Clock.t -> pid:int -> tid:int -> ppid:int -> name:string -> t

val touch : t -> unit
val generation : t -> int

val effective_generation : t -> int
(** Stamp over the full serialized process image: the process's own stamp
    plus every thread's stamp plus the address-space layout stamp.
    Incremental checkpoints compare this against the value recorded at the
    last persisted image. *)

val set_cwd : t -> string -> unit

val alloc_fd : t -> Fdesc.t -> int
(** Install a description in the lowest free slot. *)

val install_fd_at : t -> int -> Fdesc.t -> unit
(** dup2-style: closes whatever was in the slot first. *)

val fd : t -> int -> Fdesc.t option
val close_fd : t -> int -> bool
(** Returns false if the slot was empty. *)

val fd_count : t -> int
val fds : t -> (int * Fdesc.t) list
(** Slots in ascending order. *)

val main_thread : t -> Thread.t

val signal : t -> int -> unit
(** Queue a signal (unless already pending). *)

val take_signal : t -> int option

val sigchld : int
