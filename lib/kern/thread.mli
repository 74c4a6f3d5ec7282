(** Kernel threads: CPU state, signal state, scheduling state.

    The register file is real data that round-trips through checkpoints, so
    restore tests can assert bit-exact CPU state.  The [At_boundary] state
    models a thread parked at the kernel/userspace boundary by the quiesce
    IPI; [Sleeping_syscall] threads get interrupted and their program
    counter rewound so the call reissues transparently after restore
    (paper section 5.1, "Quiescing Processes"). *)

type regs = {
  mutable rip : int;
  mutable rsp : int;
  mutable rflags : int;
  gp : int array;  (** 14 general-purpose registers *)
  fpu : bytes;  (** 64 bytes of FPU/vector state *)
}

type run_state =
  | Running_user
  | Running_kernel of string  (** non-sleeping syscall in progress *)
  | Sleeping_syscall of string  (** blocked in e.g. read, poll *)
  | At_boundary  (** quiesced at the kernel/user boundary *)

type t = {
  tid_local : int;
  mutable tid_global : int;
  regs : regs;
  mutable sigmask : int;
  mutable pending_signals : int list;
  mutable priority : int;
  mutable state : run_state;
  mutable syscall_restarts : int;
      (** times a sleeping syscall was transparently restarted *)
  mutable gen : int;
      (** monotonic mutation stamp; use the setters (or [touch]) rather
          than mutating serialized fields in place *)
}

val create : tid:int -> t

val generation : t -> int
(** Monotonic mutation stamp over the serialized image (registers, signal
    mask, pending signals, priority).  The run state is not serialized and
    does not move it. *)

val touch : t -> unit

val set_rip : t -> int -> unit
val set_sigmask : t -> int -> unit

val fresh_regs : unit -> regs

val copy_regs : regs -> regs

val quiesce : t -> clock:Aurora_sim.Clock.t -> unit
(** Force the thread to the boundary: running threads drain their current
    syscall; sleeping syscalls are interrupted and the PC is rewound by the
    length of the syscall instruction so it reissues on resume. *)

val resume : t -> unit

val syscall_insn_len : int
