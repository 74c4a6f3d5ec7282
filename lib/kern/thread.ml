module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost

type regs = {
  mutable rip : int;
  mutable rsp : int;
  mutable rflags : int;
  gp : int array;
  fpu : bytes;
}

type run_state =
  | Running_user
  | Running_kernel of string
  | Sleeping_syscall of string
  | At_boundary

type t = {
  tid_local : int;
  mutable tid_global : int;
  regs : regs;
  mutable sigmask : int;
  mutable pending_signals : int list;
  mutable priority : int;
  mutable state : run_state;
  mutable syscall_restarts : int;
  mutable gen : int;
}

let syscall_insn_len = 2 (* x86-64 `syscall` *)

let fresh_regs () =
  { rip = 0x400000; rsp = 0x7fff0000; rflags = 0x202; gp = Array.make 14 0; fpu = Bytes.make 64 '\000' }

let copy_regs r =
  { rip = r.rip; rsp = r.rsp; rflags = r.rflags; gp = Array.copy r.gp; fpu = Bytes.copy r.fpu }

let create ~tid =
  {
    tid_local = tid;
    tid_global = tid;
    regs = fresh_regs ();
    sigmask = 0;
    pending_signals = [];
    priority = 120;
    state = Running_user;
    syscall_restarts = 0;
    gen = 0;
  }

let generation t = t.gen
let touch t = t.gen <- t.gen + 1

let set_rip t v =
  t.regs.rip <- v;
  touch t

let set_sigmask t v =
  t.sigmask <- v;
  touch t

let quiesce t ~clock =
  (match t.state with
  | Running_user | Running_kernel _ | At_boundary -> ()
  | Sleeping_syscall _ ->
      (* Interrupt the sleep and rewind the PC so the call reissues
         immediately when the thread resumes — invisible to userspace,
         unlike delivering SIGSTOP and returning EINTR. *)
      t.regs.rip <- t.regs.rip - syscall_insn_len;
      t.syscall_restarts <- t.syscall_restarts + 1;
      touch t);
  Clock.advance clock Cost.cpu_state_copy;
  t.state <- At_boundary

let resume t = if t.state = At_boundary then t.state <- Running_user
