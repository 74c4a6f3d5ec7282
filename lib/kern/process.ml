module Vm_space = Aurora_vm.Vm_space

type state = Alive | Zombie of int

type t = {
  pid_local : int;
  mutable pid_global : int;
  mutable ppid : int;
  mutable pgid : int;
  mutable sid : int;
  mutable name : string;
  mutable threads : Thread.t list;
  fdtable : (int, Fdesc.t) Hashtbl.t;
  mutable next_fd : int;
  space : Vm_space.t;
  mutable proc_state : state;
  mutable children : int list;
  mutable pending_signals : int list;
  mutable ephemeral : bool;
  mutable cwd : string;
  mutable gen : int;
  mutable kq_views : Kqueue.view list;
}

let sigchld = 20 (* FreeBSD SIGCHLD *)

let create ~clock ~pid ~tid ~ppid ~name =
  {
    pid_local = pid;
    pid_global = pid;
    ppid;
    pgid = pid;
    sid = pid;
    name;
    threads = [ Thread.create ~tid ];
    fdtable = Hashtbl.create 16;
    next_fd = 0;
    space = Vm_space.create ~clock;
    proc_state = Alive;
    children = [];
    pending_signals = [];
    ephemeral = false;
    cwd = "/";
    gen = 0;
    kq_views = [];
  }

let touch t = t.gen <- t.gen + 1
let generation t = t.gen

(* The serialized process image folds in every thread's CPU/signal state
   and the address-space layout, so the stamp the checkpointer compares is
   the sum of those monotonic counters (a sum of monotonic counters is
   monotonic, and moves whenever any component moves). *)
let effective_generation t =
  List.fold_left
    (fun acc thr -> acc + Thread.generation thr)
    (t.gen + Vm_space.layout_generation t.space)
    t.threads

let set_cwd t path =
  if t.cwd <> path then touch t;
  t.cwd <- path

(* A slot now names something else: the kqueue registrations on it
   re-resolve. *)
let slot_changed t slot =
  List.iter (fun v -> Kqueue.slot_changed v ~slot) t.kq_views

let alloc_fd t desc =
  let rec free n = if Hashtbl.mem t.fdtable n then free (n + 1) else n in
  let slot = free 0 in
  Hashtbl.replace t.fdtable slot desc;
  touch t;
  slot_changed t slot;
  slot

let install_fd_at t slot desc =
  (match Hashtbl.find_opt t.fdtable slot with
  | Some old -> Fdesc.release old
  | None -> ());
  Hashtbl.replace t.fdtable slot desc;
  touch t;
  slot_changed t slot

let fd t slot = Hashtbl.find_opt t.fdtable slot

let close_fd t slot =
  match Hashtbl.find_opt t.fdtable slot with
  | None -> false
  | Some desc ->
      Fdesc.release desc;
      Hashtbl.remove t.fdtable slot;
      touch t;
      slot_changed t slot;
      true

let fd_count t = Hashtbl.length t.fdtable

let fds t =
  Hashtbl.fold (fun slot desc acc -> (slot, desc) :: acc) t.fdtable []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let main_thread t =
  match t.threads with
  | thr :: _ -> thr
  | [] -> invalid_arg "Process.main_thread: no threads"

let signal t signo =
  if not (List.mem signo t.pending_signals) then begin
    t.pending_signals <- t.pending_signals @ [ signo ];
    touch t
  end

let take_signal t =
  match t.pending_signals with
  | [] -> None
  | signo :: rest ->
      t.pending_signals <- rest;
      touch t;
      Some signo
