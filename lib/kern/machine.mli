(** The simulated machine: one kernel instance.

    Owns the virtual clock, the process table, the global shared-memory
    namespaces, the description registry used for SCM_RIGHTS and
    checkpointing, and the mounted file system. *)

type t = {
  clock : Aurora_sim.Clock.t;
  procs : (int, Process.t) Hashtbl.t;  (** keyed by global pid *)
  mutable next_pid : int;
  mutable next_tid : int;
  mutable next_conn : int;
  posix_shm : (string, Shm.t) Hashtbl.t;
  sysv_shm : (int, Shm.t) Hashtbl.t;
  descriptions : (int, Fdesc.t) Hashtbl.t;  (** by [Fdesc.desc_id] *)
  aios : (int, Aio.t * int) Hashtbl.t;
      (** in-flight asynchronous I/O, by [Aio.aio_id]; the second component
          is the issuing process's global pid *)
  aios_by_pid : (int, (int, Aio.t) Hashtbl.t) Hashtbl.t;
      (** secondary index of [aios] keyed by owner pid, maintained by
          [add_aio]/[remove_aio]; lets a consistency group's checkpoint
          visit only its members' AIOs *)
  mutable vfs : Vfs.ops option;
  device_whitelist : string list;
  mutable run_hook : (int -> unit) option;
      (** soft-quiesce scheduling hook; see {!set_run_hook} *)
  mutable hook_depth : int;
  mutable stopped : bool;  (** latched between {!quiesce} and {!resume} *)
}

val create : ?clock:Aurora_sim.Clock.t -> unit -> t
(** [?clock] shares an existing virtual clock instead of creating a fresh
    one — the multi-tenant fleet runs one machine per tenant on a single
    fleet clock so their checkpoint phases interleave on one timeline. *)

val mount : t -> Vfs.ops -> unit
val vfs_exn : t -> Vfs.ops

val alloc_pid : t -> int
val alloc_tid : t -> int

val reserve_ids : t -> Process.t -> unit
(** Issue no later pid or tid at or below the process's local pid and
    its threads' local tids: a restored process keeps the ids it had at
    checkpoint time, and a fork on the restoring machine must not reuse
    them. *)

val alloc_seq : t -> int
(** The initial sequence number of the next TCP connection this machine
    accepts: it depends on this machine's connections only. *)

val register_description : t -> Fdesc.t -> unit
val find_description : t -> int -> Fdesc.t option

val proc : t -> int -> Process.t option
(** By global pid. *)

val proc_by_local_pid : ?scope:Process.t -> t -> int -> Process.t option
(** By the application-visible pid.  Local pids are virtualized per
    consistency group (paper section 5.3), so after restores two
    processes may share one: [?scope] resolves within the caller's
    session first, which is how signals route to the right sibling. *)

val add_proc : t -> Process.t -> unit

val remove_proc : t -> int -> unit
(** Also stamps any process whose parent link pointed at the removed pid:
    its serialized image changes (the parent resolves to nothing). *)

val add_aio : t -> aio:Aio.t -> pid:int -> unit
(** Register an in-flight AIO under its owner, maintaining both the global
    table and the per-pid index. *)

val remove_aio : t -> aio_id:int -> (Aio.t * int) option
(** Unregister; returns the request and its owner pid if it was present. *)

val aios_of_pid : t -> int -> Aio.t list

val quiesce : t -> Process.t list -> unit
(** Drive every thread of the given processes to the kernel boundary:
    one IPI broadcast plus per-thread CPU-state capture. *)

val resume : t -> Process.t list -> unit

val set_run_hook : t -> (int -> unit) option -> unit
(** Install (or clear) the soft-quiesce scheduling hook.  During a
    speculative checkpoint's serialize phase the orchestrator opens
    concurrency windows via {!concurrent_window}; the hook receives the
    window length in virtual ns and may run workload threads — issue
    syscalls, touch memory — exactly as if they had never stopped. *)

val concurrent_window : t -> ns:int -> unit
(** Invoke the run hook for an [ns]-long window.  A no-op while the
    machine is hard-stopped (between {!quiesce} and {!resume}), when no
    hook is installed, or re-entrantly from inside the hook — so the
    workload can never advance inside the stop window. *)

val stopped : t -> bool
(** True between {!quiesce} and {!resume}. *)

val device_allowed : t -> string -> bool
