(** The system-call layer: the POSIX-ish API applications in the simulator
    program against.

    Every call takes the machine (kernel state) and usually the calling
    process.  Errors are the exception {!Err} carrying an errno-like name;
    success returns plain values.  The subset implemented is the one the
    paper's applications and the checkpointer exercise: process lifecycle,
    files, pipes, sockets (UDP/TCP/UNIX + SCM_RIGHTS), kqueues,
    pseudoterminals, POSIX and System V shared memory, and mmap. *)

exception Err of string

(** {1 Processes} *)

val spawn : Machine.t -> name:string -> Process.t
(** Create a fresh process (the simulator's fork+exec shorthand for
    creating roots of process trees). *)

val fork : Machine.t -> Process.t -> Process.t
(** POSIX fork: clones the address space copy-on-write (symmetric
    shadowing), shares file descriptions, links the child into the process
    tree, inherits the process group and session. *)

val exit : Machine.t -> Process.t -> code:int -> unit
(** Zombifies the process, closes its descriptors and signals the parent
    with SIGCHLD. *)

val waitpid : Machine.t -> Process.t -> (int * int) option
(** Reap any zombie child: [(global_pid, status)]. *)

val spawn_thread : Machine.t -> Process.t -> Thread.t
(** pthread_create: a new kernel thread in the process. *)

val setsid : Process.t -> unit
val kill : ?by:Process.t -> Machine.t -> pid:int -> signo:int -> bool
(** Signal by local pid; [?by] scopes the lookup to the caller's session
    (local pids are per-group after restores). *)

(** {1 Files} *)

val open_file : Machine.t -> Process.t -> path:string -> create:bool -> int
val close : Process.t -> int -> unit
val read : Machine.t -> Process.t -> fd:int -> len:int -> string
val write : Machine.t -> Process.t -> fd:int -> string -> int
val lseek : Process.t -> fd:int -> off:int -> int
val fsync : Machine.t -> Process.t -> fd:int -> unit
val unlink : Machine.t -> path:string -> bool
val dup : Process.t -> fd:int -> int
val dup2 : Process.t -> src:int -> dst:int -> unit

(** {1 Pipes} *)

val pipe : Machine.t -> Process.t -> int * int
(** (read end, write end) *)

(** {1 Sockets} *)

val socket : Machine.t -> Process.t -> Socket.domain -> Socket.proto -> int
val bind : Process.t -> fd:int -> Socket.addr -> unit
val listen : Process.t -> fd:int -> unit
val socketpair : Machine.t -> Process.t -> int * int
(** A connected UNIX domain socket pair. *)

val tcp_connect : Machine.t -> Process.t -> fd:int -> Socket.addr -> bool
(** Send a SYN to a listening socket anywhere on the machine: on success
    the connection enters the listener's accept queue and [true] returns;
    with no listener (or after a checkpoint dropped the queue) [false]
    returns and the client retries — paper section 5.3. *)

val accept : Machine.t -> Process.t -> fd:int -> int option
(** Dequeue a pending connection from a listening socket; the new fd is
    an established TCP socket with live sequence numbers. *)

val send_msg : Machine.t -> Process.t -> fd:int -> ?fds:int list -> string -> unit
(** [?fds] sends descriptors over a UNIX domain socket (SCM_RIGHTS). *)

val recv_msg : Machine.t -> Process.t -> fd:int -> (string * int list) option
(** Returns data plus freshly installed fd slots for received rights. *)

(** {1 Kqueues} *)

val kqueue : Machine.t -> Process.t -> int
val kevent_register : Process.t -> fd:int -> Kqueue.kevent -> unit
(** {!Kqueue.register}: each process that has polled the kqueue resolves
    the ident through its fd table and attaches a knote, in O(1). *)

val kevent_poll : Machine.t -> Process.t -> fd:int -> Kqueue.kevent list
(** kevent with a zero timeout: the registered events whose ident (an fd
    slot in the calling process) is ready — a listening socket with a
    pending connection, an established socket or pipe read end with
    buffered data, a socket or unblocked pipe write end for
    [Ev_write] — newest registration first, as in {!Kqueue.events}.
    The event-loop HTTP tier dispatches on this.

    Polls through the caller's {!Kqueue.view}, made at its first poll
    (one resolve per registration).  After that a poll tests only the
    knotes activated since the last poll plus those still ready, so its
    host cost follows the ready events, not the registered ones.  Charges
    one syscall of virtual time, whatever it examines. *)

(** {1 Pseudoterminals} *)

val posix_openpt : Machine.t -> Process.t -> int
(** Master fd; the slave is opened with {!open_pty_slave}. *)

val open_pty_slave : Machine.t -> Process.t -> master_fd:int -> int

(** {1 Shared memory} *)

val shm_open : Machine.t -> Process.t -> name:string -> npages:int -> int
val shmget : Machine.t -> key:int -> npages:int -> Shm.t
val mmap_shm : Process.t -> fd:int -> Aurora_vm.Vm_map.entry
val shmat : Process.t -> Shm.t -> Aurora_vm.Vm_map.entry

(** {1 Memory} *)

val mmap_anon : Process.t -> npages:int -> Aurora_vm.Vm_map.entry

val mmap_file : Process.t -> fd:int -> npages:int -> Aurora_vm.Vm_map.entry
(** MAP_SHARED mapping of an open file: the mapping's pages ARE the
    file's pages (one page cache), so stores through memory are visible
    to [read] and vice versa — and the object store persists them
    identically (paper section 5.2). *)

val munmap : Process.t -> Aurora_vm.Vm_map.entry -> unit

val madvise_dontneed : Process.t -> Aurora_vm.Vm_map.entry -> bool -> unit
(** Hint that the region is a good eviction victim (or clear the hint);
    the swap policy consults it (paper section 6). *)

(** {1 Asynchronous I/O} *)

val aio_write : Machine.t -> Process.t -> fd:int -> off:int -> string -> int
(** Submit an asynchronous write; returns the request id.  The data
    lands immediately in the file (the kernel owns the buffer) but the
    request completes asynchronously. *)

val aio_read : Machine.t -> Process.t -> fd:int -> off:int -> len:int -> int
(** Submit an asynchronous read; returns the request id. *)

val aio_complete : Machine.t -> Process.t -> id:int -> string
(** Wait for the request: advances the clock to its completion and
    returns the read data ("" for writes).  Raises [Err "EINVAL"] for an
    unknown id. *)

val aio_pending : Machine.t -> Process.t -> Aio.t list

(** {1 Devices} *)

val open_device : Machine.t -> Process.t -> name:string -> int
(** Whitelisted devices only (e.g. the HPET). *)

(** {1 Introspection helpers} *)

val fd_exn : Process.t -> int -> Fdesc.t
