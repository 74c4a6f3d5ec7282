(** Global mutation log for kernel-object generation stamps.

    Armed only during a speculative checkpoint's soft-quiesce window:
    every generation bump on a kernel object appends a (kind, id) note,
    letting the validator re-serialize the O(mutations) conflict set
    instead of dirty-checking the whole object graph inside the stop
    window.  Process/thread mutations are deliberately not logged; the
    validator diffs [Process.effective_generation] per member instead. *)

val kind_pipe : int
val kind_socket : int
val kind_kqueue : int
val kind_pty : int
val kind_shm : int
val kind_fdesc : int

val arm : unit -> unit
(** Start logging; clears any stale entries. *)

val disarm : unit -> unit
(** Stop logging and drop pending entries. *)

val note : kind:int -> id:int -> unit
(** O(1) when disarmed (a single flag test) so steady-state kernels pay
    nothing for the hook. *)

val drain : unit -> (int * int) list
(** Pending notes since the last drain, deduplicated, oldest first.
    Leaves the log armed. *)
