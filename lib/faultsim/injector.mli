(** Fault handlers for the block layer.

    Each constructor returns an {!Aurora_block.Fault.t} ready to install
    with [Striped.set_fault] (one handler shared by every member device,
    so submission indices are global, 1-based boundaries of the array). *)

val crash_at : index:int -> Aurora_block.Fault.t
(** Raise [Fault.Crash_point] when the [index]-th global device submission
    is about to be issued; neither it nor anything after it lands. *)

val counting : unit -> Aurora_block.Fault.t * (int, int) Hashtbl.t
(** Pass-through handler that records submission index -> acknowledged
    completion time (the crash-point enumerator's timeline). *)

type profile = {
  p_drop : float;
  p_torn : float;
  p_delay : float;
  max_delay_ns : int;
  p_read_fail : float;
  p_flip : float;
}

val no_faults : profile
val read_errors_profile : float -> profile
val write_loss_profile : float -> profile

val random : seed:int -> profile -> Aurora_block.Fault.t
(** PRNG-driven injector: every run with the same seed and profile makes
    identical decisions, so any failure reproduces from its seed. *)
