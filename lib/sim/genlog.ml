(* A global mutation log for kernel-object generation stamps.

   Speculative checkpointing (PhoenixOS-style soft quiesce) serializes
   OS objects while the workload keeps running, then must find the
   objects mutated mid-serialize.  Walking the whole object graph and
   dirty-checking every stamp would put an O(objects) pass back inside
   the stop window — exactly the cost speculation exists to remove — so
   while the log is armed, every generation bump also appends a
   (kind, id) note here.  The checkpointer drains the log to re-serialize
   only the O(mutations) conflict set.

   The log is a process-global singleton like the tracer: generation
   bumps happen deep inside kernel object modules that know nothing
   about machines or groups.  Only one speculation phase is ever in
   flight at a time (the simulation is single-threaded and checkpoints
   are serialized on the virtual clock), and a spurious note from an
   unrelated machine merely costs one redundant dirty check, never
   correctness. *)

(* Kind tags for the note's origin module.  Processes and threads are
   absent on purpose: their mutations fold into
   [Process.effective_generation], which the validator diffs directly
   per group member. *)
let kind_pipe = 1
let kind_socket = 2
let kind_kqueue = 3
let kind_pty = 4
let kind_shm = 5
let kind_fdesc = 6

let armed = ref false
let entries : (int * int) list ref = ref []

let arm () =
  armed := true;
  entries := []

let disarm () =
  armed := false;
  entries := []

let note ~kind ~id = if !armed then entries := (kind, id) :: !entries

(* Drain pending notes (deduplicated, oldest first) without disarming:
   the speculation phase drains repeatedly — refinement rounds, then one
   final drain inside the stop window. *)
let drain () =
  let pending = List.rev !entries in
  entries := [];
  let seen = Hashtbl.create 16 in
  List.filter
    (fun e ->
      if Hashtbl.mem seen e then false
      else begin
        Hashtbl.replace seen e ();
        true
      end)
    pending
