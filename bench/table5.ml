(* Table 5: checkpoint stop times for userspace data objects of 4 KiB to
   1 GiB under the three Aurora modes: incremental (full transparent
   checkpoint), atomic (sls_memckpt), and journaled (sls_journal). *)

module Clock = Aurora_sim.Clock
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Api = Aurora_core.Api
module Text_table = Aurora_util.Text_table
module Units = Aurora_util.Units

let sizes =
  [
    4 * Units.kib;
    16 * Units.kib;
    64 * Units.kib;
    256 * Units.kib;
    Units.mib;
    4 * Units.mib;
    16 * Units.mib;
    64 * Units.mib;
    256 * Units.mib;
    Units.gib;
  ]

(* Stop times of the second and third touch-and-checkpoint cycles after
   the initial full checkpoint, with [size] bytes dirty each cycle.  The
   second cycle's frozen shadow is the logical object itself, so there is
   nothing to collapse; from the third cycle on the previous epoch's
   [size]-byte shadow collapses into its parent — the steady state. *)
let cycles ckpt size =
  let sys = Sls.boot () in
  let p = Syscall.spawn sys.Sls.machine ~name:"micro" in
  let e = Syscall.mmap_anon p ~npages:(Units.pages_of_bytes size) in
  let addr = Vm_space.addr_of_entry e in
  let touch () = Vm_space.touch_write p.Aurora_kern.Process.space ~addr ~len:size in
  touch ();
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  let cycle () =
    touch ();
    (ckpt group e).Group.stop_ns
  in
  let second = cycle () in
  let third = cycle () in
  (second, third)

let incremental = cycles (fun group _ -> Group.checkpoint ~wait_durable:true group)
let atomic = cycles Api.sls_memckpt

let journaled size =
  let sys = Sls.boot () in
  let p = Syscall.spawn sys.Sls.machine ~name:"micro" in
  let group = Sls.attach sys [ p ] in
  let j = Api.sls_journal_open group ~size:(size + (16 * Units.mib)) in
  let clk = sys.Sls.machine.Aurora_kern.Machine.clock in
  let t0 = Clock.now clk in
  (* Large updates append in 1 MiB chunks (the journal is synchronous
     either way); small ones in one record. *)
  let chunk = Units.mib in
  let rec append remaining =
    if remaining > 0 then begin
      let n = min chunk remaining in
      Api.sls_journal group j (String.make n 'j');
      append (remaining - n)
    end
  in
  append size;
  Clock.now clk - t0

let run () =
  print_endline "Table 5: checkpoint stop times for userspace data objects";
  print_endline
    "(paper: 4KiB 185/80/28 us ... 64MiB 600/492us/25.9ms ... 1GiB 6.1/6.3/417 ms)";
  print_endline
    "(cycle 1 is the initial full checkpoint; Incremental and Atomic show cycle 2, whose \
     collapse is empty; the 3rd columns show cycle 3, the steady state)";
  print_newline ();
  let t =
    Text_table.create
      ~header:
        [ "Object Size"; "Incremental"; "Incr. 3rd"; "Atomic"; "Atomic 3rd"; "Journaled" ]
  in
  List.iter
    (fun size ->
      let i2, i3 = incremental size and a2, a3 = atomic size in
      Text_table.add_row t
        (Units.bytes_to_string size
        :: List.map Units.ns_to_string [ i2; i3; a2; a3; journaled size ]))
    sizes;
  Text_table.print t;
  print_newline ()

(* The smoke gate: the steady state (third cycle) stops no longer than
   the second cycle, so the previous epoch's collapse stays out of the
   stop window. *)
let smoke () =
  List.concat_map
    (fun size ->
      let gate what (second, third) =
        let ratio = float_of_int third /. float_of_int second in
        ( Printf.sprintf "%s %s third/second-cycle stop" (Units.bytes_to_string size) what,
          Report.Num (3, ratio),
          "<= 1.05",
          ratio <= 1.05 )
      in
      Report.gates "table5" [ gate "incremental" (incremental size); gate "atomic" (atomic size) ])
    [ 64 * Units.kib; Units.mib; 16 * Units.mib ]
