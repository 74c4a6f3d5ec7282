(* Live migration with pre-copy: ship a full checkpoint while the
   application keeps running, then iterate incremental deltas until the
   final (small) stop-and-copy — built from `sls send`/`sls recv`
   primitives (paper sections 3 and 10): every round is a sealed frame,
   and the destination installs it only if it matches the sender's
   manifest digest.
   Run with: dune exec examples/live_migration.exe *)

module Syscall = Aurora_kern.Syscall
module Process = Aurora_kern.Process
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Units = Aurora_util.Units
module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore
module Migrate = Aurora_core.Migrate
module Link = Aurora_net.Link

(* The frame carrying [epoch] as a delta from [base], and its body size. *)
let frame ~store ~base ~epoch =
  match Migrate.frame ~store ~base ~epoch with
  | Ok sent -> sent
  | Error e -> failwith e

(* Receive a frame: check it against the sender's digest, then commit. *)
let recv ~store frame =
  match Result.bind (Migrate.open_shipment frame) (Migrate.install_verified ~store) with
  | Ok epoch -> epoch
  | Error e -> failwith e

(* When [bytes] sent over an idle 10 GbE link arrive. *)
let wire_time bytes = Link.delivery_time (Link.create ()) ~now:0 ~bytes

let () =
  let src = Sls.boot () in
  let app = Syscall.spawn src.Sls.machine ~name:"stateful-service" in
  let arena = Syscall.mmap_anon app ~npages:8192 (* 32 MiB *) in
  let addr = Vm_space.addr_of_entry arena in
  Vm_space.touch_write app.Process.space ~addr ~len:(8192 * Page.logical_size);
  Vm_space.write_string app.Process.space ~addr "generation-0";
  let group = Sls.attach src [ app ] in

  let dst = Sls.boot () in

  (* Round 1: full checkpoint streams over while the service runs. *)
  let s1 = Group.checkpoint ~wait_durable:true group in
  let full, full_bytes = frame ~store:src.Sls.store ~base:0 ~epoch:s1.Group.epoch in
  Printf.printf "pre-copy round 1: %s over the wire (%s)\n"
    (Units.bytes_to_string full_bytes)
    (Units.ns_to_string (wire_time full_bytes));

  (* The service keeps mutating during the transfer. *)
  Vm_space.touch_write app.Process.space
    ~addr:(addr + Page.logical_size)
    ~len:(63 * Page.logical_size);
  Vm_space.write_string app.Process.space ~addr "generation-1";

  (* Round 2: only the delta. *)
  let s2 = Group.checkpoint ~wait_durable:true group in
  let delta, delta_bytes =
    frame ~store:src.Sls.store ~base:s1.Group.epoch ~epoch:s2.Group.epoch
  in
  Printf.printf "pre-copy round 2 (delta): %s — %.1fx smaller\n"
    (Units.bytes_to_string delta_bytes)
    (float_of_int full_bytes /. float_of_int (max 1 delta_bytes));

  (* Install both rounds at the destination and resume there. *)
  ignore (recv ~store:dst.Sls.store full);
  let epoch' = recv ~store:dst.Sls.store delta in
  Clock.advance dst.Sls.machine.Machine.clock (wire_time delta_bytes);
  let result =
    Restore.restore ~machine:dst.Sls.machine ~store:dst.Sls.store ~epoch:epoch' ()
  in
  let app' = List.hd result.Restore.procs in
  Printf.printf "resumed on destination: state %S, restore took %s\n"
    (Vm_space.read_string app'.Process.space ~addr ~len:12)
    (Units.ns_to_string result.Restore.restore_ns)
