module Machine = Aurora_kern.Machine
module Striped = Aurora_block.Striped
module Store = Aurora_objstore.Store
module Fs = Aurora_fs.Fs
module Clock = Aurora_sim.Clock

type system = {
  machine : Machine.t;
  device : Striped.t;
  store : Store.t;
  fs : Fs.t;
}

let boot () =
  let machine = Machine.create () in
  let device = Striped.create () in
  let store = Store.format ~dev:device ~clock:machine.Machine.clock in
  let fs = Fs.create ~store in
  Machine.mount machine (Fs.vfs_ops fs);
  { machine; device; store; fs }

let attach ?period_ns sys procs =
  Group.attach ~machine:sys.machine ~store:sys.store ~fs:sys.fs ?period_ns procs

let crash sys = Striped.crash sys.device ~now:(Clock.now sys.machine.Machine.clock)

let reboot_and_restore ?lazy_pages sys =
  let old_now = Clock.now sys.machine.Machine.clock in
  crash sys;
  let machine = Machine.create () in
  (* Wall-clock time continues across the reboot. *)
  Clock.advance_to machine.Machine.clock old_now;
  let store = Store.recover ~dev:sys.device ~clock:machine.Machine.clock in
  let result = Restore.restore ~machine ~store ?lazy_pages () in
  let fs =
    match result.Restore.fs with
    | Some fs -> fs
    | None ->
        let fs = Fs.create ~store in
        Machine.mount machine (Fs.vfs_ops fs);
        fs
  in
  ({ machine; device = sys.device; store; fs }, result)
