(* Fault tolerance: continuous checkpoint shipping to a hot standby, with
   record/replay closing the gap between the last shipped checkpoint and
   the crash (paper sections 3 and 10).
   Run with: dune exec examples/fault_tolerance.exe *)

module Syscall = Aurora_kern.Syscall
module Process = Aurora_kern.Process
module Machine = Aurora_kern.Machine
module Vm_space = Aurora_vm.Vm_space
module Units = Aurora_util.Units
module Store = Aurora_objstore.Store
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Replica_set = Aurora_core.Replica_set
module Link = Aurora_net.Link
module Replay = Aurora_core.Replay

let () =
  (* Primary: a service under transparent persistence, with a recorder
     capturing its non-deterministic inputs. *)
  let primary = Sls.boot () in
  let m = primary.Sls.machine in
  let svc = Syscall.spawn m ~name:"stateful-service" in
  let arena = Syscall.mmap_anon svc ~npages:2048 in
  let addr = Vm_space.addr_of_entry arena in
  Vm_space.touch_write svc.Process.space ~addr ~len:(2048 * 4096);
  let inbox_tx, inbox_rx = Syscall.socketpair m svc in
  let group = Sls.attach primary [ svc ] in
  let recorder = Replay.Recorder.attach group in

  (* Standby: an empty machine whose store receives the stream — a
     one-standby replica set shipping stop-and-wait (window 1). *)
  let standby = Sls.boot () in
  let rs =
    Replica_set.create ~window:1 ~primary:group
      ~standbys:[ (standby.Sls.store, Link.create ~name:"standby" ()) ]
      ()
  in
  let shipped () = (Replica_set.view rs 0).Replica_set.sv_shipped_bytes in

  (* Steady state: serve requests, checkpoint, replicate. *)
  for round = 1 to 3 do
    Syscall.send_msg m svc ~fd:inbox_tx (Printf.sprintf "request-%d" round);
    (match Replay.Recorder.recv_msg recorder svc ~fd:inbox_rx with
    | Some req -> Vm_space.write_string svc.Process.space ~addr req
    | None -> ());
    ignore (Group.checkpoint ~wait_durable:true group);
    Replay.Recorder.on_checkpoint recorder;
    let before = shipped () in
    Replica_set.ship rs;
    if not (Replica_set.drain rs `All) then failwith "standby never acked";
    let bytes = shipped () - before in
    Printf.printf "round %d: checkpointed and shipped %s to the standby\n" round
      (Units.bytes_to_string bytes)
  done;

  (* One more request arrives and is recorded — but the primary dies
     before the next checkpoint ships. *)
  Syscall.send_msg m svc ~fd:inbox_tx "request-4";
  (match Replay.Recorder.recv_msg recorder svc ~fd:inbox_rx with
  | Some req -> Vm_space.write_string svc.Process.space ~addr req
  | None -> ());
  let jid = Replay.Recorder.journal_id recorder in
  print_endline "-- primary machine lost --";

  (* Failover: restore the last shipped checkpoint on the standby. *)
  let takeover = Machine.create () in
  let rep =
    match Replica_set.elect_and_failover rs ~survivors:[ 0 ] ~machine:takeover with
    | Ok rep -> rep
    | Error e -> failwith e
  in
  let svc' =
    List.hd rep.Replica_set.el_restore.Aurora_core.Restore.vr_result.Aurora_core.Restore.procs
  in
  Printf.printf "standby took over at replicated epoch %d: state %S\n"
    rep.Replica_set.el_source_epoch
    (Vm_space.read_string svc'.Process.space ~addr ~len:9);

  (* The primary's own store survives on its devices: recover it and
     replay the recorded inputs since the last checkpoint to close the
     gap (here, request-4). *)
  let m2 = Machine.create () in
  let primary_store = Store.recover ~dev:primary.Sls.device ~clock:m2.Machine.clock in
  let log = Replay.recover ~store:primary_store ~journal_id:jid in
  Printf.printf "replay log holds %d un-shipped input(s)\n" (List.length log);
  let replayer = Replay.Replayer.create log in
  (match Replay.Replayer.recv_msg replayer ~fd:inbox_rx with
  | Some req ->
      Vm_space.write_string svc'.Process.space ~addr req;
      Printf.printf "replayed %S on the standby: state %S — nothing lost\n" req
        (Vm_space.read_string svc'.Process.space ~addr ~len:9)
  | None -> print_endline "nothing to replay")
