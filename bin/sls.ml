(* The `sls` command-line tool (paper Table 2).

   The machines this reproduction runs are simulated in-process.  Without
   --image, each subcommand drives a self-contained scenario on a freshly
   booted machine and demonstrates its verb end to end; with
   `--image PATH` the simulated devices' durable bytes persist in a host
   file, so `sls checkpoint --image app.img` in one invocation and
   `sls ps --image app.img` in the next operate on the same application —
   state genuinely accumulates across runs.  `sls demo` narrates the
   whole lifecycle. *)

open Cmdliner

module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Store = Aurora_objstore.Store
module Units = Aurora_util.Units
module Sls_core = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore
module Api = Aurora_core.Api
module Coredump = Aurora_core.Coredump
module Migrate = Aurora_core.Migrate
module Link = Aurora_net.Link

(* Persistent machine images: with --image PATH the simulated devices'
   durable bytes live in a host file, so state accumulates across tool
   invocations — checkpoint in one run, list or restore it in the next. *)

let load_image path =
  let device, saved_time = Aurora_block.Striped.load_file path in
  let machine = Machine.create () in
  Clock.advance_to machine.Machine.clock saved_time;
  let store = Store.recover ~dev:device ~clock:machine.Machine.clock in
  (machine, device, store)

let save_image (sys : Sls_core.system) path =
  Aurora_block.Striped.save_file sys.Sls_core.device
    ~clock:sys.Sls_core.machine.Machine.clock path

(* A small workload every subcommand can attach to. *)
let boot_workload ~mem_mib =
  let sys = Sls_core.boot () in
  let app = Syscall.spawn sys.Sls_core.machine ~name:"workload" in
  let npages = mem_mib * Units.mib / Page.logical_size in
  let arena = Syscall.mmap_anon app ~npages in
  let addr = Vm_space.addr_of_entry arena in
  Vm_space.touch_write app.Process.space ~addr ~len:(npages * Page.logical_size);
  Vm_space.write_string app.Process.space ~addr "workload state v1";
  let fd = Syscall.open_file sys.Sls_core.machine app ~path:"/data" ~create:true in
  ignore (Syscall.write sys.Sls_core.machine app ~fd "file contents");
  (sys, app, addr)

let image_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "i"; "image" ] ~docv:"PATH"
        ~doc:"Persist the simulated machine image in this host file: state \
              accumulates across invocations.")

let mem_arg =
  Arg.(value & opt int 16 & info [ "m"; "memory" ] ~docv:"MIB" ~doc:"Workload resident set in MiB.")

let period_arg =
  Arg.(value & opt int 10 & info [ "p"; "period" ] ~docv:"MS" ~doc:"Checkpoint period in milliseconds.")

let attach_cmd =
  let run mem period =
    let sys, app, _ = boot_workload ~mem_mib:mem in
    let group = Sls_core.attach ~period_ns:(period * Units.ms) sys [ app ] in
    Group.run_for group (100 * Units.ms);
    Printf.printf
      "attached pid %d at %d ms period; 100 ms of execution produced %d checkpoints\n"
      app.Process.pid_local period
      (List.length (Store.checkpoint_epochs sys.Sls_core.store))
  in
  Cmd.v (Cmd.info "attach" ~doc:"Attach an application to a consistency group.")
    Term.(const run $ mem_arg $ period_arg)

let checkpoint_cmd =
  let run image mem name =
    let sys, app, addr, group =
      match image with
      | Some path when Sys.file_exists path ->
          (* Resume the imaged application and advance its generation. *)
          let machine, device, store = load_image path in
          let result = Restore.restore ~machine ~store () in
          let app = List.hd result.Restore.procs in
          let fs =
            match result.Restore.fs with
            | Some fs -> fs
            | None -> Aurora_fs.Fs.create ~store
          in
          let sys = { Sls_core.machine; device; store; fs } in
          let addr =
            Vm_space.addr_of_entry
              (List.hd
                 (Aurora_vm.Vm_map.entries (Vm_space.map app.Process.space)))
          in
          (sys, app, addr, result.Restore.group)
      | _ ->
          let sys, app, addr = boot_workload ~mem_mib:mem in
          (sys, app, addr, Sls_core.attach sys [ app ])
    in
    let gen_slot = addr + (8 * Page.logical_size) in
    let generation =
      let s = Vm_space.read_string app.Process.space ~addr:gen_slot ~len:8 in
      match int_of_string_opt (String.trim s) with Some g -> g + 1 | None -> 1
    in
    Vm_space.write_string app.Process.space ~addr:gen_slot
      (Printf.sprintf "%7d " generation);
    let stats = Group.checkpoint ~wait_durable:true group in
    (match name with
    | Some n -> Group.name_checkpoint group n
    | None -> ());
    (match image with
    | Some path ->
        save_image sys path;
        Printf.printf "generation %d saved to %s\n" generation path
    | None -> ());
    Printf.printf "checkpoint %d%s: stop %s (os %s, mem %s), %d pages flushed\n"
      stats.Group.epoch
      (match name with Some n -> Printf.sprintf " %S" n | None -> "")
      (Units.ns_to_string stats.Group.stop_ns)
      (Units.ns_to_string stats.Group.os_serialize_ns)
      (Units.ns_to_string stats.Group.mem_mark_ns)
      stats.Group.pages_flushed
  in
  let name_arg =
    Arg.(value & opt (some string) None & info [ "n"; "name" ] ~docv:"NAME" ~doc:"Name the checkpoint.")
  in
  Cmd.v (Cmd.info "checkpoint" ~doc:"Manually checkpoint an application.")
    Term.(const run $ image_arg $ mem_arg $ name_arg)

let restore_cmd =
  let run image mem lazy_pages =
    match image with
    | Some path when Sys.file_exists path ->
        let machine, _device, store = load_image path in
        let result = Restore.restore ~machine ~store ~lazy_pages () in
        let app = List.hd result.Restore.procs in
        let addr =
          Vm_space.addr_of_entry
            (List.hd (Aurora_vm.Vm_map.entries (Vm_space.map app.Process.space)))
        in
        Printf.printf "restored pid %d from %s in %s%s; memory reads %S\n"
          app.Process.pid_local path
          (Units.ns_to_string result.Restore.restore_ns)
          (if lazy_pages then " (lazy)" else "")
          (Vm_space.read_string app.Process.space ~addr ~len:17)
    | _ ->
        let sys, app, addr = boot_workload ~mem_mib:mem in
        let group = Sls_core.attach sys [ app ] in
        ignore (Group.checkpoint ~wait_durable:true group);
        print_endline "checkpointed; crashing the machine...";
        let sys', result = Sls_core.reboot_and_restore ~lazy_pages sys in
        ignore sys';
        let app' = List.hd result.Restore.procs in
        Printf.printf "restored pid %d in %s%s; memory reads %S\n"
          app'.Process.pid_local
          (Units.ns_to_string result.Restore.restore_ns)
          (if lazy_pages then " (lazy)" else "")
          (Vm_space.read_string app'.Process.space ~addr ~len:17)
  in
  let lazy_arg =
    Arg.(value & flag & info [ "lazy" ] ~doc:"Lazy restore: page in on demand.")
  in
  Cmd.v (Cmd.info "restore" ~doc:"Crash the machine and restore the last checkpoint.")
    Term.(const run $ image_arg $ mem_arg $ lazy_arg)

let ps_cmd =
  let run image mem =
    let store =
      match image with
      | Some path when Sys.file_exists path ->
          let _machine, _device, store = load_image path in
          store
      | _ ->
          let sys, app, _ = boot_workload ~mem_mib:mem in
          let group = Sls_core.attach ~period_ns:(10 * Units.ms) sys [ app ] in
          Group.run_for group (50 * Units.ms);
          Group.name_checkpoint group "after-50ms";
          sys.Sls_core.store
    in
    Printf.printf "%-8s %s\n" "EPOCH" "OBJECTS";
    List.iter
      (fun epoch ->
        Printf.printf "%-8d %d\n" epoch
          (List.length (Store.objects_at store ~epoch)))
      (Store.checkpoint_epochs store)
  in
  Cmd.v (Cmd.info "ps" ~doc:"List application checkpoints in the store.")
    Term.(const run $ image_arg $ mem_arg)

let suspend_cmd =
  let run mem =
    let sys, app, addr = boot_workload ~mem_mib:mem in
    let group = Sls_core.attach sys [ app ] in
    ignore (Group.checkpoint ~wait_durable:true group);
    Machine.remove_proc sys.Sls_core.machine app.Process.pid_global;
    Printf.printf "suspended pid %d into the store (%d blocks allocated)\n"
      app.Process.pid_local
      (Store.blocks_allocated sys.Sls_core.store);
    (* Resume: restore into the same machine. *)
    let result = Restore.restore ~machine:sys.Sls_core.machine ~store:sys.Sls_core.store () in
    let app' = List.hd result.Restore.procs in
    Printf.printf "resumed pid %d (global %d); state %S\n" app'.Process.pid_local
      app'.Process.pid_global
      (Vm_space.read_string app'.Process.space ~addr ~len:17)
  in
  Cmd.v
    (Cmd.info "suspend" ~doc:"Suspend an application into the store and resume it.")
    Term.(const run $ mem_arg)

let dump_cmd =
  let run mem =
    let sys, app, _ = boot_workload ~mem_mib:mem in
    let group = Sls_core.attach sys [ app ] in
    let stats = Group.checkpoint ~wait_durable:true group in
    print_string (Coredump.dump ~store:sys.Sls_core.store ~epoch:stats.Group.epoch)
  in
  Cmd.v (Cmd.info "dump" ~doc:"Extract a checkpoint as an ELF-style coredump.")
    Term.(const run $ mem_arg)

let send_cmd =
  let run mem =
    let src, app, addr = boot_workload ~mem_mib:mem in
    let group = Sls_core.attach src [ app ] in
    let stats = Group.checkpoint ~wait_durable:true group in
    let frame, bytes =
      match Migrate.frame ~store:src.Sls_core.store ~base:0 ~epoch:stats.Group.epoch with
      | Ok sent -> sent
      | Error e -> failwith ("sls send: " ^ e)
    in
    Printf.printf "sls send: %s over 10 GbE takes %s\n" (Units.bytes_to_string bytes)
      (Units.ns_to_string (Link.delivery_time (Link.create ()) ~now:0 ~bytes));
    let dst = Sls_core.boot () in
    (match
       Result.bind (Migrate.open_shipment frame)
         (Migrate.install_verified ~store:dst.Sls_core.store)
     with
    | Ok _ -> ()
    | Error e -> failwith ("sls recv: " ^ e));
    match Restore.restore_verified ~machine:dst.Sls_core.machine ~store:dst.Sls_core.store () with
    | Error e -> failwith ("sls recv: " ^ Restore.pp_restore_error e)
    | Ok v ->
        let app' = List.hd v.Restore.vr_result.Restore.procs in
        Printf.printf "sls recv: restored on the remote; state %S\n"
          (Vm_space.read_string app'.Process.space ~addr ~len:17)
  in
  Cmd.v
    (Cmd.info "send" ~doc:"Serialize a checkpoint and receive it on a second machine.")
    Term.(const run $ mem_arg)

let journal_cmd =
  let run () =
    let sys, app, _ = boot_workload ~mem_mib:4 in
    let group = Sls_core.attach sys [ app ] in
    let j = Api.sls_journal_open group ~size:Units.mib in
    let clk = sys.Sls_core.machine.Machine.clock in
    let t0 = Clock.now clk in
    Api.sls_journal group j (String.make 4096 'w');
    Printf.printf "sls_journal: one 4 KiB synchronous page in %s (paper: 28 us)\n"
      (Units.ns_to_string (Clock.now clk - t0))
  in
  Cmd.v (Cmd.info "journal" ~doc:"Demonstrate the non-COW journal API.")
    Term.(const run $ const ())

let demo_cmd =
  let run mem period =
    let sys, app, addr = boot_workload ~mem_mib:mem in
    Printf.printf "booted machine; workload pid %d with %d MiB resident\n"
      app.Process.pid_local mem;
    let group = Sls_core.attach ~period_ns:(period * Units.ms) sys [ app ] in
    Group.run_for group (100 * Units.ms);
    Printf.printf "ran 100 ms under transparent persistence: %d checkpoints\n"
      (List.length (Store.checkpoint_epochs sys.Sls_core.store));
    Vm_space.write_string app.Process.space ~addr "workload state v2";
    ignore (Group.checkpoint ~wait_durable:true group);
    Group.name_checkpoint group "v2";
    print_endline "wrote v2 and named a checkpoint; power failure now...";
    let _sys', result = Sls_core.reboot_and_restore sys in
    let app' = List.hd result.Restore.procs in
    Printf.printf "restored in %s; memory reads %S — no application code involved\n"
      (Units.ns_to_string result.Restore.restore_ns)
      (Vm_space.read_string app'.Process.space ~addr ~len:17)
  in
  Cmd.v (Cmd.info "demo" ~doc:"Narrated end-to-end lifecycle.")
    Term.(const run $ mem_arg $ period_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "sls" ~version:"1.0.0"
      ~doc:"The Aurora single level store command line interface (simulated machines)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            demo_cmd;
            attach_cmd;
            checkpoint_cmd;
            restore_cmd;
            ps_cmd;
            suspend_cmd;
            dump_cmd;
            send_cmd;
            journal_cmd;
          ]))
