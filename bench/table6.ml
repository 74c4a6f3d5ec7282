(* Table 6: checkpoint stop times and restore times for popular
   applications (firefox, mosh, pillow, tomcat, vim profiles). *)

module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Vm_space = Aurora_vm.Vm_space
module Vm_map = Aurora_vm.Vm_map
module Page = Aurora_vm.Page
module Striped = Aurora_block.Striped
module Store = Aurora_objstore.Store
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore
module Profiles = Aurora_apps.Profiles
module Text_table = Aurora_util.Text_table
module Units = Aurora_util.Units

(* Fraction of the resident set an application touches immediately when it
   resumes (drives the lazy-restore row): a browser repaints about half
   its heap; a JVM or a Python batch job wakes up touching very little. *)
let resume_fraction profile =
  match profile.Profiles.app_name with
  | "firefox" -> 0.45
  | "mosh" -> 0.40
  | "pillow" -> 0.02
  | "tomcat" -> 0.08
  | "vim" -> 0.50
  | _ -> 0.3

(* The application resumes: it touches the low [resume_fraction] of
   every mapping (arenas fill from their low end). *)
let touch_resume_set profile procs =
  List.iter
    (fun (p : Process.t) ->
      List.iter
        (fun (e : Vm_map.entry) ->
          let pages =
            int_of_float (Float.round (resume_fraction profile *. float_of_int e.Vm_map.npages))
          in
          if pages > 0 then
            Vm_space.touch_read p.Process.space ~addr:(Vm_space.addr_of_entry e)
              ~len:(pages * Page.logical_size))
        (Vm_map.entries (Vm_space.map p.Process.space)))
    procs

type row = {
  name : string;
  size_bytes : int;
  mem_ckpt : int;
  full_ckpt : int;
  incr_ckpt : int;
  mem_restore : int;
  full_restore : int;
  lazy_restore : int;
}

let measure profile =
  (* Each checkpoint variant runs against a freshly warmed application, so
     every one pays the first-epoch COW marking of the full resident set
     (the paper measures each mode independently). *)
  let mem =
    let sys = Sls.boot () in
    let group = Sls.attach sys (Profiles.build sys profile) in
    (Group.checkpoint_mem_only group).Group.stop_ns
  in
  let sys = Sls.boot () in
  let procs = Profiles.build sys profile in
  let group = Sls.attach sys procs in
  (* Full: first persisted checkpoint (everything dirty). *)
  let full = Group.checkpoint ~wait_durable:true group in
  (* Incremental: the applications are mostly idle; dirty a few pages. *)
  List.iter
    (fun p ->
      match Vm_map.entries (Vm_space.map p.Process.space) with
      | e :: _ ->
          Vm_space.touch_write p.Process.space
            ~addr:(Vm_space.addr_of_entry e)
            ~len:(4 * Page.logical_size)
      | [] -> ())
    procs;
  let incr = Group.checkpoint ~wait_durable:true group in
  let size_bytes =
    List.fold_left
      (fun acc p -> acc + (Vm_space.resident_pages p.Process.space * Page.logical_size))
      0 procs
  in
  (* Mem restore: the checkpoint metadata is still cached in the live
     store; only object recreation is paid. *)
  let m_mem = Machine.create () in
  let mem_restore =
    (Restore.restore ~machine:m_mem ~store:sys.Sls.store ~lazy_pages:true ())
      .Restore.restore_ns
  in
  (* Full restore after a real crash: everything comes off the device. *)
  let crash_now = Clock.now sys.Sls.machine.Machine.clock in
  Striped.crash sys.Sls.device ~now:crash_now;
  let m_full = Machine.create () in
  Clock.advance_to m_full.Machine.clock crash_now;
  let store2 = Store.recover ~dev:sys.Sls.device ~clock:m_full.Machine.clock in
  let full_restore =
    (Restore.restore ~machine:m_full ~store:store2 ()).Restore.restore_ns
  in
  (* Lazy restore: OS state now; the application then resumes and
     faults its resume working set in from the background stream, on the
     restoring machine's clock; the rest of the stream is off the
     critical path. *)
  let m_lazy = Machine.create () in
  let clock = m_lazy.Machine.clock in
  Clock.advance_to clock crash_now;
  let store3 = Store.recover ~dev:sys.Sls.device ~clock in
  let result = Restore.restore ~machine:m_lazy ~store:store3 ~lazy_pages:true () in
  let t1 = Clock.now clock in
  touch_resume_set profile result.Restore.procs;
  let lazy_restore = result.Restore.restore_ns + (Clock.now clock - t1) in
  {
    name = profile.Profiles.app_name;
    size_bytes;
    mem_ckpt = mem;
    full_ckpt = full.Group.stop_ns;
    incr_ckpt = incr.Group.stop_ns;
    mem_restore;
    full_restore;
    lazy_restore;
  }

let run () =
  print_endline "Table 6: application checkpoint stop times and restore times";
  print_endline
    "(paper, firefox: 198MiB, ckpt mem/full/incr 1.4/1.8/1.9 ms, restore";
  print_endline "        mem/full/lazy 0.9/12.4/6.3 ms; tomcat full ckpt 3.2 ms)";
  print_newline ();
  let rows = List.map measure Profiles.all in
  let t =
    Text_table.create
      ~header:[ "Type"; "firefox"; "mosh"; "pillow"; "tomcat"; "vim" ]
  in
  let cell f = List.map (fun r -> f r) rows in
  Text_table.add_row t ("Size" :: cell (fun r -> Units.bytes_to_string r.size_bytes));
  Text_table.add_row t
    ("Ckpt Mem" :: cell (fun r -> Units.ns_to_string r.mem_ckpt));
  Text_table.add_row t
    ("Ckpt Full" :: cell (fun r -> Units.ns_to_string r.full_ckpt));
  Text_table.add_row t
    ("Ckpt Incr" :: cell (fun r -> Units.ns_to_string r.incr_ckpt));
  Text_table.add_separator t;
  Text_table.add_row t
    ("Restore Mem" :: cell (fun r -> Units.ns_to_string r.mem_restore));
  Text_table.add_row t
    ("Restore Full" :: cell (fun r -> Units.ns_to_string r.full_restore));
  Text_table.add_row t
    ("Restore Lazy" :: cell (fun r -> Units.ns_to_string r.lazy_restore));
  Text_table.print t;
  print_newline ()

(* The smoke gate, at half of each profile's memory: restored after a
   crash to running its resume working set, lazy restore is no slower
   than full restore.  Each restore runs on a machine of its own, from a
   device freshly crashed at the same instant, and is timed from the
   start of [Restore.restore] to the last page of the working set.  At
   half size firefox's and mosh's mappings still resume more than one
   16-page cluster each, so a lazy restore that reads the device per
   fault fails the gate. *)
let smoke () =
  Report.gates "table6"
    (List.map
       (fun profile ->
         let quick = { profile with Profiles.mem_mib = profile.Profiles.mem_mib / 2 } in
         let sys = Sls.boot () in
         let group = Sls.attach sys (Profiles.build sys quick) in
         ignore (Group.checkpoint ~wait_durable:true group);
         let crash_now = Clock.now sys.Sls.machine.Machine.clock in
         let to_running ~lazy_pages =
           Striped.crash sys.Sls.device ~now:crash_now;
           let machine = Machine.create () in
           let clock = machine.Machine.clock in
           Clock.advance_to clock crash_now;
           let store = Store.recover ~dev:sys.Sls.device ~clock in
           let result = Restore.restore ~machine ~store ~lazy_pages () in
           let t1 = Clock.now clock in
           touch_resume_set quick result.Restore.procs;
           result.Restore.restore_ns + (Clock.now clock - t1)
         in
         let full = to_running ~lazy_pages:false in
         let lzy = to_running ~lazy_pages:true in
         ( Printf.sprintf "%s %d MiB lazy restore to running" profile.Profiles.app_name
             quick.Profiles.mem_mib,
           Report.Ns (float_of_int lzy),
           Printf.sprintf "<= full %s" (Units.ns_to_string full),
           lzy <= full ))
       Profiles.all)
