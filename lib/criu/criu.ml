module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Fdesc = Aurora_kern.Fdesc
module Pipe = Aurora_kern.Pipe
module Socket = Aurora_kern.Socket
module Kqueue = Aurora_kern.Kqueue
module Vm_map = Aurora_vm.Vm_map
module Vm_space = Aurora_vm.Vm_space
module Vm_object = Aurora_vm.Vm_object
module Page = Aurora_vm.Page
module Wire = Aurora_objstore.Wire

type breakdown = {
  os_state_ns : int;
  memory_copy_ns : int;
  total_stop_ns : int;
  io_write_ns : int;
  image_bytes : int;
}

(* Count the kernel objects a process-centric walk must query: every fd of
   every process (shared descriptions are visited once per referencing
   process — the inference pass is what deduplicates them), every VM map
   entry, every thread. *)
let object_visits procs =
  List.fold_left
    (fun acc (p : Process.t) ->
      acc + 1 (* the process itself *)
      + List.length p.Process.threads
      + Process.fd_count p
      + Vm_map.entry_count (Vm_space.map p.Process.space))
    0 procs

(* Unique resident pages across the group (deduplicated by object). *)
let unique_pages procs =
  let seen = Hashtbl.create 64 in
  let total = ref 0 in
  let rec count obj =
    if not (Hashtbl.mem seen (Vm_object.id obj)) then begin
      Hashtbl.replace seen (Vm_object.id obj) ();
      total := !total + Vm_object.resident_pages obj;
      match Vm_object.parent obj with None -> () | Some parent -> count parent
    end
  in
  List.iter
    (fun (p : Process.t) ->
      List.iter
        (fun (e : Vm_map.entry) -> count e.Vm_map.obj)
        (Vm_map.entries (Vm_space.map p.Process.space)))
    procs;
  !total

(* Image serialization: process records plus raw page payloads.  The image
   reuses the SLS wire discipline but with CRIU's flat, per-process layout
   (memory is dumped as a flat range list per mapping).  The records below
   are the image as data; one codec writes and reads them. *)

type fd_kind_image =
  | I_vnode of { inode : int; offset : int; append : bool }
  | I_pipe_r of int * string (* pipe id, buffered bytes: they travel with the read end *)
  | I_pipe_w of int
  | I_socket of int
  | I_kqueue of int * int (* id, pending events *)
  | I_pty_m of int
  | I_pty_s of int
  | I_shm of int
  | I_device of string

type fd_image = { i_slot : int; i_desc_id : int; i_kind : fd_kind_image }

type mapping_image = {
  i_start_vpn : int;
  i_npages : int;
  i_writable : bool;
  i_pages : (int * string) list; (* mapping-relative page, payload *)
}

type proc_image = {
  i_pid_local : int;
  i_name : string;
  i_nthreads : int;
  i_fds : fd_image list;
  i_maps : mapping_image list;
}

let image_magic = "CRIUIMG1"

let image_codec =
  let open Wire.Codec in
  let fd_kind =
    tagged "criu fd kind"
      [
        case 0 (triple u64 u64 bool)
          (fun (inode, offset, append) -> I_vnode { inode; offset; append })
          (function I_vnode { inode; offset; append } -> Some (inode, offset, append) | _ -> None);
        case 1 (pair u64 str) (fun (id, data) -> I_pipe_r (id, data))
          (function I_pipe_r (id, data) -> Some (id, data) | _ -> None);
        case 2 u64 (fun o -> I_pipe_w o) (function I_pipe_w o -> Some o | _ -> None);
        case 3 u64 (fun o -> I_socket o) (function I_socket o -> Some o | _ -> None);
        case 4 (pair u64 u32) (fun (id, n) -> I_kqueue (id, n))
          (function I_kqueue (id, n) -> Some (id, n) | _ -> None);
        case 5 u64 (fun o -> I_pty_m o) (function I_pty_m o -> Some o | _ -> None);
        case 6 u64 (fun o -> I_pty_s o) (function I_pty_s o -> Some o | _ -> None);
        case 7 u64 (fun o -> I_shm o) (function I_shm o -> Some o | _ -> None);
        case 8 str (fun n -> I_device n) (function I_device n -> Some n | _ -> None);
      ]
  in
  let fd =
    record (fun i_slot i_desc_id i_kind -> { i_slot; i_desc_id; i_kind })
    |> field u32 (fun f -> f.i_slot)
    |> field u64 (fun f -> f.i_desc_id)
    |> field fd_kind (fun f -> f.i_kind)
    |> seal
  in
  let mapping =
    record (fun i_start_vpn i_npages i_writable i_pages ->
        { i_start_vpn; i_npages; i_writable; i_pages })
    |> field u64 (fun m -> m.i_start_vpn)
    |> field u64 (fun m -> m.i_npages)
    |> field bool (fun m -> m.i_writable)
    |> field (list (pair u32 str)) (fun m -> m.i_pages)
    |> seal
  in
  let proc =
    record (fun i_pid_local i_name i_nthreads i_fds i_maps ->
        { i_pid_local; i_name; i_nthreads; i_fds; i_maps })
    |> field u64 (fun p -> p.i_pid_local)
    |> field str (fun p -> p.i_name)
    |> field u32 (fun p -> p.i_nthreads)
    |> field (list fd) (fun p -> p.i_fds)
    |> field (list mapping) (fun p -> p.i_maps)
    |> seal
  in
  record Fun.id |> magic str image_magic "criu image magic" |> field (list proc) Fun.id |> seal

let fd_kind_image (d : Fdesc.t) =
  match d.Fdesc.kind with
  | Fdesc.Vnode_file { vn; offset; append } ->
      I_vnode { inode = Aurora_kern.Vnode.inode vn; offset; append }
  | Fdesc.Pipe_read p -> I_pipe_r (Pipe.id p, Pipe.peek_all p)
  | Fdesc.Pipe_write p -> I_pipe_w (Pipe.id p)
  | Fdesc.Socket_fd s -> I_socket (Socket.id s)
  | Fdesc.Kqueue_fd k -> I_kqueue (Kqueue.id k, Kqueue.event_count k)
  | Fdesc.Pty_master_fd p -> I_pty_m (Aurora_kern.Pty.id p)
  | Fdesc.Pty_slave_fd p -> I_pty_s (Aurora_kern.Pty.id p)
  | Fdesc.Shm_fd s -> I_shm (Aurora_kern.Shm.id s)
  | Fdesc.Device_fd name -> I_device name

(* Flat memory dump: every resident page of the mapping's chain. *)
let mapping_image (e : Vm_map.entry) =
  let pages = ref [] in
  for vpn = e.Vm_map.start_vpn to e.Vm_map.start_vpn + e.Vm_map.npages - 1 do
    let rel = vpn - e.Vm_map.start_vpn in
    let idx = rel + e.Vm_map.obj_pgoff in
    let rec lookup obj =
      match Vm_object.find_local obj idx with
      | Some page -> Some page
      | None -> (
          match Vm_object.parent obj with
          | None -> None
          | Some parent -> lookup parent)
    in
    match lookup e.Vm_map.obj with
    | Some page -> pages := (rel, Bytes.to_string (Page.blit_payload page)) :: !pages
    | None -> ()
  done;
  {
    i_start_vpn = e.Vm_map.start_vpn;
    i_npages = e.Vm_map.npages;
    i_writable = e.Vm_map.prot.Vm_map.write;
    i_pages = List.rev !pages;
  }

let proc_image (p : Process.t) =
  {
    i_pid_local = p.Process.pid_local;
    i_name = p.Process.name;
    i_nthreads = List.length p.Process.threads;
    i_fds =
      List.map
        (fun (i_slot, d) -> { i_slot; i_desc_id = d.Fdesc.desc_id; i_kind = fd_kind_image d })
        (Process.fds p);
    i_maps = List.map mapping_image (Vm_map.entries (Vm_space.map p.Process.space));
  }

let checkpoint machine procs =
  let clk = machine.Machine.clock in
  let stop_begin = Clock.now clk in
  (* Freeze the whole tree for the entire operation: CRIU has no COW
     tracking, so the target cannot run while memory is collected. *)
  Machine.quiesce machine procs;
  (* Phase 1: OS-state collection.  Every object is queried from userspace
     and sharing is inferred by matching ids across processes. *)
  let visits = object_visits procs in
  Clock.advance clk (visits * Cost.criu_per_object_inference);
  let os_state_end = Clock.now clk in
  (* Phase 2: copy application memory while still frozen. *)
  let pages = unique_pages procs in
  let mem_bytes = pages * Page.logical_size in
  Clock.advance clk (Cost.transfer_time ~bandwidth:Cost.criu_copy_bandwidth mem_bytes);
  let copy_end = Clock.now clk in
  (* Build the actual image (content correctness; CPU already charged). *)
  let image = Wire.to_string image_codec (List.map proc_image procs) in
  Machine.resume machine procs;
  let stop_end = Clock.now clk in
  (* Phase 3: write the image out; no flush (Table 1's caveat). *)
  let io_ns =
    Cost.transfer_time ~bandwidth:Cost.criu_io_bandwidth
      (mem_bytes + String.length image)
  in
  Clock.advance clk io_ns;
  ( {
      os_state_ns = os_state_end - stop_begin;
      memory_copy_ns = copy_end - os_state_end;
      total_stop_ns = stop_end - stop_begin;
      io_write_ns = io_ns;
      image_bytes = mem_bytes + String.length image;
    },
    image )

let restore machine image =
  let clk = machine.Machine.clock in
  let procs =
    try Wire.of_string image_codec image
    with Wire.Corrupt msg -> failwith ("Criu.restore: " ^ msg)
  in
  let pipes : (int, Pipe.t) Hashtbl.t = Hashtbl.create 8 in
  let pipe id =
    match Hashtbl.find_opt pipes id with
    | Some pipe -> pipe
    | None ->
        let pipe = Pipe.create () in
        Hashtbl.replace pipes id pipe;
        pipe
  in
  List.map
    (fun pi ->
      let p = Aurora_kern.Syscall.spawn machine ~name:pi.i_name in
      for _ = 2 to pi.i_nthreads do
        p.Process.threads <-
          p.Process.threads @ [ Aurora_kern.Thread.create ~tid:(Machine.alloc_tid machine) ];
        Process.touch p
      done;
      List.iter
        (fun fd ->
          let desc =
            match fd.i_kind with
            | I_pipe_r (id, data) ->
                (* The write end may already have created the pipe empty. *)
                let pipe = pipe id in
                Pipe.refill pipe data;
                Some (Fdesc.Pipe_read pipe)
            | I_pipe_w id -> Some (Fdesc.Pipe_write (pipe id))
            | I_socket _ -> Some (Fdesc.Socket_fd (Socket.create Socket.Inet Socket.Udp))
            | I_kqueue _ -> Some (Fdesc.Kqueue_fd (Kqueue.create ()))
            | I_device name -> Some (Fdesc.Device_fd name)
            (* Files need a cooperating filesystem; ptys and shared memory
               are outside the supported subset. *)
            | I_vnode _ | I_pty_m _ | I_pty_s _ | I_shm _ -> None
          in
          Option.iter
            (fun kind ->
              Clock.advance clk Cost.restore_object_link;
              Process.install_fd_at p fd.i_slot (Fdesc.create kind))
            desc)
        pi.i_fds;
      List.iter
        (fun m ->
          let obj = Vm_object.create Vm_object.Anonymous in
          List.iter
            (fun (idx, payload) ->
              let page = Page.alloc_sized ~payload:(String.length payload) in
              Page.load_payload page (Bytes.of_string payload);
              Vm_object.insert_page obj idx page)
            m.i_pages;
          Clock.advance clk (Cost.copy_time (List.length m.i_pages * Page.logical_size));
          ignore
            (Vm_map.map
               (Vm_space.map p.Process.space)
               ~vpn:m.i_start_vpn ~npages:m.i_npages
               ~prot:(if m.i_writable then Vm_map.prot_rw else Vm_map.prot_ro)
               ~obj ~obj_pgoff:0))
        pi.i_maps;
      p)
    procs
