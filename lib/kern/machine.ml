module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost

type t = {
  clock : Clock.t;
  procs : (int, Process.t) Hashtbl.t;
  mutable next_pid : int;
  mutable next_tid : int;
  mutable next_conn : int;
  posix_shm : (string, Shm.t) Hashtbl.t;
  sysv_shm : (int, Shm.t) Hashtbl.t;
  descriptions : (int, Fdesc.t) Hashtbl.t;
  aios : (int, Aio.t * int) Hashtbl.t;
  aios_by_pid : (int, (int, Aio.t) Hashtbl.t) Hashtbl.t;
      (* owner pid_global -> (aio_id -> aio); secondary index so the
         checkpoint fold visits only a group's own AIOs instead of scanning
         the machine-wide table *)
  mutable vfs : Vfs.ops option;
  device_whitelist : string list;
  (* Soft-quiesce scheduling hook: while a speculative checkpoint
     serializes, the orchestrator opens concurrency windows during which
     the workload driver may run (the threads are NOT at a boundary).
     [stopped] is latched by quiesce/resume so a window can never open
     inside the hard stop, and [hook_depth] stops a hook that itself
     reaches a yield point from re-entering. *)
  mutable run_hook : (int -> unit) option;
  mutable hook_depth : int;
  mutable stopped : bool;
}

let create ?clock () =
  {
    clock = (match clock with Some c -> c | None -> Clock.create ());
    procs = Hashtbl.create 64;
    next_pid = 0;
    next_tid = 0;
    next_conn = 0;
    posix_shm = Hashtbl.create 16;
    sysv_shm = Hashtbl.create 16;
    descriptions = Hashtbl.create 256;
    aios = Hashtbl.create 16;
    aios_by_pid = Hashtbl.create 16;
    vfs = None;
    device_whitelist = [ "hpet0"; "vdso"; "null"; "zero"; "urandom" ];
    run_hook = None;
    hook_depth = 0;
    stopped = false;
  }

let mount t ops = t.vfs <- Some ops

let vfs_exn t =
  match t.vfs with Some ops -> ops | None -> failwith "Machine: no file system mounted"

let alloc_pid t =
  t.next_pid <- t.next_pid + 1;
  t.next_pid

let tid_base = 100_000

let alloc_tid t =
  t.next_tid <- t.next_tid + 1;
  tid_base + t.next_tid

let reserve_ids t (p : Process.t) =
  t.next_pid <- max t.next_pid p.Process.pid_local;
  List.iter
    (fun (th : Thread.t) -> t.next_tid <- max t.next_tid (th.Thread.tid_local - tid_base))
    p.Process.threads

let alloc_seq t =
  t.next_conn <- t.next_conn + 1;
  1000 + t.next_conn

let register_description t d = Hashtbl.replace t.descriptions d.Fdesc.desc_id d
let find_description t id = Hashtbl.find_opt t.descriptions id
let proc t pid = Hashtbl.find_opt t.procs pid

(* The root of a process's tree by global ppid links — stands in for the
   jail/group boundary that scopes virtualized ids. *)
let rec tree_root t p =
  match Hashtbl.find_opt t.procs p.Process.ppid with
  | Some parent when parent != p -> tree_root t parent
  | Some _ | None -> p.Process.pid_global

let proc_by_local_pid ?scope t pid_local =
  let candidates =
    Hashtbl.fold
      (fun _ p acc -> if p.Process.pid_local = pid_local then p :: acc else acc)
      t.procs []
  in
  match (candidates, scope) with
  | [], _ -> None
  | [ p ], _ -> Some p
  | ps, Some caller -> (
      (* Prefer the caller's own process tree: that is the group whose
         checkpoint-time ids the caller knows. *)
      let root = tree_root t caller in
      match List.find_opt (fun p -> tree_root t p = root) ps with
      | Some p -> Some p
      | None -> Some (List.hd ps))
  | p :: _, None -> Some p

let add_proc t p = Hashtbl.replace t.procs p.Process.pid_global p

let remove_proc t pid =
  Hashtbl.remove t.procs pid;
  (* Orphaned children serialize a different parent link (ppid resolves to
     nothing -> 0 in the image): stamp them so incremental checkpoints
     re-serialize. *)
  Hashtbl.iter
    (fun _ p -> if p.Process.ppid = pid then Process.touch p)
    t.procs

(* AIO table ------------------------------------------------------------ *)

let add_aio t ~aio ~pid =
  Hashtbl.replace t.aios aio.Aio.aio_id (aio, pid);
  let per_pid =
    match Hashtbl.find_opt t.aios_by_pid pid with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace t.aios_by_pid pid tbl;
        tbl
  in
  Hashtbl.replace per_pid aio.Aio.aio_id aio

let remove_aio t ~aio_id =
  match Hashtbl.find_opt t.aios aio_id with
  | None -> None
  | Some (aio, pid) ->
      Hashtbl.remove t.aios aio_id;
      (match Hashtbl.find_opt t.aios_by_pid pid with
      | Some tbl ->
          Hashtbl.remove tbl aio_id;
          if Hashtbl.length tbl = 0 then Hashtbl.remove t.aios_by_pid pid
      | None -> ());
      Some (aio, pid)

let aios_of_pid t pid =
  match Hashtbl.find_opt t.aios_by_pid pid with
  | None -> []
  | Some tbl -> Hashtbl.fold (fun _ aio acc -> aio :: acc) tbl []

let quiesce t procs =
  t.stopped <- true;
  (* One broadcast IPI reaches all cores running the group, then each
     thread drains to the boundary. *)
  Clock.advance t.clock Cost.ipi_roundtrip;
  List.iter
    (fun p ->
      List.iter (fun thr -> Thread.quiesce thr ~clock:t.clock) p.Process.threads)
    procs

let resume t procs =
  t.stopped <- false;
  List.iter (fun p -> List.iter Thread.resume p.Process.threads) procs

let set_run_hook t hook = t.run_hook <- hook
let stopped t = t.stopped

let concurrent_window t ~ns =
  if ns > 0 && (not t.stopped) && t.hook_depth = 0 then
    match t.run_hook with
    | None -> ()
    | Some hook ->
        t.hook_depth <- t.hook_depth + 1;
        Fun.protect ~finally:(fun () -> t.hook_depth <- t.hook_depth - 1)
          (fun () -> hook ns)

let device_allowed t name = List.mem name t.device_whitelist
