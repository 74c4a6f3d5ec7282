module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Genlog = Aurora_sim.Genlog
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Thread = Aurora_kern.Thread
module Fdesc = Aurora_kern.Fdesc
module Pipe = Aurora_kern.Pipe
module Socket = Aurora_kern.Socket
module Kqueue = Aurora_kern.Kqueue
module Pty = Aurora_kern.Pty
module Shm = Aurora_kern.Shm
module Vnode = Aurora_kern.Vnode
module Vm_map = Aurora_vm.Vm_map
module Vm_object = Aurora_vm.Vm_object
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Store = Aurora_objstore.Store
module Fs = Aurora_fs.Fs
module Otrace = Aurora_obs.Trace

(* Per-kind restore costs beyond [Cost.obj_restore_base] (Table 4). *)
let pipe_restore_extra = 600
let socket_restore_extra = 1_600
let kqueue_restore_extra = 700
let shm_posix_restore_extra = 1_800
let shm_sysv_restore_extra = 800
let socket_restore_ns = Cost.obj_restore_base + socket_restore_extra

type result = {
  group : Group.t;
  procs : Process.t list;
  fs : Fs.t option;
  restore_ns : int;
  sockets_deferred : int;
}

type ctx = {
  mach : Machine.t;
  st : Store.t;
  epoch : int;
  pages : (int, Store.stream) Hashtbl.t; (* memory-object oid -> its share *)
  lazy_pages : bool;
  kinds : (int, string) Hashtbl.t; (* oid -> kind *)
  memobjs : (int, Vm_object.t) Hashtbl.t; (* oid -> restored object *)
  mutable created : (int * int option * Vm_object.t) list;
      (* restored memory objects with their images' parent oids, newest
         first; a parent is created before its children *)
  descs : (int, Fdesc.t) Hashtbl.t; (* oid -> restored description *)
  sockets : (int, Socket.t) Hashtbl.t;
  peers : (int, int) Hashtbl.t; (* socket oid -> its peer's, from its image *)
  pipes : (int, Pipe.t) Hashtbl.t;
  kqueues : (int, Kqueue.t) Hashtbl.t;
  ptys : (int, Pty.t) Hashtbl.t;
  shms : (int, Shm.t) Hashtbl.t;
  ids : (int * int, int) Hashtbl.t;
      (* (kind, id) -> oid of every process (by global pid) and every
         kernel object restored: the restored group's identity table *)
  first_install : (int, unit) Hashtbl.t;
      (* description oids already installed in some fd slot: later slots
         must take an extra reference (fork/dup sharing) *)
  restored_fs : Fs.t option;
}

let charge ctx ns = Clock.advance ctx.mach.Machine.clock ns
let meta ctx oid = Store.read_meta ctx.st ~epoch:ctx.epoch ~oid

(* Memory objects --------------------------------------------------------------- *)

let rec memobj ctx oid =
  match Hashtbl.find_opt ctx.memobjs oid with
  | Some obj -> obj
  | None ->
      let image = Serial.memobj_of_string (meta ctx oid) in
      (* Memory objects are plain anonymous objects: cheaper to recreate
         than descriptor-backed kernel objects. *)
      charge ctx (Cost.obj_restore_base / 2);
      let obj = Vm_object.create Vm_object.Anonymous in
      (* Parents first, so chains relink bottom-up. *)
      (match image.Serial.i_parent_oid with
      | Some parent_oid ->
          let parent = memobj ctx parent_oid in
          Vm_object.set_parent obj (Some parent)
      | None -> ());
      Hashtbl.replace ctx.memobjs oid obj;
      ctx.created <- (oid, image.Serial.i_parent_oid, obj) :: ctx.created;
      (match Hashtbl.find_opt ctx.pages oid with
      | Some s when ctx.lazy_pages ->
          (* Lazy restore: pages are installed on first touch, a fault's
             cluster at a time. *)
          Vm_object.set_pager obj ~stores:(Store.pager_stores s) (Some (Store.pager s))
      | Some s ->
          List.iter
            (fun (idx, payload) ->
              let page = Page.alloc_sized ~payload:(Bytes.length payload) in
              Page.load_payload page payload;
              Vm_object.insert_page obj idx page)
            (Store.take_all s)
      | None -> ());
      obj

(* Sub-objects -------------------------------------------------------------------- *)

(* [x] is what [oid] names: the group that takes it over keeps [oid] as
   its identity. *)
let made ctx tbl ~kind id oid x =
  Hashtbl.replace tbl oid x;
  Hashtbl.replace ctx.ids (kind, id x) oid;
  x

(* What [oid] names, rebuilt by [build] the first time it is asked for. *)
let memo ctx tbl ~kind id oid build =
  match Hashtbl.find_opt tbl oid with Some x -> x | None -> made ctx tbl ~kind id oid (build ())

let pipe ctx oid =
  memo ctx ctx.pipes ~kind:Genlog.kind_pipe Pipe.id oid @@ fun () ->
  charge ctx (Cost.obj_restore_base + pipe_restore_extra);
  let image = Serial.pipe_of_string (meta ctx oid) in
  let p = Pipe.create () in
  Pipe.refill p image.Serial.i_data;
  if not image.Serial.i_rd_open then Pipe.close_read p;
  if not image.Serial.i_wr_open then Pipe.close_write p;
  p

let kqueue ctx oid =
  memo ctx ctx.kqueues ~kind:Genlog.kind_kqueue Kqueue.id oid @@ fun () ->
  charge ctx (Cost.obj_restore_base + kqueue_restore_extra);
  let events = Serial.kqueue_of_string (meta ctx oid) in
  let k = Kqueue.create () in
  Kqueue.replace_events k events;
  k

let pty ctx oid =
  memo ctx ctx.ptys ~kind:Genlog.kind_pty Pty.id oid @@ fun () ->
  (* Recreating the virtual device takes devfs locks — the dominant pty
     restore cost in Table 4. *)
  charge ctx (Cost.obj_restore_base + Cost.devfs_lock);
  let image = Serial.pty_of_string (meta ctx oid) in
  let p = Pty.create () in
  Pty.set_termios p ~echo:image.Serial.i_echo ~canonical:image.Serial.i_canonical
    ~baud:image.Serial.i_baud;
  Pty.refill p ~input:image.Serial.i_input ~output:image.Serial.i_output;
  p

let shm ctx oid =
  memo ctx ctx.shms ~kind:Genlog.kind_shm Shm.id oid @@ fun () ->
  let image = Serial.shm_of_string (meta ctx oid) in
  let kind = image.Serial.i_shm_kind in
  (match kind with
  | Shm.Posix_shm _ -> charge ctx (Cost.obj_restore_base + shm_posix_restore_extra)
  | Shm.Sysv_shm _ -> charge ctx (Cost.obj_restore_base + shm_sysv_restore_extra));
  let s = Shm.create kind ~npages:image.Serial.i_npages in
  Shm.set_backing s (memobj ctx image.Serial.i_backing_oid);
  (match kind with
  | Shm.Posix_shm name -> Hashtbl.replace ctx.mach.Machine.posix_shm name s
  | Shm.Sysv_shm key -> Hashtbl.replace ctx.mach.Machine.sysv_shm key s);
  s

(* A shell's rebuild, charged on the restoring clock at its first use:
   what rebuilding the socket at restore would charge. *)
let materialized clock oid () =
  let ts = Clock.now clock in
  Clock.advance clock socket_restore_ns;
  if Otrace.is_on () then
    Otrace.complete ~ts ~dur:socket_restore_ns ~cat:"restore" "materialize"
      ~args:[ ("oid", Otrace.Int oid); ("ns", Otrace.Int socket_restore_ns) ]

(* Every socket comes back as a shell, in the table before its image is
   restored: an SCM_RIGHTS description in its queues may name it.  The
   pairing pass rebuilds, at restore, each one whose peer this restore
   also rebuilt. *)
let rec socket ctx oid =
  match Hashtbl.find_opt ctx.sockets oid with
  | Some s -> s
  | None ->
      let image = Serial.socket_of_string (meta ctx oid) in
      let s =
        made ctx ctx.sockets ~kind:Genlog.kind_socket Socket.id oid
          (Socket.create image.Serial.i_domain image.Serial.i_proto)
      in
      if image.Serial.i_peer_oid <> 0 then Hashtbl.replace ctx.peers oid image.Serial.i_peer_oid;
      let restore_msg (m : Socket.msg) =
        { m with Socket.ctl_fds = List.map (fun ctl_oid -> (desc ctx ctl_oid).Fdesc.desc_id) m.Socket.ctl_fds }
      in
      (* A listener's image holds no accept queue: it was dropped at
         checkpoint, and clients retry their SYNs. *)
      let st = image.Serial.i_state in
      let im_sendq = List.map restore_msg st.Socket.im_sendq in
      let im_recvq = List.map restore_msg st.Socket.im_recvq in
      Socket.restore s
        ~on_materialize:(materialized ctx.mach.Machine.clock oid)
        { st with Socket.im_recvq; im_sendq };
      s

(* Descriptions ------------------------------------------------------------------------ *)

and desc ctx oid =
  memo ctx ctx.descs ~kind:Genlog.kind_fdesc (fun d -> d.Fdesc.desc_id) oid @@ fun () ->
  let image = Serial.fdesc_of_string (meta ctx oid) in
  let kind =
    match image.Serial.i_kind with
    | Serial.I_vnode { inode; offset; append } -> (
        charge ctx Cost.obj_restore_base;
        match ctx.restored_fs with
        | Some filesystem -> (
            match Fs.vnode_by_inode filesystem inode with
            | Some vn -> Fdesc.Vnode_file { vn; offset; append }
            | None ->
                (* An anonymous file whose vnode object exists in the
                   store but not the namespace would land here if the
                   FS failed to restore it; treat as corruption. *)
                failwith
                  (Printf.sprintf "restore: missing vnode inode %d" inode))
        | None -> failwith "restore: file descriptor but no file system")
    | Serial.I_pipe_r p -> Fdesc.Pipe_read (pipe ctx p)
    | Serial.I_pipe_w p -> Fdesc.Pipe_write (pipe ctx p)
    | Serial.I_socket s -> Fdesc.Socket_fd (socket ctx s)
    | Serial.I_kqueue k -> Fdesc.Kqueue_fd (kqueue ctx k)
    | Serial.I_pty_m p -> Fdesc.Pty_master_fd (pty ctx p)
    | Serial.I_pty_s p -> Fdesc.Pty_slave_fd (pty ctx p)
    | Serial.I_shm s -> Fdesc.Shm_fd (shm ctx s)
    | Serial.I_device name -> Fdesc.Device_fd name
  in
  let d = Fdesc.create kind in
  Fdesc.set_ext_sync d image.Serial.i_ext_sync;
  Machine.register_description ctx.mach d;
  d

(* Processes ---------------------------------------------------------------------------- *)

let restore_proc ctx (oid, (image : Serial.proc_image)) =
  let pid_global = Machine.alloc_pid ctx.mach in
  (* The process keeps the oid it was restored from, under its new global
     pid: local pids are unique only within a group. *)
  Hashtbl.replace ctx.ids (Group.kind_proc, pid_global) oid;
  let p =
    Process.create ~clock:ctx.mach.Machine.clock ~pid:image.Serial.i_pid_local
      ~tid:0 ~ppid:0 ~name:image.Serial.i_name
  in
  charge ctx Cost.obj_restore_base;
  p.Process.pid_global <- pid_global;
  p.Process.pgid <- image.Serial.i_pgid;
  p.Process.sid <- image.Serial.i_sid;
  p.Process.ephemeral <- image.Serial.i_ephemeral;
  p.Process.cwd <- image.Serial.i_cwd;
  p.Process.pending_signals <- image.Serial.i_proc_pending;
  List.iter
    (fun (th : Thread.t) -> th.Thread.tid_global <- Machine.alloc_tid ctx.mach)
    image.Serial.i_threads;
  p.Process.threads <- image.Serial.i_threads;
  (* File descriptors: slots naming the same description oid share the
     same restored description. *)
  List.iter
    (fun (slot, d_oid) ->
      charge ctx Cost.restore_object_link;
      let d = desc ctx d_oid in
      (* The description's initial reference covers its first slot; every
         further slot (fork/dup sharing) takes another. *)
      if Hashtbl.mem ctx.first_install d_oid then Fdesc.retain d
      else Hashtbl.replace ctx.first_install d_oid ();
      Process.install_fd_at p slot d)
    image.Serial.i_fds;
  (* Address space. *)
  List.iter
    (fun (e : Serial.entry_image) ->
      charge ctx Cost.restore_object_link;
      let obj =
        if e.Serial.i_obj_oid = 0 then
          (* Device mapping / vDSO: inject the current platform's. *)
          Vm_object.create (Vm_object.Device_backed "vdso")
        else
          match Hashtbl.find_opt ctx.kinds e.Serial.i_obj_oid with
          | Some k when k = Serial.kind_memobj -> memobj ctx e.Serial.i_obj_oid
          | Some k when k = Fs.kind_vnode -> (
              match ctx.restored_fs with
              | Some filesystem -> (
                  match Fs.vnode_by_oid filesystem e.Serial.i_obj_oid with
                  | Some vn -> Vnode.backing vn
                  | None -> Vm_object.create Vm_object.Anonymous)
              | None -> Vm_object.create Vm_object.Anonymous)
          | Some _ | None -> memobj ctx e.Serial.i_obj_oid
      in
      Vm_object.ref_ obj;
      ignore
        (Vm_map.map ~shared:e.Serial.i_shared
           (Vm_space.map p.Process.space)
           ~vpn:e.Serial.i_start_vpn ~npages:e.Serial.i_npages
           ~prot:e.Serial.i_prot ~obj ~obj_pgoff:e.Serial.i_obj_pgoff))
    image.Serial.i_entries;
  Machine.add_proc ctx.mach p;
  (* Reissue the asynchronous reads that were in flight at checkpoint
     time (section 5.3). *)
  List.iter
    (fun (slot, off, len) ->
      try ignore (Aurora_kern.Syscall.aio_read ctx.mach p ~fd:slot ~off ~len)
      with Aurora_kern.Syscall.Err _ -> ())
    image.Serial.i_aio_reads;
  (p, image)

(* Entry point ------------------------------------------------------------------------------ *)

(* Every consistency group among [objects], with its parsed image. *)
let group_images ~store ~epoch objects =
  List.filter_map
    (fun (oid, kind) ->
      if kind = Serial.kind_group then
        Some (oid, Serial.group_of_string (Store.read_meta store ~epoch ~oid))
      else None)
    objects

(* The memory objects restoring a group recreates: every one its
   processes map, the backing of every shared-memory segment (restore
   brings back all of the epoch's), and their shadow parents. *)
let group_memobjs ~store ~epoch kinds proc_images =
  let seen = Hashtbl.create 64 in
  let rec add oid =
    if Hashtbl.find_opt kinds oid = Some Serial.kind_memobj && not (Hashtbl.mem seen oid)
    then begin
      Hashtbl.replace seen oid ();
      Option.iter add
        (Serial.memobj_of_string (Store.read_meta store ~epoch ~oid)).Serial.i_parent_oid
    end
  in
  List.iter
    (fun (image : Serial.proc_image) ->
      List.iter (fun (e : Serial.entry_image) -> add e.Serial.i_obj_oid) image.Serial.i_entries)
    proc_images;
  Hashtbl.iter
    (fun oid kind ->
      if kind = Serial.kind_shm then
        add (Serial.shm_of_string (Store.read_meta store ~epoch ~oid)).Serial.i_backing_oid)
    kinds;
  List.sort compare (Hashtbl.fold (fun oid () acc -> oid :: acc) seen [])

let groups_at ~store ~epoch =
  List.map
    (fun (oid, image) -> (oid, image.Serial.i_proc_oids))
    (group_images ~store ~epoch (Store.objects_at store ~epoch))

(* The one rebuild body: [shares oids] hands it each object's share of
   the page stream of the check that passed [epoch]; [restore_ns] counts
   from [start], before that check. *)
let rebuild ~machine ~store ~epoch ~lazy_pages ?group_oid ~start shares =
  Otrace.with_span ~cat:"restore" ~name:"restore"
    ~args:
      [
        ("epoch", Otrace.Int epoch);
        ("lazy_pages", Otrace.Int (Bool.to_int lazy_pages));
      ]
    ~end_args:(fun r -> [ ("sockets_deferred", Otrace.Int r.sockets_deferred) ])
  @@ fun () ->
  let objects = Store.objects_at store ~epoch in
  let kinds = Hashtbl.create (List.length objects) in
  List.iter (fun (oid, kind) -> Hashtbl.replace kinds oid kind) objects;
  (* The group object drives everything else.  Choosing it comes before
     anything touches [machine]; naming no group among several, or one the
     epoch lacks, is the caller's error, not the epoch's. *)
  let group_oid, group_image =
    match (group_images ~store ~epoch objects, group_oid) with
    | [], _ -> failwith "restore: no consistency group in checkpoint"
    | [ g ], None -> g
    | gs, Some want -> (
        match List.find_opt (fun (oid, _) -> oid = want) gs with
        | Some g -> g
        | None -> invalid_arg (Printf.sprintf "restore: no group with oid %d" want))
    | _ :: _ :: _, None ->
        invalid_arg
          "restore: several consistency groups in this checkpoint; pass \
           ~group_oid (see Restore.groups_at)"
  in
  let proc_oids = group_image.Serial.i_proc_oids in
  let proc_images =
    List.map (fun oid -> Serial.proc_of_string (Store.read_meta store ~epoch ~oid)) proc_oids
  in
  (* The file system comes back first: descriptions reference vnodes.
     Its files' pages come from a stream of their own, before memory's. *)
  let restored_fs =
    if not (List.exists (fun (_, kind) -> kind = Fs.kind_namespace) objects) then None
    else
      let vnodes = List.filter (fun (_, kind) -> kind = Fs.kind_vnode) objects in
      let files = Hashtbl.of_seq (List.to_seq (shares (List.map fst vnodes))) in
      let pages oid = Store.take_all (Hashtbl.find files oid) in
      Some (Fs.restore_from_store ~store ~epoch ~pages)
  in
  (* The group's memory, after the file system's pages: decoded and
     checked already when eager; a lazy restore's faults take theirs
     during and after the processes' rebuild. *)
  let memory = shares (group_memobjs ~store ~epoch kinds proc_images) in
  let ctx =
    {
      mach = machine;
      st = store;
      epoch;
      pages = Hashtbl.of_seq (List.to_seq memory);
      lazy_pages;
      kinds;
      memobjs = Hashtbl.create 64;
      created = [];
      descs = Hashtbl.create 64;
      sockets = Hashtbl.create 16;
      peers = Hashtbl.create 16;
      pipes = Hashtbl.create 16;
      kqueues = Hashtbl.create 16;
      ptys = Hashtbl.create 16;
      shms = Hashtbl.create 16;
      ids = Hashtbl.create 64;
      first_install = Hashtbl.create 64;
      restored_fs;
    }
  in
  (match restored_fs with Some filesystem -> Machine.mount machine (Fs.vfs_ops filesystem) | None -> ());
  let restored = List.map (restore_proc ctx) (List.combine proc_oids proc_images) in
  (* Each restored process kept its local pid and tids: the machine must
     not issue them again. *)
  List.iter (fun (p, _) -> Machine.reserve_ids machine p) restored;
  (* Relink the process tree by local pids, now that all exist.  Local
     pids are meaningful only within this group: resolve among the
     processes restored here, never against unrelated processes that
     happen to reuse the same checkpoint-time pid. *)
  List.iter
    (fun ((p : Process.t), (image : Serial.proc_image)) ->
      (match
         List.find_opt
           (fun ((q : Process.t), _) ->
             q.Process.pid_local = image.Serial.i_ppid_local)
           restored
       with
      | Some (parent, _) when parent != p ->
          p.Process.ppid <- parent.Process.pid_global;
          parent.Process.children <- p.Process.pid_global :: parent.Process.children
      | Some _ | None -> ());
      (* Vnode open counts: one per vnode-backed slot. *)
      match ctx.restored_fs with
      | Some filesystem ->
          List.iter
            (fun (_, d) ->
              match d.Fdesc.kind with
              | Fdesc.Vnode_file { vn; _ } ->
                  Fs.mark_open_after_restore filesystem (Vnode.inode vn)
              | _ -> ())
            (Process.fds p)
      | None -> ())
    restored;
  (* Shared-memory segments come back even when no fd references them
     (they live in the global namespaces). *)
  List.iter
    (fun (oid, kind) -> if kind = Serial.kind_shm then ignore (shm ctx oid))
    objects;
  (* Socket pairs: second pass over the sockets whose peer this restore
     rebuilt too.  Pairing rebuilds both ends now. *)
  List.iter
    (fun (oid, kind) ->
      if kind = Serial.kind_socket then
        match Hashtbl.find_opt ctx.peers oid with
        | None -> ()
        | Some peer_oid -> (
            match Hashtbl.find_opt ctx.sockets peer_oid with
            | Some p -> Socket.pair (Hashtbl.find ctx.sockets oid) p
            | None -> ()))
    objects;
  (* SIGCHLD for parents of ephemeral children (again scoped to this
     group's processes). *)
  List.iter
    (fun pid_local ->
      match
        List.find_opt
          (fun ((q : Process.t), _) -> q.Process.pid_local = pid_local)
          restored
      with
      | Some (parent, _) -> Process.signal parent Process.sigchld
      | None -> ())
    group_image.Serial.i_ephemeral_parents;
  let procs = List.map fst restored in
  (* Re-attach a group over the restored processes, seeding identities so
     the next checkpoints stay incremental. *)
  let group =
    Group.attach ~machine ~store ?fs:restored_fs
      ~period_ns:group_image.Serial.i_period ~group_oid procs
  in
  Group.set_ext_sync group group_image.Serial.i_ext_sync_on;
  Group.set_named group group_image.Serial.i_name_ckpts;
  Group.seed_oids group ctx.ids;
  List.iter
    (fun (oid, parent_oid, obj) -> Group.register_restored_memobj group ~oid ~parent_oid obj)
    (List.rev ctx.created);
  Group.prepare_after_restore group;
  (* Measured once the group is attached: the shadows it interposes over
     the restored memory charge the restoring clock too. *)
  {
    group;
    procs;
    fs = restored_fs;
    restore_ns = Clock.elapsed_since machine.Machine.clock start;
    sockets_deferred =
      Hashtbl.fold (fun _ s n -> if Socket.is_shell s then n + 1 else n) ctx.sockets 0;
  }

(* Verified restore --------------------------------------------------------------- *)

module Fault = Aurora_block.Fault
module Manifest = Aurora_objstore.Manifest
module Wire = Aurora_objstore.Wire

type attempt = { at_epoch : int; at_reason : string }

type restore_error =
  | No_checkpoints
  | No_valid_epoch of attempt list

exception Unrestorable of restore_error

let pp_restore_error = function
  | No_checkpoints -> "no complete checkpoint in the store"
  | No_valid_epoch attempts ->
      "no verifiable epoch: "
      ^ String.concat "; "
          (List.map
             (fun a -> Printf.sprintf "epoch %d (%s)" a.at_epoch a.at_reason)
             attempts)

(* Check one epoch against its own manifest, each object's metadata
   parsing as its kind: every page too when [full] ([Store.verify_epoch]),
   else up front ([Store.check_epoch]).  [Ok] carries the manifest and
   the shares of the objects a rebuild asks for. *)
let verify ~store ~epoch ~full =
  Otrace.with_span ~cat:"restore" ~name:"verify" ~args:[ ("epoch", Otrace.Int epoch) ] @@ fun () ->
  let check_meta = Serial.parse_check in
  if not full then Store.check_epoch store ~epoch ~check_meta
  else
    Store.verify_epoch store ~epoch ~check_meta
    |> Result.map (fun (m, shares) -> (m, List.map (fun oid -> (oid, List.assoc oid shares))))

let verify_epoch ~store ~epoch = Result.map fst (verify ~store ~epoch ~full:true)

type verified = {
  vr_result : result;
  vr_epoch : int;
  vr_manifest : Manifest.t;
  vr_skipped : attempt list;
}

(* One step of the verified walk: an epoch that passed its check, the
   shares of its objects, the rejected attempts before it (newest last)
   and the epochs the walk has left, newest first. *)
type checked = {
  ck_store : Store.t;
  ck_epoch : int;
  ck_manifest : Manifest.t;
  ck_shares : int list -> (int * Store.stream) list;
  ck_tried : attempt list;
  ck_rest : int list;
}

let checked_epoch ck = ck.ck_epoch

(* The walk: the first [eligible] epoch of [epochs] (newest first) that
   passes its check, each rejected one added to [tried]. *)
let rec first_verified ~store ~full ~eligible tried = function
  | [] -> Error (No_valid_epoch (List.rev tried))
  | epoch :: rest when not (eligible epoch) -> first_verified ~store ~full ~eligible tried rest
  | epoch :: rest -> (
      match verify ~store ~epoch ~full with
      | Error reason ->
          if Otrace.is_on () then
            Otrace.instant ~cat:"restore" "fallback"
              ~args:[ ("epoch", Otrace.Int epoch); ("reason", Otrace.Str reason) ];
          first_verified ~store ~full ~eligible
            ({ at_epoch = epoch; at_reason = reason } :: tried)
            rest
      | Ok (manifest, shares) ->
          Ok
            {
              ck_store = store;
              ck_epoch = epoch;
              ck_manifest = manifest;
              ck_shares = shares;
              ck_tried = tried;
              ck_rest = rest;
            })

let newest_first store = List.rev (Store.checkpoint_epochs store)

let check_newest ~store ?(eligible = fun _ -> true) () =
  match newest_first store with
  | [] -> Error No_checkpoints
  | epochs -> first_verified ~store ~full:true ~eligible [] epochs

(* Rebuild from [checked], or else from the first of [epochs] that
   passes its check, going on through the older ones when a rebuild
   fails.  [restore_ns] counts from before any check. *)
let restore_from ~machine ~store ~lazy_pages ?group_oid ?checked epochs =
  let start = Clock.now machine.Machine.clock in
  let full = not lazy_pages in
  let rec go = function
    | Error _ as err -> err
    | Ok ck -> (
        let epoch = ck.ck_epoch in
        match rebuild ~machine ~store ~epoch ~lazy_pages ?group_oid ~start ck.ck_shares with
        | r ->
            Ok
              {
                vr_result = r;
                vr_epoch = epoch;
                vr_manifest = ck.ck_manifest;
                vr_skipped = List.rev ck.ck_tried;
              }
        | exception
            (( Serial.Malformed msg
             | Wire.Corrupt msg
             | Store.Corrupt_store msg
             | Fault.Io_error msg
             | Failure msg ) as _e) ->
            go
              (first_verified ~store ~full
                 ~eligible:(fun _ -> true)
                 ({ at_epoch = epoch; at_reason = "restore failed: " ^ msg } :: ck.ck_tried)
                 ck.ck_rest))
  in
  go
    (match checked with
    | None when epochs = [] -> Error No_checkpoints
    | None -> first_verified ~store ~full ~eligible:(fun _ -> true) [] epochs
    | Some ck when ck.ck_store != store ->
        invalid_arg "Restore.restore_verified: ~checked comes from another store"
    | Some ck -> Ok ck)

let restore_verified ~machine ~store ?(lazy_pages = false) ?group_oid ?checked () =
  restore_from ~machine ~store ~lazy_pages ?group_oid ?checked (newest_first store)

let restore ~machine ~store ?epoch ?(lazy_pages = false) ?group_oid () =
  let epochs = match epoch with Some e -> [ e ] | None -> newest_first store in
  match restore_from ~machine ~store ~lazy_pages ?group_oid epochs with
  | Ok v -> v.vr_result
  | Error e -> raise (Unrestorable e)
