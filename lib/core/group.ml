module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Genlog = Aurora_sim.Genlog
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
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
module Pmap = Aurora_vm.Pmap
module Page = Aurora_vm.Page
module Store = Aurora_objstore.Store
module Fs = Aurora_fs.Fs
module Otrace = Aurora_obs.Trace

(* Extra per-kind serialization costs beyond [Cost.obj_serialize_base],
   calibrated to Table 4. *)
let vnode_extra = 500
let pipe_extra = 500
let socket_extra = 600
let pty_ckpt_extra = 1_900
let shm_posix_extra = 500

(* One logical memory object: a stable store identity for a VM object whose
   top shadow rotates every checkpoint.  [logical] is the base that
   survives reverse collapses; [top] is where writes currently land;
   [frozen] is the previous epoch's dirty set being flushed.
   [unflushed] holds the indexes a memory-only cycle froze without
   flushing: once collapsed they sit in [logical], and the next persisted
   epoch stages them from there unless a newer frozen page supersedes
   them. *)
type memrec = {
  mo_oid : int;
  logical : Vm_object.t;
  mutable top : Vm_object.t;
  mutable frozen : Vm_object.t option;
  parent_oid : int option;
  mutable ever_flushed : bool;
  unflushed : (int, unit) Hashtbl.t;
}

type ckpt_stats = {
  stop_ns : int;
  quiesce_ns : int;
  collapse_ns : int;
  os_serialize_ns : int;
  mem_mark_ns : int;
  flush_ns : int;
  pages_flushed : int;
  pages_serialized : int;
  pages_deduped : int;
  bytes_written : int;
  epoch : int;
  durable_at : int;
  flush : Store.flush_stats option;
  objects_serialized : int;
  objects_skipped : int;
  meta_bytes_written : int;
  speculate_ns : int;
  validate_ns : int;
  conflict_objects : int;
  conflict_pages : int;
}

(* One object the group checkpoints: its store oid, the generation stamp
   of its last persisted image ([no_image] before the first), and the last
   walk that looked it up. *)
type ident = { oid : int; mutable gen : int; mutable last_walk : int }

let no_image = -1

(* The identity table's tag for processes, keyed by global pid: outside
   Genlog's kinds, so a process never shares a key with a kernel object. *)
let kind_proc = 0

(* What outlives a checkpoint. *)
type t = {
  mach : Machine.t;
  st : Store.t;
  filesystem : Fs.t option;
  mutable member_pids : int list; (* global pids *)
  period : int;
  mutable ext_sync : bool;
  grp_oid : int;
  ids : (int * int, ident) Hashtbl.t;
      (* (kind, kernel id) -> ident: every process ([kind_proc], global pid)
         and every kernel object (Genlog kind, kernel id) the group
         checkpoints, each named once *)
  mutable walks : int; (* cycles begun; a cycle's number stamps [last_walk] *)
  memrecs : (int, memrec) Hashtbl.t; (* logical object id -> memrec *)
  owners : (int, memrec) Hashtbl.t;
      (* id of a memrec's logical, top or frozen object -> memrec *)
  mutable named : (string * int) list;
  mutable last_epoch_committed : int;
  mutable last_ckpt_time : int;
  mutable speculative : bool; (* the group's default mode *)
}

(* What one checkpoint makes: [checkpoint_common] and [checkpoint_region]
   each create one, so nothing in it reaches the next cycle. *)
type cycle = {
  g : t;
  persist : bool; (* false during memory-only checkpoints *)
  full : bool; (* [~full:true]: no object is skipped *)
  walk : int; (* this cycle's number *)
  reached : (int, unit) Hashtbl.t;
      (* oids reached in the current pass: each object is serialized at
         most once per pass no matter how many references reach it — the
         POSIX-object-model property *)
  thunks : (int * int, unit -> unit) Hashtbl.t;
      (* (Genlog kind, kernel id) -> re-serialize closure recorded when the
         speculation window visited the object; the validator re-runs
         exactly the logged conflict set instead of re-walking the graph *)
  proc_gens : (int, int) Hashtbl.t;
      (* pid_global -> effective generation at the last speculation round *)
  spec_pages : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* mo_oid -> page indexes staged speculatively; the flush skips these *)
  mutable soft : bool; (* inside the soft serialize window *)
  mutable last_yield : int;
  mutable busy_ns : int; (* serialize CPU time on the spare core *)
  mutable serialized : int; (* OS objects serialized *)
  mutable skipped : int; (* OS objects dirty-checked and skipped *)
  mutable meta_bytes : int; (* serialized OS metadata staged *)
  mutable spec_base : int; (* [serialized] after the initial soft pass *)
  mutable conflict_pages : int; (* pages re-copied after the harvest *)
}

let attach ~machine ~store ?fs ?(period_ns = 10_000_000) ?group_oid procs =
  {
    mach = machine;
    st = store;
    filesystem = fs;
    member_pids = List.map (fun p -> p.Process.pid_global) procs;
    period = period_ns;
    ext_sync = true;
    grp_oid = (match group_oid with Some oid -> oid | None -> Store.alloc_oid store);
    ids = Hashtbl.create 128;
    walks = 0;
    memrecs = Hashtbl.create 64;
    owners = Hashtbl.create 64;
    named = [];
    last_epoch_committed = 0;
    last_ckpt_time = Clock.now machine.Machine.clock;
    speculative = false;
  }

let cycle g ~persist ~full =
  g.walks <- g.walks + 1;
  {
    g;
    persist;
    full;
    walk = g.walks;
    reached = Hashtbl.create 128;
    thunks = Hashtbl.create 64;
    proc_gens = Hashtbl.create 16;
    spec_pages = Hashtbl.create 16;
    soft = false;
    last_yield = 0;
    busy_ns = 0;
    serialized = 0;
    skipped = 0;
    meta_bytes = 0;
    spec_base = 0;
    conflict_pages = 0;
  }

let machine t = t.mach
let store t = t.st
let clock t = t.mach.Machine.clock
let period_ns t = t.period

let add_process t p =
  if not (List.mem p.Process.pid_global t.member_pids) then
    t.member_pids <- t.member_pids @ [ p.Process.pid_global ]

let detach_process t p =
  t.member_pids <- List.filter (fun pid -> pid <> p.Process.pid_global) t.member_pids

let set_ext_sync t v = t.ext_sync <- v
let set_speculative t v = t.speculative <- v
let group_oid t = t.grp_oid
let last_epoch t = t.last_epoch_committed

let name_checkpoint t name =
  t.named <- (name, t.last_epoch_committed) :: List.remove_assoc name t.named

let named_checkpoints t = t.named

(* Identities ---------------------------------------------------------------- *)

(* The ident of [key], made with a fresh oid the first time it is looked
   up; looking it up keeps it past this cycle's walk. *)
let ident c key =
  let e =
    match Hashtbl.find_opt c.g.ids key with
    | Some e -> e
    | None ->
        let e = { oid = Store.alloc_oid c.g.st; gen = no_image; last_walk = 0 } in
        Hashtbl.replace c.g.ids key e;
        e
  in
  e.last_walk <- c.walk;
  e

(* A walk names every object the group still reaches: forget the rest. *)
let forget_unreached c =
  Hashtbl.fold (fun key e acc -> if e.last_walk = c.walk then acc else key :: acc) c.g.ids []
  |> List.iter (Hashtbl.remove c.g.ids)

let seed_oids t oids =
  Hashtbl.iter (fun key oid -> Hashtbl.replace t.ids key { oid; gen = no_image; last_walk = 0 }) oids

let set_named t named = t.named <- named

(* Memory records ------------------------------------------------------------ *)

let owner t obj = Hashtbl.find_opt t.owners (Vm_object.id obj)
let own t r obj = Hashtbl.replace t.owners (Vm_object.id obj) r

let add_memrec t ~oid ~parent_oid ~ever_flushed obj =
  let r =
    {
      mo_oid = oid;
      logical = obj;
      top = obj;
      frozen = None;
      parent_oid;
      ever_flushed;
      unflushed = Hashtbl.create 0;
    }
  in
  Hashtbl.replace t.memrecs (Vm_object.id obj) r;
  own t r obj;
  r

(* The memrec of the chain rooted at [obj] (an entry's current object),
   made if none owns it.  Parents along the chain get their own records;
   the first ancestor a record owns becomes the parent link. *)
let rec ensure_memrec t obj =
  match owner t obj with
  | Some r -> r
  | None ->
      let parent_oid = Option.map (fun p -> (ensure_memrec t p).mo_oid) (Vm_object.parent obj) in
      add_memrec t ~oid:(Store.alloc_oid t.st) ~parent_oid ~ever_flushed:false obj

let register_restored_memobj t ~oid ~parent_oid obj =
  ignore (add_memrec t ~oid ~parent_oid ~ever_flushed:true obj)

(* Serialization of POSIX objects --------------------------------------------- *)

let charge c ns = Clock.advance (clock c.g) ns

(* Soft-quiesce yields -------------------------------------------------------

   During the speculation phase the serialize CPU is a spare core, not
   the application's: every [spec_yield_quantum] ns of accumulated
   serialize work we account that time to the spare core and open a
   concurrency window so the workload driver runs the threads forward.
   Mutations landing in such a window are exactly what the validator
   later re-copies. *)

let spec_yield_quantum = 50_000

(* Fold the serialize time since the last yield into the spare core's
   busy time. *)
let spec_account c =
  let now = Clock.now (clock c.g) in
  c.busy_ns <- c.busy_ns + (now - c.last_yield);
  c.last_yield <- now

let spec_maybe_yield c =
  if c.soft then begin
    let dt = Clock.now (clock c.g) - c.last_yield in
    if dt >= spec_yield_quantum then begin
      spec_account c;
      Machine.concurrent_window c.g.mach ~ns:dt;
      (* Whatever the hook ran was application time, not serialize time. *)
      c.last_yield <- Clock.now (clock c.g)
    end
  end

let put_obj c ~oid ~kind ~meta = if c.persist then Store.put_object c.g.st ~oid ~kind ~meta
let put_pgs c ~oid pages = if c.persist then Store.put_pages c.g.st ~oid pages

(* [once c oid f]: run [f] only the first time [oid] is reached this
   pass. *)
let once c oid f =
  if not (Hashtbl.mem c.reached oid) then begin
    Hashtbl.replace c.reached oid ();
    f ()
  end

(* The incremental OS-state pass.  An object whose generation stamp still
   matches its last persisted image is dirty-checked and skipped: no
   serialization charge, nothing staged — the store's epoch-composed read
   path resolves it from the prior epoch.  [children] always runs on the
   skip path: a clean composite can still reach dirty children (a process
   whose fd table is unchanged may hold a pipe that filled up), and the
   serialize path reaches them through [serialize] itself. *)
let ckpt_obj c (e : ident) ~gen ~children ~serialize =
  once c e.oid (fun () ->
      if (not c.full) && e.gen = gen then begin
        charge c Cost.ckpt_dirty_check;
        c.skipped <- c.skipped + 1;
        if Otrace.is_on () then
          Otrace.instant ~cat:"ckpt.obj" "skip" ~args:[ ("oid", Otrace.Int e.oid) ];
        children ()
      end
      else begin
        let kind, meta = serialize () in
        put_obj c ~oid:e.oid ~kind ~meta;
        if c.persist then begin
          e.gen <- gen;
          c.meta_bytes <- c.meta_bytes + String.length meta
        end;
        c.serialized <- c.serialized + 1;
        if Otrace.is_on () then
          Otrace.instant ~cat:"ckpt.obj" "serialize"
            ~args:
              [
                ("oid", Otrace.Int e.oid);
                ("kind", Otrace.Str kind);
                ("bytes", Otrace.Int (String.length meta));
              ];
        spec_maybe_yield c
      end)

(* A kernel object named by its Genlog [kind] and kernel [id]: inside the
   speculation window remember how to [revisit] it for the validator,
   then find its oid and checkpoint it. *)
let kernel_obj c ~kind ~id ~revisit ~gen ~children ~serialize =
  if c.soft then Hashtbl.replace c.thunks (kind, id) revisit;
  let e = ident c (kind, id) in
  ckpt_obj c e ~gen ~children ~serialize;
  e.oid

let rec checkpoint_pipe c pipe =
  kernel_obj c ~kind:Genlog.kind_pipe ~id:(Pipe.id pipe) ~gen:(Pipe.generation pipe)
    ~revisit:(fun () -> ignore (checkpoint_pipe c pipe))
    ~children:(fun () -> ())
    ~serialize:(fun () ->
      charge c (Cost.obj_serialize_base + pipe_extra);
      ( Serial.kind_pipe,
        Serial.pipe_to_string
          {
            Serial.i_data = Pipe.peek_all pipe;
            i_rd_open = Pipe.read_open pipe;
            i_wr_open = Pipe.write_open pipe;
          } ))

let rec checkpoint_kqueue c kq =
  kernel_obj c ~kind:Genlog.kind_kqueue ~id:(Kqueue.id kq) ~gen:(Kqueue.generation kq)
    ~revisit:(fun () -> ignore (checkpoint_kqueue c kq))
    ~children:(fun () -> ())
    ~serialize:(fun () ->
      charge c (Cost.obj_serialize_base + (Kqueue.event_count kq * Cost.kqueue_per_event));
      (Serial.kind_kqueue, Serial.kqueue_to_string (Kqueue.events kq)))

let rec checkpoint_pty c pty =
  kernel_obj c ~kind:Genlog.kind_pty ~id:(Pty.id pty) ~gen:(Pty.generation pty)
    ~revisit:(fun () -> ignore (checkpoint_pty c pty))
    ~children:(fun () -> ())
    ~serialize:(fun () ->
      charge c (Cost.obj_serialize_base + pty_ckpt_extra);
      let tio = Pty.termios pty in
      ( Serial.kind_pty,
        Serial.pty_to_string
          {
            Serial.i_unit = Pty.unit_number pty;
            i_echo = tio.Pty.echo;
            i_canonical = tio.Pty.canonical;
            i_baud = tio.Pty.baud;
            i_input = Pty.in_buffered pty;
            i_output = Pty.out_buffered pty;
          } ))

(* Sockets reference in-flight SCM_RIGHTS descriptions, so serializing one
   may recursively serialize descriptions not present in any fd table. *)
let rec checkpoint_socket c sock =
  let t = c.g in
  kernel_obj c ~kind:Genlog.kind_socket ~id:(Socket.id sock) ~gen:(Socket.generation sock)
    ~revisit:(fun () -> ignore (checkpoint_socket c sock))
    ~children:(fun () ->
      (* A clean socket's image still names its peer: keep the peer's
         ident, if it has one, without making one. *)
      Option.iter
        (fun p ->
          Option.iter
            (fun e -> e.last_walk <- c.walk)
            (Hashtbl.find_opt t.ids (Genlog.kind_socket, Socket.id p)))
        (Socket.peer sock);
      (* Even when the socket is clean its buffered SCM_RIGHTS descriptions
         may have mutated independently: visit them. *)
      List.iter
        (fun (m : Socket.msg) ->
          List.iter
            (fun desc_id ->
              match Machine.find_description t.mach desc_id with
              | Some d -> ignore (checkpoint_desc c d)
              | None -> ())
            m.Socket.ctl_fds)
        (Socket.recv_buffered sock @ Socket.send_buffered sock))
    ~serialize:(fun () ->
      let buffered_kib = (Socket.buffered_bytes sock + 1023) / 1024 in
      charge c
        (Cost.obj_serialize_base + socket_extra
        + (buffered_kib * Cost.socket_buffer_scan_per_kib));
      (* In the image a message names its descriptions by oid. *)
      let msg_image (m : Socket.msg) =
        {
          m with
          Socket.ctl_fds =
            List.filter_map
              (fun desc_id ->
                Option.map (checkpoint_desc c) (Machine.find_description t.mach desc_id))
              m.Socket.ctl_fds;
        }
      in
      let peer_oid =
        match Socket.peer sock with
        | None -> 0
        | Some p -> (ident c (Genlog.kind_socket, Socket.id p)).oid
      in
      (* The send queue's descriptions are reached before the receive
         queue's, which fixes the order their oids are allocated in. *)
      let im_sendq = List.map msg_image (Socket.send_buffered sock) in
      let im_recvq = List.map msg_image (Socket.recv_buffered sock) in
      ( Serial.kind_socket,
        Serial.socket_to_string
          {
            Serial.i_domain = Socket.domain sock;
            i_proto = Socket.proto sock;
            i_peer_oid = peer_oid;
            (* Listening sockets omit the accept queue (clients retry the
               SYN): nothing of the queue is serialized. *)
            i_state =
              {
                Socket.im_laddr = Socket.local_addr sock;
                im_raddr = Socket.remote_addr sock;
                im_opts = Socket.options sock;
                im_state = Socket.tcp_state sock;
                im_recvq;
                im_sendq;
              };
          } ))

and checkpoint_shm c shm =
  kernel_obj c ~kind:Genlog.kind_shm ~id:(Shm.id shm) ~gen:(Shm.generation shm)
    ~revisit:(fun () -> ignore (checkpoint_shm c shm))
    ~children:(fun () ->
      (* The backing rotates shadows every checkpoint (stable store oid):
         its memrec must exist for the mark phase even when the segment's
         own image is clean. *)
      ignore (ensure_memrec c.g (Shm.backing shm)))
    ~serialize:(fun () ->
      (match Shm.kind shm with
      | Shm.Posix_shm _ ->
          charge c (Cost.obj_serialize_base + Cost.shm_shadow_setup + shm_posix_extra)
      | Shm.Sysv_shm _ ->
          charge c
            (Cost.obj_serialize_base + Cost.shm_shadow_setup + shm_posix_extra
            + Cost.sysv_namespace_scan));
      let backing = ensure_memrec c.g (Shm.backing shm) in
      ( Serial.kind_shm,
        Serial.shm_to_string
          {
            Serial.i_shm_kind = Shm.kind shm;
            i_npages = Shm.npages shm;
            i_backing_oid = backing.mo_oid;
          } ))

and checkpoint_vnode_ref c vn =
  (* Vnodes are referenced by inode number: no path lookups in the stop
     window (the Figure 3 / section 5.2 optimization). *)
  charge c (Cost.obj_serialize_base + vnode_extra);
  match c.g.filesystem with
  | Some filesystem -> (
      match Fs.oid_of_inode filesystem (Vnode.inode vn) with
      | Some oid -> oid
      | None -> 0 (* flushed later in this same checkpoint by the FS *))
  | None -> 0

and checkpoint_desc c (d : Fdesc.t) =
  kernel_obj c ~kind:Genlog.kind_fdesc ~id:d.Fdesc.desc_id ~gen:(Fdesc.generation d)
    ~revisit:(fun () -> ignore (checkpoint_desc c d))
    ~children:(fun () ->
      (* A clean description can still point at a dirty object: descend. *)
      match d.Fdesc.kind with
      | Fdesc.Vnode_file _ | Fdesc.Device_fd _ -> ()
      | Fdesc.Pipe_read p | Fdesc.Pipe_write p -> ignore (checkpoint_pipe c p)
      | Fdesc.Socket_fd s -> ignore (checkpoint_socket c s)
      | Fdesc.Kqueue_fd k -> ignore (checkpoint_kqueue c k)
      | Fdesc.Pty_master_fd p | Fdesc.Pty_slave_fd p ->
          ignore (checkpoint_pty c p)
      | Fdesc.Shm_fd s -> ignore (checkpoint_shm c s))
    ~serialize:(fun () ->
      let kind_image =
        match d.Fdesc.kind with
        | Fdesc.Vnode_file { vn; offset; append } ->
            ignore (checkpoint_vnode_ref c vn);
            Serial.I_vnode { inode = Vnode.inode vn; offset; append }
        | Fdesc.Pipe_read p -> Serial.I_pipe_r (checkpoint_pipe c p)
        | Fdesc.Pipe_write p -> Serial.I_pipe_w (checkpoint_pipe c p)
        | Fdesc.Socket_fd s -> Serial.I_socket (checkpoint_socket c s)
        | Fdesc.Kqueue_fd k -> Serial.I_kqueue (checkpoint_kqueue c k)
        | Fdesc.Pty_master_fd p -> Serial.I_pty_m (checkpoint_pty c p)
        | Fdesc.Pty_slave_fd p -> Serial.I_pty_s (checkpoint_pty c p)
        | Fdesc.Shm_fd s -> Serial.I_shm (checkpoint_shm c s)
        | Fdesc.Device_fd name -> Serial.I_device name
      in
      ( Serial.kind_fdesc,
        Serial.fdesc_to_string
          { Serial.i_kind = kind_image; i_ext_sync = d.Fdesc.ext_sync } ))

let entry_image c (e : Vm_map.entry) =
  charge c Cost.vm_entry_serialize;
  let obj_oid =
    match Vm_object.kind e.Vm_map.obj with
    | Vm_object.Device_backed _ -> 0
    | Vm_object.Vnode_backed inode -> (
        match c.g.filesystem with
        | Some filesystem ->
            Option.value ~default:0 (Fs.oid_of_inode filesystem inode)
        | None -> 0)
    | Vm_object.Anonymous -> (ensure_memrec c.g e.Vm_map.obj).mo_oid
  in
  {
    Serial.i_start_vpn = e.Vm_map.start_vpn;
    i_npages = e.Vm_map.npages;
    i_prot = e.Vm_map.prot;
    i_shared = e.Vm_map.shared;
    i_excluded = e.Vm_map.excluded;
    i_obj_oid = obj_oid;
    i_obj_pgoff = e.Vm_map.obj_pgoff;
  }

let proc_ident c (p : Process.t) = ident c (kind_proc, p.Process.pid_global)

let checkpoint_proc c (p : Process.t) =
  let t = c.g in
  let e = proc_ident c p in
  (* The process image folds in thread CPU state and the vm layout, so the
     stamp compared is the composite one.  In-flight AIO reads are part of
     the image too, but every AIO transition touches the owner process. *)
  ckpt_obj c e ~gen:(Process.effective_generation p)
    ~children:(fun () ->
      List.iter (fun (_, d) -> ignore (checkpoint_desc c d)) (Process.fds p);
      (* Anonymous mappings need their memrecs live for the mark phase even
         when the layout (and so the image) is unchanged. *)
      List.iter
        (fun (e : Vm_map.entry) ->
          if not e.Vm_map.excluded then
            match Vm_object.kind e.Vm_map.obj with
            | Vm_object.Anonymous -> ignore (ensure_memrec t e.Vm_map.obj)
            | Vm_object.Vnode_backed _ | Vm_object.Device_backed _ -> ())
        (Vm_map.entries (Vm_space.map p.Process.space)))
    ~serialize:(fun () ->
      charge c Cost.proc_serialize;
      List.iter
        (fun _thr -> charge c (Cost.thread_serialize + Cost.cpu_state_copy))
        p.Process.threads;
      let fds =
        List.map (fun (slot, d) -> (slot, checkpoint_desc c d)) (Process.fds p)
      in
      let entries =
        List.filter_map
          (fun (e : Vm_map.entry) ->
            if e.Vm_map.excluded then None else Some (entry_image c e))
          (Vm_map.entries (Vm_space.map p.Process.space))
      in
      let ppid_local =
        match Machine.proc t.mach p.Process.ppid with
        | Some parent -> parent.Process.pid_local
        | None -> 0
      in
      let aio_reads =
        List.filter_map
          (fun (a : Aurora_kern.Aio.t) ->
            match a.Aurora_kern.Aio.aio_op with
            | Aurora_kern.Aio.Aio_read ->
                Some (a.Aurora_kern.Aio.aio_slot, a.Aurora_kern.Aio.aio_off, a.Aurora_kern.Aio.aio_len)
            | Aurora_kern.Aio.Aio_write -> None)
          (Aurora_kern.Syscall.aio_pending t.mach p)
      in
      let image =
        {
          Serial.i_pid_local = p.Process.pid_local;
          i_ppid_local = ppid_local;
          i_pgid = p.Process.pgid;
          i_sid = p.Process.sid;
          i_name = p.Process.name;
          i_ephemeral = p.Process.ephemeral;
          i_cwd = p.Process.cwd;
          i_threads = p.Process.threads;
          i_fds = fds;
          i_entries = entries;
          i_proc_pending = p.Process.pending_signals;
          i_aio_reads = aio_reads;
        }
      in
      (Serial.kind_proc, Serial.proc_to_string image))

(* System shadowing ------------------------------------------------------------- *)

(* Re-point every object that shadowed [old_parent] (fork children created
   since the last checkpoint) at [survivor]. *)
let repoint_children t ~old_parent ~survivor =
  let fix obj =
    match Vm_object.parent obj with
    | Some p when p == old_parent -> Vm_object.set_parent obj (Some survivor)
    | Some _ | None -> ()
  in
  Hashtbl.iter
    (fun _ r ->
      fix r.logical;
      fix r.top;
      match r.frozen with Some f -> fix f | None -> ())
    t.memrecs

(* Collapse the flushed frozen shadow of [r] into its parent. *)
let collapse_frozen t r =
  match r.frozen with
  | None -> ()
  | Some f when f == r.logical ->
      (* First epoch: the logical object itself was "frozen" for the full
         flush; nothing to merge. *)
      r.frozen <- None
  | Some f ->
      let survivor =
        Vm_object.collapse ~clock:(clock t) ~direction:Vm_object.Aurora_reverse f
      in
      repoint_children t ~old_parent:f ~survivor;
      Hashtbl.remove t.owners (Vm_object.id f);
      (* An inactive chain was frozen in place (top == frozen): the
         survivor takes over as the resting top. *)
      if r.top == f then begin
        own t r survivor;
        r.top <- survivor
      end;
      r.frozen <- None

(* Interpose a fresh shadow above [r.top]; all spaces in the group that map
   the old top are re-pointed, dirty PTEs are downgraded (charged), and
   shm backmaps swing to the new shadow. *)
let interpose_shadow t spaces r =
  let old_top = r.top in
  let fresh = Vm_object.shadow ~clock:(clock t) old_top in
  List.iter
    (fun space -> ignore (Vm_space.replace_object space ~old_obj:old_top ~new_obj:fresh))
    spaces;
  Hashtbl.iter
    (fun _ shm ->
      if Shm.backing shm == old_top then Shm.set_backing shm fresh)
    t.mach.Machine.posix_shm;
  Hashtbl.iter
    (fun _ shm ->
      if Shm.backing shm == old_top then Shm.set_backing shm fresh)
    t.mach.Machine.sysv_shm;
  own t r fresh;
  r.frozen <- Some old_top;
  r.top <- fresh

(* Flush ---------------------------------------------------------------------------- *)

(* Stage what the store lacks of [r] and count its distinct indexes.
   Older pages go first: the whole logical base on a first flush (which
   also stages the memobj image), else the indexes a memory-only cycle
   left unflushed; none at an index the frozen shadow holds.  Then the
   frozen shadow's pages, unless speculation staged them already: the
   harvest and the conflict splices hold every one of them. *)
let stage c r =
  let held idx =
    match r.frozen with Some f -> Vm_object.find_local f idx <> None | None -> false
  in
  let older = ref [] in
  let add idx page = if not (held idx) then older := (idx, Page.blit_payload page) :: !older in
  if r.ever_flushed then
    Hashtbl.iter
      (fun idx () -> Option.iter (add idx) (Vm_object.find_local r.logical idx))
      r.unflushed
  else begin
    Vm_object.iter_local r.logical add;
    put_obj c ~oid:r.mo_oid ~kind:Serial.kind_memobj
      ~meta:(Serial.memobj_to_string { Serial.i_parent_oid = r.parent_oid; i_anon = true });
    r.ever_flushed <- true
  end;
  Hashtbl.reset r.unflushed;
  if !older <> [] then put_pgs c ~oid:r.mo_oid !older;
  let newer =
    match (r.frozen, Hashtbl.find_opt c.spec_pages r.mo_oid) with
    | None, _ -> 0
    | Some _, Some staged -> Hashtbl.length staged
    | Some f, None ->
        let pages = ref [] in
        Vm_object.iter_local f (fun idx page -> pages := (idx, Page.blit_payload page) :: !pages);
        if !pages <> [] then put_pgs c ~oid:r.mo_oid !pages;
        List.length !pages
  in
  List.length !older + newer

(* A memory-only cycle flushes nothing: note what its frozen shadows hold
   so the next persisted epoch stages it.  A never-flushed memrec needs no
   note, as its first flush stages the whole logical object. *)
let note_unflushed r =
  match r.frozen with
  | Some f when r.ever_flushed ->
      Vm_object.iter_local f (fun idx _ -> Hashtbl.replace r.unflushed idx ())
  | Some _ | None -> ()

(* The memrecs to shadow this cycle: every object currently mapped by a
   member space, deduplicated by store oid with an int-keyed table (shared
   objects appear once per mapping space; no polymorphic compares on the
   stop path).  Anonymous objects get their memrec created here if the
   OS-state pass skipped their owning process before it ever serialized
   them. *)
let mark_targets t spaces =
  let seen_oids = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun space ->
      List.iter
        (fun obj ->
          (* [unique_objects] yields only shadowable objects (writable,
             anonymous, non-excluded), so each deserves a memrec even if
             the OS-state pass never serialized its owning process. *)
          let r = ensure_memrec t obj in
          if not (Hashtbl.mem seen_oids r.mo_oid) then begin
            Hashtbl.replace seen_oids r.mo_oid ();
            out := r :: !out
          end)
        (Vm_space.unique_objects space))
    spaces;
  List.rev !out

(* The checkpoint cycle --------------------------------------------------------------- *)

let live_members t =
  List.filter
    (fun p -> p.Process.proc_state = Process.Alive)
    (List.filter_map (Machine.proc t.mach) t.member_pids)

let persistent_members t =
  List.filter (fun p -> not p.Process.ephemeral) (live_members t)

(* Harvest the MMU dirty bits of file-backed mappings into the vnodes'
   dirty sets: stores through memory persist exactly like write(2)s
   (files and memory are one in the object store, section 5.2). *)
let harvest_file_dirty t procs =
  match t.filesystem with
  | None -> ()
  | Some filesystem ->
      List.iter
        (fun p ->
          let space = p.Process.space in
          List.iter
            (fun (e : Vm_map.entry) ->
              match Vm_object.kind e.Vm_map.obj with
              | Vm_object.Vnode_backed inode -> (
                  match Fs.vnode_by_inode filesystem inode with
                  | Some vn ->
                      Pmap.iter (Vm_space.pmap space) (fun vpn pte ->
                          if
                            pte.Pmap.dirty
                            && vpn >= e.Vm_map.start_vpn
                            && vpn < e.Vm_map.start_vpn + e.Vm_map.npages
                          then begin
                            Vnode.mark_dirty vn
                              (vpn - e.Vm_map.start_vpn + e.Vm_map.obj_pgoff);
                            pte.Pmap.dirty <- false
                          end)
                  | None -> ())
              | Vm_object.Anonymous | Vm_object.Device_backed _ -> ())
            (Vm_map.entries (Vm_space.map space)))
        procs

(* The group object references the members' process images; staged every
   flushed cycle (no generation stamp: it is tiny and always current). *)
let stage_group_obj c ~proc_oids =
  let t = c.g in
  let ephemeral_parents =
    List.filter_map
      (fun p ->
        if p.Process.ephemeral then
          match Machine.proc t.mach p.Process.ppid with
          | Some parent -> Some parent.Process.pid_local
          | None -> None
        else None)
      (live_members t)
    |> List.sort_uniq compare
  in
  put_obj c ~oid:t.grp_oid ~kind:Serial.kind_group
    ~meta:
      (Serial.group_to_string
         {
           Serial.i_proc_oids = proc_oids;
           i_period = t.period;
           i_ext_sync_on = t.ext_sync;
           i_name_ckpts = t.named;
           i_ephemeral_parents = ephemeral_parents;
         })

(* Speculative soft-quiesce ---------------------------------------------------

   The expensive OS-object serialize runs on a spare core while the
   workload keeps executing in concurrency windows; generation stamps,
   the Genlog mutation log and the pmap's speculative dirty-bit plane
   record what changed underneath it.  Pre-stop refinement rounds chase
   the conflict set down while still soft; the short validation pass
   inside the stop window then re-copies only what moved since and
   splices it over the staged image (the store's staging layer replaces
   rows in place, so the newest copy wins).  Stop-the-world is the same
   pipeline with a zero-length window (see [validate]). *)

let spec_max_rounds = 4
let spec_converged = 2 (* refine again only above this many conflicts *)

(* Harvest every local page of an ever-flushed memrec's writable top into
   the staged image.  Never-flushed memrecs keep the normal first-flush
   path: their base-merge logic stays in [stage]. *)
let spec_harvest_memrec c r =
  if r.ever_flushed then begin
    let set = Hashtbl.create 32 in
    let pages = ref [] in
    Vm_object.iter_local r.top (fun idx page ->
        Hashtbl.replace set idx ();
        pages := (idx, Page.blit_payload page) :: !pages);
    if !pages <> [] then put_pgs c ~oid:r.mo_oid !pages;
    Hashtbl.replace c.spec_pages r.mo_oid set
  end

(* Drain the speculative dirty plane and re-stage the conflict pages.
   Only sound while the address-space structure is unchanged; after a
   fork or unmap the caller discards the speculative staging instead
   ([stage]'s normal path then rewrites every row with stop-time
   content). *)
let spec_splice_pages c spaces =
  let count = ref 0 in
  List.iter
    (fun space ->
      List.iter
        (fun vpn ->
          match Vm_map.find (Vm_space.map space) vpn with
          | Some e when not e.Vm_map.excluded -> (
              match owner c.g e.Vm_map.obj with
              | Some r when Hashtbl.mem c.spec_pages r.mo_oid -> (
                  let idx = vpn - e.Vm_map.start_vpn + e.Vm_map.obj_pgoff in
                  match Vm_object.find_local e.Vm_map.obj idx with
                  | Some page ->
                      charge c Cost.page_copy;
                      put_pgs c ~oid:r.mo_oid [ (idx, Page.blit_payload page) ];
                      Hashtbl.replace (Hashtbl.find c.spec_pages r.mo_oid) idx ();
                      incr count
                  | None -> ())
              | Some _ | None -> ())
          | Some _ | None -> ())
        (Vm_space.spec_drain space))
    spaces;
  c.conflict_pages <- c.conflict_pages + !count;
  !count

(* One conflict-chasing pass over the OS objects: processes whose
   composite stamp moved since their last visit, the logged kernel-object
   mutations, and shared-memory segments the soft pass did not visit.
   Work is proportional to the mutation count, not the object count —
   clean objects cost one dirty-check for procs and nothing at all
   otherwise.  Each pass reaches an object at most once. *)
let spec_refine_round c procs =
  Hashtbl.reset c.reached;
  let s0 = c.serialized in
  List.iter
    (fun p ->
      let g = Process.effective_generation p in
      if Hashtbl.find_opt c.proc_gens p.Process.pid_global <> Some g then begin
        checkpoint_proc c p;
        Hashtbl.replace c.proc_gens p.Process.pid_global g
      end
      else charge c Cost.ckpt_dirty_check)
    procs;
  List.iter
    (fun key -> Option.iter (fun thunk -> thunk ()) (Hashtbl.find_opt c.thunks key))
    (Genlog.drain ());
  (* Shared-memory segments live in global namespaces, not fd tables: the
     System V namespace is scanned every checkpoint (its Table 4 cost),
     and named POSIX segments are persisted even when no descriptor is
     currently open.  A segment with a thunk is already covered by the
     mutation log; one created mid-window has none. *)
  let scan _ shm =
    if not (Hashtbl.mem c.thunks (Genlog.kind_shm, Shm.id shm)) then
      ignore (checkpoint_shm c shm)
  in
  Hashtbl.iter scan c.g.mach.Machine.sysv_shm;
  Hashtbl.iter scan c.g.mach.Machine.posix_shm;
  c.serialized - s0

(* The soft window: serialize and harvest concurrently with execution,
   then refine until the conflict set converges (or give up and let the
   stop window drain the rest).  File-backed state and the group object
   are left to [validate]: they must be captured at the stop. *)
let speculate c procs spaces =
  let t = c.g in
  List.iter Vm_space.spec_begin spaces;
  Genlog.arm ();
  c.soft <- true;
  c.last_yield <- Clock.now (clock t);
  List.iter
    (fun p ->
      Hashtbl.replace c.proc_gens p.Process.pid_global (Process.effective_generation p))
    procs;
  Otrace.with_span ~cat:"ckpt" ~name:"speculate.serialize" (fun () ->
      List.iter (checkpoint_proc c) procs;
      Hashtbl.iter (fun _ shm -> ignore (checkpoint_shm c shm)) t.mach.Machine.sysv_shm;
      Hashtbl.iter (fun _ shm -> ignore (checkpoint_shm c shm)) t.mach.Machine.posix_shm;
      spec_account c);
  Otrace.with_span ~cat:"ckpt" ~name:"speculate.harvest" (fun () ->
      List.iter
        (fun r ->
          spec_harvest_memrec c r;
          spec_maybe_yield c)
        (mark_targets t spaces);
      spec_account c);
  c.spec_base <- c.serialized;
  let rec refine round =
    if round < spec_max_rounds then begin
      let conflicts =
        Otrace.with_span ~cat:"ckpt" ~name:"speculate.round" (fun () ->
            let objs = spec_refine_round c procs in
            let pgs =
              if List.exists Vm_space.spec_structural spaces then 0
              else spec_splice_pages c spaces
            in
            spec_account c;
            objs + pgs)
      in
      if conflicts > spec_converged then refine (round + 1)
    end
  in
  refine 0;
  c.soft <- false

(* The OS-state pass inside every stop window: capture file-backed state
   (never speculated), drain the last conflicts, splice the final page
   set, and restage the group object from stop-time membership.  After a
   zero-length window (stop-the-world) the generation snapshot and the
   thunk table are empty, so the pass serializes every member process
   and every shm segment — still through [ckpt_obj]'s incremental skip —
   and no page was staged to splice over.  On a structural change
   (fork/unmap mid-window) the speculative page staging is discarded
   wholesale: [stage]'s normal path rewrites every row from the frozen
   shadows with stop-time content, exactly as stop-the-world would have.
   The cycle has now looked up every object the group reaches; the
   identities of the rest are forgotten. *)
let validate c procs spaces =
  let t = c.g in
  harvest_file_dirty t procs;
  (match t.filesystem with
  | Some filesystem when c.persist -> Fs.flush_to_store filesystem
  | Some _ | None -> ());
  ignore (spec_refine_round c procs : int);
  if Hashtbl.length c.spec_pages > 0 then
    if List.exists Vm_space.spec_structural spaces then Hashtbl.reset c.spec_pages
    else ignore (spec_splice_pages c spaces : int);
  if c.persist then stage_group_obj c ~proc_oids:(List.map (fun p -> (proc_ident c p).oid) procs);
  forget_unreached c;
  List.iter Vm_space.spec_end spaces;
  Genlog.disarm ()

(* A checkpoint's stats with only the store half filled in, read off the
   one [Store.flush_stats] of its commit; zero when it did not flush. *)
let store_half t ~flush =
  let f = if flush then Some (Store.flush_stats t.st) else None in
  let n g = Option.fold ~none:0 ~some:g f in
  { stop_ns = 0; quiesce_ns = 0; collapse_ns = 0; os_serialize_ns = 0; mem_mark_ns = 0;
    flush_ns = 0; pages_flushed = 0;
    pages_serialized = n (fun f -> f.fs_pages - f.fs_pages_deduped);
    pages_deduped = n (fun f -> f.fs_pages_deduped);
    bytes_written = n (fun f -> f.fs_bytes_written);
    epoch = 0; durable_at = 0; flush = f; objects_serialized = 0; objects_skipped = 0;
    meta_bytes_written = 0; speculate_ns = 0; validate_ns = 0; conflict_objects = 0;
    conflict_pages = 0 }

let checkpoint_common t ~flush ~full ~speculative =
  let clk = clock t in
  (* The previous checkpoint must be durable before we start another
     (section 7: "Aurora waits for a checkpoint to fully persist before
     initiating another one"). *)
  if flush then Store.wait_durable t.st;
  (* Everything this cycle makes lives in [c]: a generation snapshot left
     from an earlier cycle would let [validate] skip a clean process
     together with its dirty children. *)
  let c = cycle t ~persist:flush ~full in
  (* Speculation needs generation stamps to carry meaning (incremental)
     and a staged image to splice over (flushed); any other cycle runs a
     zero-length window. *)
  let spec = speculative && flush && not full in
  let epoch = if flush then Store.begin_checkpoint t.st else Store.last_complete_epoch t.st in
  (* The epoch span covers the synchronous work of the cycle: the
     collapse and the speculation window (phases 1-2, concurrent with
     execution), the stop window (phases 3-6) and the flush submission
     (phase 7).  Every clock advance below happens inside one of the
     phase sub-spans, so the children's virtual durations sum exactly to
     the epoch's. *)
  Otrace.with_span ~cat:"ckpt" ~name:"epoch"
    ~args:[ ("epoch", Otrace.Int epoch); ("flush", Otrace.Int (Bool.to_int flush)) ]
  @@ fun () ->
  (* 1. Collapse the previous epoch's frozen shadows into their parents.
     Their epoch is durable by now (waited for above) or, after a
     memory-only cycle, noted in [unflushed]; nothing here needs the
     application stopped, so it stays out of the stop window. *)
  let collapse_begin = Clock.now clk in
  Otrace.with_span ~cat:"ckpt" ~name:"collapse" (fun () ->
      Hashtbl.iter (fun _ r -> collapse_frozen t r) t.memrecs);
  let collapse_ns = Clock.elapsed_since clk collapse_begin in
  (* 2. Speculate: soft serialize + harvest, concurrently with execution
     (zero-length unless [spec]). *)
  let spec_t0 = Clock.now clk in
  if spec then begin
    let procs = persistent_members t in
    let spaces = List.map (fun p -> p.Process.space) procs in
    Otrace.with_span ~cat:"ckpt" ~name:"speculate" (fun () -> speculate c procs spaces)
  end;
  let speculate_ns = Clock.elapsed_since clk spec_t0 in
  (* Membership is re-read at the stop: the soft window may have forked
     or exited processes while the workload ran. *)
  let procs = persistent_members t in
  let spaces = List.map (fun p -> p.Process.space) procs in
  let stop_begin = Clock.now clk in
  (* 3. Quiesce. *)
  let quiesce_begin = Clock.now clk in
  Otrace.with_span ~cat:"ckpt" ~name:"quiesce" (fun () ->
      Machine.quiesce t.mach procs;
      charge c Cost.orchestrator_barrier);
  let quiesce_ns = Clock.elapsed_since clk quiesce_begin in
  (* 4. Validate the staged image against what moved during the window.
     After a zero-length window this serializes the OS state (each POSIX
     object into its own store object), so the span keeps that name. *)
  let os_begin = Clock.now clk in
  Otrace.with_span ~cat:"ckpt" ~name:(if spec then "validate" else "serialize") (fun () ->
      validate c procs spaces);
  let os_ns = Clock.elapsed_since clk os_begin in
  let validate_ns = if spec then os_ns else 0 in
  (* 5. System shadowing: freeze the dirty sets, one shadow per writable
     object across the whole group. *)
  let mark_begin = Clock.now clk in
  Otrace.with_span ~cat:"ckpt" ~name:"shadow" (fun () ->
      let to_shadow = mark_targets t spaces in
      List.iter (fun r -> interpose_shadow t spaces r) to_shadow;
      (* Chains no mapping writes anymore (e.g. a shadow that became a fork
         backing mid-epoch) still hold unflushed dirty pages: freeze their
         immutable top in place so the flush below persists it.  Every active
         object was just interposed (frozen set), so what remains with a bare
         shadow top is exactly the inactive set. *)
      Hashtbl.iter
        (fun _ r ->
          if r.frozen = None && r.top != r.logical then r.frozen <- Some r.top)
        t.memrecs;
      charge c Cost.tlb_shootdown;
      charge c Cost.async_flush_setup);
  let mark_ns = Clock.elapsed_since clk mark_begin in
  (* 6. Resume: end of the stop window. *)
  Otrace.with_span ~cat:"ckpt" ~name:"resume" (fun () ->
      Machine.resume t.mach procs);
  let stop_ns = Clock.elapsed_since clk stop_begin in
  (* 7. Flush concurrently with execution. *)
  let flush_begin = Clock.now clk in
  let pages_flushed =
    if flush then begin
      Otrace.with_span ~cat:"ckpt" ~name:"flush" @@ fun () ->
      (* Frozen shadows first, then the records that rest: read-only
         ancestors and chains gone inactive. *)
      let stage_where name keep =
        Otrace.with_span ~cat:"ckpt" ~name (fun () ->
            Hashtbl.fold (fun _ r acc -> if keep r then acc + stage c r else acc) t.memrecs 0)
      in
      let frozen_pages = stage_where "flush.frozen" (fun r -> Option.is_some r.frozen) in
      let static_pages = stage_where "flush.static" (fun r -> Option.is_none r.frozen) in
      charge c Cost.ckpt_record_write;
      Otrace.with_span ~cat:"ckpt" ~name:"commit" (fun () ->
          ignore (Store.commit_checkpoint t.st));
      t.last_epoch_committed <- epoch;
      frozen_pages + static_pages
    end
    else begin
      Hashtbl.iter (fun _ r -> note_unflushed r) t.memrecs;
      0
    end
  in
  let flush_ns = Clock.elapsed_since clk flush_begin in
  (* In-flight asynchronous writes belong to this checkpoint: it is not
     complete until they are incorporated (section 5.3).  The per-pid AIO
     index makes this a walk over the members' own requests instead of a
     scan of the machine-wide table. *)
  let aio_write_done =
    List.fold_left
      (fun acc pid ->
        List.fold_left
          (fun acc (a : Aurora_kern.Aio.t) ->
            if a.Aurora_kern.Aio.aio_op = Aurora_kern.Aio.Aio_write then
              max acc a.Aurora_kern.Aio.done_at
            else acc)
          acc
          (Machine.aios_of_pid t.mach pid))
      0 t.member_pids
  in
  t.last_ckpt_time <- Clock.now clk;
  let durable_at =
    if flush then max (Store.durable_at t.st) aio_write_done else Clock.now clk
  in
  (* Under speculation the serialize CPU ran on the spare core: report
     its busy time, not the (tiny) validate elapsed. *)
  let serialize_ns = if spec then c.busy_ns else os_ns in
  {
    (store_half t ~flush) with
    stop_ns;
    quiesce_ns;
    collapse_ns;
    os_serialize_ns = serialize_ns;
    mem_mark_ns = mark_ns;
    flush_ns;
    pages_flushed;
    epoch;
    durable_at;
    objects_serialized = c.serialized;
    objects_skipped = c.skipped;
    meta_bytes_written = c.meta_bytes;
    speculate_ns;
    validate_ns;
    conflict_objects = (if spec then c.serialized - c.spec_base else 0);
    conflict_pages = c.conflict_pages;
  }

(* After a restore, entries point directly at the restored logical
   objects.  Interpose clean shadows so that post-restore writes are
   tracked and the next checkpoint stays incremental. *)
let prepare_after_restore t =
  let spaces = List.map (fun p -> p.Process.space) (persistent_members t) in
  let to_shadow = mark_targets t spaces in
  List.iter
    (fun r ->
      interpose_shadow t spaces r;
      (* The "frozen" old top is the fully-flushed restored object: there
         is nothing to write for it. *)
      r.frozen <- None)
    to_shadow

let checkpoint_region t (entry : Vm_map.entry) =
  let clk = clock t in
  Store.wait_durable t.st;
  let c = cycle t ~persist:true ~full:false in
  let epoch = Store.begin_checkpoint t.st in
  Otrace.with_span ~cat:"ckpt" ~name:"region" ~args:[ ("epoch", Otrace.Int epoch) ]
  @@ fun () ->
  let r = ensure_memrec t entry.Vm_map.obj in
  (* As in [checkpoint_common]: the previous epoch is durable, so its
     frozen shadow collapses before the timed window opens. *)
  let collapse_begin = Clock.now clk in
  Otrace.with_span ~cat:"ckpt" ~name:"collapse" (fun () -> collapse_frozen t r);
  let collapse_ns = Clock.elapsed_since clk collapse_begin in
  let stop_begin = Clock.now clk in
  charge c Cost.syscall_overhead;
  let spaces = List.map (fun p -> p.Process.space) (persistent_members t) in
  interpose_shadow t spaces r;
  charge c Cost.async_flush_setup;
  let mark_ns = Clock.elapsed_since clk stop_begin in
  let pages = stage c r in
  charge c Cost.ckpt_record_write;
  ignore (Store.commit_checkpoint t.st);
  t.last_epoch_committed <- epoch;
  let stop_ns = Clock.elapsed_since clk stop_begin in
  {
    (store_half t ~flush:true) with
    stop_ns;
    collapse_ns;
    mem_mark_ns = mark_ns;
    flush_ns = stop_ns - mark_ns;
    pages_flushed = pages;
    epoch;
    durable_at = Store.durable_at t.st;
  }

(* Memory overcommitment: the unified zero-copy swap path. ------------------ *)

let pager_for t oid =
  fun idx ->
    let epoch = Store.last_complete_epoch t.st in
    if epoch = 0 then [] else Store.read_cluster t.st ~epoch ~oid ~idx

let install_pagers t =
  Hashtbl.iter
    (fun _ r ->
      if r.ever_flushed then Vm_object.set_pager r.logical (Some (pager_for t r.mo_oid)))
    t.memrecs

let evict_clean_pages t ~target =
  (* Only durably checkpointed pages are clean. *)
  Store.wait_durable t.st;
  install_pagers t;
  (* madvise hints: regions marked evict-first are preferred victims. *)
  let preferred = Hashtbl.create 16 in
  List.iter
    (fun p ->
      List.iter
        (fun (e : Vm_map.entry) ->
          if e.Vm_map.evict_first then
            match owner t e.Vm_map.obj with
            | Some r -> Hashtbl.replace preferred r.mo_oid ()
            | None -> ())
        (Vm_map.entries (Vm_space.map p.Process.space)))
    (persistent_members t);
  let evicted = ref 0 in
  let evict_from r =
    if r.ever_flushed && !evicted < target then begin
      (* Pages resident in the logical object sit below the current top
         shadow: their content is exactly what the last complete
         checkpoint holds, except the ones a memory-only cycle left
         unflushed. *)
      let victims = ref [] in
      Vm_object.iter_local r.logical (fun idx _ ->
          if !evicted + List.length !victims < target && not (Hashtbl.mem r.unflushed idx)
          then victims := idx :: !victims);
      List.iter (fun idx -> Vm_object.remove_page r.logical idx) !victims;
      evicted := !evicted + List.length !victims
    end
  in
  Hashtbl.iter (fun _ r -> if Hashtbl.mem preferred r.mo_oid then evict_from r) t.memrecs;
  Hashtbl.iter
    (fun _ r -> if not (Hashtbl.mem preferred r.mo_oid) then evict_from r)
    t.memrecs;
  !evicted

let resident_group_pages t =
  List.fold_left
    (fun acc p -> acc + Vm_space.resident_pages p.Process.space)
    0 (persistent_members t)

let checkpoint ?(wait_durable = false) ?(full = false) t =
  let stats = checkpoint_common t ~flush:true ~full ~speculative:t.speculative in
  if wait_durable then Store.wait_durable t.st;
  stats

let checkpoint_mem_only t =
  checkpoint_common t ~flush:false ~full:false ~speculative:false

let suspend t =
  let stats = checkpoint ~wait_durable:true t in
  List.iter
    (fun p -> Machine.remove_proc t.mach p.Process.pid_global)
    (live_members t);
  stats.epoch

let run_for t duration =
  let clk = clock t in
  let deadline = Clock.now clk + duration in
  let rec loop () =
    let next = t.last_ckpt_time + t.period in
    if next <= deadline then begin
      Clock.advance_to clk next;
      ignore (checkpoint t);
      loop ()
    end
    else Clock.advance_to clk deadline
  in
  loop ()
