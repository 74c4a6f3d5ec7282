module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Resource = Aurora_sim.Resource
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
  mutable logical : Vm_object.t;
  mutable top : Vm_object.t;
  mutable frozen : Vm_object.t option;
  mutable parent_oid : int option;
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

type t = {
  mach : Machine.t;
  st : Store.t;
  filesystem : Fs.t option;
  mutable member_pids : int list; (* global pids *)
  mutable period : int;
  mutable ext_sync : bool;
  grp_oid : int;
  proc_oids : (int, int) Hashtbl.t; (* pid_local -> oid *)
  oids : (int * int, int) Hashtbl.t; (* (Genlog kind, kernel id) -> oid *)
  memrecs : (int, memrec) Hashtbl.t; (* logical object id -> memrec *)
  top_index : (int, memrec) Hashtbl.t; (* current top object id -> memrec *)
  mutable named : (string * int) list;
  mutable last_epoch_committed : int;
  mutable last_ckpt_time : int;
  seen : (int, unit) Hashtbl.t;
      (* oids serialized in the current cycle: each object is serialized
         exactly once per checkpoint no matter how many references reach
         it — the POSIX-object-model property. *)
  mutable persist : bool; (* false during memory-only checkpoints *)
  last_gen : (int, int) Hashtbl.t;
      (* oid -> generation stamp at the object's last persisted image;
         an object whose current stamp still matches is skipped by the
         incremental OS-state pass (the store's epoch-composed read path
         resolves it from the prior epoch) *)
  mutable full_cycle : bool; (* [~full:true]: disable skipping this cycle *)
  mutable c_serialized : int; (* OS objects serialized this cycle *)
  mutable c_skipped : int; (* OS objects dirty-checked and skipped *)
  mutable c_meta_bytes : int; (* serialized OS metadata staged this cycle *)
  (* Speculative soft-quiesce state (see checkpoint_common).  All of it is
     cycle-scoped except [speculative], the group's default mode. *)
  mutable speculative : bool;
  mutable spec_phase : bool; (* inside the soft serialize window *)
  mutable spec_last_yield : int;
  mutable spec_busy_ns : int; (* serialize CPU attributed to spec_cpu *)
  mutable c_spec_base : int; (* c_serialized after the initial soft pass *)
  mutable c_conflict_pages : int; (* pages re-copied after the harvest *)
  spec_cpu : Resource.t; (* the spare core running speculative serialize *)
  spec_thunks : (int * int, unit -> unit) Hashtbl.t;
      (* (Genlog kind, kernel id) -> re-serialize closure recorded when
         the speculation pass visited the object; the validator re-runs
         exactly the logged conflict set instead of re-walking the graph *)
  spec_pages : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* mo_oid -> page indexes staged speculatively; flush skips these *)
  spec_proc_snap : (int, int) Hashtbl.t;
      (* pid_global -> effective generation at the last speculation round *)
}

let attach ~machine ~store ?fs ?(period_ns = 10_000_000) ?group_oid procs =
  let t =
    {
      mach = machine;
      st = store;
      filesystem = fs;
      member_pids = List.map (fun p -> p.Process.pid_global) procs;
      period = period_ns;
      ext_sync = true;
      grp_oid =
        (match group_oid with Some oid -> oid | None -> Store.alloc_oid store);
      proc_oids = Hashtbl.create 16;
      oids = Hashtbl.create 128;
      memrecs = Hashtbl.create 64;
      top_index = Hashtbl.create 64;
      named = [];
      last_epoch_committed = 0;
      last_ckpt_time = Clock.now machine.Machine.clock;
      seen = Hashtbl.create 128;
      persist = true;
      last_gen = Hashtbl.create 128;
      full_cycle = false;
      c_serialized = 0;
      c_skipped = 0;
      c_meta_bytes = 0;
      speculative = false;
      spec_phase = false;
      spec_last_yield = 0;
      spec_busy_ns = 0;
      c_spec_base = 0;
      c_conflict_pages = 0;
      spec_cpu = Resource.create ~name:"ckpt-spec-cpu";
      spec_thunks = Hashtbl.create 64;
      spec_pages = Hashtbl.create 16;
      spec_proc_snap = Hashtbl.create 16;
    }
  in
  t

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

(* Oid allocation, deduplicated by kernel object identity ------------------- *)

let find_oid t tbl key =
  match Hashtbl.find_opt tbl key with
  | Some oid -> oid
  | None ->
      let oid = Store.alloc_oid t.st in
      Hashtbl.replace tbl key oid;
      oid

let obj_oid t kind id = find_oid t t.oids (kind, id)

(* Memory records ------------------------------------------------------------ *)

let memrec_of_top t obj = Hashtbl.find_opt t.top_index (Vm_object.id obj)

(* Find the memrec owning [obj] anywhere in its role (logical, top or
   frozen); used to resolve parent links of fork-created shadows. *)
let owning_memrec t obj =
  let id = Vm_object.id obj in
  match Hashtbl.find_opt t.top_index id with
  | Some r -> Some r
  | None -> (
      match Hashtbl.find_opt t.memrecs id with
      | Some r -> Some r
      | None ->
          Hashtbl.fold
            (fun _ r acc ->
              match acc with
              | Some _ -> acc
              | None -> (
                  match r.frozen with
                  | Some f when Vm_object.id f = id -> Some r
                  | Some _ | None -> None))
            t.memrecs None)

(* Ensure a memrec exists for the chain rooted at [obj] (an entry's current
   object).  Parents discovered along the chain get their own records; the
   first ancestor already owned by a record becomes the parent link. *)
let rec ensure_memrec t obj =
  match memrec_of_top t obj with
  | Some r -> r
  | None -> (
      match Hashtbl.find_opt t.memrecs (Vm_object.id obj) with
      | Some r -> r
      | None ->
          let parent_oid =
            match Vm_object.parent obj with
            | None -> None
            | Some p -> (
                match owning_memrec t p with
                | Some pr -> Some pr.mo_oid
                | None ->
                    let pr = ensure_memrec t p in
                    Some pr.mo_oid)
          in
          let r =
            {
              mo_oid = Store.alloc_oid t.st;
              logical = obj;
              top = obj;
              frozen = None;
              parent_oid;
              ever_flushed = false;
              unflushed = Hashtbl.create 0;
            }
          in
          Hashtbl.replace t.memrecs (Vm_object.id obj) r;
          Hashtbl.replace t.top_index (Vm_object.id obj) r;
          r)

let seed_proc_oid t ~pid_local ~oid = Hashtbl.replace t.proc_oids pid_local oid
let seed_oids t oids = Hashtbl.iter (Hashtbl.replace t.oids) oids
let set_named t named = t.named <- named

let register_restored_memobj t ~oid ~parent_oid obj =
  let r =
    {
      mo_oid = oid;
      logical = obj;
      top = obj;
      frozen = None;
      parent_oid;
      ever_flushed = true;
      unflushed = Hashtbl.create 0;
    }
  in
  Hashtbl.replace t.memrecs (Vm_object.id obj) r;
  Hashtbl.replace t.top_index (Vm_object.id obj) r

(* Serialization of POSIX objects --------------------------------------------- *)

let charge t ns = Clock.advance (clock t) ns

(* Soft-quiesce yields -------------------------------------------------------

   During the speculation phase the serialize CPU is a spare core, not
   the application's: every [spec_yield_quantum] ns of accumulated
   serialize work we account that time to [spec_cpu] and open a
   concurrency window so the workload driver runs the threads forward.
   Mutations landing in such a window are exactly what the validator
   later re-copies. *)

let spec_yield_quantum = 50_000

(* Fold the serialize time since the last yield into the spec core's
   occupancy. *)
let spec_account t =
  let now = Clock.now (clock t) in
  let dt = now - t.spec_last_yield in
  if dt > 0 then begin
    t.spec_busy_ns <- t.spec_busy_ns + dt;
    ignore (Resource.submit t.spec_cpu ~now ~duration:dt);
    t.spec_last_yield <- now
  end

let spec_maybe_yield t =
  if t.spec_phase then begin
    let now = Clock.now (clock t) in
    let dt = now - t.spec_last_yield in
    if dt >= spec_yield_quantum then begin
      spec_account t;
      Machine.concurrent_window t.mach ~ns:dt;
      (* Whatever the hook ran was application time, not serialize time. *)
      t.spec_last_yield <- Clock.now (clock t)
    end
  end

(* Record how to revisit a kernel object so a Genlog conflict note can be
   resolved without re-walking the object graph. *)
let spec_register t ~kind ~id thunk =
  if t.spec_phase then Hashtbl.replace t.spec_thunks (kind, id) thunk

let put_obj t ~oid ~kind ~meta =
  if t.persist then Store.put_object t.st ~oid ~kind ~meta

let put_pgs t ~oid pages = if t.persist then Store.put_pages t.st ~oid pages

(* [once t oid f]: run [f] only the first time [oid] is reached this
   cycle. *)
let once t oid f = if not (Hashtbl.mem t.seen oid) then begin Hashtbl.replace t.seen oid (); f () end

(* The incremental OS-state pass.  An object whose generation stamp still
   matches its last persisted image is dirty-checked and skipped: no
   serialization charge, nothing staged — the store's epoch-composed read
   path resolves it from the prior epoch.  [children] always runs on the
   skip path: a clean composite can still reach dirty children (a process
   whose fd table is unchanged may hold a pipe that filled up), and the
   serialize path reaches them through [serialize] itself. *)
let ckpt_obj t ~oid ~gen ~children ~serialize =
  once t oid (fun () ->
      if (not t.full_cycle) && Hashtbl.find_opt t.last_gen oid = Some gen then begin
        charge t Cost.ckpt_dirty_check;
        t.c_skipped <- t.c_skipped + 1;
        if Otrace.is_on () then
          Otrace.instant ~cat:"ckpt.obj" "skip" ~args:[ ("oid", Otrace.Int oid) ];
        children ()
      end
      else begin
        let kind, meta = serialize () in
        put_obj t ~oid ~kind ~meta;
        if t.persist then begin
          Hashtbl.replace t.last_gen oid gen;
          t.c_meta_bytes <- t.c_meta_bytes + String.length meta
        end;
        t.c_serialized <- t.c_serialized + 1;
        if Otrace.is_on () then
          Otrace.instant ~cat:"ckpt.obj" "serialize"
            ~args:
              [
                ("oid", Otrace.Int oid);
                ("kind", Otrace.Str kind);
                ("bytes", Otrace.Int (String.length meta));
              ];
        spec_maybe_yield t
      end)

(* A kernel object named by its Genlog [kind] and kernel [id]: remember
   how to [revisit] it for the validator, find its oid, and checkpoint
   it. *)
let kernel_obj t ~kind ~id ~revisit ~gen ~children ~serialize =
  spec_register t ~kind ~id revisit;
  let oid = obj_oid t kind id in
  ckpt_obj t ~oid ~gen ~children ~serialize;
  oid

let rec checkpoint_pipe t pipe =
  kernel_obj t ~kind:Genlog.kind_pipe ~id:(Pipe.id pipe) ~gen:(Pipe.generation pipe)
    ~revisit:(fun () -> ignore (checkpoint_pipe t pipe))
    ~children:(fun () -> ())
    ~serialize:(fun () ->
      charge t (Cost.obj_serialize_base + pipe_extra);
      ( Serial.kind_pipe,
        Serial.pipe_to_string
          {
            Serial.i_data = Pipe.peek_all pipe;
            i_rd_open = Pipe.read_open pipe;
            i_wr_open = Pipe.write_open pipe;
          } ))

let rec checkpoint_kqueue t kq =
  kernel_obj t ~kind:Genlog.kind_kqueue ~id:(Kqueue.id kq) ~gen:(Kqueue.generation kq)
    ~revisit:(fun () -> ignore (checkpoint_kqueue t kq))
    ~children:(fun () -> ())
    ~serialize:(fun () ->
      charge t (Cost.obj_serialize_base + (Kqueue.event_count kq * Cost.kqueue_per_event));
      (Serial.kind_kqueue, Serial.kqueue_to_string (Kqueue.events kq)))

let rec checkpoint_pty t pty =
  kernel_obj t ~kind:Genlog.kind_pty ~id:(Pty.id pty) ~gen:(Pty.generation pty)
    ~revisit:(fun () -> ignore (checkpoint_pty t pty))
    ~children:(fun () -> ())
    ~serialize:(fun () ->
      charge t (Cost.obj_serialize_base + pty_ckpt_extra);
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
let rec checkpoint_socket t sock =
  kernel_obj t ~kind:Genlog.kind_socket ~id:(Socket.id sock) ~gen:(Socket.generation sock)
    ~revisit:(fun () -> ignore (checkpoint_socket t sock))
    ~children:(fun () ->
      (* Even when the socket is clean its buffered SCM_RIGHTS descriptions
         may have mutated independently: visit them. *)
      List.iter
        (fun (m : Socket.msg) ->
          List.iter
            (fun desc_id ->
              match Machine.find_description t.mach desc_id with
              | Some d -> ignore (checkpoint_desc t d)
              | None -> ())
            m.Socket.ctl_fds)
        (Socket.recv_buffered sock @ Socket.send_buffered sock))
    ~serialize:(fun () ->
      let buffered_kib = (Socket.buffered_bytes sock + 1023) / 1024 in
      charge t
        (Cost.obj_serialize_base + socket_extra
        + (buffered_kib * Cost.socket_buffer_scan_per_kib));
      (* In the image a message names its descriptions by oid. *)
      let msg_image (m : Socket.msg) =
        {
          m with
          Socket.ctl_fds =
            List.filter_map
              (fun desc_id ->
                Option.map (checkpoint_desc t) (Machine.find_description t.mach desc_id))
              m.Socket.ctl_fds;
        }
      in
      let peer_oid =
        match Socket.peer sock with
        | None -> 0
        | Some p -> obj_oid t Genlog.kind_socket (Socket.id p)
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

and checkpoint_shm t shm =
  kernel_obj t ~kind:Genlog.kind_shm ~id:(Shm.id shm) ~gen:(Shm.generation shm)
    ~revisit:(fun () -> ignore (checkpoint_shm t shm))
    ~children:(fun () ->
      (* The backing rotates shadows every checkpoint (stable store oid):
         its memrec must exist for the mark phase even when the segment's
         own image is clean. *)
      ignore (ensure_memrec t (Shm.backing shm)))
    ~serialize:(fun () ->
      (match Shm.kind shm with
      | Shm.Posix_shm _ ->
          charge t (Cost.obj_serialize_base + Cost.shm_shadow_setup + shm_posix_extra)
      | Shm.Sysv_shm _ ->
          charge t
            (Cost.obj_serialize_base + Cost.shm_shadow_setup + shm_posix_extra
            + Cost.sysv_namespace_scan));
      let backing = ensure_memrec t (Shm.backing shm) in
      ( Serial.kind_shm,
        Serial.shm_to_string
          {
            Serial.i_shm_kind = Shm.kind shm;
            i_npages = Shm.npages shm;
            i_backing_oid = backing.mo_oid;
          } ))

and checkpoint_vnode_ref t vn =
  (* Vnodes are referenced by inode number: no path lookups in the stop
     window (the Figure 3 / section 5.2 optimization). *)
  charge t (Cost.obj_serialize_base + vnode_extra);
  match t.filesystem with
  | Some filesystem -> (
      match Fs.oid_of_inode filesystem (Vnode.inode vn) with
      | Some oid -> oid
      | None -> 0 (* flushed later in this same checkpoint by the FS *))
  | None -> 0

and checkpoint_desc t (d : Fdesc.t) =
  kernel_obj t ~kind:Genlog.kind_fdesc ~id:d.Fdesc.desc_id ~gen:(Fdesc.generation d)
    ~revisit:(fun () -> ignore (checkpoint_desc t d))
    ~children:(fun () ->
      (* A clean description can still point at a dirty object: descend. *)
      match d.Fdesc.kind with
      | Fdesc.Vnode_file _ | Fdesc.Device_fd _ -> ()
      | Fdesc.Pipe_read p | Fdesc.Pipe_write p -> ignore (checkpoint_pipe t p)
      | Fdesc.Socket_fd s -> ignore (checkpoint_socket t s)
      | Fdesc.Kqueue_fd k -> ignore (checkpoint_kqueue t k)
      | Fdesc.Pty_master_fd p | Fdesc.Pty_slave_fd p ->
          ignore (checkpoint_pty t p)
      | Fdesc.Shm_fd s -> ignore (checkpoint_shm t s))
    ~serialize:(fun () ->
      let kind_image =
        match d.Fdesc.kind with
        | Fdesc.Vnode_file { vn; offset; append } ->
            ignore (checkpoint_vnode_ref t vn);
            Serial.I_vnode { inode = Vnode.inode vn; offset; append }
        | Fdesc.Pipe_read p -> Serial.I_pipe_r (checkpoint_pipe t p)
        | Fdesc.Pipe_write p -> Serial.I_pipe_w (checkpoint_pipe t p)
        | Fdesc.Socket_fd s -> Serial.I_socket (checkpoint_socket t s)
        | Fdesc.Kqueue_fd k -> Serial.I_kqueue (checkpoint_kqueue t k)
        | Fdesc.Pty_master_fd p -> Serial.I_pty_m (checkpoint_pty t p)
        | Fdesc.Pty_slave_fd p -> Serial.I_pty_s (checkpoint_pty t p)
        | Fdesc.Shm_fd s -> Serial.I_shm (checkpoint_shm t s)
        | Fdesc.Device_fd name -> Serial.I_device name
      in
      ( Serial.kind_fdesc,
        Serial.fdesc_to_string
          { Serial.i_kind = kind_image; i_ext_sync = d.Fdesc.ext_sync } ))

let entry_image t (e : Vm_map.entry) =
  charge t Cost.vm_entry_serialize;
  let obj_oid =
    match Vm_object.kind e.Vm_map.obj with
    | Vm_object.Device_backed _ -> 0
    | Vm_object.Vnode_backed inode -> (
        match t.filesystem with
        | Some filesystem ->
            Option.value ~default:0 (Fs.oid_of_inode filesystem inode)
        | None -> 0)
    | Vm_object.Anonymous -> (ensure_memrec t e.Vm_map.obj).mo_oid
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

let proc_oid t (p : Process.t) = find_oid t t.proc_oids p.Process.pid_local

let checkpoint_proc t (p : Process.t) =
  let oid = proc_oid t p in
  (* The process image folds in thread CPU state and the vm layout, so the
     stamp compared is the composite one.  In-flight AIO reads are part of
     the image too, but every AIO transition touches the owner process. *)
  ckpt_obj t ~oid ~gen:(Process.effective_generation p)
    ~children:(fun () ->
      List.iter (fun (_, d) -> ignore (checkpoint_desc t d)) (Process.fds p);
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
      charge t Cost.proc_serialize;
      List.iter
        (fun _thr -> charge t (Cost.thread_serialize + Cost.cpu_state_copy))
        p.Process.threads;
      let fds =
        List.map (fun (slot, d) -> (slot, checkpoint_desc t d)) (Process.fds p)
      in
      let entries =
        List.filter_map
          (fun (e : Vm_map.entry) ->
            if e.Vm_map.excluded then None else Some (entry_image t e))
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
      (Serial.kind_proc, Serial.proc_to_string image));
  oid

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
      (* An inactive chain was frozen in place (top == frozen): the
         survivor takes over as the resting top. *)
      if r.top == f then begin
        Hashtbl.remove t.top_index (Vm_object.id f);
        Hashtbl.replace t.top_index (Vm_object.id survivor) r;
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
  Hashtbl.remove t.top_index (Vm_object.id old_top);
  Hashtbl.replace t.top_index (Vm_object.id fresh) r;
  r.frozen <- Some old_top;
  r.top <- fresh

(* Flush ---------------------------------------------------------------------------- *)

(* Stage the pages a memory-only cycle left unflushed ([r.unflushed]),
   read from the logical object they were collapsed into, except those
   [superseded] by a newer frozen page; the set is consumed. *)
let flush_unflushed t r ~superseded =
  let pages =
    Hashtbl.fold
      (fun idx () acc ->
        if superseded idx then acc
        else
          match Vm_object.find_local r.logical idx with
          | Some page -> (idx, Page.blit_payload page) :: acc
          | None -> acc)
      r.unflushed []
  in
  Hashtbl.reset r.unflushed;
  if pages <> [] then put_pgs t ~oid:r.mo_oid pages;
  List.length pages

let flush_frozen t r =
  match r.frozen with
  | None -> 0
  | Some f -> (
      let carried =
        flush_unflushed t r ~superseded:(fun idx -> Vm_object.find_local f idx <> None)
      in
      match Hashtbl.find_opt t.spec_pages r.mo_oid with
      | Some staged ->
          (* Speculatively harvested: the staged image already holds every
             local page of the frozen shadow (harvest + conflict splices);
             staging it again would only repeat identical put_pages. *)
          carried + Hashtbl.length staged
      | None ->
          let pages = ref [] in
          Vm_object.iter_local f (fun idx page ->
              pages := (idx, Page.blit_payload page) :: !pages);
          if not r.ever_flushed then begin
            (* First flush of this object: the logical base has never been
               written out (e.g. a memory-only checkpoint rotated the shadow
               before any persisted one ran), so include its pages too —
               frozen-shadow versions win. *)
            if f != r.logical then
              Vm_object.iter_local r.logical (fun idx page ->
                  if Vm_object.find_local f idx = None then
                    pages := (idx, Page.blit_payload page) :: !pages);
            put_obj t ~oid:r.mo_oid ~kind:Serial.kind_memobj
              ~meta:
                (Serial.memobj_to_string
                   { Serial.i_parent_oid = r.parent_oid; i_anon = true });
            r.ever_flushed <- true;
            put_pgs t ~oid:r.mo_oid !pages
          end
          else if !pages <> [] then put_pgs t ~oid:r.mo_oid !pages;
          carried + List.length !pages)

(* Read-only ancestors (fork backings, memrecs not under any entry) flush
   once: all their resident pages.  A chain that went inactive after a
   memory-only cycle froze it in place rests collapsed in its logical
   object: only its unflushed pages are new. *)
let flush_static t r =
  match r.frozen with
  | Some _ -> 0
  | None when r.ever_flushed -> flush_unflushed t r ~superseded:(fun _ -> false)
  | None ->
      let pages = ref [] in
      Vm_object.iter_local r.logical (fun idx page ->
          pages := (idx, Page.blit_payload page) :: !pages);
      put_pgs t ~oid:r.mo_oid !pages;
      put_obj t ~oid:r.mo_oid ~kind:Serial.kind_memobj
        ~meta:
          (Serial.memobj_to_string { Serial.i_parent_oid = r.parent_oid; i_anon = true });
      r.ever_flushed <- true;
      List.length !pages

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
let stage_group_obj t ~proc_oids =
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
  put_obj t ~oid:t.grp_oid ~kind:Serial.kind_group
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
   path: their base-merge logic stays in [flush_frozen]. *)
let spec_harvest_memrec t r =
  if r.ever_flushed then begin
    let set = Hashtbl.create 32 in
    let pages = ref [] in
    Vm_object.iter_local r.top (fun idx page ->
        Hashtbl.replace set idx ();
        pages := (idx, Page.blit_payload page) :: !pages);
    if !pages <> [] then put_pgs t ~oid:r.mo_oid !pages;
    Hashtbl.replace t.spec_pages r.mo_oid set
  end

(* Drain the speculative dirty plane and re-stage the conflict pages.
   Only sound while the address-space structure is unchanged; after a
   fork or unmap the caller discards the speculative staging instead
   ([flush_frozen]'s normal path then rewrites every row with stop-time
   content). *)
let spec_splice_pages t spaces =
  let count = ref 0 in
  List.iter
    (fun space ->
      List.iter
        (fun vpn ->
          match Vm_map.find (Vm_space.map space) vpn with
          | Some e when not e.Vm_map.excluded -> (
              match memrec_of_top t e.Vm_map.obj with
              | Some r when Hashtbl.mem t.spec_pages r.mo_oid -> (
                  let idx = vpn - e.Vm_map.start_vpn + e.Vm_map.obj_pgoff in
                  match Vm_object.find_local e.Vm_map.obj idx with
                  | Some page ->
                      charge t Cost.page_copy;
                      put_pgs t ~oid:r.mo_oid [ (idx, Page.blit_payload page) ];
                      Hashtbl.replace (Hashtbl.find t.spec_pages r.mo_oid) idx ();
                      incr count
                  | None -> ())
              | Some _ | None -> ())
          | Some _ | None -> ())
        (Vm_space.spec_drain space))
    spaces;
  t.c_conflict_pages <- t.c_conflict_pages + !count;
  !count

(* One conflict-chasing round over the OS objects: processes whose
   composite stamp moved since their last visit, the logged kernel-object
   mutations, and shared-memory segments the soft pass did not visit.
   Work is proportional to the mutation count, not the object count —
   clean objects cost one dirty-check for procs and nothing at all
   otherwise. *)
let spec_refine_round t procs =
  Hashtbl.reset t.seen;
  let s0 = t.c_serialized in
  List.iter
    (fun p ->
      let g = Process.effective_generation p in
      if Hashtbl.find_opt t.spec_proc_snap p.Process.pid_global <> Some g then begin
        ignore (checkpoint_proc t p);
        Hashtbl.replace t.spec_proc_snap p.Process.pid_global g
      end
      else charge t Cost.ckpt_dirty_check)
    procs;
  List.iter
    (fun key ->
      match Hashtbl.find_opt t.spec_thunks key with
      | Some thunk -> thunk ()
      | None -> ())
    (Genlog.drain ());
  (* Shared-memory segments live in global namespaces, not fd tables: the
     System V namespace is scanned every checkpoint (its Table 4 cost),
     and named POSIX segments are persisted even when no descriptor is
     currently open.  A segment with a thunk is already covered by the
     mutation log; one created mid-window has none. *)
  let scan _ shm =
    if not (Hashtbl.mem t.spec_thunks (Genlog.kind_shm, Shm.id shm)) then
      ignore (checkpoint_shm t shm)
  in
  Hashtbl.iter scan t.mach.Machine.sysv_shm;
  Hashtbl.iter scan t.mach.Machine.posix_shm;
  t.c_serialized - s0

(* The soft window: serialize and harvest concurrently with execution,
   then refine until the conflict set converges (or give up and let the
   stop window drain the rest).  File-backed state and the group object
   are left to [validate]: they must be captured at the stop. *)
let speculate t procs spaces =
  List.iter Vm_space.spec_begin spaces;
  Genlog.arm ();
  t.spec_phase <- true;
  t.spec_busy_ns <- 0;
  t.spec_last_yield <- Clock.now (clock t);
  List.iter
    (fun p ->
      Hashtbl.replace t.spec_proc_snap p.Process.pid_global
        (Process.effective_generation p))
    procs;
  Otrace.with_span ~cat:"ckpt" ~name:"speculate.serialize" (fun () ->
      List.iter (fun p -> ignore (checkpoint_proc t p : int)) procs;
      Hashtbl.iter (fun _ shm -> ignore (checkpoint_shm t shm)) t.mach.Machine.sysv_shm;
      Hashtbl.iter (fun _ shm -> ignore (checkpoint_shm t shm)) t.mach.Machine.posix_shm;
      spec_account t);
  Otrace.with_span ~cat:"ckpt" ~name:"speculate.harvest" (fun () ->
      List.iter
        (fun r ->
          spec_harvest_memrec t r;
          spec_maybe_yield t)
        (mark_targets t spaces);
      spec_account t);
  t.c_spec_base <- t.c_serialized;
  t.c_conflict_pages <- 0;
  let rec refine round =
    if round < spec_max_rounds then begin
      let conflicts =
        Otrace.with_span ~cat:"ckpt" ~name:"speculate.round" (fun () ->
            let objs = spec_refine_round t procs in
            let pgs =
              if List.exists Vm_space.spec_structural spaces then 0
              else spec_splice_pages t spaces
            in
            spec_account t;
            objs + pgs)
      in
      if conflicts > spec_converged then refine (round + 1)
    end
  in
  refine 0;
  t.spec_phase <- false

(* The OS-state pass inside every stop window: capture file-backed state
   (never speculated), drain the last conflicts, splice the final page
   set, and restage the group object from stop-time membership.  After a
   zero-length window (stop-the-world) the generation snapshot and the
   thunk table are empty, so the round serializes every member process
   and every shm segment — still through [ckpt_obj]'s incremental skip —
   and no page was staged to splice over.  On a structural change
   (fork/unmap mid-window) the speculative page staging is discarded
   wholesale: the normal flush path rewrites every row from the frozen
   shadows with stop-time content, exactly as stop-the-world would
   have. *)
let validate t procs spaces =
  harvest_file_dirty t procs;
  (match t.filesystem with
  | Some filesystem when t.persist -> Fs.flush_to_store filesystem
  | Some _ | None -> ());
  ignore (spec_refine_round t procs : int);
  if Hashtbl.length t.spec_pages > 0 then
    if List.exists Vm_space.spec_structural spaces then Hashtbl.reset t.spec_pages
    else ignore (spec_splice_pages t spaces : int);
  if t.persist then stage_group_obj t ~proc_oids:(List.map (proc_oid t) procs);
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
  t.persist <- flush;
  t.full_cycle <- full;
  t.c_serialized <- 0;
  t.c_skipped <- 0;
  t.c_meta_bytes <- 0;
  t.c_spec_base <- 0;
  t.c_conflict_pages <- 0;
  Hashtbl.reset t.seen;
  (* Window state is cycle-scoped and reset here, once: a generation
     snapshot left from an earlier cycle would let [validate] skip a
     clean process together with its dirty children. *)
  Hashtbl.reset t.spec_thunks;
  Hashtbl.reset t.spec_proc_snap;
  Hashtbl.reset t.spec_pages;
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
    Otrace.with_span ~cat:"ckpt" ~name:"speculate" (fun () ->
        speculate t procs spaces)
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
      charge t Cost.orchestrator_barrier);
  let quiesce_ns = Clock.elapsed_since clk quiesce_begin in
  (* 4. Validate the staged image against what moved during the window.
     After a zero-length window this serializes the OS state (each POSIX
     object into its own store object), so the span keeps that name. *)
  let os_begin = Clock.now clk in
  Otrace.with_span ~cat:"ckpt" ~name:(if spec then "validate" else "serialize") (fun () ->
      validate t procs spaces);
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
      charge t Cost.tlb_shootdown;
      charge t Cost.async_flush_setup);
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
      let frozen_pages =
        Otrace.with_span ~cat:"ckpt" ~name:"flush.frozen" (fun () ->
            Hashtbl.fold (fun _ r acc -> acc + flush_frozen t r) t.memrecs 0)
      in
      let static_pages =
        Otrace.with_span ~cat:"ckpt" ~name:"flush.static" (fun () ->
            Hashtbl.fold (fun _ r acc -> acc + flush_static t r) t.memrecs 0)
      in
      (* The commit composes the manifest of the whole epoch it is part
         of; this only gives the epoch one. *)
      Otrace.with_span ~cat:"ckpt" ~name:"manifest" (fun () ->
          Store.put_manifest t.st ~oid:(Store.manifest_oid t.st));
      charge t Cost.ckpt_record_write;
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
  t.persist <- true;
  t.last_ckpt_time <- Clock.now clk;
  let durable_at =
    if flush then max (Store.durable_at t.st) aio_write_done else Clock.now clk
  in
  (* Under speculation the serialize CPU ran on the spare core: report
     its busy time, not the (tiny) validate elapsed. *)
  let serialize_ns = if spec then t.spec_busy_ns else os_ns in
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
    objects_serialized = t.c_serialized;
    objects_skipped = t.c_skipped;
    meta_bytes_written = t.c_meta_bytes;
    speculate_ns;
    validate_ns;
    conflict_objects = (if spec then t.c_serialized - t.c_spec_base else 0);
    conflict_pages = t.c_conflict_pages;
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
  Hashtbl.reset t.seen;
  t.persist <- true;
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
  charge t Cost.syscall_overhead;
  let spaces = List.map (fun p -> p.Process.space) (persistent_members t) in
  interpose_shadow t spaces r;
  charge t Cost.async_flush_setup;
  let mark_ns = Clock.elapsed_since clk stop_begin in
  let pages = flush_frozen t r in
  Store.put_manifest t.st ~oid:(Store.manifest_oid t.st);
  charge t Cost.ckpt_record_write;
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
            match memrec_of_top t e.Vm_map.obj with
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

let checkpoint ?(wait_durable = false) ?(full = false) ?speculative t =
  let speculative =
    match speculative with Some v -> v | None -> t.speculative
  in
  let stats = checkpoint_common t ~flush:true ~full ~speculative in
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
