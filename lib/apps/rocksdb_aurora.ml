module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Wire = Aurora_objstore.Wire
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Api = Aurora_core.Api
module Restore = Aurora_core.Restore

let insert_cpu = 300
let lookup_cpu = 250
let nodes_per_page = 16

type t = {
  machine : Machine.t;
  grp : Group.t;
  db_proc : Process.t;
  node_base : int;
  value_base : int;
  nkeys : int;
  table : (int, int) Hashtbl.t;
  journal : Api.journal;
  wal_limit : int;
  wal_group_size : int;
  mutable wal_bytes : int;
  mutable wal_pos : int;
  mutable batch : (int * int) list; (* buffered (key, size) records *)
  mutable n_checkpoints : int;
}

(* A WAL record: the batch's (key, value size) pairs. *)
let record_codec = Wire.Codec.(list (pair u64 u32))

let create_raw ~sys ~nkeys ~wal_limit ~wal_group_size ~journal ~group ~proc
    ~node_base ~value_base =
  {
    machine = sys.Sls.machine;
    grp = group;
    db_proc = proc;
    node_base;
    value_base;
    nkeys;
    table = Hashtbl.create (2 * nkeys);
    journal;
    wal_limit;
    wal_group_size;
    wal_bytes = 0;
    wal_pos = 0;
    batch = [];
    n_checkpoints = 0;
  }

let create ~sys ~nkeys ?(wal_limit = 32 * 1024 * 1024) ?(wal_group_size = 48) () =
  let machine = sys.Sls.machine in
  let proc = Syscall.spawn machine ~name:"rocksdb-aurora" in
  let node_pages = (nkeys + nodes_per_page - 1) / nodes_per_page in
  let value_pages = (nkeys + 7) / 8 in
  let nodes = Syscall.mmap_anon proc ~npages:node_pages in
  let values = Syscall.mmap_anon proc ~npages:value_pages in
  let group = Sls.attach sys [ proc ] in
  let journal = Api.sls_journal_open group ~size:(2 * wal_limit) in
  (* The baseline image every journal replay composes onto. *)
  ignore (Group.checkpoint ~wait_durable:true group);
  create_raw ~sys ~nkeys ~wal_limit ~wal_group_size ~journal ~group ~proc
    ~node_base:(Vm_space.addr_of_entry nodes)
    ~value_base:(Vm_space.addr_of_entry values)

let group t = t.grp
let proc t = t.db_proc

let touch_node t key ~write =
  let addr = t.node_base + (key / nodes_per_page * Page.logical_size) in
  if write then Vm_space.touch_write t.db_proc.Process.space ~addr ~len:64
  else Vm_space.touch_read t.db_proc.Process.space ~addr ~len:64

(* Values of a few hundred bytes live inline in the skiplist nodes; the
   value arena only backs oversized spill values. *)
let _touch_value t key =
  let addr = t.value_base + (key / 8 * Page.logical_size) in
  Vm_space.touch_write t.db_proc.Process.space ~addr ~len:64

let put t ~key ~value_bytes =
  let clk = t.machine.Machine.clock in
  let t0 = Clock.now clk in
  Clock.advance clk insert_cpu;
  touch_node t key ~write:true;
  Hashtbl.replace t.table key value_bytes;
  t.batch <- (key, value_bytes) :: t.batch;
  t.wal_pos <- t.wal_pos + 1;
  t.wal_bytes <- t.wal_bytes + value_bytes + 16;
  if t.wal_pos >= t.wal_group_size then begin
    (* Group leader: one synchronous journal append covers the batch. *)
    Api.sls_journal t.grp t.journal (Wire.to_string record_codec (List.rev t.batch));
    t.batch <- [];
    t.wal_pos <- 0
  end;
  if t.wal_bytes >= t.wal_limit then begin
    (* WAL full: take a checkpoint and clear the journal (the paper's
       protocol).  This op pays for it — the 99.9th percentile. *)
    if t.batch <> [] then begin
      Api.sls_journal t.grp t.journal (Wire.to_string record_codec (List.rev t.batch));
      t.batch <- [];
      t.wal_pos <- 0
    end;
    ignore (Group.checkpoint ~wait_durable:true t.grp);
    Api.sls_journal_truncate t.grp t.journal;
    t.wal_bytes <- 0;
    t.n_checkpoints <- t.n_checkpoints + 1
  end;
  Clock.now clk - t0

let get t ~key =
  let clk = t.machine.Machine.clock in
  let t0 = Clock.now clk in
  Clock.advance clk lookup_cpu;
  touch_node t key ~write:false;
  ignore (Hashtbl.find_opt t.table key);
  Clock.now clk - t0

let read_value_size t ~key = Hashtbl.find_opt t.table key

let recover ~sys =
  (* Restore the checkpointed process, then replay the journal on top —
     the application's restore-time fixup (the "Aurora specific signal
     handler" pattern from section 3). *)
  let machine = sys.Sls.machine in
  let result = Restore.restore ~machine ~store:sys.Sls.store () in
  let group = result.Restore.group in
  let proc =
    match result.Restore.procs with
    | [ p ] -> p
    | _ -> failwith "rocksdb_aurora: expected one process"
  in
  let journal =
    match Api.journal_of_id group 1 with
    | Some j -> j
    | None -> failwith "rocksdb_aurora: journal missing"
  in
  let entries =
    List.map
      (fun (e : Aurora_vm.Vm_map.entry) -> Vm_space.addr_of_entry e)
      (Aurora_vm.Vm_map.entries (Vm_space.map proc.Process.space))
  in
  let node_base, value_base =
    match entries with
    | nb :: vb :: _ -> (nb, vb)
    | _ -> failwith "rocksdb_aurora: unexpected address space"
  in
  let t =
    create_raw ~sys ~nkeys:0 ~wal_limit:(32 * 1024 * 1024) ~wal_group_size:48
      ~journal ~group ~proc ~node_base ~value_base
  in
  (* Rebuild the in-memory index from the restored pages' authoritative
     table... the table itself was process state; in this miniature the
     index is re-driven from the journal replay. *)
  let replayed = ref 0 in
  List.iter
    (fun record ->
      List.iter
        (fun (key, size) ->
          Hashtbl.replace t.table key size;
          incr replayed)
        (Wire.of_string record_codec record))
    (Api.sls_journal_recover group journal);
  (t, !replayed)

let checkpoints_triggered t = t.n_checkpoints
