module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Store = Aurora_objstore.Store
module Wire = Aurora_objstore.Wire
module Vnode = Aurora_kern.Vnode
module Vfs = Aurora_kern.Vfs
module Page = Aurora_vm.Page

(* The global namespace lock serializes file creation (paper 9.1: "file
   creation in Aurora is unoptimized and currently requires grabbing a
   global lock"). *)
let create_lock_cost = 7_500
let namespace_update_cost = 1_100
let kind_namespace = "fs.namespace"
let kind_vnode = "fs.vnode"

type t = {
  st : Store.t;
  names : (string, int) Hashtbl.t;
  vnodes : (int, Vnode.t) Hashtbl.t;
  oids : (int, int) Hashtbl.t; (* inode -> store oid *)
  flushed_gens : (int, int) Hashtbl.t;
      (* inode -> Vnode.generation at last staging; catches metadata-only
         mutations (truncate, link-count changes) that leave no dirty page
         but must restage the vnode's serialized meta *)
  mutable next_inode : int;
  mutable namespace_oid : int;
  mutable namespace_dirty : bool;
}

let create ~store =
  {
    st = store;
    names = Hashtbl.create 256;
    vnodes = Hashtbl.create 256;
    oids = Hashtbl.create 256;
    flushed_gens = Hashtbl.create 256;
    next_inode = 0;
    namespace_oid = 0;
    namespace_dirty = true;
  }

let store t = t.st
let clock t = Store.clock t.st

let lookup t path =
  match Hashtbl.find_opt t.names path with
  | None -> None
  | Some ino -> Hashtbl.find_opt t.vnodes ino

let create_file t path =
  Clock.advance (clock t) (create_lock_cost + namespace_update_cost);
  match lookup t path with
  | Some vn ->
      Vnode.set_size vn 0;
      vn
  | None ->
      t.next_inode <- t.next_inode + 1;
      let vn = Vnode.create ~inode:t.next_inode in
      Vnode.link vn;
      Hashtbl.replace t.vnodes t.next_inode vn;
      Hashtbl.replace t.names path t.next_inode;
      t.namespace_dirty <- true;
      vn

let unlink t path =
  match Hashtbl.find_opt t.names path with
  | None -> false
  | Some ino ->
      Clock.advance (clock t) namespace_update_cost;
      Hashtbl.remove t.names path;
      t.namespace_dirty <- true;
      (match Hashtbl.find_opt t.vnodes ino with
      | Some vn ->
          Vnode.unlink vn;
          (* A closed, fully unlinked vnode is garbage; an open one stays
             reachable through its inode (the hidden reference). *)
          if Vnode.links vn = 0 && Vnode.open_count vn = 0 then begin
            Hashtbl.remove t.vnodes ino;
            Hashtbl.remove t.oids ino;
            Hashtbl.remove t.flushed_gens ino
          end
      | None -> ());
      true

let rename t ~src ~dst =
  match Hashtbl.find_opt t.names src with
  | None -> false
  | Some ino ->
      Clock.advance (clock t) namespace_update_cost;
      Hashtbl.remove t.names src;
      Hashtbl.replace t.names dst ino;
      t.namespace_dirty <- true;
      true

let paths t = Hashtbl.fold (fun p _ acc -> p :: acc) t.names [] |> List.sort compare
let vnode_by_inode t ino = Hashtbl.find_opt t.vnodes ino

let write t vn ~off data =
  Clock.advance (clock t) (Cost.copy_time (String.length data));
  Vnode.write vn ~clock:(clock t) ~off data

let read t vn ~off ~len =
  Clock.advance (clock t) (Cost.copy_time len);
  Vnode.read vn ~clock:(clock t) ~off ~len

let fsync t _vn =
  (* Checkpoint consistency: the data is already (or imminently) part of a
     checkpoint; there is nothing to flush synchronously. *)
  Clock.advance (clock t) Cost.syscall_overhead

let oid_of_inode t ino = Hashtbl.find_opt t.oids ino

let vnode_by_oid t oid =
  Hashtbl.fold
    (fun ino o acc ->
      match acc with
      | Some _ -> acc
      | None -> if o = oid then Hashtbl.find_opt t.vnodes ino else None)
    t.oids None

let oid_for t ino =
  match Hashtbl.find_opt t.oids ino with
  | Some oid -> oid
  | None ->
      let oid = Store.alloc_oid t.st in
      Hashtbl.replace t.oids ino oid;
      oid

let namespace_codec = Wire.Codec.(pair (list (pair str u64)) u64)
let vnode_codec = Wire.Codec.(triple u64 u64 u32)

let serialize_namespace t =
  Wire.to_string namespace_codec
    (Hashtbl.fold (fun p i acc -> (p, i) :: acc) t.names [] |> List.sort compare, t.next_inode)

let serialize_vnode_meta vn =
  Wire.to_string vnode_codec (Vnode.inode vn, Vnode.size vn, Vnode.links vn)

let flush_to_store t =
  if t.namespace_dirty then begin
    if t.namespace_oid = 0 then t.namespace_oid <- Store.alloc_oid t.st;
    Store.put_object t.st ~oid:t.namespace_oid ~kind:kind_namespace
      ~meta:(serialize_namespace t);
    t.namespace_dirty <- false
  end;
  (* Stage every vnode with dirty pages — by inode number, not path, so no
     name lookups happen in the stop window.  Unlinked-but-open vnodes are
     in [t.vnodes] and therefore included. *)
  Hashtbl.iter
    (fun ino vn ->
      let dirty = Vnode.take_dirty vn in
      if
        dirty <> []
        || (not (Hashtbl.mem t.oids ino))
        || Hashtbl.find_opt t.flushed_gens ino <> Some (Vnode.generation vn)
      then begin
        let oid = oid_for t ino in
        Hashtbl.replace t.flushed_gens ino (Vnode.generation vn);
        Store.put_object t.st ~oid ~kind:kind_vnode ~meta:(serialize_vnode_meta vn);
        let pages =
          List.filter_map
            (fun idx ->
              match Vnode.page vn idx with
              | Some p -> Some (idx, Page.blit_payload p)
              | None -> None)
            dirty
        in
        Store.put_pages t.st ~oid pages
      end)
    t.vnodes

let restore_from_store ~store ~epoch ~pages =
  let t = create ~store in
  let objects = Store.objects_at store ~epoch in
  (* Namespace first: paths and the inode allocator. *)
  List.iter
    (fun (oid, kind) ->
      if kind = kind_namespace then begin
        t.namespace_oid <- oid;
        let entries, next_inode =
          Wire.of_string namespace_codec (Store.read_meta store ~epoch ~oid)
        in
        t.next_inode <- next_inode;
        List.iter (fun (path, ino) -> Hashtbl.replace t.names path ino) entries
      end)
    objects;
  (* Vnodes: metadata, link counts and page contents. *)
  List.iter
    (fun (oid, kind) ->
      if kind = kind_vnode then begin
        let ino, size, links = Wire.of_string vnode_codec (Store.read_meta store ~epoch ~oid) in
        let vn = Vnode.create ~inode:ino in
        for _ = 1 to links do
          Vnode.link vn
        done;
        List.iter (fun (idx, payload) -> Vnode.load_page vn idx payload) (pages oid);
        Vnode.set_size vn size;
        ignore (Vnode.take_dirty vn);
        Hashtbl.replace t.vnodes ino vn;
        Hashtbl.replace t.oids ino oid;
        Hashtbl.replace t.flushed_gens ino (Vnode.generation vn);
        t.namespace_dirty <- false
      end)
    objects;
  t

let mark_open_after_restore t ino =
  match Hashtbl.find_opt t.vnodes ino with
  | Some vn -> Vnode.opened vn
  | None -> ()

let vfs_ops t =
  {
    Vfs.lookup = lookup t;
    create = create_file t;
    unlink = unlink t;
    fsync = (fun vn -> fsync t vn);
    sync_cost = (fun () -> Cost.syscall_overhead);
  }
