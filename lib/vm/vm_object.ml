module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost

type kind = Anonymous | Vnode_backed of int | Device_backed of string

type t = {
  oid : int;
  obj_kind : kind;
  pages : (int, Page.t) Hashtbl.t;
  mutable shadow_parent : t option;
  mutable refs : int;
  mutable obj_pager : ((int -> (int * bytes) list) * (int -> bool)) option;
      (* the page-in function, and whether the pager stores an index *)
}

let next_id = ref 0

let create obj_kind =
  incr next_id;
  {
    oid = !next_id;
    obj_kind;
    pages = Hashtbl.create 64;
    shadow_parent = None;
    refs = 1;
    obj_pager = None;
  }

let id t = t.oid
let kind t = t.obj_kind
let parent t = t.shadow_parent
let ref_ t = t.refs <- t.refs + 1

let unref t =
  assert (t.refs > 0);
  t.refs <- t.refs - 1

let resident_pages t = Hashtbl.length t.pages

let rec chain_length t =
  match t.shadow_parent with None -> 1 | Some p -> 1 + chain_length p

let insert_page t idx page = Hashtbl.replace t.pages idx page
let remove_page t idx = Hashtbl.remove t.pages idx
let set_pager t ?(stores = fun _ -> true) p = t.obj_pager <- Option.map (fun p -> (p, stores)) p
let pager_stores t idx = match t.obj_pager with Some (_, stores) -> stores idx | None -> false
let find_local t idx = Hashtbl.find_opt t.pages idx

(* A level without a resident page asks its own pager before the walk
   descends: a sibling's page-in may have made an older version resident
   in a shared ancestor, and this level's pager holds the newer one.
   Every page the pager returns lands at the pager's level so sharers see
   it too, unless that level already holds the index: a resident page,
   perhaps written since, is never replaced.  The pager charges its own
   I/O. *)
let lookup ?(on_pagein = fun _ _ -> ()) ~clock t idx =
  let rec walk obj =
    match Hashtbl.find_opt obj.pages idx with
    | Some page -> Some (page, obj)
    | None -> (
        Option.iter
          (fun (pager, _) ->
            List.iter
              (fun (i, payload) ->
                if not (Hashtbl.mem obj.pages i) then begin
                  let page = Page.alloc_sized ~payload:(Bytes.length payload) in
                  Page.load_payload page payload;
                  Hashtbl.replace obj.pages i page;
                  on_pagein i page
                end)
              (pager idx))
          obj.obj_pager;
        match Hashtbl.find_opt obj.pages idx with
        | Some page -> Some (page, obj)
        | None -> (
            match obj.shadow_parent with
            | None -> None
            | Some p ->
                Clock.advance clock Cost.shadow_chain_hop;
                walk p))
  in
  walk t

let iter_local t f = Hashtbl.iter f t.pages

let shadow ~clock t =
  Clock.advance clock Cost.shadow_object_setup;
  incr next_id;
  let s =
    {
      oid = !next_id;
      obj_kind = Anonymous;
      pages = Hashtbl.create 64;
      shadow_parent = Some t;
      refs = t.refs;
      obj_pager = None;
    }
  in
  (* The shadow takes over the mappings' references; the parent keeps a
     single reference from the shadow itself. *)
  t.refs <- 1;
  s

let set_parent t p = t.shadow_parent <- p

type collapse_direction = Stock_freebsd | Aurora_reverse

let last_collapse_moves = ref 0
let pages_moved_by_last_collapse () = !last_collapse_moves

let collapse ~clock ~direction shadow_obj =
  let parent_obj =
    match shadow_obj.shadow_parent with
    | Some p -> p
    | None -> invalid_arg "Vm_object.collapse: object has no parent"
  in
  let moves = ref 0 in
  let survivor =
    match direction with
    | Stock_freebsd ->
        (* Insert the parent's pages into the shadow unless the shadow
           already has a private version; the shadow survives. *)
        Hashtbl.iter
          (fun idx page ->
            if not (Hashtbl.mem shadow_obj.pages idx) then begin
              Hashtbl.replace shadow_obj.pages idx page;
              incr moves
            end)
          parent_obj.pages;
        shadow_obj.shadow_parent <- parent_obj.shadow_parent;
        shadow_obj
    | Aurora_reverse ->
        (* Move the shadow's pages down into the parent (the shadow's
           version wins); the parent survives. *)
        Hashtbl.iter
          (fun idx page ->
            Hashtbl.replace parent_obj.pages idx page;
            incr moves)
          shadow_obj.pages;
        Hashtbl.reset shadow_obj.pages;
        parent_obj.refs <- shadow_obj.refs;
        parent_obj
  in
  last_collapse_moves := !moves;
  Clock.advance clock (!moves * Cost.collapse_page_move);
  survivor
