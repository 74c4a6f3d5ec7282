type filter = Ev_read | Ev_write | Ev_timer | Ev_signal | Ev_proc
type kevent = { ident : int; filter : filter; flags : int; udata : int }

(* A registration and its place in registration order: [regs] is newest
   first, so [seq] falls along it. *)
type reg = { ev : kevent; seq : int }

type target = Never | Always | On of knlist * (unit -> bool)

and knote = {
  reg : reg;
  view : view;
  mutable test : unit -> bool;
  mutable host : knlist option;
  mutable queued : bool;  (* on [view.active] *)
}

and knlist = { mutable notes : knote list }

(* One process's binding of the kqueue: each registration resolved
   through that process's fd table.  Built at the process's first poll. *)
and view = {
  kq : t;
  resolve : kevent -> target;
  by_slot : (int, knote list) Hashtbl.t;
  mutable active : knote list;
  mutable built : bool;
}

and t = {
  kq_id : int;
  mutable regs : reg list;
  mutable next_seq : int;
  mutable gen : int;
  mutable views : view list;
  mutable examined : int;
}

let next_id = ref 0

let create () =
  incr next_id;
  { kq_id = !next_id; regs = []; next_seq = 0; gen = 0; views = []; examined = 0 }

let id t = t.kq_id
let generation t = t.gen
let touch t =
  t.gen <- t.gen + 1;
  Aurora_sim.Genlog.note ~kind:Aurora_sim.Genlog.kind_kqueue ~id:t.kq_id

(* Knotes ------------------------------------------------------------------ *)

let knlist () = { notes = [] }

let enqueue k =
  if not k.queued then begin
    k.queued <- true;
    k.view.active <- k :: k.view.active
  end

let activate l = List.iter enqueue l.notes

let unhook k =
  match k.host with
  | Some l ->
      l.notes <- List.filter (fun k' -> k' != k) l.notes;
      k.host <- None
  | None -> ()

let never () = false
let always () = true

(* Point [k] at what its ident names now; queue it unless it can never
   fire, so the next poll tests it. *)
let bind k =
  unhook k;
  match k.view.resolve k.reg.ev with
  | Never -> k.test <- never
  | Always ->
      k.test <- always;
      enqueue k
  | On (l, test) ->
      k.test <- test;
      l.notes <- k :: l.notes;
      k.host <- Some l;
      enqueue k

let attach v reg =
  let k = { reg; view = v; test = never; host = None; queued = false } in
  let slot = reg.ev.ident in
  Hashtbl.replace v.by_slot slot
    (k :: Option.value ~default:[] (Hashtbl.find_opt v.by_slot slot));
  bind k

(* A dropped knote left on [active] fails its next test and leaves. *)
let drop k =
  unhook k;
  k.test <- never

let unbuild v =
  Hashtbl.iter (fun _ ks -> List.iter drop ks) v.by_slot;
  Hashtbl.reset v.by_slot;
  v.active <- [];
  v.built <- false

(* Registrations ----------------------------------------------------------- *)

let same_slot a ~ident ~filter = a.ident = ident && a.filter = filter

let remove t ~ident ~filter =
  if List.exists (fun r -> same_slot r.ev ~ident ~filter) t.regs then begin
    t.regs <- List.filter (fun r -> not (same_slot r.ev ~ident ~filter)) t.regs;
    List.iter
      (fun v ->
        match Hashtbl.find_opt v.by_slot ident with
        | None -> ()
        | Some ks -> (
            let gone, kept = List.partition (fun k -> k.reg.ev.filter = filter) ks in
            List.iter drop gone;
            match kept with
            | [] -> Hashtbl.remove v.by_slot ident
            | _ -> Hashtbl.replace v.by_slot ident kept))
      t.views
  end

let register t ev =
  remove t ~ident:ev.ident ~filter:ev.filter;
  t.next_seq <- t.next_seq + 1;
  let r = { ev; seq = t.next_seq } in
  t.regs <- r :: t.regs;
  List.iter (fun v -> if v.built then attach v r) t.views;
  touch t

let deregister t ~ident ~filter =
  remove t ~ident ~filter;
  touch t

let events t = List.map (fun r -> r.ev) t.regs
let event_count t = List.length t.regs

let replace_events t evs =
  let n = List.length evs in
  t.regs <- List.mapi (fun i ev -> { ev; seq = t.next_seq + n - i }) evs;
  t.next_seq <- t.next_seq + n;
  List.iter unbuild t.views;
  touch t

(* Views and polls --------------------------------------------------------- *)

let view t ~resolve =
  let v = { kq = t; resolve; by_slot = Hashtbl.create 64; active = []; built = false } in
  t.views <- v :: t.views;
  v

let view_kqueue v = v.kq

let forget v =
  unbuild v;
  v.kq.views <- List.filter (fun v' -> v' != v) v.kq.views

let slot_changed v ~slot =
  match Hashtbl.find_opt v.by_slot slot with
  | Some ks -> List.iter bind ks
  | None -> ()

let by_seq a b = compare b.reg.seq a.reg.seq

let poll v =
  let t = v.kq in
  if not v.built then begin
    List.iter (attach v) t.regs;
    v.built <- true
  end;
  let ready =
    List.filter
      (fun k ->
        t.examined <- t.examined + 1;
        k.test ()
        ||
        (k.queued <- false;
         false))
      (List.sort by_seq v.active)
  in
  v.active <- ready;
  List.map (fun k -> k.reg.ev) ready

let examined t = t.examined
