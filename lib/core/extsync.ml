type release = { tag : string; deliver : release_time:int -> unit }

(* [seen]: the [observe] instant that first found the message buffered,
   [min_int] until one has. *)
type held = { epoch : int; mutable seen : int; r : release }
type t = { mutable buffered : held list (* newest first *) }

let create () = { buffered = [] }
let buffer t ~epoch r = t.buffered <- { epoch; seen = min_int; r } :: t.buffered
let pending t = List.length t.buffered

let observe t ~now =
  List.iter (fun h -> if h.seen = min_int then h.seen <- now) t.buffered

let release_up_to t ~epoch ~now =
  let ready, held = List.partition (fun h -> h.epoch <= epoch) t.buffered in
  t.buffered <- held;
  (* Oldest first, preserving send order per destination. *)
  List.iter (fun h -> h.r.deliver ~release_time:(max now h.seen)) (List.rev ready);
  List.length ready

let drop_all t =
  let n = List.length t.buffered in
  t.buffered <- [];
  n

let drop_after t ~epoch =
  let dropped, held = List.partition (fun h -> h.epoch > epoch) t.buffered in
  t.buffered <- held;
  List.length dropped
