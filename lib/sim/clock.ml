type t = { mutable time : int; mutable watchers : (int -> unit) list }

let create () = { time = 0; watchers = [] }
let now t = t.time

let notify t = List.iter (fun f -> f t.time) t.watchers

let advance t ns =
  assert (ns >= 0);
  if ns > 0 then begin
    t.time <- t.time + ns;
    if t.watchers <> [] then notify t
  end

let advance_to t when_ =
  if when_ > t.time then begin
    t.time <- when_;
    if t.watchers <> [] then notify t
  end

let on_advance t f = t.watchers <- f :: t.watchers
let elapsed_since t start = t.time - start
