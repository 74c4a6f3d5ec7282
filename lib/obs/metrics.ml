module Histogram = Aurora_util.Histogram

type histogram = Histogram.t

let enabled = ref false
let registry : (string, histogram) Hashtbl.t = Hashtbl.create 8

let set_enabled b = enabled := b
let is_enabled () = !enabled

let histogram name =
  match Hashtbl.find_opt registry name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.replace registry name h;
      h

let observe_ns h n = if !enabled then Histogram.add h (float_of_int n)
let samples h = h
let reset () = Hashtbl.iter (fun _ h -> Histogram.clear h) registry
