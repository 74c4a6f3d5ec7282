module Rng = Aurora_util.Rng

type route = Static of int | Dynamic of int

type req = {
  hl_time : int;
  hl_conn : int;
  hl_route : route;
  hl_frag : bool;
}

let path_of_route = function
  | Static i -> Printf.sprintf "/static/%d" i
  | Dynamic i -> Printf.sprintf "/api/%d" i

(* Probability mass routed to mutating handlers. *)
let dynamic_ratio = 0.3

(* Fraction of requests split across two segments. *)
let frag_prob = 0.15

(* One schedule entry per request, arrival times fixed up front: the
   client is open-loop (it does not wait for responses before sending the
   next request), which is what makes checkpoint stop windows visible as
   tail latency instead of throughput loss — queued requests pay the stall
   even though the client never slows down.  Route popularity is
   zipf-distributed over a combined rank space; each rank is pinned to the
   static or dynamic class deterministically, so the hot head of the
   distribution contains both cacheable and mutating routes in
   [dynamic_ratio] proportion. *)
let generate ~seed ~rate ~duration_ns ~conns ~static_routes ~dynamic_routes
    ?(theta = 0.99) () =
  let rng = Rng.create seed in
  let nroutes = static_routes + dynamic_routes in
  let zipf = Zipf.create ~n:nroutes ~theta (Rng.split rng) in
  (* Rank -> class assignment: hash the rank so the zipf head mixes both
     classes rather than making every hot route static. *)
  let class_of_rank rank =
    let h = (rank * 2654435761) land 0x3fffffff in
    if float_of_int (h mod 1000) /. 1000.0 < dynamic_ratio then
      Dynamic (rank mod max 1 dynamic_routes)
    else Static (rank mod max 1 static_routes)
  in
  let reqs = ref [] in
  let t = ref 0 in
  let mean_gap = 1e9 /. rate in
  while !t < duration_ns do
    t := !t + max 1 (int_of_float (Rng.exponential rng ~mean:mean_gap));
    if !t < duration_ns then
      reqs :=
        {
          hl_time = !t;
          hl_conn = Rng.int rng conns;
          hl_route = class_of_rank (Zipf.sample zipf);
          hl_frag = Rng.float rng 1.0 < frag_prob;
        }
        :: !reqs
  done;
  List.rev !reqs
