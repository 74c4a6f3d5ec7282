(* One reported number: name, value, unit, the count of samples behind it,
   and which clock it was read from.  Virtual-clock values are a
   deterministic function of the seed; host-clock values are not. *)

module Histogram = Aurora_util.Histogram

type clock = Virtual | Host

type t = {
  name : string;
  value : float;
  unit_ : string;
  n : int;
  clock : clock;
  note : string;  (** e.g. the percentile a tail metric actually reports *)
}

let v ?(clock = Virtual) ?(note = "") name unit_ value ~n =
  { name; value; unit_; n; clock; note }

let dist name unit_ h p = v name unit_ (Histogram.percentile h p) ~n:(Histogram.count h)

(* The highest percentile up to [p] that still has at least ten samples
   beyond it: with fewer samples a nominal p99.99 would be the maximum,
   one unlucky sample. *)
let tail name unit_ h p =
  let n = Histogram.count h in
  let supported = 100. *. (1. -. (10. /. float_of_int (max 10 n))) in
  let p = Float.max 50. (Float.min p supported) in
  v ~note:(Printf.sprintf "p%g" p) name unit_ (Histogram.percentile h p) ~n

let median name unit_ h = dist name unit_ h 50.

(* Stop window and time-to-durable of the measured checkpoints; [durable]
   names the sample set that says when an epoch counts as durable. *)
let stop_metrics ?(durable = "durable_us") r =
  let stop = Common.hist r "stop_us" and durable = Common.hist r durable in
  [
    dist "stop_p50_us" "us" stop 50.;
    tail "stop_p99_us" "us" stop 99.;
    tail "durable_p99_us" "us" durable 99.;
  ]

(* Device bytes written per byte the benchmark wrote into memory and
   pipes. *)
let write_amp r =
  v "write_amp" "ratio"
    (Common.ratio r "block.bytes_written" "app_bytes")
    ~n:(Common.count r "app_bytes")

let median_of_floats xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.
