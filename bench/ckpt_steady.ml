(* Steady-state checkpoint cost: group size x mutation ratio sweep.

   A long-running group reaches steady state quickly: most kernel objects
   stop changing between 100 Hz intervals.  This sweep measures what one
   interval then costs.  Each configuration builds a group of G processes
   with P pipe pairs each, mutates a [ratio] fraction of the pipes per
   interval, and takes paired checkpoints: the incremental pass (skip via
   generation stamps) immediately followed by a [~full:true] pass over the
   identical state — the full-reserialize baseline the paper's system
   shadowing always pays for OS state.

   A full run writes BENCH_ckpt_steady.json to the working directory.

     dune exec bench/main.exe -- ckpt-steady          # full sweep
     dune exec bench/main.exe -- ckpt-steady smoke    # tiny CI pass (gated) *)

module Syscall = Aurora_kern.Syscall
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group

type sample = {
  procs : int;
  objects : int;
  ratio : float;
  pipes_dirtied : int;
  inc_serialize_ns : float;
  inc_meta_bytes : float;
  inc_serialized : float;
  inc_skipped : float;
  full_serialize_ns : float;
  full_meta_bytes : float;
}

(* One configuration: G procs, each with [pipes_per_proc] pipe pairs and a
   one-page arena.  OS objects per proc: the proc, 2 descriptions and 1
   pipe per pair. *)
let measure ~procs:g ~pipes_per_proc:pp ~ratio ~intervals =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let members =
    List.init g (fun i ->
        let p = Syscall.spawn m ~name:(Printf.sprintf "svc%d" i) in
        let pipes = Array.init pp (fun _ -> Syscall.pipe m p) in
        ignore (Syscall.mmap_anon p ~npages:1);
        (p, pipes))
  in
  let all_pipes =
    List.concat_map (fun (p, pipes) -> Array.to_list pipes |> List.map (fun fds -> (p, fds))) members
  in
  let all_pipes = Array.of_list all_pipes in
  let n_pipes = Array.length all_pipes in
  let objects = g * (1 + (3 * pp)) in
  let group = Sls.attach sys (List.map fst members) in
  ignore (Group.checkpoint group);
  let dirty_count = max 1 (int_of_float (Float.round (ratio *. float_of_int n_pipes))) in
  let inc = ref [] and full = ref [] in
  for i = 0 to intervals - 1 do
    (* Mutate a rotating window of pipes; drain what was written so the
       buffered state (and thus the serialized image size) stays bounded. *)
    for k = 0 to dirty_count - 1 do
      let p, (r, w) = all_pipes.(((i * dirty_count) + k) mod n_pipes) in
      ignore (Syscall.write m p ~fd:w "x");
      ignore (Syscall.read m p ~fd:r ~len:1)
    done;
    inc := Group.checkpoint group :: !inc;
    (* Identical state, full reserialization: the baseline. *)
    full := Group.checkpoint ~full:true group :: !full
  done;
  let f sel l = Report.mean (List.map sel l) in
  {
    procs = g;
    objects;
    ratio;
    pipes_dirtied = dirty_count;
    inc_serialize_ns = f (fun s -> float_of_int s.Group.os_serialize_ns) !inc;
    inc_meta_bytes = f (fun s -> float_of_int s.Group.meta_bytes_written) !inc;
    inc_serialized = f (fun s -> float_of_int s.Group.objects_serialized) !inc;
    inc_skipped = f (fun s -> float_of_int s.Group.objects_skipped) !inc;
    full_serialize_ns = f (fun s -> float_of_int s.Group.os_serialize_ns) !full;
    full_meta_bytes = f (fun s -> float_of_int s.Group.meta_bytes_written) !full;
  }

let speedup s = s.full_serialize_ns /. Float.max 1.0 s.inc_serialize_ns
let reduction s = s.full_meta_bytes /. Float.max 1.0 s.inc_meta_bytes

let columns : sample Report.column list =
  Report.
    [
      ("procs", "procs", fun s -> Count s.procs);
      ("objects", "objects", fun s -> Count s.objects);
      ("mutation", "mutation_ratio", fun s -> Percent s.ratio);
      ("dirtied", "pipes_dirtied", fun s -> Count s.pipes_dirtied);
      ("inc serialize", "incremental_serialize_ns", fun s -> Ns s.inc_serialize_ns);
      ("full serialize", "full_serialize_ns", fun s -> Ns s.full_serialize_ns);
      ("speedup", "serialize_speedup", fun s -> Num (2, speedup s));
      ("inc meta B", "incremental_meta_bytes", fun s -> Num (1, s.inc_meta_bytes));
      ("full meta B", "full_meta_bytes", fun s -> Num (1, s.full_meta_bytes));
      ("reduction", "meta_reduction", fun s -> Num (2, reduction s));
      ("ser", "incremental_objects_serialized", fun s -> Num (2, s.inc_serialized));
      ("skip", "incremental_objects_skipped", fun s -> Num (2, s.inc_skipped));
    ]

(* Acceptance gate: at the lowest mutation ratio the incremental pass
   must beat full reserialization by >= 10x on both serialize time and
   staged meta bytes. *)
let gates samples =
  match List.filter (fun s -> s.ratio <= 0.011) samples with
  | [] -> []
  | low ->
      let worst f = Report.worst f low in
      Report.gates "ckpt-steady"
        [
          ("1% serialize speedup", Num (2, worst speedup), ">= 10", worst speedup >= 10.0);
          ("1% meta reduction", Num (2, worst reduction), ">= 10", worst reduction >= 10.0);
        ]

let run mode =
  let configs, intervals =
    match mode with
    (* Tiny CI pass; still crosses the 10x gate at the ~1% point. *)
    | Report.Smoke -> ([ (8, 5, 0.01); (8, 5, 0.25) ], 3)
    | Full ->
        ( List.concat_map
            (fun g -> List.map (fun ratio -> (g, 4, ratio)) [ 0.01; 0.10; 0.50 ])
            [ 4; 16; 64 ]
          @ [ (64, 4, 1.00) ],
          8 )
    | _ -> raise Report.Usage
  in
  print_endline "ckpt-steady: steady-state incremental checkpoint cost";
  print_endline
    "  (paired intervals: incremental pass vs ~full:true reserialization of \
     the same state)";
  print_newline ();
  let samples =
    List.map
      (fun (g, pp, ratio) -> measure ~procs:g ~pipes_per_proc:pp ~ratio ~intervals)
      configs
  in
  Report.emit mode ~bench:"ckpt_steady" ~file:"BENCH_ckpt_steady.json" columns samples;
  gates samples
