(* Page-granular dedup + compression: bytes written per checkpoint.

   Sweeps mutation ratio x fork share over a group of processes with
   large anonymous arenas.  Each interval mutates a clustered rotating
   window of pages per process (content varies by interval, so dedup
   never gets free same-content rewrites), checkpoints, and records the
   device bytes the epoch's flush wrote end to end plus the flush window
   (submission to superblock durability).

   Every configuration runs twice on identical deterministic workloads:

   - baseline: [Store.set_packed_layout false] restores the
     block-per-page layout with full-block write charges — the
     whole-page flush path previous to the content-addressed index;
   - dedup: the defaults (content index + RLE coding + packed extents).

   Fork share forks a fraction of the group from one parent after arena
   init: the family's COW copies mutate to byte-identical content, which
   only the content index can collapse across objects.

   A full run writes BENCH_ckpt_dedup.json.

     dune exec bench/main.exe -- ckpt-dedup          # full sweep
     dune exec bench/main.exe -- ckpt-dedup smoke    # tiny CI pass (gated) *)

module Clock = Aurora_sim.Clock
module Syscall = Aurora_kern.Syscall
module Process = Aurora_kern.Process
module Vm_space = Aurora_vm.Vm_space
module Store = Aurora_objstore.Store
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group

let page = 4096

type side = {
  s_bytes : float;  (** device bytes written per checkpoint *)
  s_window_ns : float;  (** checkpoint submission -> durable *)
  s_pages : float;  (** pages staged per checkpoint *)
  s_serialized : float;  (** payloads actually written *)
  s_deduped : float;  (** staged pages resolved by the content index *)
}

type sample = {
  procs : int;
  npages : int;
  fork_share : float;
  ratio : float;
  base : side;
  dedup : side;
}

(* One run: [forked] of the [procs] members are COW children of member 0,
   forked after its arena is initialized; the rest own private arenas
   with per-process content. *)
let run_side ~procs ~npages ~fork_share ~ratio ~intervals ~dedup =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  if not dedup then Store.set_packed_layout sys.Sls.store false;
  let forked = int_of_float (Float.round (fork_share *. float_of_int (procs - 1))) in
  let independents = procs - 1 - forked in
  let stamp_arena p base stamp =
    for pg = 0 to npages - 1 do
      let a = base + (pg * page) in
      Vm_space.write_byte p.Process.space ~addr:(a + 1) (Char.chr (pg land 0xff));
      Vm_space.write_byte p.Process.space ~addr:(a + 2)
        (Char.chr ((pg lsr 8) land 0xff));
      Vm_space.write_byte p.Process.space ~addr:(a + 3) (Char.chr (stamp land 0xff))
    done
  in
  let parent = Syscall.spawn m ~name:"parent" in
  let parent_base = Vm_space.addr_of_entry (Syscall.mmap_anon parent ~npages) in
  stamp_arena parent parent_base 0;
  let children = List.init forked (fun _ -> Syscall.fork m parent) in
  let others =
    List.init independents (fun i ->
        let p = Syscall.spawn m ~name:(Printf.sprintf "ind%d" i) in
        let base = Vm_space.addr_of_entry (Syscall.mmap_anon p ~npages) in
        stamp_arena p base (i + 1);
        (p, base))
  in
  let members =
    ((parent, parent_base) :: List.map (fun c -> (c, parent_base)) children)
    @ others
  in
  let group = Sls.attach sys (List.map fst members) in
  (* Epoch 1 persists the full arenas; the measured intervals are the
     steady state on top of it. *)
  ignore (Group.checkpoint group);
  Store.wait_durable sys.Sls.store;
  let dirty = max 1 (int_of_float (Float.round (ratio *. float_of_int npages))) in
  let clk = Store.clock sys.Sls.store in
  let samples = ref [] in
  for i = 1 to intervals do
    (* Clustered rotating window: real heaps mutate hot regions, and a
       scattered 1% would make rewritten radix leaves — identical in both
       modes — drown the data-byte signal this bench isolates. *)
    let start = i * dirty mod max 1 (npages - dirty) in
    List.iter
      (fun (p, base) ->
        for k = 0 to dirty - 1 do
          Vm_space.write_byte p.Process.space
            ~addr:(base + ((start + k) * page) + 4 + (i mod 40))
            (Char.chr (32 + (i * 7 mod 90)))
        done)
      members;
    let t0 = Clock.now clk in
    let s = Group.checkpoint group in
    Store.wait_durable sys.Sls.store;
    (* Flush window: checkpoint entry to superblock durability, covering
       the synchronous stop phase and the asynchronous flush tail. *)
    samples := (s, s.Group.durable_at - t0) :: !samples
  done;
  let stats = List.map fst !samples in
  {
    s_bytes = Report.mean (List.map (fun s -> float_of_int s.Group.bytes_written) stats);
    s_window_ns = Report.mean (List.map (fun (_, w) -> float_of_int w) !samples);
    s_pages = Report.mean (List.map (fun s -> float_of_int s.Group.pages_flushed) stats);
    s_serialized =
      Report.mean (List.map (fun s -> float_of_int s.Group.pages_serialized) stats);
    s_deduped = Report.mean (List.map (fun s -> float_of_int s.Group.pages_deduped) stats);
  }

let measure ~procs ~npages ~fork_share ~ratio ~intervals =
  let base = run_side ~procs ~npages ~fork_share ~ratio ~intervals ~dedup:false in
  let dedup = run_side ~procs ~npages ~fork_share ~ratio ~intervals ~dedup:true in
  { procs; npages; fork_share; ratio; base; dedup }

let reduction s = s.base.s_bytes /. Float.max 1.0 s.dedup.s_bytes
let speedup s = s.base.s_window_ns /. Float.max 1.0 s.dedup.s_window_ns

let columns : sample Report.column list =
  Report.
    [
      ("procs", "procs", fun s -> Count s.procs);
      ("pages", "npages", fun s -> Count s.npages);
      ("forked", "fork_share", fun s -> Percent s.fork_share);
      ("mutation", "mutation_ratio", fun s -> Percent s.ratio);
      ("base bytes", "baseline_bytes_per_ckpt", fun s -> Bytes s.base.s_bytes);
      ("dedup bytes", "dedup_bytes_per_ckpt", fun s -> Bytes s.dedup.s_bytes);
      ("reduction", "bytes_reduction", fun s -> Num (2, reduction s));
      ("base window", "baseline_window_ns", fun s -> Ns s.base.s_window_ns);
      ("dedup window", "dedup_window_ns", fun s -> Ns s.dedup.s_window_ns);
      ("speedup", "window_speedup", fun s -> Num (2, speedup s));
      ("base pages", "baseline_pages", fun s -> Num (1, s.base.s_pages));
      ("dedup pages", "dedup_pages", fun s -> Num (1, s.dedup.s_pages));
      ("serialized", "dedup_pages_serialized", fun s -> Num (1, s.dedup.s_serialized));
      ("deduped", "dedup_pages_deduped", fun s -> Num (1, s.dedup.s_deduped));
    ]

(* Acceptance gate: at 1% mutation the dedup+compress flush must write
   >= 5x fewer device bytes than the block-per-page baseline and shrink
   the flush window. *)
let gates samples =
  match List.filter (fun s -> s.ratio <= 0.011) samples with
  | [] -> []
  | low ->
      let worst f = Report.worst f low in
      Report.gates "ckpt-dedup"
        [
          ("1% bytes reduction", Num (2, worst reduction), ">= 5", worst reduction >= 5.0);
          ("1% window speedup", Num (2, worst speedup), "> 1", worst speedup > 1.0);
        ]

let run mode =
  let configs, intervals =
    match mode with
    | Report.Smoke -> ([ (3, 2048, 0.5, 0.01); (3, 2048, 0.5, 0.25) ], 3)
    | Full ->
        ( List.concat_map
            (fun share -> List.map (fun ratio -> (4, 4096, share, ratio)) [ 0.01; 0.10; 0.50 ])
            [ 0.0; 0.5 ]
          @ [ (8, 4096, 0.75, 0.01); (8, 4096, 0.75, 0.10) ],
          5 )
    | _ -> raise Report.Usage
  in
  print_endline "ckpt-dedup: page-granular dedup + compression, bytes per checkpoint";
  print_endline
    "  (paired runs: block-per-page baseline vs content index + RLE + packed \
     extents)";
  print_newline ();
  let samples =
    List.map
      (fun (procs, npages, fork_share, ratio) ->
        measure ~procs ~npages ~fork_share ~ratio ~intervals)
      configs
  in
  Report.emit mode ~bench:"ckpt_dedup" ~file:"BENCH_ckpt_dedup.json" columns samples;
  gates samples
