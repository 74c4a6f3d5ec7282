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

   Emits BENCH_ckpt_dedup.json.

     dune exec bench/ckpt_dedup.exe          # full sweep
     dune exec bench/ckpt_dedup.exe smoke    # tiny CI pass (gated) *)

module Clock = Aurora_sim.Clock
module Syscall = Aurora_kern.Syscall
module Process = Aurora_kern.Process
module Vm_space = Aurora_vm.Vm_space
module Store = Aurora_objstore.Store
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Text_table = Aurora_util.Text_table
module Units = Aurora_util.Units

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

let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

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
    s_bytes = avg (List.map (fun s -> float_of_int s.Group.bytes_written) stats);
    s_window_ns = avg (List.map (fun (_, w) -> float_of_int w) !samples);
    s_pages = avg (List.map (fun s -> float_of_int s.Group.pages_flushed) stats);
    s_serialized =
      avg (List.map (fun s -> float_of_int s.Group.pages_serialized) stats);
    s_deduped = avg (List.map (fun s -> float_of_int s.Group.pages_deduped) stats);
  }

let measure ~procs ~npages ~fork_share ~ratio ~intervals =
  let base = run_side ~procs ~npages ~fork_share ~ratio ~intervals ~dedup:false in
  let dedup = run_side ~procs ~npages ~fork_share ~ratio ~intervals ~dedup:true in
  { procs; npages; fork_share; ratio; base; dedup }

let json_of_samples samples =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"bench\": \"ckpt_dedup\",\n  \"configs\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"procs\": %d, \"npages\": %d, \"fork_share\": %.2f, \
            \"mutation_ratio\": %.4f, \"baseline\": {\"bytes_per_ckpt\": %.0f, \
            \"window_ns\": %.0f, \"pages\": %.1f}, \"dedup\": \
            {\"bytes_per_ckpt\": %.0f, \"window_ns\": %.0f, \"pages\": %.1f, \
            \"pages_serialized\": %.1f, \"pages_deduped\": %.1f}, \
            \"bytes_reduction\": %.2f, \"window_speedup\": %.2f}"
           s.procs s.npages s.fork_share s.ratio s.base.s_bytes
           s.base.s_window_ns s.base.s_pages s.dedup.s_bytes
           s.dedup.s_window_ns s.dedup.s_pages s.dedup.s_serialized
           s.dedup.s_deduped
           (s.base.s_bytes /. Float.max 1.0 s.dedup.s_bytes)
           (s.base.s_window_ns /. Float.max 1.0 s.dedup.s_window_ns)))
    samples;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let run ~configs ~intervals =
  print_endline "ckpt-dedup: page-granular dedup + compression, bytes per checkpoint";
  print_endline
    "  (paired runs: block-per-page baseline vs content index + RLE + packed \
     extents)";
  print_newline ();
  let table =
    Text_table.create
      ~header:
        [
          "procs";
          "pages";
          "forked";
          "mutation";
          "base bytes";
          "dedup bytes";
          "reduction";
          "base window";
          "dedup window";
          "speedup";
          "ser/dedup";
        ]
  in
  let samples =
    List.map
      (fun (procs, npages, fork_share, ratio) ->
        measure ~procs ~npages ~fork_share ~ratio ~intervals)
      configs
  in
  List.iter
    (fun s ->
      Text_table.add_row table
        [
          string_of_int s.procs;
          string_of_int s.npages;
          Printf.sprintf "%.0f%%" (s.fork_share *. 100.0);
          Printf.sprintf "%.0f%%" (s.ratio *. 100.0);
          Units.bytes_to_string (int_of_float s.base.s_bytes);
          Units.bytes_to_string (int_of_float s.dedup.s_bytes);
          Printf.sprintf "%.1fx" (s.base.s_bytes /. Float.max 1.0 s.dedup.s_bytes);
          Units.ns_to_string (int_of_float s.base.s_window_ns);
          Units.ns_to_string (int_of_float s.dedup.s_window_ns);
          Printf.sprintf "%.1fx"
            (s.base.s_window_ns /. Float.max 1.0 s.dedup.s_window_ns);
          Printf.sprintf "%.1f/%.1f" s.dedup.s_serialized s.dedup.s_deduped;
        ])
    samples;
  Text_table.print table;
  print_newline ();
  let out = open_out "BENCH_ckpt_dedup.json" in
  output_string out (json_of_samples samples);
  close_out out;
  print_endline "wrote BENCH_ckpt_dedup.json";
  (* Acceptance gate: at 1% mutation the dedup+compress flush must write
     >= 5x fewer device bytes than the block-per-page baseline and shrink
     the flush window. *)
  let gated = List.filter (fun s -> s.ratio <= 0.011) samples in
  List.iter
    (fun s ->
      let reduction = s.base.s_bytes /. Float.max 1.0 s.dedup.s_bytes in
      let speedup = s.base.s_window_ns /. Float.max 1.0 s.dedup.s_window_ns in
      if reduction < 5.0 || speedup <= 1.0 then begin
        Printf.eprintf
          "ckpt-dedup: FAIL: 1%%-mutation bytes reduction %.1fx (need >= 5x), \
           window speedup %.2fx (need > 1x)\n"
          reduction speedup;
        exit 1
      end)
    gated;
  if gated <> [] then
    print_endline
      "acceptance: >= 5x bytes-written reduction and a shorter flush window at \
       1% mutation"

let () =
  match Array.to_list Sys.argv with
  | _ :: [ "smoke" ] ->
      run ~configs:[ (3, 2048, 0.5, 0.01); (3, 2048, 0.5, 0.25) ] ~intervals:3
  | _ ->
      run
        ~configs:
          [
            (4, 4096, 0.0, 0.01);
            (4, 4096, 0.0, 0.10);
            (4, 4096, 0.0, 0.50);
            (4, 4096, 0.5, 0.01);
            (4, 4096, 0.5, 0.10);
            (4, 4096, 0.5, 0.50);
            (8, 4096, 0.75, 0.01);
            (8, 4096, 0.75, 0.10);
          ]
        ~intervals:5
