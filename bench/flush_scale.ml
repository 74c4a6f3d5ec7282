(* Flush-pipeline scaling: sweep the dirty-set size of one incremental
   checkpoint and report both the simulated flush time (virtual ns until
   the epoch is durable) and the simulator's own host wall-clock, plus the
   coalescing statistics (extents, device submissions, leaf-cache hits).

   The "legacy" column replays the seed implementation's hot path on the
   same input — assoc-list staging with List.mem_assoc dedup, one
   Striped.write per 4 KiB block, List.assoc leaf lookups — to quantify
   the win of hashtable staging plus extent-coalesced vectored writes. *)

module Clock = Aurora_sim.Clock
module Striped = Aurora_block.Striped
module Store = Aurora_objstore.Store
module Wire = Aurora_objstore.Wire
module Text_table = Aurora_util.Text_table
module Units = Aurora_util.Units

let payload i = Bytes.make 64 (Char.chr (32 + (i mod 90)))

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Leaf wire format, exactly as the seed's store wrote and parsed it. *)
let serialize_leaf entries =
  let w = Wire.writer () in
  Wire.u8 w 0xA3;
  Wire.list w
    (fun (idx, blk, len) ->
      Wire.u32 w idx;
      Wire.u64 w blk;
      Wire.u32 w len)
    entries;
  Wire.contents w

let parse_leaf data =
  let r = Wire.reader data in
  ignore (Wire.ru8 r);
  Wire.rlist r (fun r ->
      let idx = Wire.ru32 r in
      let blk = Wire.ru64 r in
      let len = Wire.ru32 r in
      (idx, blk, len))

(* The seed's commit hot path, replayed faithfully: staged pages as a
   newest-first assoc list, per-leaf dedup and carried/replaced filtering
   via List.mem_assoc, List.assoc lookups into the previous version's
   assoc-list leaf directory, a real per-leaf device re-read
   (Striped.read_nocharge walks the whole in-flight list, which grows
   with every block this commit writes), and one Striped.write per data
   block and per rewritten leaf.  The device state is pre-populated with
   a committed n-page version, like the incremental commit the new path
   is timed on. *)
let legacy_commit_walltime n =
  let leaf_span = Store.leaf_span in
  let dev = Striped.create () in
  let block_size = 4096 in
  let next_block = ref 1 in
  let alloc () =
    let b = !next_block in
    incr next_block;
    b
  in
  let now = 0 in
  (* Epoch 1: committed version covering pages 0..n-1, leaves on disk. *)
  let prev_leaves =
    List.init
      ((n + leaf_span - 1) / leaf_span)
      (fun leaf_idx ->
        let lo = leaf_idx * leaf_span and hi = min n ((leaf_idx + 1) * leaf_span) in
        let entries =
          List.init (hi - lo) (fun k ->
              let idx = lo + k in
              let blk = alloc () in
              ignore
                (Striped.write ~charge:block_size dev ~now ~off:(blk * block_size)
                   (payload idx));
              (idx, blk, 64))
        in
        let leaf_blk = alloc () in
        ignore
          (Striped.write ~charge:block_size dev ~now
             ~off:(leaf_blk * block_size) (serialize_leaf entries));
        (leaf_idx, leaf_blk))
  in
  Striped.apply_durable dev ~now:max_int;
  let refcounts = Hashtbl.create (2 * n) in
  let pages = List.init n (fun i -> (i, payload (i + 1))) in
  let ops_before = Striped.write_ops dev in
  Gc.compact ();
  let _, elapsed =
    wall (fun () ->
        (* put_pages: rev_append staging. *)
        let s_pages = List.rev_append pages [] in
        (* commit: group by leaf, dedup with List.mem_assoc. *)
        let by_leaf = Hashtbl.create 16 in
        List.iter
          (fun (idx, p) ->
            let leaf = idx / leaf_span in
            let cur = Option.value ~default:[] (Hashtbl.find_opt by_leaf leaf) in
            if not (List.mem_assoc idx cur) then
              Hashtbl.replace by_leaf leaf ((idx, p) :: cur))
          s_pages;
        Hashtbl.iter
          (fun leaf_idx dirty ->
            (* Carry over unchanged entries from the device: this re-read
               overlays every in-flight write (O(inflight) per leaf). *)
            let old_entries =
              match List.assoc_opt leaf_idx prev_leaves with
              | None -> []
              | Some blk ->
                  parse_leaf
                    (Striped.read_nocharge dev ~off:(blk * block_size)
                       ~len:block_size)
            in
            let carried =
              List.filter
                (fun (idx, _, _) -> not (List.mem_assoc idx dirty))
                old_entries
            in
            let replaced =
              List.filter (fun (idx, _, _) -> List.mem_assoc idx dirty) old_entries
            in
            List.iter
              (fun (_, blk, _) ->
                match Hashtbl.find_opt refcounts blk with
                | Some c when c > 1 -> Hashtbl.replace refcounts blk (c - 1)
                | Some _ -> Hashtbl.remove refcounts blk
                | None -> ())
              replaced;
            (* One device write per data block. *)
            let fresh_entries =
              List.map
                (fun (idx, p) ->
                  let blk = alloc () in
                  ignore
                    (Striped.write ~charge:block_size dev ~now
                       ~off:(blk * block_size) p);
                  Hashtbl.replace refcounts blk 1;
                  (idx, blk, Bytes.length p))
                dirty
            in
            let entries = List.sort compare (fresh_entries @ carried) in
            let leaf_blk = alloc () in
            (* One device write per rewritten leaf. *)
            ignore
              (Striped.write ~charge:block_size dev ~now
                 ~off:(leaf_blk * block_size) (serialize_leaf entries)))
          by_leaf)
  in
  (elapsed, Striped.write_ops dev - ops_before)

type sample = {
  pages : int;
  sim_flush_ns : int;
  wall_s : float;
  stats : Store.flush_stats;
  legacy_wall_s : float;
  legacy_ops : int;
}

(* The measured workload: one incremental commit of [n] dirty pages of
   one object.  Returns the store, the virtual time the commit began and
   its host wall-clock. *)
let incremental_commit n =
  let clock = Clock.create () in
  let dev = Striped.create () in
  let store = Store.format ~dev ~clock in
  let oid = Store.alloc_oid store in
  (* Epoch 1 populates the object so epoch 2 is a true incremental commit
     that re-reads (or cache-hits) every touched leaf. *)
  ignore (Store.begin_checkpoint store);
  Store.put_object store ~oid ~kind:"bench" ~meta:"flush-scale";
  Store.put_pages store ~oid (List.init n (fun i -> (i, payload i)));
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  ignore (Store.begin_checkpoint store);
  Store.put_pages store ~oid (List.init n (fun i -> (i, payload (i + 1))));
  let t0 = Clock.now clock in
  Gc.compact ();
  let (), wall_s = wall (fun () -> ignore (Store.commit_checkpoint store)) in
  (store, t0, wall_s)

let measure n =
  let store, t0, wall_s = incremental_commit n in
  let sim_flush_ns = Store.durable_at store - t0 in
  let stats = Store.flush_stats store in
  let legacy_wall_s, legacy_ops = legacy_commit_walltime n in
  { pages = n; sim_flush_ns; wall_s; stats; legacy_wall_s; legacy_ops }

let run ?(sizes = [ 256; 1024; 4096; 16384; 65536 ]) () =
  (* A bench-sized minor heap (128 MB) for the duration of the sweep:
     both pipelines allocate device payload copies proportional to the
     dirty set, and the stock 2 MB nursery would turn that into promotion
     churn that swamps the algorithmic difference being measured.
     Restored afterwards so other artifacts run under stock settings. *)
  let gc0 = Gc.get () in
  Gc.set { gc0 with Gc.minor_heap_size = 1 lsl 24 };
  Fun.protect ~finally:(fun () -> Gc.set gc0) @@ fun () ->
  print_endline "flush-scale: coalesced checkpoint flush vs dirty-set size";
  print_endline
    "  (one object, incremental commit; legacy = seed's per-block assoc-list path)";
  print_newline ();
  let table =
    Text_table.create
      ~header:
        [
          "dirty pages";
          "sim flush";
          "extents";
          "dev subs";
          "legacy subs";
          "leaf hit/miss";
          "wall";
          "legacy wall";
          "speedup";
        ]
  in
  let samples = List.map measure sizes in
  List.iter
    (fun s ->
      Text_table.add_row table
        [
          string_of_int s.pages;
          Units.ns_to_string s.sim_flush_ns;
          string_of_int s.stats.Store.fs_extents;
          string_of_int s.stats.Store.fs_dev_writes;
          string_of_int s.legacy_ops;
          Printf.sprintf "%d/%d" s.stats.Store.fs_leaf_hits
            s.stats.Store.fs_leaf_misses;
          Printf.sprintf "%.1f ms" (s.wall_s *. 1e3);
          Printf.sprintf "%.1f ms" (s.legacy_wall_s *. 1e3);
          Printf.sprintf "%.1fx" (s.legacy_wall_s /. max 1e-9 s.wall_s);
        ])
    samples;
  Text_table.print table;
  (match List.rev samples with
  | biggest :: _ ->
      Printf.printf
        "largest sweep: %d pages -> %d extents (avg %.0f blocks/extent), %d \
         device submissions (legacy: %d), %s coalesced\n"
        biggest.pages biggest.stats.Store.fs_extents
        (float_of_int biggest.stats.Store.fs_extent_blocks
        /. float_of_int (max 1 biggest.stats.Store.fs_extents))
        biggest.stats.Store.fs_dev_writes biggest.legacy_ops
        (Units.bytes_to_string biggest.stats.Store.fs_coalesced_bytes)
  | [] -> ());
  print_newline ()
