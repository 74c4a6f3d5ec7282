(* Incremental streams: the location diff behind Migrate.serialize_incremental,
   checked against a byte-compare oracle, plus its exact device cost. *)

module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Rng = Aurora_util.Rng
module Striped = Aurora_block.Striped
module Fault = Aurora_block.Fault
module Wire = Aurora_objstore.Wire
module Manifest = Aurora_objstore.Manifest
module Store = Aurora_objstore.Store
module Migrate = Aurora_core.Migrate

let fresh_store ?(packed = true) () =
  let store = Store.format ~dev:(Striped.create ()) ~clock:(Clock.create ()) in
  Store.set_packed_layout store packed;
  store

let noise_page seed =
  let r = Rng.create seed in
  Bytes.init Store.block_size (fun _ -> Char.chr (Rng.int r 256))

(* Streams through Migrate's own codec ---------------------------------------- *)

let stream_of ~epoch objects = Wire.to_string Migrate.stream_codec (epoch, objects)

(* [(oid, shipped page indices)] of a stream. *)
let stream_pages stream =
  List.map
    (fun (oid, _, _, pages) -> (oid, List.map fst pages))
    (snd (Wire.of_string Migrate.stream_codec stream))

(* The byte-compare diff the sender used before the location diff: read
   every page at both epochs and ship those whose bytes differ.  Kept only
   as the oracle for the property below. *)
let oracle_incremental ~store ~base ~epoch =
  let base_objects = Store.objects_at store ~epoch:base in
  let in_base oid = List.mem_assoc oid base_objects in
  let objects =
    List.filter_map
      (fun (oid, kind) ->
        let current = Store.read_pages store ~epoch ~oid in
        let meta = Store.read_meta store ~epoch ~oid in
        if not (in_base oid) then Some (oid, kind, meta, current)
        else begin
          let old = Store.read_pages store ~epoch:base ~oid in
          let pages =
            List.filter
              (fun (idx, payload) ->
                match List.assoc_opt idx old with
                | Some p -> not (Bytes.equal payload p)
                | None -> true)
              current
          in
          if pages <> [] || meta <> Store.read_meta store ~epoch:base ~oid then
            Some (oid, kind, meta, pages)
          else None
        end)
      (Store.objects_at store ~epoch)
  in
  stream_of ~epoch objects

(* Every object of an epoch, pages read back in full. *)
let snapshot store ~epoch =
  List.map
    (fun (oid, kind) ->
      ( oid,
        kind,
        Store.read_meta store ~epoch ~oid,
        List.map (fun (i, b) -> (i, Bytes.to_string b)) (Store.read_pages store ~epoch ~oid) ))
    (Store.objects_at store ~epoch)

(* A replication frame carrying [body], with the digest of the sender's
   epoch, as the shipping layer builds it. *)
let shipment ~store ~base ~epoch body =
  let entries =
    List.map
      (fun (oid, kind) ->
        Manifest.entry_of_source
          (oid, kind, Store.read_meta store ~epoch ~oid, Store.page_crcs store ~epoch ~oid))
      (Store.objects_at store ~epoch)
  in
  let frame =
    Migrate.seal Migrate.shipment_codec
      {
        Migrate.sh_seq = epoch;
        sh_base = base;
        sh_epoch = epoch;
        sh_count = List.length entries;
        sh_summary = Manifest.summary entries;
        sh_body = body;
      }
  in
  match Migrate.open_shipment frame with
  | Ok sh -> sh
  | Error e -> failwith e

(* A standby that holds [base], installed from a verified full stream. *)
let standby_at ~store ~base =
  let sb = fresh_store () in
  (match
     Migrate.install_verified ~store:sb
       (shipment ~store ~base:0 ~epoch:base
          (Migrate.serialize_incremental ~store ~base:0 ~epoch:base))
   with
  | Ok _ -> ()
  | Error e -> failwith ("full stream rejected: " ^ e));
  sb

let commit store f =
  let e = Store.begin_checkpoint store in
  f ();
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  e

(* [store]'s epochs recovered from its device into a fresh store, which
   holds no kept delta: its frames take the device path. *)
let recovered store = Store.recover ~dev:(Store.device store) ~clock:(Store.clock store)

(* Random histories ----------------------------------------------------------- *)

type op =
  | Write of int * int * int  (** object slot, page index, content *)
  | Rewrite of int * int  (** the same bytes again *)
  | Meta of int * int  (** a metadata-only change *)
  | Touch of int  (** restaged with unchanged metadata and no pages *)

let show_op = function
  | Write (s, i, c) -> Printf.sprintf "W(%d,%d,%d)" s i c
  | Rewrite (s, i) -> Printf.sprintf "R(%d,%d)" s i
  | Meta (s, m) -> Printf.sprintf "M(%d,%d)" s m
  | Touch s -> Printf.sprintf "T(%d)" s

(* Few distinct contents, so rewrites often repeat bytes and dedup hits;
   short, RLE-coded and incompressible pages all occur. *)
let content k =
  match k mod 3 with
  | 0 -> Bytes.make 64 (Char.chr (65 + k))
  | 1 -> Bytes.make Store.block_size (Char.chr (65 + k))
  | _ -> noise_page k

let gen_op =
  let open QCheck.Gen in
  let slot = int_bound 2 in
  (* Four pages in each of three radix leaves. *)
  let idx = map2 (fun leaf off -> (leaf * Store.leaf_span) + off) (int_bound 2) (int_bound 3) in
  frequency
    [
      (5, map3 (fun s i c -> Write (s, i, c)) slot idx (int_bound 5));
      (3, map2 (fun s i -> Rewrite (s, i)) slot idx);
      (1, map2 (fun s m -> Meta (s, m)) slot (int_bound 3));
      (1, map (fun s -> Touch s) slot);
    ]

let arb_history =
  QCheck.make
    ~print:(fun (packed, epochs) ->
      Printf.sprintf "packed=%b %s" packed
        (String.concat " | "
           (List.map (fun ops -> String.concat " " (List.map show_op ops)) epochs)))
    QCheck.Gen.(
      pair bool (list_size (int_range 2 5) (list_size (int_range 1 6) gen_op)))

(* What happens to a history's store before an epoch begins. *)
type between = Nothing | Prune of int | Crash

(* Commit one epoch per [(between, ops)]: the store is pruned or crashed
   and recovered first, as [between] says.  Objects appear the first
   time an op names their slot.  [after] sees each commit's store, the
   epoch it committed over (its parent) and the epoch.  Returns the last
   store and the epochs. *)
let run_history ~packed epochs ~after =
  let store = ref (fresh_store ~packed ()) in
  let oids = Hashtbl.create 4 and metas = Hashtbl.create 4 and pages = Hashtbl.create 16 in
  let oid_of slot =
    match Hashtbl.find_opt oids slot with
    | Some oid -> oid
    | None ->
        let oid = Store.alloc_oid !store in
        Hashtbl.replace oids slot oid;
        Hashtbl.replace metas slot (Printf.sprintf "obj%d" slot);
        Store.put_object !store ~oid ~kind:"memory" ~meta:(Hashtbl.find metas slot);
        oid
  in
  let write slot idx k =
    Hashtbl.replace pages (slot, idx) k;
    Store.put_pages !store ~oid:(oid_of slot) [ (idx, content k) ]
  in
  let apply = function
    | Write (s, i, k) -> write s i k
    | Rewrite (s, i) -> write s i (Option.value ~default:0 (Hashtbl.find_opt pages (s, i)))
    | Meta (s, m) ->
        let oid = oid_of s in
        Hashtbl.replace metas s (Printf.sprintf "obj%d-v%d" s m);
        Store.put_object !store ~oid ~kind:"memory" ~meta:(Hashtbl.find metas s)
    | Touch s ->
        let oid = oid_of s in
        Store.put_object !store ~oid ~kind:"memory" ~meta:(Hashtbl.find metas s)
  in
  let committed =
    List.map
      (fun (between, ops) ->
        (match between with
        | Nothing -> ()
        | Prune keep -> ignore (Store.prune_history !store ~keep)
        | Crash -> store := recovered !store);
        let parent = Store.last_complete_epoch !store in
        let epoch = commit !store (fun () -> List.iter apply ops) in
        after !store ~parent ~epoch;
        epoch)
      epochs
  in
  (!store, committed)

let build_history (packed, epochs) =
  run_history ~packed
    (List.map (fun ops -> (Nothing, ops)) epochs)
    ~after:(fun _ ~parent:_ ~epoch:_ -> ())

let rec pairs = function
  | [] -> []
  | b :: rest -> List.map (fun e -> (b, e)) rest @ pairs rest

(* For every base < epoch: the location-diff stream passes the standby's
   digest check and composes to exactly what the oracle's stream composes
   to (and to the sender's epoch), and it ships every page the oracle
   ships, possibly more. *)
let check_pair store (base, epoch) =
  let stream = Migrate.serialize_incremental ~store ~base ~epoch in
  let oracle = oracle_incremental ~store ~base ~epoch in
  let want = snapshot store ~epoch in
  let verified =
    let sb = standby_at ~store ~base in
    match Migrate.install_verified ~store:sb (shipment ~store ~base ~epoch stream) with
    | Ok e -> if snapshot sb ~epoch:e = want then "ok" else "composed state differs"
    | Error msg -> "rejected: " ^ msg
  in
  let oracle_state =
    let sb = standby_at ~store ~base in
    match Migrate.install_verified ~store:sb (shipment ~store ~base ~epoch oracle) with
    | Ok e -> if snapshot sb ~epoch:e = want then "matches" else "differs"
    | Error msg -> "rejected: " ^ msg
  in
  let shipped = stream_pages stream in
  let missing =
    List.concat_map
      (fun (oid, idxs) ->
        List.filter_map
          (fun idx ->
            match List.assoc_opt oid shipped with
            | Some got when List.mem idx got -> None
            | _ -> Some (Printf.sprintf "%d:%d" oid idx))
          idxs)
      (stream_pages oracle)
  in
  if verified = "ok" && oracle_state = "matches" && missing = [] then true
  else
    QCheck.Test.fail_reportf
      "base %d epoch %d: verified install %s; oracle install %s; pages the oracle ships but the stream does not: [%s]"
      base epoch verified oracle_state (String.concat " " missing)

let gen_between =
  QCheck.Gen.(
    frequency
      [ (4, return Nothing); (1, map (fun k -> Prune (1 + k)) (int_bound 2)); (1, return Crash) ])

let show_between = function
  | Nothing -> ""
  | Prune keep -> Printf.sprintf "prune(%d) " keep
  | Crash -> "crash "

(* Per epoch: what happens before it, and its ops. *)
let arb_kept_history =
  QCheck.make
    ~print:(fun (packed, epochs) ->
      Printf.sprintf "packed=%b %s" packed
        (String.concat " | "
           (List.map
              (fun (between, ops) ->
                show_between between ^ String.concat " " (List.map show_op ops))
              epochs)))
    QCheck.Gen.(
      pair bool
        (list_size (int_range 2 6) (pair gen_between (list_size (int_range 0 6) gen_op))))

(* After every commit with a parent, the delta the commit kept equals,
   page bytes included, the delta the device path reads off the same
   device recovered into a fresh store, which holds no kept delta; and
   the kept one costs no read and no time. *)
let kept_matches_device store ~parent ~epoch =
  if parent > 0 then begin
    let dev = Store.device store and clock = Store.clock store in
    let read0 = Striped.bytes_read dev and t0 = Clock.now clock in
    let kept = Store.read_delta store ~base:parent ~epoch in
    let read = Striped.bytes_read dev - read0 and took = Clock.now clock - t0 in
    let device = Store.read_delta (recovered store) ~base:parent ~epoch in
    if kept <> device || read <> 0 || took <> 0 then
      QCheck.Test.fail_reportf
        "epoch %d over %d: kept delta %s the device path's; it read %d bytes in %d ns" epoch
        parent
        (if kept = device then "equals" else "differs from")
        read took
  end

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"location diff composes like the byte-compare oracle"
         ~count:60 arb_history (fun h ->
           let store, epochs = build_history h in
           List.for_all (check_pair store) (pairs epochs)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"kept delta equals the device path's, bytes included" ~count:200
         arb_kept_history (fun (packed, epochs) ->
           ignore (run_history ~packed epochs ~after:kept_matches_device);
           true));
  ]

(* Pinned cost and edge cases -------------------------------------------------- *)

(* The array range [(off, len)] a device-local read serves, inverting the
   RAID-0 layout of [Striped.create]'s defaults (member [nvmeD]). *)
let array_range (r : Fault.read_info) =
  let n = Cost.nvme_stripe_devices and s = Cost.nvme_stripe_size in
  let d = int_of_string (String.sub r.Fault.r_dev 4 (String.length r.Fault.r_dev - 4)) in
  (((((r.Fault.r_off / s) * n) + d) * s) + (r.Fault.r_off mod s), r.Fault.r_len)

(* Run [f] with a pass-through fault handler; returns its result, the
   virtual time it took and the array ranges of the device reads that met
   the injector. *)
let measured store f =
  let dev = Store.device store and clock = Store.clock store in
  Striped.settle dev ~clock;
  let h = Fault.create () in
  let ranges = ref [] in
  h.Fault.on_read <-
    (fun r ->
      ranges := array_range r :: !ranges;
      Fault.Clean);
  Striped.set_fault dev (Some h);
  let t0 = Clock.now clock in
  let v = Fun.protect ~finally:(fun () -> Striped.set_fault dev None) f in
  (v, Clock.now clock - t0, List.rev !ranges)

(* Virtual time of one vectored read of [ranges] on [store]'s idle device. *)
let batch_read store ranges =
  let dev = Store.device store and clock = Store.clock store in
  Striped.settle dev ~clock;
  let t0 = Clock.now clock in
  let arrived = Striped.submit_vec dev ~now:t0 (Array.of_list ranges) in
  Clock.advance_to clock (Array.fold_left (fun m (c, _) -> max m c) t0 arrived);
  Clock.now clock - t0

let one_block_read =
  Cost.nvme_read_latency + Cost.transfer_time ~bandwidth:Cost.nvme_device_bandwidth Store.block_size

(* The array ranges of the leaves over [(epoch, oid, idx)], on [store]:
   each the first device read of a cold page read.  A frame's reads are
   told apart by these locations: leaves and raw pages are both one block
   long. *)
let leaf_ranges store leaves =
  List.map
    (fun (epoch, oid, idx) ->
      match measured store (fun () -> Store.read_page store ~epoch ~oid ~idx) with
      | _, _, leaf :: _ -> leaf
      | _, _, [] -> Alcotest.fail "a cold page read issued no read")
    leaves


(* The frame of [store]'s newest epoch against its parent comes from the
   delta its commit kept: no device read, no virtual time, and the bytes
   of the device path's frame on a recovered store.  Returns another
   recovered store, its leaves not yet resident, for the device path's
   pins.  Recovery loads only the newest epoch's versions, so [base]'s
   are loaded first, on their own: its one version [epoch] rewrote is
   one read, which the pins leave out. *)
let kept_frame store ~base ~epoch =
  let kept, took, ranges =
    measured store (fun () -> Migrate.serialize_incremental ~store ~base ~epoch)
  in
  Alcotest.(check int) "kept frame: no device time" 0 took;
  Alcotest.(check int) "kept frame: no reads" 0 (List.length ranges);
  Alcotest.(check string) "kept frame equals the device path's" kept
    (Migrate.serialize_incremental ~store:(recovered store) ~base ~epoch);
  let store = recovered store in
  let _, _, ranges = measured store (fun () -> Store.objects_at store ~epoch:base) in
  Alcotest.(check int) "base's versions: one read at first use" 1 (List.length ranges);
  store

(* Object [a] spans three radix leaves and object [b] one; the second
   epoch rewrites [k] pages inside [a]'s middle leaf. *)
let changed_leaf_history k =
  let store = fresh_store () in
  let a = Store.alloc_oid store and b = Store.alloc_oid store in
  let e1 =
    commit store (fun () ->
        Store.put_object store ~oid:a ~kind:"memory" ~meta:"a";
        Store.put_pages store ~oid:a
          (List.init 3 (fun leaf -> (leaf * Store.leaf_span, noise_page leaf))
          @ List.init k (fun i -> (Store.leaf_span + 1 + i, noise_page (10 + i))));
        Store.put_object store ~oid:b ~kind:"memory" ~meta:"b";
        Store.put_pages store ~oid:b [ (0, noise_page 20); (1, noise_page 21) ])
  in
  let e2 =
    commit store (fun () ->
        Store.put_pages store ~oid:a
          (List.init k (fun i -> (Store.leaf_span + 1 + i, noise_page (30 + i)))))
  in
  (store, a, b, e1, e2)

let test_cost_changed_leaf_only () =
  let k = 3 in
  let store, a, b, e1, e2 = changed_leaf_history k in
  let store = kept_frame store ~base:e1 ~epoch:e2 in
  let stream, took, ranges =
    measured store (fun () -> Migrate.serialize_incremental ~store ~base:e1 ~epoch:e2)
  in
  Alcotest.(check (list (pair int (list int))))
    "only the rewritten pages ship"
    [ (a, List.init k (fun i -> Store.leaf_span + 1 + i)) ]
    (stream_pages stream);
  let twin, _, _, _, _ = changed_leaf_history k in
  let leaves = leaf_ranges twin [ (e1, a, Store.leaf_span); (e2, a, Store.leaf_span) ] in
  let leaf_reads, page_reads = List.partition (fun r -> List.mem r leaves) ranges in
  Alcotest.(check (list (pair int int))) "the changed leaf at both epochs meets the injector"
    (List.sort compare leaves) (List.sort compare leaf_reads);
  Alcotest.(check int) "each rewritten page meets the injector once" k (List.length page_reads);
  (* The leaf pair is one vectored batch and the pages another, each
     timed as the same ranges read together on an identical fresh store. *)
  Alcotest.(check int) "leaf pair as one batch, then the pages as one batch"
    (batch_read twin leaf_reads + batch_read twin page_reads)
    took;
  (* The leaf pair is resident now: only the data is paid again. *)
  let _, took, ranges = measured store (fun () -> Store.read_delta store ~base:e1 ~epoch:e2) in
  Alcotest.(check (list (pair int int))) "resident leaves: the pages' reads alone" page_reads
    ranges;
  Alcotest.(check int) "resident leaves: data only" (batch_read twin page_reads) took;
  (* An untouched object costs nothing, at any residency: [b], restaged
     with its own metadata and no pages, shares every leaf with [e2], and
     none of them was ever read. *)
  let e3 = commit store (fun () -> Store.put_object store ~oid:b ~kind:"memory" ~meta:"b") in
  let delta, took, ranges = measured store (fun () -> Store.read_delta store ~base:e2 ~epoch:e3) in
  Alcotest.(check int) "untouched object: no pages" 0 (List.length delta);
  Alcotest.(check int) "untouched object: no device time" 0 took;
  Alcotest.(check int) "untouched object: no reads" 0 (List.length ranges)

(* The second epoch rewrites one page in each of [k] leaves of [a], and
   one page of [b]. *)
let spread_history k =
  let store = fresh_store () in
  let a = Store.alloc_oid store and b = Store.alloc_oid store in
  let put seed =
    Store.put_pages store ~oid:a
      (List.init k (fun leaf -> (leaf * Store.leaf_span, noise_page (seed + leaf))));
    Store.put_pages store ~oid:b [ (0, noise_page (seed + k)) ]
  in
  let e1 =
    commit store (fun () ->
        Store.put_object store ~oid:a ~kind:"memory" ~meta:"a";
        Store.put_object store ~oid:b ~kind:"memory" ~meta:"b";
        put 0)
  in
  let e2 = commit store (fun () -> put 100) in
  (store, a, b, e1, e2)

(* A frame costs one leaf batch and one page stream however many leaves
   and objects changed, not a device round trip per leaf. *)
let test_cost_one_batch_per_frame () =
  let k = 4 in
  let store, a, b, e1, e2 = spread_history k in
  let store = kept_frame store ~base:e1 ~epoch:e2 in
  let stream, took, ranges =
    measured store (fun () -> Migrate.serialize_incremental ~store ~base:e1 ~epoch:e2)
  in
  Alcotest.(check (list (pair int (list int))))
    "every rewritten page ships"
    [ (a, List.init k (fun leaf -> leaf * Store.leaf_span)); (b, [ 0 ]) ]
    (stream_pages stream);
  let twin, _, _, _, _ = spread_history k in
  let leaves =
    leaf_ranges twin
      (List.concat_map
         (fun e -> (e, b, 0) :: List.init k (fun leaf -> (e, a, leaf * Store.leaf_span)))
         [ e1; e2 ])
  in
  let leaf_reads, page_reads = List.partition (fun r -> List.mem r leaves) ranges in
  Alcotest.(check (list (pair int int))) "every changed leaf at both epochs meets the injector"
    (List.sort compare leaves) (List.sort compare leaf_reads);
  Alcotest.(check int) "every moved page meets the injector once" (k + 1)
    (List.length page_reads);
  let batch = batch_read twin leaf_reads in
  Alcotest.(check int) "one leaf batch plus one batch of every moved page"
    (batch + batch_read twin page_reads)
    took;
  Alcotest.(check bool) "the batch beats k serial leaf reads" true (batch < k * one_block_read)

(* Rewrite page 1 of a two-page object with its own bytes, ship the delta
   to a standby holding the base, and return the shipped pages. *)
let identical_rewrite ~packed =
  let store = fresh_store ~packed () in
  let oid = Store.alloc_oid store in
  let e1 =
    commit store (fun () ->
        Store.put_object store ~oid ~kind:"memory" ~meta:"m";
        Store.put_pages store ~oid [ (0, noise_page 1); (1, noise_page 2) ])
  in
  let e2 = commit store (fun () -> Store.put_pages store ~oid [ (1, noise_page 2) ]) in
  let stream = Migrate.serialize_incremental ~store ~base:e1 ~epoch:e2 in
  let sb = standby_at ~store ~base:e1 in
  (match Migrate.install_verified ~store:sb (shipment ~store ~base:e1 ~epoch:e2 stream) with
  | Ok e ->
      Alcotest.(check bool) "standby equals the sender" true
        (snapshot sb ~epoch:e = snapshot store ~epoch:e2)
  | Error msg -> Alcotest.failf "standby rejected the delta: %s" msg);
  (oid, stream_pages stream)

let test_identical_rewrite_unpacked_ships () =
  let oid, shipped = identical_rewrite ~packed:false in
  Alcotest.(check (list (pair int (list int)))) "a new location ships" [ (oid, [ 1 ]) ] shipped

let test_dedup_hit_not_shipped () =
  let _, shipped = identical_rewrite ~packed:true in
  Alcotest.(check (list (pair int (list int)))) "the same location ships nothing" [] shipped

(* A frame whose digest contradicts the standby's composed epoch is
   rejected after its delta is staged; the abort must leave the standby
   exactly as it was, oid and epoch counters included, so the next good
   frame installs as the following epoch. *)
let test_rejected_frame_leaves_standby () =
  let store = fresh_store () in
  let a = Store.alloc_oid store in
  let e1 =
    commit store (fun () ->
        Store.put_object store ~oid:a ~kind:"memory" ~meta:"a";
        Store.put_pages store ~oid:a [ (0, noise_page 1) ])
  in
  (* An oid above anything the standby allocates, so staging it moves the
     standby's oid counter and the abort must set it back. *)
  Store.reserve_oids store ~upto:100;
  let b = Store.alloc_oid store in
  let e2 =
    commit store (fun () ->
        Store.put_pages store ~oid:a [ (1, noise_page 2) ];
        Store.put_object store ~oid:b ~kind:"memory" ~meta:"b";
        Store.put_pages store ~oid:b [ (0, noise_page 3) ])
  in
  let stream = Migrate.serialize_incremental ~store ~base:e1 ~epoch:e2 in
  let good = shipment ~store ~base:e1 ~epoch:e2 stream in
  let sb = standby_at ~store ~base:e1 in
  let epochs = Store.checkpoint_epochs sb and last = Store.last_complete_epoch sb in
  let next_oid = Store.alloc_oid sb + 1 in
  let bad = { good with Migrate.sh_summary = good.Migrate.sh_summary lxor 1 } in
  (match Migrate.install_verified ~store:sb bad with
  | Ok e -> Alcotest.failf "a contradicting digest installed as epoch %d" e
  | Error msg ->
      Alcotest.(check string) "reason" "composed epoch contradicts the shipped manifest digest" msg);
  Alcotest.(check (list int)) "epochs unchanged" epochs (Store.checkpoint_epochs sb);
  Alcotest.(check int) "last complete epoch unchanged" last (Store.last_complete_epoch sb);
  Alcotest.(check int) "oid counter unchanged" next_oid (Store.alloc_oid sb);
  match Migrate.install_verified ~store:sb good with
  | Error msg -> Alcotest.failf "the good frame was rejected: %s" msg
  | Ok e ->
      Alcotest.(check int) "installs as the following epoch" (last + 1) e;
      Alcotest.(check bool) "standby equals the sender" true
        (snapshot sb ~epoch:e = snapshot store ~epoch:e2);
      Alcotest.(check bool) "installed epoch verifies" true
        (Result.is_ok (Store.verify_epoch sb ~epoch:e ~check_meta:(fun ~kind:_ _ -> Ok ())))

(* A raw store's epoch, committed with no manifest call, carries its
   manifest: it passes both checks, and its frame installs on a second
   store, which then holds the same checkpoint. *)
let test_raw_epoch_installs () =
  let store = fresh_store () in
  let a = Store.alloc_oid store and b = Store.alloc_oid store in
  let epoch =
    commit store (fun () ->
        Store.put_object store ~oid:a ~kind:"memory" ~meta:"a";
        Store.put_pages store ~oid:a [ (0, noise_page 1); (7, noise_page 2) ];
        Store.put_object store ~oid:b ~kind:"sls.pipe" ~meta:"b")
  in
  let accept ~kind:_ _ = Ok () in
  (match Store.check_epoch store ~epoch ~check_meta:accept with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "check_epoch: %s" msg);
  (match Store.verify_epoch store ~epoch ~check_meta:accept with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "verify_epoch: %s" msg);
  let sb = fresh_store () in
  match
    Result.bind (Migrate.frame ~store ~base:0 ~epoch) (fun (frame, _) ->
        Result.bind (Migrate.open_shipment frame) (Migrate.install_verified ~store:sb))
  with
  | Error msg -> Alcotest.failf "the raw epoch did not install: %s" msg
  | Ok installed ->
      Alcotest.(check bool) "stores identical" true
        (Aurora_core.Replica_set.stores_identical ~src:store ~src_epoch:epoch ~dst:sb
           ~dst_epoch:installed)

let () =
  Alcotest.run "aurora_migrate"
    [
      ( "location diff",
        [
          Alcotest.test_case "cost: changed leaf only" `Quick test_cost_changed_leaf_only;
          Alcotest.test_case "cost: one batch per frame" `Quick test_cost_one_batch_per_frame;
          Alcotest.test_case "identical rewrite, unpacked, ships" `Quick
            test_identical_rewrite_unpacked_ships;
          Alcotest.test_case "dedup hit not shipped" `Quick test_dedup_hit_not_shipped;
        ] );
      ( "install",
        [
          Alcotest.test_case "rejected frame leaves standby untouched" `Quick
            test_rejected_frame_leaves_standby;
          Alcotest.test_case "raw epoch verifies and installs" `Quick test_raw_epoch_installs;
        ] );
      ("properties", qcheck_tests);
    ]
