module Clock = Aurora_sim.Clock
module Striped = Aurora_block.Striped
module Fault = Aurora_block.Fault
module Wire = Aurora_objstore.Wire
module Manifest = Aurora_objstore.Manifest
module Store = Aurora_objstore.Store
module Store_format = Aurora_objstore.Store_format
module Allocator = Aurora_objstore.Allocator
module Vm_object = Aurora_vm.Vm_object
module Page = Aurora_vm.Page
module Trace = Aurora_obs.Trace

let payload c = Bytes.make 64 c

let fresh () =
  let clock = Clock.create () in
  let dev = Striped.create () in
  let store = Store.format ~dev ~clock in
  (clock, dev, store)

let test_wire_roundtrip () =
  let w = Wire.writer () in
  Wire.u8 w 200;
  Wire.u32 w 123456;
  Wire.u64 w 987654321012;
  Wire.str w "hello";
  Wire.list w (fun x -> Wire.u32 w x) [ 1; 2; 3 ];
  let r = Wire.reader (Wire.contents w) in
  Alcotest.(check int) "u8" 200 (Wire.ru8 r);
  Alcotest.(check int) "u32" 123456 (Wire.ru32 r);
  Alcotest.(check int) "u64" 987654321012 (Wire.ru64 r);
  Alcotest.(check string) "str" "hello" (Wire.rstr r);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Wire.rlist r Wire.ru32);
  Alcotest.(check int) "consumed" 0 (Wire.remaining r)

let test_wire_short_read_raises () =
  let r = Wire.reader (Bytes.make 2 'x') in
  Alcotest.(check bool) "raises Corrupt" true
    (try
       ignore (Wire.ru64 r);
       false
     with Wire.Corrupt _ -> true);
  Alcotest.(check bool) "short read is told apart" true (Wire.short r);
  (* A bad magic is corruption however many bytes follow. *)
  let r = Wire.reader (Bytes.make 64 '\000') in
  (try ignore (Wire.read Store_format.journal_record_codec r) with Wire.Corrupt _ -> ());
  Alcotest.(check bool) "bad magic is not short" false (Wire.short r)

let test_checkpoint_roundtrip () =
  let _clock, _dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let epoch = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"proc" ~meta:"serialized-proc-state";
  Store.put_pages store ~oid [ (0, payload 'a'); (7, payload 'b') ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Alcotest.(check int) "epoch complete" epoch (Store.last_complete_epoch store);
  Alcotest.(check string) "meta" "serialized-proc-state" (Store.read_meta store ~epoch ~oid);
  Alcotest.(check (list int)) "page indices" [ 0; 7 ]
    (List.map fst (Store.page_crcs store ~epoch ~oid));
  (match Store.read_page store ~epoch ~oid ~idx:7 with
  | Some data -> Alcotest.(check bytes) "page content" (payload 'b') data
  | None -> Alcotest.fail "page 7 missing");
  Alcotest.(check (option bytes)) "absent page" None (Store.read_page store ~epoch ~oid ~idx:3)

let test_incremental_cow () =
  let _clock, _dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let e1 = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"";
  Store.put_pages store ~oid [ (0, payload 'x'); (1, payload 'y') ];
  ignore (Store.commit_checkpoint store);
  let e2 = Store.begin_checkpoint store in
  (* Only page 1 dirty in the second epoch. *)
  Store.put_pages store ~oid [ (1, payload 'Y') ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  (* Old epoch still reads the old data; new epoch merges. *)
  Alcotest.(check (option bytes)) "e1 page1 old" (Some (payload 'y'))
    (Store.read_page store ~epoch:e1 ~oid ~idx:1);
  Alcotest.(check (option bytes)) "e2 page1 new" (Some (payload 'Y'))
    (Store.read_page store ~epoch:e2 ~oid ~idx:1);
  Alcotest.(check (option bytes)) "e2 page0 carried over" (Some (payload 'x'))
    (Store.read_page store ~epoch:e2 ~oid ~idx:0)

let test_unchanged_object_carries_forward () =
  let _clock, _dev, store = fresh () in
  let oid_a = Store.alloc_oid store in
  let oid_b = Store.alloc_oid store in
  let _e1 = Store.begin_checkpoint store in
  Store.put_object store ~oid:oid_a ~kind:"vnode" ~meta:"A";
  Store.put_object store ~oid:oid_b ~kind:"vnode" ~meta:"B";
  ignore (Store.commit_checkpoint store);
  let e2 = Store.begin_checkpoint store in
  Store.put_object store ~oid:oid_a ~kind:"vnode" ~meta:"A2";
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Alcotest.(check string) "updated object" "A2" (Store.read_meta store ~epoch:e2 ~oid:oid_a);
  Alcotest.(check string) "untouched object still present" "B"
    (Store.read_meta store ~epoch:e2 ~oid:oid_b);
  Alcotest.(check int) "table lists both" 2 (List.length (Store.objects_at store ~epoch:e2))

let test_recovery_after_clean_shutdown () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let epoch = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"proc" ~meta:"state-bytes";
  Store.put_pages store ~oid [ (5, payload 'q') ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Striped.settle dev ~clock;
  (* Mount a brand-new store instance from the device bytes alone. *)
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "epoch recovered" epoch (Store.last_complete_epoch store2);
  Alcotest.(check string) "meta recovered" "state-bytes"
    (Store.read_meta store2 ~epoch ~oid);
  Alcotest.(check (option bytes)) "page recovered" (Some (payload 'q'))
    (Store.read_page store2 ~epoch ~oid ~idx:5)

let test_crash_mid_checkpoint_keeps_previous () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let e1 = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"good";
  Store.put_pages store ~oid [ (0, payload 'g') ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  let durable_point = Clock.now clock in
  (* Second checkpoint: submit but crash before it becomes durable. *)
  ignore (Store.begin_checkpoint store);
  Store.put_object store ~oid ~kind:"memory" ~meta:"torn";
  Store.put_pages store ~oid [ (0, payload 't') ];
  ignore (Store.commit_checkpoint store);
  Striped.crash dev ~now:durable_point;
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "previous checkpoint found" e1 (Store.last_complete_epoch store2);
  Alcotest.(check string) "no torn state" "good" (Store.read_meta store2 ~epoch:e1 ~oid);
  Alcotest.(check (option bytes)) "old page intact" (Some (payload 'g'))
    (Store.read_page store2 ~epoch:e1 ~oid ~idx:0)

let test_crash_before_any_checkpoint () =
  let clock, dev, store = fresh () in
  ignore store;
  Striped.settle dev ~clock;
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "empty store" 0 (Store.last_complete_epoch store2)

let test_recover_uninitialized_device_fails () =
  let clock = Clock.create () in
  let dev = Striped.create () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Store.recover ~dev ~clock);
       false
     with Store.Corrupt_store _ -> true)

let test_journal_append_and_scan () =
  let _clock, _dev, store = fresh () in
  let j = Store.journal_create store ~size:(256 * 1024) in
  Store.journal_append store j "record-one";
  Store.journal_append store j "record-two";
  Store.journal_append store j "record-three";
  Alcotest.(check (list string)) "scan finds records"
    [ "record-one"; "record-two"; "record-three" ]
    (Store.journal_records store j)

let test_journal_truncate () =
  let _clock, _dev, store = fresh () in
  let j = Store.journal_create store ~size:(64 * 1024) in
  Store.journal_append store j "old";
  Store.journal_truncate store j;
  Alcotest.(check (list string)) "empty after truncate" [] (Store.journal_records store j);
  Store.journal_append store j "new";
  Alcotest.(check (list string)) "appends after truncate" [ "new" ]
    (Store.journal_records store j)

let test_journal_survives_crash () =
  let clock, dev, store = fresh () in
  let j = Store.journal_create store ~size:(64 * 1024) in
  Store.journal_append store j "committed-write";
  (* journal_append is synchronous: already durable at this clock. *)
  let allocated = Store.blocks_allocated store in
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "journal blocks stay allocated" allocated
    (Store.blocks_allocated store2);
  (* A checkpoint after recovery must not take the journal's blocks. *)
  let oid = Store.alloc_oid store2 in
  ignore (Store.begin_checkpoint store2);
  Store.put_object store2 ~oid ~kind:"memory" ~meta:"m";
  Store.put_pages store2 ~oid [ (0, payload 'p') ];
  ignore (Store.commit_checkpoint store2);
  Store.wait_durable store2;
  match Store.journal_find store2 (Store.journal_id j) with
  | Some j2 ->
      Alcotest.(check (list string)) "records recovered" [ "committed-write" ]
        (Store.journal_records store2 j2)
  | None -> Alcotest.fail "journal registry lost"

(* A recovered journal appends after its durable records, not over them:
   its head is found by a scan, not reset to the first byte. *)
let test_journal_append_after_recovery () =
  let clock, dev, store = fresh () in
  let j = Store.journal_create store ~size:(64 * 1024) in
  Store.journal_append store j "aaaaaaaa";
  Store.journal_append store j "bbbbbbbb";
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  let j2 = Option.get (Store.journal_find store2 (Store.journal_id j)) in
  Store.journal_append store2 j2 "cc";
  Alcotest.(check (list string)) "durable records kept" [ "aaaaaaaa"; "bbbbbbbb"; "cc" ]
    (Store.journal_records store2 j2)

(* Reading a recovered journal back costs what its records take, not
   its capacity: one 100-byte record reads the same from 64 MiB as from
   64 KiB, and the first append after recovery scans no further. *)
let test_journal_read_cost_is_records () =
  let recovered ~size =
    let clock, dev, store = fresh () in
    let j = Store.journal_create store ~size in
    Store.journal_append store j (String.make 100 'r');
    Striped.crash dev ~now:(Clock.now clock);
    let store = Store.recover ~dev ~clock in
    (clock, store, Option.get (Store.journal_find store (Store.journal_id j)))
  in
  let read_back ~size =
    let clock, store, j = recovered ~size in
    let before = Clock.now clock in
    let recs = Store.journal_records store j in
    (recs, Clock.now clock - before)
  in
  let small, small_cost = read_back ~size:(64 * 1024) in
  let large, large_cost = read_back ~size:(64 * 1024 * 1024) in
  Alcotest.(check (list string)) "same records" small large;
  Alcotest.(check (list string)) "the record" [ String.make 100 'r' ] large;
  let block = Aurora_sim.Cost.transfer_time ~bandwidth:Aurora_sim.Cost.nvme_device_bandwidth Store.block_size in
  Alcotest.(check bool)
    (Printf.sprintf "read cost %d ns vs %d ns, within one block (%d ns)" large_cost small_cost block)
    true
    (abs (large_cost - small_cost) <= block);
  (* The first append's scan pays the same as the read-back did. *)
  let clock, store, j = recovered ~size:(64 * 1024 * 1024) in
  let before = Clock.now clock in
  Store.journal_append store j "s";
  let append_cost = Clock.now clock - before in
  let clock', store', j' = recovered ~size:(64 * 1024) in
  let before' = Clock.now clock' in
  Store.journal_append store' j' "s";
  let append_cost' = Clock.now clock' - before' in
  Alcotest.(check bool)
    (Printf.sprintf "append after recovery %d ns vs %d ns" append_cost append_cost')
    true
    (abs (append_cost - append_cost') <= block);
  Alcotest.(check (list string)) "appended after the record" [ String.make 100 'r'; "s" ]
    (Store.journal_records store j)

let test_journal_timing_anchor () =
  (* Table 5: a synchronous 4 KiB journal write costs ~28 us. *)
  let clock, _dev, store = fresh () in
  let j = Store.journal_create store ~size:(1024 * 1024) in
  let before = Clock.now clock in
  Store.journal_append store j (String.make 4096 'w');
  let cost = Clock.now clock - before in
  Alcotest.(check bool)
    (Printf.sprintf "4KiB journal ~28us (got %dns)" cost)
    true
    (cost > 24_000 && cost < 35_000)

let test_prune_history_frees_blocks () =
  let _clock, _dev, store = fresh () in
  let oid = Store.alloc_oid store in
  for i = 1 to 10 do
    ignore (Store.begin_checkpoint store);
    Store.put_object store ~oid ~kind:"memory" ~meta:(string_of_int i);
    Store.put_pages store ~oid [ (i, payload 'p') ];
    ignore (Store.commit_checkpoint store)
  done;
  Store.wait_durable store;
  Alcotest.(check int) "ten epochs retained" 10 (List.length (Store.checkpoint_epochs store));
  let freed = Store.prune_history store ~keep:2 in
  Alcotest.(check int) "two epochs left" 2 (List.length (Store.checkpoint_epochs store));
  Alcotest.(check bool) (Printf.sprintf "freed blocks (%d)" freed) true (freed > 0);
  (* The kept epochs still read correctly. *)
  match Store.checkpoint_epochs store with
  | [ e9; e10 ] ->
      Alcotest.(check string) "meta of kept epoch" "9" (Store.read_meta store ~epoch:e9 ~oid);
      Alcotest.(check string) "meta of latest" "10" (Store.read_meta store ~epoch:e10 ~oid)
  | other -> Alcotest.failf "unexpected epochs: %d" (List.length other)

let test_history_is_time_travel () =
  (* Every epoch remains restorable: the execution-history property. *)
  let _clock, _dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let epochs =
    List.init 5 (fun i ->
        let e = Store.begin_checkpoint store in
        Store.put_object store ~oid ~kind:"memory" ~meta:"";
        Store.put_pages store ~oid [ (0, payload (Char.chr (Char.code 'a' + i))) ];
        ignore (Store.commit_checkpoint store);
        e)
  in
  Store.wait_durable store;
  List.iteri
    (fun i e ->
      Alcotest.(check (option bytes))
        (Printf.sprintf "epoch %d content" e)
        (Some (payload (Char.chr (Char.code 'a' + i))))
        (Store.read_page store ~epoch:e ~oid ~idx:0))
    epochs

let test_leaf_span_boundaries () =
  (* Page indices straddling radix-leaf boundaries must round-trip and
     stay independent across epochs. *)
  let _clock, _dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let span = Store.leaf_span in
  let idxs = [ 0; span - 1; span; span + 1; (2 * span) - 1; 2 * span; 977 ] in
  ignore (Store.begin_checkpoint store);
  Store.put_object store ~oid ~kind:"memory" ~meta:"";
  Store.put_pages store ~oid (List.map (fun i -> (i, payload 'x')) idxs);
  ignore (Store.commit_checkpoint store);
  (* Update only the page at the boundary; neighbours must carry over. *)
  let e2 = Store.begin_checkpoint store in
  Store.put_pages store ~oid [ (span, payload 'Y') ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  List.iter
    (fun i ->
      let expected = if i = span then payload 'Y' else payload 'x' in
      Alcotest.(check (option bytes))
        (Printf.sprintf "page %d" i)
        (Some expected)
        (Store.read_page store ~epoch:e2 ~oid ~idx:i))
    idxs;
  Alcotest.(check (list int)) "indices" (List.sort compare idxs)
    (List.map fst (Store.page_crcs store ~epoch:e2 ~oid))

let test_full_leaf_fits_a_block () =
  (* A completely full leaf must serialize within one block (regression:
     the original span overflowed and recovery failed). *)
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  ignore (Store.begin_checkpoint store);
  Store.put_object store ~oid ~kind:"memory" ~meta:"";
  Store.put_pages store ~oid
    (List.init Store.leaf_span (fun i -> (i, payload 'f')));
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "all pages recovered" Store.leaf_span
    (List.length (Store.page_crcs store2 ~epoch:1 ~oid))

let test_many_objects_one_checkpoint () =
  let clock, dev, store = fresh () in
  let oids = List.init 500 (fun _ -> Store.alloc_oid store) in
  ignore (Store.begin_checkpoint store);
  List.iteri
    (fun i oid ->
      Store.put_object store ~oid ~kind:"obj" ~meta:(string_of_int i);
      Store.put_pages store ~oid [ (i, payload (Char.chr (32 + (i mod 90)))) ])
    oids;
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "all objects recovered" 500
    (List.length (Store.objects_at store2 ~epoch:1));
  List.iteri
    (fun i oid ->
      Alcotest.(check string) "meta" (string_of_int i)
        (Store.read_meta store2 ~epoch:1 ~oid))
    oids

let test_journal_generation_isolation () =
  (* Regression for the stale-record bug: a truncated journal must never
     replay records from a previous generation, whatever the sizes. *)
  let _clock, _dev, store = fresh () in
  let j = Store.journal_create store ~size:(64 * 1024) in
  Store.journal_append store j "a-long-first-generation-record";
  Store.journal_append store j "second";
  Store.journal_truncate store j;
  Store.journal_append store j "x";
  Alcotest.(check (list string)) "only generation-2 records" [ "x" ]
    (Store.journal_records store j);
  Store.journal_truncate store j;
  Alcotest.(check (list string)) "empty third generation" []
    (Store.journal_records store j)

let test_prune_then_crash_recover () =
  (* Regression: pruning frees and reuses blocks; the recovery chain walk
     must stop at the oldest retained record instead of following a prev
     pointer into reused space. *)
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  for i = 1 to 20 do
    ignore (Store.begin_checkpoint store);
    Store.put_object store ~oid ~kind:"memory" ~meta:(string_of_int i);
    Store.put_pages store ~oid [ (i mod 7, payload 'p') ];
    ignore (Store.commit_checkpoint store);
    if i mod 6 = 0 then ignore (Store.prune_history store ~keep:2)
  done;
  Store.wait_durable store;
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "latest epoch" 20 (Store.last_complete_epoch store2);
  Alcotest.(check string) "latest meta" "20" (Store.read_meta store2 ~epoch:20 ~oid);
  (* Only post-prune history survives the walk. *)
  Alcotest.(check bool) "history bounded" true
    (List.length (Store.checkpoint_epochs store2) <= 4);
  (* Continue checkpointing on the recovered store. *)
  ignore (Store.begin_checkpoint store2);
  Store.put_object store2 ~oid ~kind:"memory" ~meta:"post-crash";
  ignore (Store.commit_checkpoint store2);
  Store.wait_durable store2;
  Alcotest.(check string) "post-recovery checkpoint works" "post-crash"
    (Store.read_meta store2 ~epoch:(Store.last_complete_epoch store2) ~oid)

let test_double_begin_rejected () =
  let _clock, _dev, store = fresh () in
  ignore (Store.begin_checkpoint store);
  Alcotest.(check bool) "second begin rejected" true
    (try
       ignore (Store.begin_checkpoint store);
       false
     with Invalid_argument _ -> true)

(* Newest-wins staging: re-staging a page index replaces its payload in
   place — both within one put_pages call and across calls in the same
   epoch — and commit stores exactly one entry per index. *)
let test_put_pages_newest_wins () =
  let _clock, _dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let e = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"";
  Store.put_pages store ~oid [ (7, payload 'a'); (7, payload 'b') ];
  Store.put_pages store ~oid [ (9, payload 'x') ];
  Store.put_pages store ~oid [ (9, payload 'y'); (11, payload 'z') ];
  ignore (Store.commit_checkpoint store);
  let page idx =
    match Store.read_page store ~epoch:e ~oid ~idx with
    | Some data -> Bytes.to_string data
    | None -> "<missing>"
  in
  Alcotest.(check string) "later entry of one call wins"
    (Bytes.to_string (payload 'b')) (page 7);
  Alcotest.(check string) "later call wins" (Bytes.to_string (payload 'y')) (page 9);
  Alcotest.(check string) "untouched index kept" (Bytes.to_string (payload 'z'))
    (page 11);
  Alcotest.(check (list int)) "one entry per staged index" [ 7; 9; 11 ]
    (List.map fst (Store.page_crcs store ~epoch:e ~oid));
  let fs = Store.flush_stats store in
  Alcotest.(check int) "dedup happened at staging time" 3 fs.Store.fs_pages

(* Transient read errors are absorbed by the store's retry/backoff policy:
   the caller sees clean data, the fault counter records the absorbed
   attempts, and the backoff is charged in virtual time. *)
let test_read_retry_absorbs_transients () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let e = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"m";
  Store.put_pages store ~oid [ (4, payload 'r') ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  let f = Fault.create () in
  let remaining = ref 2 in
  f.Fault.on_read <-
    (fun _ ->
      if !remaining > 0 then begin
        decr remaining;
        Fault.Fail
      end
      else Fault.Clean);
  Striped.set_fault dev (Some f);
  let before = Clock.now clock in
  Alcotest.(check (option bytes)) "read succeeds through faults"
    (Some (payload 'r'))
    (Store.read_page store ~epoch:e ~oid ~idx:4);
  Alcotest.(check int) "both faults absorbed and counted" 2 (Store.read_faults store);
  Alcotest.(check bool) "backoff charged in virtual time" true
    (Clock.now clock - before >= 40_000);
  (* With retries disabled the same fault surfaces to the caller. *)
  f.Fault.on_read <- (fun _ -> Fault.Fail);
  Store.set_read_policy store ~retries:0 ~backoff_ns:20_000;
  Alcotest.(check bool) "zero retries propagates Io_error" true
    (try
       ignore (Store.read_page store ~epoch:e ~oid ~idx:4);
       false
     with Fault.Io_error _ -> true);
  Striped.set_fault dev None

let superblock dev =
  Store.decode "superblock" Store_format.superblock_codec
    (Striped.read_nocharge dev ~off:0 ~len:Store.block_size)

(* Location (first block, blocks) of the newest checkpoint record, as the
   superblock's directory lists it first.  Superblock layout: magic
   string, epoch, next block, next oid, oldest retained (u64 each), then
   the directory's count (u32) and entries (block u64, blocks u32).
   [record_blocks_offset] is where the head entry's blocks field sits. *)
let record_blocks_offset = 4 + String.length "AURSTORE" + (4 * 8) + 4 + 8

let head_record dev =
  match (superblock dev).Store_format.sb_records with
  | head :: _ -> head
  | [] -> Alcotest.fail "no head record listed"

let overwrite dev clock ~off data =
  ignore (Striped.write dev ~now:(Clock.now clock) ~off data);
  Striped.settle dev ~clock

(* Checkpoint record layout: magic u8, epoch u64, prev block u64, prev
   blocks u32, manifest block u64, offset u32 and length u32, entry count
   u32, then per object oid u64, version block u64, offset u32, length
   u32.  [manifest_offset] is where the manifest's location starts. *)
let manifest_offset = 1 + 8 + 8 + 4
let first_entry_offset = manifest_offset + 8 + 4 + 4 + 4

(* [(oid, (block, offset, length))] of every version record the head
   checkpoint record names, in oid order. *)
let version_locations dev =
  let blk, nblocks = head_record dev in
  let record =
    Store.decode "checkpoint record" Store_format.checkpoint_codec
      (Striped.read_nocharge dev ~off:(blk * Store.block_size)
         ~len:(nblocks * Store.block_size))
  in
  List.map (fun (oid, vblock, off, len) -> (oid, (vblock, off, len))) record.Store_format.cr_table

(* Every retained epoch's objects, metadata and page CRCs. *)
let snapshot st =
  List.map
    (fun epoch ->
      ( epoch,
        List.map
          (fun (oid, kind) ->
            (oid, kind, Store.read_meta st ~epoch ~oid, Store.page_crcs st ~epoch ~oid))
          (Store.objects_at st ~epoch) ))
    (Store.checkpoint_epochs st)

let raises_corrupt_store f =
  try
    ignore (f ());
    false
  with Store.Corrupt_store _ -> true

(* Regression: recovery used to read a fixed 64 blocks per record, so a
   version record over 256 KiB could not be recovered. *)
let test_recover_large_version_record () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let meta = String.init (300 * 1024) (fun i -> Char.chr (i mod 251)) in
  let e = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"proc" ~meta;
  Store.put_pages store ~oid [ (3, payload 'v') ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check bool) "300 KiB meta recovered" true (Store.read_meta store2 ~epoch:e ~oid = meta);
  Alcotest.(check (option bytes)) "page recovered" (Some (payload 'v'))
    (Store.read_page store2 ~epoch:e ~oid ~idx:3)

(* Regression: likewise a checkpoint record over 64 blocks (one epoch
   holding 20k objects). *)
let test_recover_large_checkpoint_record () =
  let clock, dev, store = fresh () in
  let n = 20_000 in
  let oids = Array.init n (fun _ -> Store.alloc_oid store) in
  let e = Store.begin_checkpoint store in
  Array.iteri (fun i oid -> Store.put_object store ~oid ~kind:"obj" ~meta:(string_of_int i)) oids;
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  let _, record_blocks = head_record dev in
  Alcotest.(check bool)
    (Printf.sprintf "record spans %d blocks" record_blocks)
    true (record_blocks > 64);
  (* The epoch's manifest spans blocks no version record touches: the
     counts cover them through the checkpoint record. *)
  Alcotest.(check bool) "counts cover the manifest" true (Store.content_index_consistent store);
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "all objects recovered" n (List.length (Store.objects_at store2 ~epoch:e));
  Array.iteri
    (fun i oid ->
      if i mod 997 = 0 then
        Alcotest.(check string) "meta" (string_of_int i) (Store.read_meta store2 ~epoch:e ~oid))
    oids

(* A garbled, truncated or looping checkpoint record, or a garbled version
   record, surfaces as Corrupt_store, never as an untyped wire error. *)
let test_recover_bad_record_is_corrupt_store () =
  let build () =
    let clock, dev, store = fresh () in
    let oids = List.init 300 (fun _ -> Store.alloc_oid store) in
    ignore (Store.begin_checkpoint store);
    List.iter (fun oid -> Store.put_object store ~oid ~kind:"obj" ~meta:"m") oids;
    ignore (Store.commit_checkpoint store);
    Store.wait_durable store;
    (clock, dev)
  in
  (* Garbled: a record header claiming far more entries than it holds. *)
  let clock, dev = build () in
  let blk, _ = head_record dev in
  let junk = Bytes.make Store.block_size '\xff' in
  Bytes.set junk 0 '\xa1';
  overwrite dev clock ~off:(blk * Store.block_size) junk;
  Alcotest.(check bool) "garbled record" true
    (raises_corrupt_store (fun () -> Store.recover ~dev ~clock));
  (* Truncated: the superblock names fewer blocks than the record holds. *)
  let clock, dev = build () in
  let _, nblocks = head_record dev in
  Alcotest.(check bool) "record spans several blocks" true (nblocks > 1);
  let one = Bytes.create 4 in
  Bytes.set_int32_le one 0 1l;
  overwrite dev clock ~off:record_blocks_offset one;
  Alcotest.(check bool) "truncated record" true
    (raises_corrupt_store (fun () -> Store.recover ~dev ~clock));
  (* A record size beyond the store's allocated blocks. *)
  let big = Bytes.create 4 in
  Bytes.set_int32_le big 0 1_000_000l;
  overwrite dev clock ~off:record_blocks_offset big;
  Alcotest.(check bool) "oversized record" true
    (raises_corrupt_store (fun () -> Store.recover ~dev ~clock));
  (* A prev pointer naming the record itself: the epoch-order check stops
     the walk instead of looping.  Record layout: magic u8, epoch u64,
     prev block u64, prev blocks u32. *)
  let clock, dev = build () in
  let blk, nblocks = head_record dev in
  let self = Bytes.create 12 in
  Bytes.set_int64_le self 0 (Int64.of_int blk);
  Bytes.set_int32_le self 8 (Int32.of_int nblocks);
  overwrite dev clock ~off:((blk * Store.block_size) + 1 + 8) self;
  Alcotest.(check bool) "prev pointer loop" true
    (raises_corrupt_store (fun () -> Store.recover ~dev ~clock));
  (* A garbled version record: right magic, then a string length far past
     the record's end, written at the first entry's packed location. *)
  let clock, dev = build () in
  let _, (vblock, voff, _) = List.hd (version_locations dev) in
  let junk = Bytes.make 64 '\xff' in
  Bytes.set junk 0 '\xa2';
  overwrite dev clock ~off:((vblock * Store.block_size) + voff) junk;
  Alcotest.(check bool) "garbled version record" true
    (raises_corrupt_store (fun () -> Store.recover ~dev ~clock));
  (* A version entry or the manifest location whose offset, length or
     byte range is out of bounds is Corrupt_store too, never
     Invalid_argument or a raw wire error.  [width] bytes of [value]
     little-endian at byte [off] of the record. *)
  let bad_field what ~off ~width value =
    let clock, dev = build () in
    let blk, _ = head_record dev in
    let v = Bytes.create 8 in
    Bytes.set_int64_le v 0 (Int64.of_int value);
    overwrite dev clock ~off:((blk * Store.block_size) + off) (Bytes.sub v 0 width);
    Alcotest.(check bool) what true (raises_corrupt_store (fun () -> Store.recover ~dev ~clock))
  in
  bad_field "version offset past its block" ~off:(first_entry_offset + 16) ~width:4
    Store.block_size;
  bad_field "empty version record" ~off:(first_entry_offset + 20) ~width:4 0;
  bad_field "version record past the allocated blocks" ~off:(first_entry_offset + 20) ~width:4
    1_000_000;
  bad_field "manifest block past the allocated blocks" ~off:manifest_offset ~width:8 1_000_000;
  bad_field "manifest bytes past the allocated blocks" ~off:(manifest_offset + 12) ~width:4
    1_000_000;
  bad_field "manifest offset past its block" ~off:(manifest_offset + 8) ~width:4 Store.block_size;
  bad_field "empty manifest" ~off:(manifest_offset + 12) ~width:4 0

(* Recovery reads each distinct version record once, and only the blocks
   its packed bytes cover: K epochs that each rewrite one of M objects read
   the first epoch's packed run plus one block per later epoch, not K x M
   records, and every retained epoch comes back identical. *)
(* [m] objects whose fixed-size version records pack the first epoch into
   a run of several blocks, then [k - 1] epochs each rewriting one object,
   so recovery reads one multi-block run and one lone block per later
   epoch.  Durable and crashed with nothing in flight; returns the clock,
   the device, [k], the first run's block count and the pre-crash
   snapshot. *)
let version_run_store () =
  let clock, dev, store = fresh () in
  let m = 40 and k = 12 in
  (* Fixed-size metas, so the first epoch's M records pack into a run of
     several blocks. *)
  let meta i e = Printf.sprintf "%-256s" (Printf.sprintf "obj %d v%d" i e) in
  (* magic, oid, epoch, kind "memory", meta, one leaf (index u32, block u64) *)
  let record_len = 1 + 8 + 8 + (4 + 6) + (4 + 256) + (4 + 12) in
  let oids = Array.init m (fun _ -> Store.alloc_oid store) in
  ignore (Store.begin_checkpoint store);
  Array.iteri
    (fun i oid ->
      Store.put_object store ~oid ~kind:"memory" ~meta:(meta i 0);
      Store.put_pages store ~oid [ (i, payload 'a') ])
    oids;
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  let first = version_locations dev in
  Alcotest.(check bool) "records packed at their exact length" true
    (List.for_all (fun (_, (_, _, len)) -> len = record_len) first);
  let first_run = ((m * record_len) + Store.block_size - 1) / Store.block_size in
  let lo = List.fold_left (fun a (_, (b, _, _)) -> min a b) max_int first in
  let hi = List.fold_left (fun a (_, (b, _, _)) -> max a b) 0 first in
  Alcotest.(check int) "first epoch's records span one packed run" first_run (hi - lo + 1);
  Alcotest.(check bool) "the run spans several blocks" true (first_run >= 2);
  for e = 1 to k - 1 do
    ignore (Store.begin_checkpoint store);
    let i = e * 7 mod m in
    Store.put_object store ~oid:oids.(i) ~kind:"memory" ~meta:(meta i e);
    Store.put_pages store ~oid:oids.(i) [ (i, payload (Char.chr (Char.code 'a' + e))) ];
    ignore (Store.commit_checkpoint store)
  done;
  Store.wait_durable store;
  let before = snapshot store in
  Alcotest.(check int) "epochs retained" k (List.length before);
  Striped.crash dev ~now:(Clock.now clock);
  (clock, dev, k, first_run, before)

let test_recover_read_volume () =
  let clock, dev, k, first_run, before = version_run_store () in
  let read0 = Striped.bytes_read dev in
  let store2 = Store.recover ~dev ~clock in
  let read = Striped.bytes_read dev - read0 in
  (* The superblock, K one-block checkpoint records, the first epoch's
     packed run and one block for each later epoch's lone record. *)
  let bound = (1 + k + first_run + (k - 1)) * Store.block_size in
  Alcotest.(check bool) (Printf.sprintf "read %d bytes <= %d" read bound) true (read <= bound);
  Alcotest.(check bool) "epochs identical after recovery" true (snapshot store2 = before);
  Alcotest.(check bool) "content index consistent" true (Store.content_index_consistent store2);
  (* A transient failure on the coalesced version run (the only read wider
     than one block) is retried and counted. *)
  let f = Fault.create () in
  let armed = ref true in
  f.Fault.on_read <-
    (fun r ->
      if !armed && r.Fault.r_len > Store.block_size then begin
        armed := false;
        Fault.Fail
      end
      else Fault.Clean);
  Striped.set_fault dev (Some f);
  let store3 = Store.recover ~dev ~clock in
  Striped.set_fault dev None;
  Alcotest.(check bool) "a coalesced run was read" false !armed;
  Alcotest.(check int) "fault absorbed and counted" 1 (Store.read_faults store3);
  Alcotest.(check bool) "epochs identical after retried recovery" true
    (snapshot store3 = before)

(* Byte-granular liveness ---------------------------------------------------- *)

(* A store whose first epoch holds one paged object that every later epoch
   carries, so the content index has live entries throughout.  Its blocks
   stay live, so of that epoch a prune frees only the checkpoint record. *)
let liveness_store () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  ignore (Store.begin_checkpoint store);
  Store.put_object store ~oid ~kind:"memory" ~meta:"paged";
  Store.put_pages store ~oid [ (0, payload 'p'); (1, payload 'q') ];
  ignore (Store.commit_checkpoint store);
  (clock, dev, store)

(* One epoch rewriting only the metadata of [metas]: no pages, so its
   blocks are its packed version records and its checkpoint record. *)
let commit_metas store metas =
  ignore (Store.begin_checkpoint store);
  List.iter (fun (oid, meta) -> Store.put_object store ~oid ~kind:"obj" ~meta) metas;
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store

(* Crash and recover: every retained epoch reads back as before and the
   content index matches the durable leaves.  Returns the recovered
   store. *)
let recovers what clock dev store =
  let before = snapshot store in
  Striped.crash dev ~now:(Clock.now clock);
  let store = Store.recover ~dev ~clock in
  Alcotest.(check bool) (what ^ ": epochs identical after recovery") true
    (snapshot store = before);
  Alcotest.(check bool) (what ^ ": content index consistent") true
    (Store.content_index_consistent store);
  store

(* A version record straddling a block boundary keeps both blocks live:
   rewriting its neighbours and pruning their old records frees only the
   block no live record covers, and the blocks a prune freed can be
   reused without touching the straddling record. *)
let test_straddling_record_lives () =
  let clock, dev, store = liveness_store () in
  let a = Store.alloc_oid store and b = Store.alloc_oid store and c = Store.alloc_oid store in
  let big ch = String.make 3000 ch in
  commit_metas store [ (a, big 'a'); (b, big 'b'); (c, big 'c') ];
  let blk, off, len = List.assoc b (version_locations dev) in
  let c_blk, _, _ = List.assoc c (version_locations dev) in
  Alcotest.(check bool) "b's record straddles a block boundary" true
    (off + len > Store.block_size);
  Alcotest.(check int) "c's record starts where b's ends" (blk + 1) c_blk;
  let store = recovers "straddle" clock dev store in
  commit_metas store [ (a, big 'A'); (c, big 'C') ];
  let frontier, _ = head_record dev in
  (* Dropped: both older checkpoint records, and the last block of the
     three-block run, which held only the tail of c's old record.  b's
     record keeps the first two live. *)
  Alcotest.(check int) "freed blocks" 3 (Store.prune_history store ~keep:1);
  let store = recovers "straddle, pruned" clock dev store in
  (* Each new checkpoint record takes a freed block. *)
  for i = 1 to 3 do
    commit_metas store [ (a, big (Char.chr (Char.code 'a' + i))) ];
    Alcotest.(check bool) "checkpoint record reuses a freed block" true
      (fst (head_record dev) < frontier)
  done;
  let store = recovers "straddle, pruned and reused" clock dev store in
  Alcotest.(check string) "b intact" (big 'b')
    (Store.read_meta store ~epoch:(Store.last_complete_epoch store) ~oid:b)

(* The free set is not persisted: recovery rebuilds it from what the
   retained epochs, the journals and the superblock reach, so blocks a
   prune freed before a crash stay free after it and are reused. *)
let test_recovery_keeps_freed_blocks () =
  let clock, dev, store = liveness_store () in
  let a = Store.alloc_oid store in
  commit_metas store [ (a, "a0") ];
  commit_metas store [ (a, "a1") ];
  let frontier, _ = head_record dev in
  Alcotest.(check bool) "prune frees blocks" true (Store.prune_history store ~keep:1 > 0);
  let allocated = Store.blocks_allocated store in
  let store = recovers "pruned" clock dev store in
  Alcotest.(check int) "blocks_allocated after recovery" allocated
    (Store.blocks_allocated store);
  commit_metas store [ (a, "a2") ];
  Alcotest.(check bool) "next checkpoint record reuses a freed block" true
    (fst (head_record dev) < frontier);
  ignore (recovers "pruned, reused" clock dev store)

(* A block holding one live and one dead version record survives a prune;
   once both records are dead, the next prune frees it. *)
let test_shared_record_block () =
  let clock, dev, store = liveness_store () in
  let a = Store.alloc_oid store and b = Store.alloc_oid store in
  commit_metas store [ (a, "a0"); (b, "b0") ];
  let a_blk, _, _ = List.assoc a (version_locations dev) in
  let b_blk, _, _ = List.assoc b (version_locations dev) in
  Alcotest.(check int) "a and b share a block" a_blk b_blk;
  let store = recovers "shared" clock dev store in
  commit_metas store [ (a, "a1") ];
  (* Dropped: the two older checkpoint records; b0 keeps the shared
     block live. *)
  Alcotest.(check int) "one dead record: block kept" 2 (Store.prune_history store ~keep:1);
  let store = recovers "shared, a dead" clock dev store in
  commit_metas store [ (b, "b1") ];
  (* Dropped: the previous checkpoint record and the shared block. *)
  Alcotest.(check int) "both dead: block freed" 2 (Store.prune_history store ~keep:1);
  ignore (recovers "shared, both dead" clock dev store)

(* Dropping every epoch keeps the epoch counter: a recovered store numbers
   its next epochs above the chain bound the prune persisted, so a later
   recovery walks all of them instead of stopping at that bound. *)
let test_prune_all_keeps_numbering () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  List.iter (fun m -> commit_metas store [ (oid, m) ]) [ "a"; "b"; "c" ];
  ignore (Store.prune_history store ~keep:1);
  ignore (Store.prune_history store ~keep:0);
  let store = recovers "all pruned" clock dev store in
  List.iter (fun m -> commit_metas store [ (oid, m) ]) [ "d"; "e"; "f"; "g" ];
  let epochs = Store.checkpoint_epochs store in
  let store = recovers "recommitted" clock dev store in
  Alcotest.(check (list int)) "all four recover" epochs (Store.checkpoint_epochs store);
  Alcotest.(check bool) "numbered above the dropped epochs" true (List.hd epochs > 3)

(* A negative [keep] is rejected before anything changes: the retained
   epochs, the next commit's pages and a recovery all match a store that
   never made the call. *)
let test_prune_negative_keep () =
  let run ~call =
    let clock, dev, store = fresh () in
    let oid = Store.alloc_oid store in
    let commit i =
      ignore (Store.begin_checkpoint store);
      Store.put_object store ~oid ~kind:"memory" ~meta:"m";
      Store.put_pages store ~oid [ (i, payload (Char.chr (Char.code 'a' + i))) ];
      ignore (Store.commit_checkpoint store)
    in
    List.iter commit [ 1; 2; 3 ];
    if call then
      Alcotest.(check bool) "keep -1 raises Invalid_argument" true
        (try
           ignore (Store.prune_history store ~keep:(-1));
           false
         with Invalid_argument _ -> true);
    let epochs = Store.checkpoint_epochs store in
    commit 4;
    let head = Store.last_complete_epoch store in
    let pages = Store.read_pages store ~epoch:head ~oid in
    Store.wait_durable store;
    Striped.crash dev ~now:(Clock.now clock);
    let store = Store.recover ~dev ~clock in
    (epochs, pages, Store.checkpoint_epochs store, Store.read_pages store ~epoch:head ~oid)
  in
  let epochs, pages, recovered, reread = run ~call:true in
  let epochs', pages', recovered', reread' = run ~call:false in
  let pages_t = Alcotest.(list (pair int bytes)) in
  Alcotest.(check (list int)) "retained epochs untouched" epochs' epochs;
  Alcotest.(check pages_t) "next commit carries pages 1-3" pages' pages;
  Alcotest.(check (list int)) "recovered epochs" recovered' recovered;
  Alcotest.(check pages_t) "recovered pages" reread' reread

(* Freed blocks leave the device ------------------------------------------- *)

(* Epoch [e] of one object: its metadata and eight pages, all distinct
   from every other epoch's, so a prune frees whole epochs. *)
let commit_distinct store ~oid e =
  ignore (Store.begin_checkpoint store);
  Store.put_object store ~oid ~kind:"memory" ~meta:(Printf.sprintf "m%d" e);
  Store.put_pages store ~oid
    (List.init 8 (fun i ->
         (i, Bytes.of_string (Printf.sprintf "%-64s" (Printf.sprintf "e%d/p%d" e i)))));
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store

let distinct_history n =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  for e = 1 to n do
    commit_distinct store ~oid e
  done;
  (clock, dev, store, oid)

let all_verified store =
  List.for_all
    (fun epoch ->
      Result.is_ok (Store.verify_epoch store ~epoch ~check_meta:(fun ~kind:_ _ -> Ok ())))
    (Store.checkpoint_epochs store)

let crash_and_recover clock dev =
  Striped.crash dev ~now:(Clock.now clock);
  Store.recover ~dev ~clock

(* A fault handler that drops every superblock write until the returned
   flag is cleared. *)
let superblock_dropper dev =
  let drop = ref true in
  let f = Fault.create () in
  f.Fault.on_write <-
    (fun w ->
      if !drop && w.Fault.w_dev = "nvme0" && w.Fault.w_off = 0 then Fault.Drop else Fault.Land);
  Striped.set_fault dev (Some f);
  drop

(* The prune's superblock is acknowledged but lost: the durable
   superblock still names every pruned epoch, so their blocks must keep
   their bytes.  A crash then recovers the whole pre-prune history.
   Once a later superblock lands, the freed blocks leave the device and
   a crash recovers exactly the kept epochs and the new one. *)
let test_lost_prune_superblock () =
  let lost_prune () =
    let clock, dev, store, oid = distinct_history 6 in
    let drop = superblock_dropper dev in
    let freed = Store.prune_history store ~keep:2 in
    drop := false;
    Alcotest.(check bool) "the prune frees blocks" true (freed > 0);
    Alcotest.(check int) "every freed block waits for its discard" freed
      (Store.pending_discards store);
    (clock, dev, store, oid)
  in
  let clock, dev, _, _ = lost_prune () in
  let store = crash_and_recover clock dev in
  Alcotest.(check (list int)) "the pre-prune history recovers" [ 1; 2; 3; 4; 5; 6 ]
    (Store.checkpoint_epochs store);
  Alcotest.(check bool) "every epoch verifies" true (all_verified store);
  let clock, dev, store, oid = lost_prune () in
  let held = Store.sectors_held store in
  commit_distinct store ~oid 7;
  Alcotest.(check int) "discarded once a later superblock is durable" 0
    (Store.pending_discards store);
  Alcotest.(check bool) "the device holds fewer sectors" true (Store.sectors_held store < held);
  Alcotest.(check bool) "and no more than the allocated blocks" true
    (Store.sectors_held store <= Store.blocks_allocated store);
  let store = crash_and_recover clock dev in
  Alcotest.(check (list int)) "the kept epochs and the new one" [ 5; 6; 7 ]
    (Store.checkpoint_epochs store);
  Alcotest.(check bool) "every epoch verifies" true (all_verified store)

(* Recovery's deferred pass frees what no retained epoch covers, here a
   prune's blocks whose discard the crash cut off; they leave the device
   under the same rule, once the recovered store's first superblock is
   durable. *)
let test_recovery_discards_freed () =
  let clock, dev, store, oid = distinct_history 6 in
  ignore (Store.prune_history store ~keep:2);
  Alcotest.(check bool) "the prune's blocks wait" true (Store.pending_discards store > 0);
  let store = crash_and_recover clock dev in
  let held = Store.sectors_held store in
  Alcotest.(check bool) "the device holds the pruned blocks" true
    (held > Store.blocks_allocated store);
  Alcotest.(check bool) "the deferred pass's freed blocks wait" true
    (Store.pending_discards store > 0);
  commit_distinct store ~oid 7;
  Alcotest.(check int) "discarded once a superblock is durable" 0 (Store.pending_discards store);
  Alcotest.(check bool) "the device holds only allocated blocks" true
    (Store.sectors_held store <= Store.blocks_allocated store);
  let store = crash_and_recover clock dev in
  Alcotest.(check (list int)) "epochs" [ 5; 6; 7 ] (Store.checkpoint_epochs store);
  Alcotest.(check bool) "every epoch verifies" true (all_verified store)

(* A block freed, reused and freed again waits for its newest batch: the
   next checkpoint record reuses a block the first prune freed, and a
   prune of every epoch, whose superblock is lost, frees it again before
   the first batch is due.  The durable superblock still names that
   record, so its block must keep its bytes. *)
let test_refreed_block_waits () =
  let clock, dev, store, oid = distinct_history 4 in
  let head, _ = head_record dev in
  ignore (Store.prune_history store ~keep:1);
  ignore (Store.begin_checkpoint store);
  Store.put_object store ~oid ~kind:"memory" ~meta:"m5";
  ignore (Store.commit_checkpoint store);
  Alcotest.(check bool) "the record reuses a freed block" true (fst (head_record dev) < head);
  let drop = superblock_dropper dev in
  ignore (Store.prune_history store ~keep:0);
  drop := false;
  let store = crash_and_recover clock dev in
  Alcotest.(check (list int)) "the lost prune's epochs recover" [ 4; 5 ]
    (Store.checkpoint_epochs store);
  Alcotest.(check bool) "every epoch verifies" true (all_verified store)

(* A freed block an allocation takes again before its discard is due
   keeps its new bytes: a single block (the next checkpoint record reuses
   the most recently freed one) and extents carved again once a prune of
   every epoch folds the freed blocks back into the frontier. *)
let test_reused_block_keeps_bytes () =
  let clock, dev, store, oid = distinct_history 4 in
  let head, _ = head_record dev in
  ignore (Store.prune_history store ~keep:1);
  commit_distinct store ~oid 5;
  Alcotest.(check bool) "the next checkpoint record reuses a freed block" true
    (fst (head_record dev) < head);
  Alcotest.(check int) "nothing left to discard" 0 (Store.pending_discards store);
  let store = crash_and_recover clock dev in
  Alcotest.(check (list int)) "record reused: epochs" [ 4; 5 ] (Store.checkpoint_epochs store);
  Alcotest.(check bool) "record reused: every epoch verifies" true (all_verified store);
  let frontier = (superblock dev).Store_format.sb_next_block in
  ignore (Store.prune_history store ~keep:0);
  commit_distinct store ~oid 6;
  Alcotest.(check bool) "the commit carves the freed blocks again" true
    ((superblock dev).Store_format.sb_next_block < frontier);
  Alcotest.(check int) "nothing left to discard" 0 (Store.pending_discards store);
  let store = crash_and_recover clock dev in
  Alcotest.(check (list int)) "extents reused: epochs" [ 6 ] (Store.checkpoint_epochs store);
  Alcotest.(check bool) "extents reused: every epoch verifies" true (all_verified store)

(* Leaf residency ------------------------------------------------------------ *)

(* A full page of incompressible bytes: stored raw, one block, so a data
   read of it costs exactly one 4 KiB device read. *)
let noise_page seed =
  let r = Aurora_util.Rng.create seed in
  Bytes.init Store.block_size (fun _ -> Char.chr (Aurora_util.Rng.int r 256))

(* Commit write order ---------------------------------------------------------- *)

(* Every device write [f ()] submits, as (innermost store span,
   submission, completion), in submission order. *)
let traced_writes clock f =
  Trace.enable ~clock ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  f ();
  let spans = ref [] in
  List.filter_map
    (fun (e : Trace.event) ->
      match e.ev_ph with
      | Trace.Begin when e.ev_cat = "store" ->
          spans := e.ev_name :: !spans;
          None
      | Trace.End when e.ev_cat = "store" ->
          spans := List.tl !spans;
          None
      | Trace.Complete when e.ev_cat = "dev" ->
          Some ((match !spans with s :: _ -> s | [] -> ""), e.ev_ts, e.ev_ts + e.ev_dur)
      | _ -> None)
    (Trace.events ())

(* Nothing names the checkpoint record until the superblock does, so the
   record goes out at the end of the flush thread's CPU pass, racing the
   data; only the superblock, the commit point, waits for every other
   write.  A crash once the record is durable but before the last data
   extent has landed recovers the parent epoch byte-exactly. *)
let test_commit_write_order () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let parent_pages = List.init 8 (fun i -> (i, noise_page (100 + i))) in
  let e1 = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"parent";
  Store.put_pages store ~oid parent_pages;
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  let writes =
    traced_writes clock (fun () ->
        ignore (Store.begin_checkpoint store);
        Store.put_object store ~oid ~kind:"memory" ~meta:"child";
        Store.put_pages store ~oid (List.init 24 (fun i -> (i, noise_page (200 + i))));
        ignore (Store.commit_checkpoint store))
  in
  let of_span name = List.filter (fun (s, _, _) -> s = name) writes in
  let latest ws = List.fold_left (fun m (_, _, c) -> max m c) min_int ws in
  let data = of_span "commit.data" and records = of_span "commit.records" in
  match (of_span "commit.record", of_span "commit.superblock") with
  | [ ((_, rec_submit, rec_done) as record) ], [ (_, sb_submit, _) ] ->
      let data_done = latest data in
      Alcotest.(check bool) "data and version records written" true (data <> [] && records <> []);
      Alcotest.(check bool) "record submitted before the last data extent completes" true
        (rec_submit < data_done);
      Alcotest.(check int) "superblock submitted at the latest completion"
        (latest (record :: (data @ records)))
        sb_submit;
      Alcotest.(check bool) "record durable before the last data extent" true
        (rec_done < data_done);
      Striped.crash dev ~now:rec_done;
      let store = Store.recover ~dev ~clock in
      Alcotest.(check int) "parent epoch recovered" e1 (Store.last_complete_epoch store);
      Alcotest.(check string) "parent meta" "parent" (Store.read_meta store ~epoch:e1 ~oid);
      List.iter
        (fun (idx, page) ->
          Alcotest.(check (option bytes))
            (Printf.sprintf "parent page %d" idx)
            (Some page)
            (Store.read_page store ~epoch:e1 ~oid ~idx))
        parent_pages
  | _ -> Alcotest.fail "expected one record write and one superblock write"

(* Identical pages of one commit, in one object and across two, are
   stored once: the first is placed and indexed as the commit plans it,
   and every later one references it. *)
let test_dedup_within_one_commit () =
  let clock, dev, store = fresh () in
  let x = noise_page 1 and y = noise_page 2 and z = noise_page 3 in
  let a = Store.alloc_oid store and b = Store.alloc_oid store in
  let epoch = Store.begin_checkpoint store in
  Store.put_object store ~oid:a ~kind:"memory" ~meta:"a";
  Store.put_pages store ~oid:a [ (0, x); (1, x); (2, y) ];
  Store.put_object store ~oid:b ~kind:"memory" ~meta:"b";
  Store.put_pages store ~oid:b [ (0, x); (5, z) ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  let fs = Store.flush_stats store in
  Alcotest.(check int) "pages staged" 5 fs.Store.fs_pages;
  Alcotest.(check int) "pages deduped" 2 fs.Store.fs_pages_deduped;
  Alcotest.(check int) "X enters the compressor once" (3 * Store.block_size) fs.Store.fs_comp_in;
  let reads_back store =
    List.iter
      (fun (oid, pages) ->
        Alcotest.(check (list (pair int bytes)))
          (Printf.sprintf "oid %d reads back" oid)
          pages
          (Store.read_pages store ~epoch ~oid))
      [ (a, [ (0, x); (1, x); (2, y) ]); (b, [ (0, x); (5, z) ]) ]
  in
  reads_back store;
  Alcotest.(check bool) "index consistent" true (Store.content_index_consistent store);
  let indexed = Store.content_index_size store in
  Alcotest.(check int) "one index entry per distinct payload" 3 indexed;
  Striped.settle dev ~clock;
  let store = Store.recover ~dev ~clock in
  reads_back store;
  Alcotest.(check bool) "index consistent after recover" true
    (Store.content_index_consistent store);
  Alcotest.(check int) "index size after recover" indexed (Store.content_index_size store);
  ignore (Store.begin_checkpoint store);
  Store.put_pages store ~oid:b [ (7, x) ];
  ignore (Store.commit_checkpoint store);
  let fs = Store.flush_stats store in
  Alcotest.(check int) "restaged X deduped" 1 fs.Store.fs_pages_deduped;
  Alcotest.(check int) "no payload bytes written" 0 fs.Store.fs_comp_out

(* One object whose pages [0, n) all sit in radix leaf 0, durable and
   settled, so the device queues are idle. *)
let one_leaf_store n =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let epoch = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"m";
  Store.put_pages store ~oid (List.init n (fun i -> (i, noise_page i)));
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Striped.settle dev ~clock;
  (clock, dev, store, oid, epoch)

(* Run [f] with a pass-through fault handler that records every device
   read it issues as [(device, offset)], in issue order. *)
let device_reads dev f =
  let h = Fault.create () in
  let reads = ref [] in
  h.Fault.on_read <-
    (fun r ->
      reads := (r.Fault.r_dev, r.Fault.r_off) :: !reads;
      Fault.Clean);
  Striped.set_fault dev (Some h);
  let v = Fun.protect ~finally:(fun () -> Striped.set_fault dev None) f in
  (v, List.rev !reads)

(* Dedup stores seven pages of one object at one range: a bulk read
   submits that range once, and every entry that names it gets its
   bytes. *)
let test_read_each_range_once () =
  let clock, dev, store = fresh () in
  let x = Bytes.sub (noise_page 1) 0 64 and y = Bytes.sub (noise_page 2) 0 64 in
  let pages = List.init 7 (fun i -> (i, x)) @ [ (7, y) ] in
  let oid = Store.alloc_oid store in
  let epoch = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"m";
  Store.put_pages store ~oid pages;
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Alcotest.(check int) "six pages deduped" 6 (Store.flush_stats store).Store.fs_pages_deduped;
  Striped.settle dev ~clock;
  let store = Store.recover ~dev ~clock in
  (* The leaf is resident after a first pass, so the hook sees page
     ranges only. *)
  ignore (Store.read_pages store ~epoch ~oid);
  let read, reads = device_reads dev (fun () -> Store.read_pages store ~epoch ~oid) in
  Alcotest.(check (list (pair int bytes))) "every page reads back" pages read;
  Alcotest.(check int) "two ranges, two reads" 2 (List.length reads);
  Alcotest.(check int) "each range read once" 2 (List.length (List.sort_uniq compare reads))

(* A batch also decodes a stored range once and charges its
   decompression once, however many entries name it, and gives each
   page a buffer of its own: [read_pages] of N pages deduped onto one
   coded range costs the same for N = 1 and N = 50. *)
let test_decode_each_range_once () =
  let x = Bytes.make 64 'z' in
  let cost n =
    let clock, dev, store = fresh () in
    let oid = Store.alloc_oid store in
    let epoch = Store.begin_checkpoint store in
    Store.put_object store ~oid ~kind:"memory" ~meta:"m";
    Store.put_pages store ~oid (List.init n (fun i -> (i, x)));
    ignore (Store.commit_checkpoint store);
    Store.wait_durable store;
    Alcotest.(check int) "every page deduped but the first" (n - 1)
      (Store.flush_stats store).Store.fs_pages_deduped;
    Striped.settle dev ~clock;
    let store = Store.recover ~dev ~clock in
    let t0 = Clock.now clock in
    let pages = Store.read_pages store ~epoch ~oid in
    let elapsed = Clock.now clock - t0 in
    Alcotest.(check (list (pair int bytes))) (Printf.sprintf "N = %d reads back" n)
      (List.init n (fun i -> (i, x)))
      pages;
    let buffers = List.map snd pages in
    Alcotest.(check bool) (Printf.sprintf "N = %d: no two pages share a buffer" n) true
      (List.for_all (fun b -> List.length (List.filter (( == ) b) buffers) = 1) buffers);
    elapsed
  in
  let one = cost 1 in
  Alcotest.(check bool) "the read costs time" true (one > 0);
  Alcotest.(check int) "N = 50 costs what N = 1 does" one (cost 50)

(* Virtual time of one 4 KiB read on an idle device. *)
let one_block_read =
  Aurora_sim.Cost.nvme_read_latency
  + Aurora_sim.Cost.transfer_time ~bandwidth:Aurora_sim.Cost.nvme_device_bandwidth
      Store.block_size

(* The superblock lists every retained checkpoint record, so they are
   read in one vectored batch, and the version runs they name in one
   more: recovery costs three read latencies and the batches' transfers,
   however many records and runs there are. *)
let test_recover_time_one_batch () =
  let clock, dev, k, first_run, _ = version_run_store () in
  let t0 = Clock.now clock in
  let _, reads = device_reads dev (fun () -> Store.recover ~dev ~clock) in
  let elapsed = Clock.now clock - t0 in
  let runs = List.length reads - (1 + k) in
  Alcotest.(check bool) (Printf.sprintf "several version runs (%d)" runs) true (runs >= 2);
  (* The superblock, then K one-block records in one batch, then the
     runs in one: three read latencies and at most every block's
     transfer. *)
  let bound =
    one_block_read
    + (2 * Aurora_sim.Cost.nvme_read_latency)
    + Aurora_sim.Cost.transfer_time ~bandwidth:Aurora_sim.Cost.nvme_device_bandwidth
        ((k + first_run + k - 1) * Store.block_size)
  in
  Alcotest.(check bool) (Printf.sprintf "recovery took %d ns <= %d" elapsed bound) true
    (elapsed <= bound)

(* A store retaining [k] epochs of one shape: four paged objects
   committed once, then [k - 1] epochs that change nothing, so every
   epoch holds the same versions and each later one adds only its
   checkpoint record.  Its array stripes every block to the next of
   eight members.  Durable; returns the clock, the device and the
   store. *)
let epochs_store k =
  let clock = Clock.create () in
  let dev = Striped.create ~devices:8 ~stripe:Store.block_size () in
  let store = Store.format ~dev ~clock in
  ignore (Store.begin_checkpoint store);
  for i = 0 to 3 do
    let oid = Store.alloc_oid store in
    Store.put_object store ~oid ~kind:"obj" ~meta:"m";
    Store.put_pages store ~oid [ (i, payload 'a') ]
  done;
  ignore (Store.commit_checkpoint store);
  for _ = 2 to k do
    commit_metas store []
  done;
  Store.wait_durable store;
  (clock, dev, store)

(* Distinct clock readings a read hook sees during [f]: a batch's
   fragments are all submitted at one instant, so these count round
   trips. *)
let submission_instants clock dev f =
  let h = Fault.create () in
  let instants = ref [] in
  h.Fault.on_read <-
    (fun _ ->
      instants := Clock.now clock :: !instants;
      Fault.Clean);
  Striped.set_fault dev (Some h);
  let v = Fun.protect ~finally:(fun () -> Striped.set_fault dev None) f in
  (v, List.length (List.sort_uniq compare !instants))

(* Recovery is flat in the number of retained epochs: the superblock,
   every listed record in one batch, every version run in one more.  A
   store retaining 24 epochs recovers within one read latency of the
   same store retaining 2.  What is left of the difference is the 22
   more record blocks' transfer, which the block-granular array spreads
   over its members; on a 64 KiB stripe they would queue on one or two
   members and take about twice a read latency on their own. *)
let test_recover_flat_in_epochs () =
  let recover k =
    let clock, dev, store = epochs_store k in
    let before = snapshot store in
    Striped.crash dev ~now:(Clock.now clock);
    let t0 = Clock.now clock in
    let store2, trips = submission_instants clock dev (fun () -> Store.recover ~dev ~clock) in
    let elapsed = Clock.now clock - t0 in
    Alcotest.(check bool) (Printf.sprintf "%d epochs identical after recovery" k) true
      (snapshot store2 = before);
    Alcotest.(check int) (Printf.sprintf "%d epochs: three round trips" k) 3 trips;
    elapsed
  in
  let two = recover 2 and many = recover 24 in
  Alcotest.(check bool)
    (Printf.sprintf "2 epochs %d ns, 24 epochs %d ns: less than one read latency apart" two many)
    true
    (abs (many - two) < Aurora_sim.Cost.nvme_read_latency)

(* More retained epochs than the superblock's directory lists: recovery
   reads the listed records in one batch, follows prev pointers one at a
   time past the oldest listed one, and recovers every epoch with
   identical tables.  The superblock, journal registry included, stays
   within its one block with no room for another entry, and a one-epoch
   superblock without journals takes 64 bytes. *)
let test_recover_past_full_directory () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let superblock_bytes () =
    Bytes.length (Wire.encode Store_format.superblock_codec (superblock dev))
  in
  commit_metas store [ (oid, "v0") ];
  Alcotest.(check int) "a one-epoch superblock takes 64 bytes" 64 (superblock_bytes ());
  ignore (Store.journal_create store ~size:Store.block_size);
  let k = 400 in
  for e = 1 to k - 1 do
    commit_metas store [ (oid, Printf.sprintf "v%d" e) ]
  done;
  let listed = List.length (superblock dev).Store_format.sb_records in
  Alcotest.(check bool) (Printf.sprintf "%d of %d records listed" listed k) true (listed < k);
  Alcotest.(check bool) "the superblock fits one block" true
    (superblock_bytes () <= Store.block_size);
  Alcotest.(check bool) "with no room for another entry" true
    (superblock_bytes () + 12 > Store.block_size);
  let before = snapshot store in
  Striped.crash dev ~now:(Clock.now clock);
  let store2, trips = submission_instants clock dev (fun () -> Store.recover ~dev ~clock) in
  Alcotest.(check int) "every epoch retained" k (List.length (Store.checkpoint_epochs store2));
  Alcotest.(check bool) "epochs identical after recovery" true (snapshot store2 = before);
  Alcotest.(check bool) "content index consistent" true (Store.content_index_consistent store2);
  Alcotest.(check int) "round trips: three, and one per unlisted record" (3 + k - listed) trips

(* A directory that disagrees with the prev-pointer chain is
   Corrupt_store, even where every entry names a record and epochs still
   decrease: one that leaves out a retained epoch, and one naming a
   record at the wrong size. *)
let test_directory_disagrees_with_chain () =
  let edited f =
    let clock, dev, store = fresh () in
    let oid = Store.alloc_oid store in
    for e = 1 to 3 do
      commit_metas store [ (oid, Printf.sprintf "v%d" e) ]
    done;
    let sb = superblock dev in
    overwrite dev clock ~off:0
      (Wire.encode Store_format.superblock_codec
         { sb with Store_format.sb_records = f sb.Store_format.sb_records });
    raises_corrupt_store (fun () -> Store.recover ~dev ~clock)
  in
  Alcotest.(check bool) "unedited directory recovers" false (edited Fun.id);
  Alcotest.(check bool) "a retained epoch left out" true
    (edited (function [ e3; _; e1 ] -> [ e3; e1 ] | _ -> Alcotest.fail "three records listed"));
  Alcotest.(check bool) "a record at the wrong size" true
    (edited (function
      | [ e3; (blk, n); e1 ] -> [ e3; (blk, n + 1); e1 ]
      | _ -> Alcotest.fail "three records listed"))

(* Multiset difference of two read lists. *)
let rec remove_each xs = function
  | [] -> xs
  | y :: ys ->
      let rec drop = function [] -> [] | x :: rest -> if x = y then rest else x :: drop rest in
      remove_each (drop xs) ys

(* A recovery batch retries per range: a handler failing only the packed
   run [n] times costs [n] extra device reads, all of that range, and
   counts [n] absorbed faults; one failure past the retry budget
   surfaces as Io_error. *)
let test_recover_retries_per_range () =
  let clock, dev, _, _, before = version_run_store () in
  let _, clean = device_reads dev (fun () -> Store.recover ~dev ~clock) in
  let recover_failing n =
    let failures = ref n and failed = ref [] and reads = ref [] in
    let f = Fault.create () in
    f.Fault.on_read <-
      (fun r ->
        let key = (r.Fault.r_dev, r.Fault.r_off) in
        reads := key :: !reads;
        if r.Fault.r_len > Store.block_size && !failures > 0 then begin
          decr failures;
          failed := key :: !failed;
          Fault.Fail
        end
        else Fault.Clean);
    Striped.set_fault dev (Some f);
    let result =
      Fun.protect
        ~finally:(fun () -> Striped.set_fault dev None)
        (fun () -> try Ok (Store.recover ~dev ~clock) with Fault.Io_error msg -> Error msg)
    in
    (result, !reads, !failed)
  in
  for n = 1 to 4 do
    match recover_failing n with
    | Error msg, _, _ -> Alcotest.failf "%d failures within the budget surfaced: %s" n msg
    | Ok st, reads, failed ->
        Alcotest.(check int) (Printf.sprintf "%d faults counted" n) n (Store.read_faults st);
        Alcotest.(check int)
          (Printf.sprintf "device reads = clean reads + %d" n)
          (List.length clean + n) (List.length reads);
        Alcotest.(check int) "one range failed" 1 (List.length (List.sort_uniq compare failed));
        Alcotest.(check (list (pair string int)))
          "only the failed range was resubmitted" (List.sort compare failed)
          (List.sort compare (remove_each reads clean));
        Alcotest.(check bool) "epochs identical" true (snapshot st = before)
  done;
  match recover_failing 5 with
  | Ok _, _, _ -> Alcotest.fail "a failure past the retry budget was absorbed"
  | Error _, _, _ -> ()

let test_leaf_resident_after_charged_read () =
  let clock, dev, store, oid, epoch = one_leaf_store 3 in
  let timed_read idx =
    let t0 = Clock.now clock in
    let page = Store.read_page store ~epoch ~oid ~idx in
    Alcotest.(check (option bytes)) (Printf.sprintf "page %d" idx) (Some (noise_page idx)) page;
    Clock.now clock - t0
  in
  (* Commit parsed the leaf but never paid for it: the first read does,
     and its first device read is the leaf's. *)
  let took, first = device_reads dev (fun () -> timed_read 0) in
  Alcotest.(check int) "first read: leaf + data" (2 * one_block_read) took;
  let leaf = List.hd first in
  Alcotest.(check int) "same leaf: one data read" one_block_read (timed_read 1);
  Alcotest.(check int) "same page again: one data read" one_block_read (timed_read 0);
  (* A bulk read over a resident leaf reads its pages, each once, and
     not the leaf. *)
  let pages, reads = device_reads dev (fun () -> Store.read_pages store ~epoch ~oid) in
  Alcotest.(check int) "read_pages: every page" 3 (List.length pages);
  Alcotest.(check int) "read_pages: no leaf read" 0
    (List.length (List.filter (( = ) leaf) reads));
  Alcotest.(check int) "read_pages: one read per page" 3 (List.length reads)

let test_recovered_store_starts_cold () =
  let clock, dev, store, oid, epoch = one_leaf_store 2 in
  ignore (Store.read_page store ~epoch ~oid ~idx:0);
  let store2 = Store.recover ~dev ~clock in
  (* The content-index rebuild, the page CRCs and the index listing all
     parse leaf 0 without charging it: none of them makes it resident. *)
  Alcotest.(check int) "crcs listed" 2 (List.length (Store.page_crcs store2 ~epoch ~oid));
  Alcotest.(check (list int)) "indices listed" [ 0; 1 ]
    (List.map fst (Store.page_crcs store2 ~epoch ~oid));
  let _, cold = device_reads dev (fun () -> Store.read_page store2 ~epoch ~oid ~idx:0) in
  Alcotest.(check int) "first read after recovery pays the leaf" 2 (List.length cold);
  let _, warm = device_reads dev (fun () -> Store.read_page store2 ~epoch ~oid ~idx:1) in
  Alcotest.(check int) "then the leaf is resident" 1 (List.length warm)

let test_freed_leaf_block_recharged () =
  let _clock, dev, store, oid, e1 = one_leaf_store 1 in
  let _, first = device_reads dev (fun () -> Store.read_page store ~epoch:e1 ~oid ~idx:0) in
  let leaf_read = List.hd first in
  (* Dropping every epoch frees the whole store back to the frontier, so
     the next commit lays its leaf on the block that was resident. *)
  ignore (Store.prune_history store ~keep:0);
  let e2 = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"m2";
  Store.put_pages store ~oid [ (0, noise_page 99) ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  let page, reads = device_reads dev (fun () -> Store.read_page store ~epoch:e2 ~oid ~idx:0) in
  Alcotest.(check bool) "the new leaf reuses the freed block" true
    (List.hd reads = leaf_read);
  Alcotest.(check int) "reused leaf charged again" 2 (List.length reads);
  Alcotest.(check (option bytes)) "new bytes, not the freed leaf's" (Some (noise_page 99)) page

let test_failed_leaf_read_not_resident () =
  let _clock, dev, store, oid, epoch = one_leaf_store 2 in
  let h = Fault.create () in
  h.Fault.on_read <- (fun _ -> Fault.Fail);
  Striped.set_fault dev (Some h);
  Store.set_read_policy store ~retries:1 ~backoff_ns:20_000;
  Alcotest.(check bool) "persistent failure surfaces" true
    (try
       ignore (Store.read_page store ~epoch ~oid ~idx:0);
       false
     with Fault.Io_error _ -> true);
  Alcotest.(check int) "the retry was counted" 1 (Store.read_faults store);
  (* The failed attempts left the leaf cold.  One transient failure, then
     clean: the leaf read is retried and counted, and only its successful
     retry makes the leaf resident. *)
  let calls = ref 0 in
  h.Fault.on_read <-
    (fun _ ->
      incr calls;
      if !calls = 1 then Fault.Fail else Fault.Clean);
  Alcotest.(check (option bytes)) "read through a transient" (Some (noise_page 0))
    (Store.read_page store ~epoch ~oid ~idx:0);
  Alcotest.(check int) "failed leaf read, its retry, the data read" 3 !calls;
  Alcotest.(check int) "transient counted" 2 (Store.read_faults store);
  Striped.set_fault dev None;
  let _, reads = device_reads dev (fun () -> Store.read_page store ~epoch ~oid ~idx:1) in
  Alcotest.(check int) "resident after the successful read" 1 (List.length reads)

(* The array range [(off, len)] a device-local read serves, inverting the
   RAID-0 layout of [Striped.create]'s defaults (member [nvmeD]). *)
let array_range (r : Fault.read_info) =
  let n = Aurora_sim.Cost.nvme_stripe_devices and s = Aurora_sim.Cost.nvme_stripe_size in
  let d = int_of_string (String.sub r.Fault.r_dev 4 (String.length r.Fault.r_dev - 4)) in
  (((((r.Fault.r_off / s) * n) + d) * s) + (r.Fault.r_off mod s), r.Fault.r_len)

(* [device_reads] by array range. *)
let array_reads dev f =
  let h = Fault.create () in
  let reads = ref [] in
  h.Fault.on_read <-
    (fun r ->
      reads := array_range r :: !reads;
      Fault.Clean);
  Striped.set_fault dev (Some h);
  let v = Fun.protect ~finally:(fun () -> Striped.set_fault dev None) f in
  (v, List.rev !reads)

(* Virtual time of one vectored read of [ranges] on idle members. *)
let batch_read dev clock ranges =
  Striped.settle dev ~clock;
  let t0 = Clock.now clock in
  let arrived = Striped.submit_vec dev ~now:t0 (Array.of_list ranges) in
  Clock.advance_to clock (Array.fold_left (fun m (c, _) -> max m c) t0 arrived);
  Clock.now clock - t0

(* Recovery reads what serving needs ------------------------------------------ *)

(* The checkpoint record at [(blk, nblocks)], read uncharged. *)
let record dev (blk, nblocks) =
  Store.decode "checkpoint record" Store_format.checkpoint_codec
    (Striped.read_nocharge dev ~off:(blk * Store.block_size) ~len:(nblocks * Store.block_size))

(* Its table [(oid, blk, off, len)]. *)
let record_entries dev loc = (record dev loc).Store_format.cr_table

(* [(oid, leaf blocks)] of every version the record at [loc] names,
   read uncharged. *)
let record_leaves dev loc =
  List.map
    (fun (oid, blk, off, len) ->
      let vr =
        Store.decode "version record" Store_format.version_codec
          (Striped.read_nocharge dev ~off:((blk * Store.block_size) + off) ~len)
      in
      (oid, List.map snd vr.Store_format.vr_leaves))
    (record_entries dev loc)

let accept_meta ~kind:_ _ = Ok ()

(* A version record only the older of two epochs holds is parsed at that
   epoch's first use, not by recovery: garbled, it leaves recovery and
   the newest epoch whole, fails the older epoch's verification, and
   raises Corrupt_store from the deferred pass that prune and the first
   commit wait for. *)
let test_corrupt_older_version_at_first_use () =
  let clock, dev, store = fresh () in
  let x = Store.alloc_oid store and y = Store.alloc_oid store in
  let commit stage =
    let e = Store.begin_checkpoint store in
    stage ();
    ignore (Store.commit_checkpoint store);
    e
  in
  let _e1 =
    commit (fun () ->
        Store.put_object store ~oid:x ~kind:"memory" ~meta:"x old";
        Store.put_pages store ~oid:x [ (0, payload 'x') ];
        Store.put_object store ~oid:y ~kind:"memory" ~meta:"y";
        Store.put_pages store ~oid:y [ (0, payload 'y') ])
  in
  let e2 = commit (fun () -> Store.put_object store ~oid:x ~kind:"memory" ~meta:"x new") in
  Store.wait_durable store;
  let older =
    match (superblock dev).Store_format.sb_records with
    | [ _; older ] -> older
    | _ -> Alcotest.fail "two records listed"
  in
  let e1 = List.hd (Store.checkpoint_epochs store) in
  let _, vblk, voff, vlen = List.find (fun (oid, _, _, _) -> oid = x) (record_entries dev older) in
  let junk = Bytes.make vlen '\xff' in
  Bytes.set junk 0 '\xa2';
  overwrite dev clock ~off:((vblk * Store.block_size) + voff) junk;
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check bool) "the newest epoch verifies" true
    (Result.is_ok (Store.verify_epoch store2 ~epoch:e2 ~check_meta:accept_meta));
  Alcotest.(check (list (pair int bytes))) "the newest epoch reads back"
    [ (0, payload 'x') ] (Store.read_pages store2 ~epoch:e2 ~oid:x);
  (match Store.verify_epoch store2 ~epoch:e1 ~check_meta:accept_meta with
  | Ok _ -> Alcotest.fail "the older epoch verified"
  | Error msg ->
      Alcotest.(check bool) (Printf.sprintf "older epoch: %S" msg) true
        (String.starts_with ~prefix:"corrupt store: " msg));
  Alcotest.(check bool) "prune raises Corrupt_store" true
    (raises_corrupt_store (fun () -> Store.prune_history store2 ~keep:1));
  Alcotest.(check bool) "the first commit raises Corrupt_store" true
    (raises_corrupt_store (fun () -> Store.begin_checkpoint store2))

(* An older epoch's manifest is read with its versions at the epoch's
   first use, and parsed only by a check: garbled, it leaves recovery,
   the newest epoch, prune and the next commit whole, and fails its own
   epoch's checks alone. *)
let test_corrupt_older_manifest_at_first_use () =
  let clock, dev, store = fresh () in
  let x = Store.alloc_oid store and y = Store.alloc_oid store in
  let commit stage =
    let e = Store.begin_checkpoint store in
    stage ();
    ignore (Store.commit_checkpoint store);
    e
  in
  let e1 =
    commit (fun () ->
        Store.put_object store ~oid:x ~kind:"memory" ~meta:"x old";
        Store.put_pages store ~oid:x [ (0, payload 'x') ];
        Store.put_object store ~oid:y ~kind:"memory" ~meta:"y";
        Store.put_pages store ~oid:y [ (0, payload 'y') ])
  in
  let e2 = commit (fun () -> Store.put_object store ~oid:x ~kind:"memory" ~meta:"x new") in
  Store.wait_durable store;
  let older =
    match (superblock dev).Store_format.sb_records with
    | [ _; older ] -> older
    | _ -> Alcotest.fail "two records listed"
  in
  let mblk, moff, mlen = (record dev older).Store_format.cr_manifest in
  overwrite dev clock ~off:((mblk * Store.block_size) + moff) (Bytes.make mlen '\xff');
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check bool) "the newest epoch verifies" true
    (Result.is_ok (Store.verify_epoch store2 ~epoch:e2 ~check_meta:accept_meta));
  Alcotest.(check (list (pair int bytes))) "the newest epoch reads back"
    [ (0, payload 'y') ] (Store.read_pages store2 ~epoch:e2 ~oid:y);
  let malformed what = function
    | Ok _ -> Alcotest.failf "%s: the older epoch passed" what
    | Error msg ->
        Alcotest.(check bool) (Printf.sprintf "%s: %S" what msg) true
          (String.starts_with ~prefix:"malformed manifest: sls.manifest: " msg)
  in
  malformed "check_epoch" (Store.check_epoch store2 ~epoch:e1 ~check_meta:accept_meta);
  malformed "verify_epoch" (Store.verify_epoch store2 ~epoch:e1 ~check_meta:accept_meta);
  Alcotest.(check bool) "the older epoch's objects read back" true
    (Store.read_meta store2 ~epoch:e1 ~oid:x = "x old");
  Alcotest.(check bool) "the index and counts are consistent" true
    (Store.content_index_consistent store2);
  Alcotest.(check bool) "prune frees the older epoch" true (Store.prune_history store2 ~keep:1 > 0);
  let e3 = Store.begin_checkpoint store2 in
  Store.put_object store2 ~oid:y ~kind:"memory" ~meta:"y new";
  ignore (Store.commit_checkpoint store2);
  Alcotest.(check bool) "the next commit verifies" true
    (Result.is_ok (Store.verify_epoch store2 ~epoch:e3 ~check_meta:accept_meta))

(* Two stores that differ only in how large their oldest epoch's
   versions are, every one of them rewritten by the newest epoch: their
   recoveries read the same bytes, and the oldest epoch's first use reads
   its versions. *)
let test_recover_skips_older_versions () =
  let volume meta =
    let clock, dev, store = fresh () in
    let oids = List.init 20 (fun _ -> Store.alloc_oid store) in
    commit_metas store (List.map (fun oid -> (oid, meta)) oids);
    commit_metas store (List.map (fun oid -> (oid, "new")) oids);
    let oldest = List.hd (Store.checkpoint_epochs store) in
    Striped.crash dev ~now:(Clock.now clock);
    let read0 = Striped.bytes_read dev in
    let store2 = Store.recover ~dev ~clock in
    let recovery = Striped.bytes_read dev - read0 in
    let read0 = Striped.bytes_read dev in
    Alcotest.(check int) "the oldest epoch's objects" 20
      (List.length (Store.objects_at store2 ~epoch:oldest));
    (recovery, Striped.bytes_read dev - read0)
  in
  let small, _ = volume "old" and large, first_use = volume (String.make 2000 'o') in
  Alcotest.(check int) "versions only the oldest epoch holds add nothing to recovery" small large;
  Alcotest.(check bool)
    (Printf.sprintf "its first use reads them (%d bytes)" first_use)
    true
    (first_use >= 20 * 2000)

(* The deferred pass pays for what it parses: the first begin_checkpoint
   after recovery reads every distinct leaf the retained epochs hold,
   each once and charged, except one a read already made resident, and
   waits at least one read latency; the counts and the index it rebuilds
   equal a fresh walk, and the next begin_checkpoint reads nothing. *)
let test_settle_reads_charged () =
  let clock, dev, store = fresh () in
  let a = Store.alloc_oid store and b = Store.alloc_oid store in
  let commit stage =
    let e = Store.begin_checkpoint store in
    stage ();
    ignore (Store.commit_checkpoint store);
    e
  in
  ignore
    (commit (fun () ->
         Store.put_object store ~oid:a ~kind:"memory" ~meta:"a";
         Store.put_pages store ~oid:a
           (List.init 3 (fun leaf -> (leaf * Store.leaf_span, noise_page leaf)));
         Store.put_object store ~oid:b ~kind:"memory" ~meta:"b";
         Store.put_pages store ~oid:b [ (0, noise_page 10) ]));
  ignore (commit (fun () -> Store.put_pages store ~oid:a [ (Store.leaf_span, noise_page 20) ]));
  let e3 = commit (fun () -> Store.put_pages store ~oid:b [ (0, noise_page 30) ]) in
  Store.wait_durable store;
  let records = (superblock dev).Store_format.sb_records in
  let leaves =
    List.sort_uniq compare
      (List.concat_map (fun loc -> List.concat_map snd (record_leaves dev loc)) records)
  in
  let b_newest = List.assoc b (record_leaves dev (List.hd records)) in
  Alcotest.(check int) "three epochs hold six distinct leaves" 6 (List.length leaves);
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  ignore (Store.read_pages store2 ~epoch:e3 ~oid:b);
  Striped.settle dev ~clock;
  let t0 = Clock.now clock in
  let _, reads = array_reads dev (fun () -> Store.begin_checkpoint store2) in
  let took = Clock.now clock - t0 in
  let leaf_reads =
    List.filter (fun (off, _) -> List.mem (off / Store.block_size) leaves) reads |> List.sort compare
  in
  Alcotest.(check (list (pair int int))) "every leaf not resident meets the injector once"
    (List.filter_map
       (fun blk ->
         if List.mem blk b_newest then None else Some (blk * Store.block_size, Store.block_size))
       leaves)
    leaf_reads;
  Alcotest.(check bool)
    (Printf.sprintf "the first begin_checkpoint waits %d ns >= one read latency" took)
    true
    (took >= Aurora_sim.Cost.nvme_read_latency);
  Alcotest.(check bool) "counts and index equal a fresh walk" true
    (Store.content_index_consistent store2);
  ignore (Store.commit_checkpoint store2);
  Store.wait_durable store2;
  Striped.settle dev ~clock;
  let t0 = Clock.now clock in
  let _, reads = array_reads dev (fun () -> Store.begin_checkpoint store2) in
  Alcotest.(check (pair int int)) "the next begin_checkpoint reads nothing" (0, 0)
    (List.length reads, Clock.now clock - t0)

(* Verification streams the epoch: every leaf not yet resident in one
   vectored read, so an N-leaf epoch pays one leaf round trip, not N,
   then every page in one more.  Leaf reads are told apart by the leaf
   blocks' locations, each the first read of a cold page read on an
   identical store. *)
let test_verify_one_leaf_round_trip () =
  let n = 16 in
  let recovered () =
    let clock, dev, store = fresh () in
    let oid = Store.alloc_oid store in
    ignore (Store.begin_checkpoint store);
    Store.put_object store ~oid ~kind:"memory" ~meta:"m";
    Store.put_pages store ~oid (List.init n (fun i -> (i * Store.leaf_span, noise_page i)));
    ignore (Store.commit_checkpoint store);
    Store.wait_durable store;
    Striped.settle dev ~clock;
    let st = Store.recover ~dev ~clock in
    (clock, dev, st, oid, Store.last_complete_epoch st)
  in
  let clock, dev, st, oid, epoch = recovered () in
  let twin_clock, twin_dev, twin, _, _ = recovered () in
  let leaves =
    List.init n (fun i ->
        let cold () = Store.read_page twin ~epoch ~oid ~idx:(i * Store.leaf_span) in
        match array_reads twin_dev cold with
        | _, leaf :: _ -> leaf
        | _, [] -> Alcotest.fail "a cold page read issued no read")
  in
  let t0 = Clock.now clock in
  let verdict, reads =
    array_reads dev (fun () -> Store.verify_epoch st ~epoch ~check_meta:(fun ~kind:_ _ -> Ok ()))
  in
  let elapsed = Clock.now clock - t0 in
  Alcotest.(check bool) "epoch verifies" true (Result.is_ok verdict);
  let leaf_reads, page_reads = List.partition (fun r -> List.mem r leaves) reads in
  Alcotest.(check (list (pair int int))) "each leaf read once" (List.sort compare leaves)
    (List.sort compare leaf_reads);
  Alcotest.(check int) "each page read once" n (List.length (List.sort_uniq compare page_reads));
  Alcotest.(check int) "nothing read twice" (2 * n) (List.length reads);
  (* One leaf round trip, then one batch of the pages, each timed as a
     vectored read of the same ranges on the identical store. *)
  Alcotest.(check int) "one leaf batch, then one page batch"
    (batch_read twin_dev twin_clock leaf_reads + batch_read twin_dev twin_clock page_reads)
    elapsed;
  (* One leaf round trip (every leaf's transfer at worst on one member),
     then one of the pages. *)
  let transfer = Aurora_sim.Cost.transfer_time ~bandwidth:Aurora_sim.Cost.nvme_device_bandwidth in
  let bound =
    (2 * Aurora_sim.Cost.nvme_read_latency) + (2 * n * transfer Store.block_size)
  in
  Alcotest.(check bool) (Printf.sprintf "verify took %d ns <= %d" elapsed bound) true
    (elapsed <= bound);
  let _, again = array_reads dev (fun () -> Store.read_pages st ~epoch ~oid) in
  Alcotest.(check int) "the restore that follows reads no leaf" 0
    (List.length (List.filter (fun r -> List.mem r leaves) again));
  Alcotest.(check int) "only its pages" n (List.length again)

let test_resident_hit_skips_on_read () =
  let _clock, dev, store, oid, epoch = one_leaf_store 2 in
  let _, cold = device_reads dev (fun () -> Store.read_page store ~epoch ~oid ~idx:0) in
  let leaf_read = List.hd cold in
  let page, warm = device_reads dev (fun () -> Store.read_page store ~epoch ~oid ~idx:1) in
  Alcotest.(check (option bytes)) "page 1" (Some (noise_page 1)) page;
  Alcotest.(check bool) "on_read never sees the resident leaf" false (List.mem leaf_read warm);
  Alcotest.(check int) "on_read sees the data read only" 1 (List.length warm)

(* Fault-around: a cold cluster read pays the leaf and then one round trip
   for its whole window, clipped to the faulting page's leaf, as a stream
   pager's window is; an unstored index reads no data, only its leaf.  A
   round trip's fragments are all collected when it is submitted, so the
   distinct clock readings the read hook sees count round trips. *)
let test_cluster_one_round_trip () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let epoch = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"m";
  Store.put_pages store ~oid (List.init 120 (fun i -> (i, noise_page i)));
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Striped.settle dev ~clock;
  let round_trips f =
    let h = Fault.create () in
    let instants = ref [] in
    h.Fault.on_read <-
      (fun _ ->
        instants := Clock.now clock :: !instants;
        Fault.Clean);
    Striped.set_fault dev (Some h);
    let v = Fun.protect ~finally:(fun () -> Striped.set_fault dev None) f in
    (v, List.length (List.sort_uniq compare !instants), List.length !instants)
  in
  let expect lo hi = List.init (hi - lo) (fun k -> (lo + k, noise_page (lo + k))) in
  let t0 = Clock.now clock in
  let pages, trips, reads =
    round_trips (fun () -> Store.read_cluster store ~epoch ~oid ~idx:20)
  in
  let elapsed = Clock.now clock - t0 in
  Alcotest.(check int) "a 16-page window" 16 Store.fault_cluster;
  Alcotest.(check (list (pair int bytes))) "the aligned window, byte-exact" (expect 16 32) pages;
  Alcotest.(check int) "leaf, then one round trip for the window" 2 trips;
  Alcotest.(check int) "the leaf and each page read once" 17 reads;
  let transfer = Aurora_sim.Cost.transfer_time ~bandwidth:Aurora_sim.Cost.nvme_device_bandwidth in
  let bound =
    (2 * Aurora_sim.Cost.nvme_read_latency) + (17 * transfer Store.block_size)
  in
  Alcotest.(check bool) (Printf.sprintf "cluster took %d ns <= %d" elapsed bound) true
    (elapsed <= bound);
  let pages, trips, _ = round_trips (fun () -> Store.read_cluster store ~epoch ~oid ~idx:98) in
  Alcotest.(check (list (pair int bytes))) "clipped to the faulting page's leaf" (expect 96 100)
    pages;
  Alcotest.(check int) "resident leaf: one round trip" 1 trips;
  let pages, _, reads = round_trips (fun () -> Store.read_cluster store ~epoch ~oid ~idx:130) in
  Alcotest.(check int) "unstored index: empty" 0 (List.length pages);
  Alcotest.(check int) "unstored index: its cold leaf, no data" 1 reads;
  (* A stream share holds every leaf's pages, so its pager clips by rule. *)
  let share = List.assoc oid (Store.stream_pages store ~epoch [ oid ]) in
  Alcotest.(check (list (pair int bytes))) "stream: clipped to the faulting page's leaf"
    (expect 96 100) (Store.pager share 98);
  Alcotest.(check (list (pair int bytes))) "stream: the next leaf's window" (expect 100 112)
    (Store.pager share 100)

(* The two pagers over one version: the swap path's demand reads, and
   the restore stream started when the pager is made. *)
let cluster_pager store ~epoch ~oid idx = Store.read_cluster store ~epoch ~oid ~idx
let stream_pager store ~epoch ~oid =
  Store.pager (List.assoc oid (Store.stream_pages store ~epoch [ oid ]))

(* A fault through [pager] whose neighbour [bad] meets a persistent
   [outcome] on its range: the demanded page 0 still comes in
   byte-exact, the neighbour stays out, and the fault that demands it
   raises what its read met. *)
let neighbour_deferred ~pager ~pages ~bad ~outcome ~raises =
  let _clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let epoch = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"m";
  Store.put_pages store ~oid (List.mapi (fun i p -> (i, p)) pages);
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  (* The neighbour's location: its data read once its leaf is resident. *)
  ignore (Store.read_page store ~epoch ~oid ~idx:0);
  let where =
    match device_reads dev (fun () -> Store.read_page store ~epoch ~oid ~idx:bad) with
    | _, [ loc ] -> loc
    | _, reads -> Alcotest.failf "expected one data read, saw %d" (List.length reads)
  in
  let h = Fault.create () in
  h.Fault.on_read <-
    (fun r -> if (r.Fault.r_dev, r.Fault.r_off) = where then outcome else Fault.Clean);
  Striped.set_fault dev (Some h);
  let clock = Store.clock store in
  let obj = Vm_object.create Vm_object.Anonymous in
  Vm_object.set_pager obj (Some (pager store ~epoch ~oid));
  (match Vm_object.lookup ~clock obj 0 with
  | Some (page, _) ->
      Alcotest.(check bytes) "demanded page byte-exact" (List.hd pages)
        (Page.blit_payload page)
  | None -> Alcotest.fail "demanded page missing");
  Alcotest.(check bool) "neighbour not resident" true
    (Vm_object.find_local obj bad = None);
  Alcotest.(check int) "every other page resident" (List.length pages - 1)
    (Vm_object.resident_pages obj);
  Alcotest.(check bool) "the neighbour's own fault raises" true
    (raises (fun () -> Vm_object.lookup ~clock obj bad))

let failed_neighbour pager =
  neighbour_deferred ~pager
    ~pages:(List.init 16 noise_page)
    ~bad:5 ~outcome:Fault.Fail
    ~raises:(fun f -> match f () with _ -> false | exception Fault.Io_error _ -> true)

let test_cluster_failed_neighbour () = failed_neighbour cluster_pager

(* The stream retries the neighbour's range in the background, under the
   same policy, and keeps its error once the retries are spent. *)
let test_stream_failed_neighbour () = failed_neighbour stream_pager

(* Coded neighbours: 64 bytes of one value code to one (count, byte) run,
   and flipping 0x40 in the count byte 64 leaves a zero count, which does
   not decode. *)
let corrupt_neighbour pager =
  neighbour_deferred ~pager
    ~pages:(List.init 16 (fun i -> payload (Char.chr (Char.code 'a' + i))))
    ~bad:5 ~outcome:(Fault.Flip [ 0 ])
    ~raises:(fun f -> match f () with _ -> false | exception Store.Corrupt_store _ -> true)

let test_cluster_corrupt_neighbour () = corrupt_neighbour cluster_pager
let test_stream_corrupt_neighbour () = corrupt_neighbour stream_pager

(* The restore stream, one window: 16 coded pages under a resident leaf.
   A fault before the window has arrived waits exactly for it: from idle
   devices it costs what a blocking [read_cluster] of the same window
   costs, the batch's arrival plus the window's decompression, and issues
   no device read of its own.  A fault after the arrival pays the
   decompression alone. *)
let test_stream_fault_waits_for_window () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let epoch = Store.begin_checkpoint store in
  let pages = List.init 16 (fun i -> (i, payload (Char.chr (Char.code 'a' + i)))) in
  Store.put_object store ~oid ~kind:"memory" ~meta:"m";
  Store.put_pages store ~oid pages;
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  ignore (Store.read_page store ~epoch ~oid ~idx:0);
  Striped.settle dev ~clock;
  let t0 = Clock.now clock in
  Alcotest.(check (list (pair int bytes))) "the demand read" pages
    (Store.read_cluster store ~epoch ~oid ~idx:3);
  let blocking = Clock.now clock - t0 in
  Striped.settle dev ~clock;
  let t1 = Clock.now clock in
  let pager = stream_pager store ~epoch ~oid in
  Alcotest.(check int) "the stream does not move the clock" t1 (Clock.now clock);
  let got, reads = device_reads dev (fun () -> pager 3) in
  Alcotest.(check (list (pair int bytes))) "the window, byte-exact" pages got;
  Alcotest.(check int) "no device read at the fault" 0 (List.length reads);
  Alcotest.(check int) "waited for the arrival, then decoded" blocking (Clock.now clock - t1);
  let decode =
    Aurora_sim.Cost.transfer_time ~bandwidth:Aurora_sim.Cost.decompress_bandwidth (16 * 64)
  in
  let pager = stream_pager store ~epoch ~oid in
  Clock.advance clock blocking;
  let t2 = Clock.now clock in
  ignore (pager 3);
  Alcotest.(check int) "arrived: the decompression alone" decode (Clock.now clock - t2)

(* A leaf the stream could not list, because its read kept failing or its
   bytes do not parse, makes every fault in its range raise what the
   demand path raises: never [[]], which would let the walk descend and
   zero-fill a stored page. *)
let test_stream_unlisted_leaf_raises () =
  let case what ~outcome ~prepare ~raises =
    let _clock, dev, store, oid, epoch = one_leaf_store 3 in
    prepare store;
    let h = Fault.create () in
    h.Fault.on_read <- (fun _ -> outcome);
    Striped.set_fault dev (Some h);
    let pager = stream_pager store ~epoch ~oid in
    Striped.set_fault dev None;
    let obj = Vm_object.create Vm_object.Anonymous in
    Vm_object.set_pager obj (Some pager);
    List.iter
      (fun idx ->
        Alcotest.(check bool) (Printf.sprintf "%s: page %d's fault raises" what idx) true
          (raises (fun () -> Vm_object.lookup ~clock:(Store.clock store) obj idx)))
      [ 0; 2 ];
    Alcotest.(check int) (what ^ ": nothing installed") 0 (Vm_object.resident_pages obj);
    Alcotest.(check (list (pair int bytes))) (what ^ ": past the leaf, nothing stored") []
      (pager Store.leaf_span)
  in
  case "unreadable leaf" ~outcome:Fault.Fail ~prepare:ignore ~raises:(fun f ->
      match f () with _ -> false | exception Fault.Io_error _ -> true);
  case "corrupt leaf" ~outcome:(Fault.Flip [ 0; 1; 2; 3 ])
    ~prepare:Store.recycle_leaf_cache_for_tests ~raises:(fun f ->
      match f () with _ -> false | exception Store.Corrupt_store _ -> true)

(* Residency is paid once, whichever path pays it.  One leaf of coded
   pages: data reads are shorter than a block, so a
   device read of exactly [Store.block_size] bytes is a leaf read.  Each
   path runs on a freshly recovered store, whose leaf is parsed but not
   resident. *)
let test_residency_paid_once () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let epoch = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"m";
  Store.put_pages store ~oid (List.init 3 (fun i -> (i, payload (Char.chr (Char.code 'a' + i)))));
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Striped.settle dev ~clock;
  let leaf_reads ?(outcome = Fault.Clean) f =
    let h = Fault.create () and n = ref 0 in
    h.Fault.on_read <-
      (fun r ->
        if r.Fault.r_len <> Store.block_size then Fault.Clean
        else begin
          incr n;
          outcome
        end);
    Striped.set_fault dev (Some h);
    let v =
      Fun.protect
        ~finally:(fun () -> Striped.set_fault dev None)
        (fun () -> try Ok (f ()) with e -> Error e)
    in
    (v, !n)
  in
  let paths =
    [
      ("read_page", fun st -> ignore (Store.read_page st ~epoch ~oid ~idx:0));
      ("read_cluster", fun st -> ignore (Store.read_cluster st ~epoch ~oid ~idx:0));
      ("read_pages", fun st -> ignore (Store.read_pages st ~epoch ~oid));
      ("read_delta", fun st -> ignore (Store.read_delta st ~base:0 ~epoch));
      ( "stream_pages",
        fun st -> ignore (Store.pager (List.assoc oid (Store.stream_pages st ~epoch [ oid ])) 0) );
      ( "verify_epoch",
        fun st ->
          match Store.verify_epoch st ~epoch ~check_meta:(fun ~kind:_ _ -> Ok ()) with
          | Ok _ -> ()
          | Error msg when String.starts_with ~prefix:"read failed" msg ->
              raise (Fault.Io_error msg)
          | Error msg -> failwith msg );
    ]
  in
  let pays what ?outcome n st path =
    match leaf_reads ?outcome (fun () -> path st) with
    | Ok (), reads -> Alcotest.(check int) what n reads
    | Error e, _ -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  List.iter
    (fun (a, pa) ->
      List.iter
        (fun (b, pb) ->
          let st = Store.recover ~dev ~clock in
          pays (Printf.sprintf "%s, then %s: the first pays" a b) 1 st pa;
          pays (Printf.sprintf "%s, then %s: the second does not" a b) 0 st pb;
          (* A leaf whose read keeps failing stays cold for the next path. *)
          let st = Store.recover ~dev ~clock in
          (match leaf_reads ~outcome:Fault.Fail (fun () -> pa st) with
          | Error (Fault.Io_error _), _ -> ()
          | _ -> Alcotest.failf "%s: a failing leaf read did not raise" a);
          pays (Printf.sprintf "%s failed, then %s pays again" a b) 1 st pb)
        paths)
    paths;
  (* A leaf that does not parse costs one read and raises on every path
     but [verify_epoch], whose page checks parse the leaf uncharged. *)
  List.iter
    (fun (a, pa) ->
      if a <> "verify_epoch" then begin
        let st = Store.recover ~dev ~clock in
        Store.recycle_leaf_cache_for_tests st;
        match leaf_reads ~outcome:(Fault.Flip [ 0; 1; 2; 3 ]) (fun () -> pa st) with
        | Error (Store.Corrupt_store _), reads ->
            Alcotest.(check int) (a ^ ": an unparseable leaf costs one read") 1 reads
        | _ -> Alcotest.failf "%s: an unparseable leaf did not raise Corrupt_store" a
      end)
    paths

(* Bulk reads meet the injector: [read_pages], [read_delta] (through a
   replication frame), [verify_epoch] and an eager restore each read the
   group's memory through charged vectored batches.  One page range of
   the memory object fails: once, and the read is retried and counted,
   with results identical to a fault-free run; for good, and the read
   raises [Fault.Io_error] (verification, and the restore whose one epoch
   it rejects, report "read failed: ..."), with the restore's machine
   left untouched.  Each run starts from a
   freshly recovered store. *)
let test_bulk_reads_meet_injector () =
  let module Sls = Aurora_core.Sls in
  let module Serial = Aurora_core.Serial in
  let module Restore = Aurora_core.Restore in
  let module Machine = Aurora_kern.Machine in
  let module Process = Aurora_kern.Process in
  let module Vm_space = Aurora_vm.Vm_space in
  let npages = 8 in
  let sys = Sls.boot () in
  let p = Aurora_kern.Syscall.spawn sys.Sls.machine ~name:"app" in
  let addr = Vm_space.addr_of_entry (Aurora_kern.Syscall.mmap_anon p ~npages) in
  let page_addr i = addr + (i * Page.logical_size) in
  for i = 0 to npages - 1 do
    Vm_space.write_string p.Process.space ~addr:(page_addr i) (Printf.sprintf "page %d" i)
  done;
  ignore (Aurora_core.Group.checkpoint ~wait_durable:true (Sls.attach sys [ p ]));
  let dev = sys.Sls.device in
  Striped.settle dev ~clock:sys.Sls.machine.Machine.clock;
  let epoch = Store.last_complete_epoch sys.Sls.store in
  (* The arena's memory object, and the device reads of its pages once
     its leaf is resident. *)
  let st = Store.recover ~dev ~clock:(Clock.create ()) in
  let oid =
    match
      List.filter
        (fun (oid, kind) ->
          kind = Serial.kind_memobj && List.length (Store.page_crcs st ~epoch ~oid) = npages)
        (Store.objects_at st ~epoch)
    with
    | [ (oid, _) ] -> oid
    | l -> Alcotest.failf "expected one %d-page memory object, saw %d" npages (List.length l)
  in
  ignore (Store.read_pages st ~epoch ~oid);
  let target =
    match device_reads dev (fun () -> Store.read_pages st ~epoch ~oid) with
    | _, reads when List.length reads >= npages -> List.nth reads 3
    | _, reads -> Alcotest.failf "expected a read per page, saw %d" (List.length reads)
  in
  let read_failed f =
    try Ok (f ()) with Fault.Io_error msg -> Error ("read failed: " ^ msg)
  in
  let paths =
    [
      ( "read_pages",
        fun _ st ->
          read_failed (fun () ->
              String.concat "|"
                (List.map (fun (i, b) -> Printf.sprintf "%d:%s" i (Bytes.to_string b))
                   (Store.read_pages st ~epoch ~oid))) );
      ( "read_delta",
        fun _ st ->
          read_failed (fun () ->
              match Aurora_core.Migrate.frame ~store:st ~base:0 ~epoch with
              | Ok (frame, _) -> frame
              | Error msg -> Alcotest.failf "no frame: %s" msg) );
      ( "verify_epoch",
        fun _ st ->
          Result.map (Wire.to_string Manifest.codec) (Restore.verify_epoch ~store:st ~epoch) );
      ( "eager restore",
        fun machine st ->
          (* The failed read reaches the caller inside the typed error of
             a restore whose one epoch failed its check. *)
          match (Restore.restore ~machine ~store:st ~epoch ()).Restore.procs with
          | [ p' ] ->
              Ok
                (String.concat "|"
                   (List.init npages (fun i ->
                        Vm_space.read_string p'.Process.space ~addr:(page_addr i) ~len:6)))
          | l -> Alcotest.failf "expected one process, saw %d" (List.length l)
          | exception Restore.Unrestorable (Restore.No_valid_epoch [ a ]) ->
              Error a.Restore.at_reason );
    ]
  in
  (* [path] on a recovered store, with [target] failing its first
     [failures] reads: its verdict, the store's retried faults and the
     machine. *)
  let run path failures =
    let machine = Machine.create () in
    let st = Store.recover ~dev ~clock:machine.Machine.clock in
    let left = ref failures in
    let h = Fault.create () in
    h.Fault.on_read <-
      (fun r ->
        if (r.Fault.r_dev, r.Fault.r_off) = target && !left > 0 then begin
          decr left;
          Fault.Fail
        end
        else Fault.Clean);
    Striped.set_fault dev (Some h);
    let v =
      Fun.protect ~finally:(fun () -> Striped.set_fault dev None) (fun () -> path machine st)
    in
    (v, Store.read_faults st, machine)
  in
  List.iter
    (fun (what, path) ->
      let clean, faults, _ = run path 0 in
      Alcotest.(check bool) (what ^ ": fault-free run succeeds") true (Result.is_ok clean);
      Alcotest.(check int) (what ^ ": fault-free run retries nothing") 0 faults;
      let once, faults, _ = run path 1 in
      Alcotest.(check int) (what ^ ": the failed page range is retried once") 1 faults;
      Alcotest.(check (result string string)) (what ^ ": identical to the fault-free run") clean
        once;
      let always, faults, machine = run path max_int in
      Alcotest.(check int) (what ^ ": the retries are spent") 4 faults;
      (match always with
      | Error msg when String.starts_with ~prefix:"read failed: " msg -> ()
      | Error msg -> Alcotest.failf "%s: failed for another reason: %s" what msg
      | Ok _ -> Alcotest.failf "%s: a page range that keeps failing was absorbed" what);
      Alcotest.(check int) (what ^ ": no process created") 0 (Hashtbl.length machine.Machine.procs);
      Alcotest.(check bool) (what ^ ": nothing mounted") true (machine.Machine.vfs = None))
    paths

(* Random store histories for the reference-count property.  Objects are
   slots into a fixed oid array; a page's content is a code (see
   [content]). *)
type step =
  | Commit of (int * (int * int) list) list  (** (object, [(page, content)]) *)
  | Prune of int  (** [prune_history ~keep] between epochs *)
  | Prune_mid of int * (int * (int * int) list) list
      (** the same prune, run after these objects are staged *)
  | Crash  (** wait for durability, crash, recover *)
  | Toggle_packed

(* Zero pages, short runs of four letters that later epochs and other
   objects re-stage (dedup bait), and full incompressible pages. *)
let content c =
  match c mod 8 with
  | 0 -> Bytes.make Store.block_size '\000'
  | k when k < 5 -> payload (Char.chr (Char.code 'a' + k))
  | _ -> noise_page c

let step_to_string =
  let objs o =
    String.concat "; "
      (List.map
         (fun (slot, pages) ->
           Printf.sprintf "(%d, [%s])" slot
             (String.concat "; " (List.map (fun (i, c) -> Printf.sprintf "(%d, %d)" i c) pages)))
         o)
  in
  function
  | Commit o -> Printf.sprintf "Commit [%s]" (objs o)
  | Prune k -> Printf.sprintf "Prune %d" k
  | Prune_mid (k, o) -> Printf.sprintf "Prune_mid (%d, [%s])" k (objs o)
  | Crash -> "Crash"
  | Toggle_packed -> "Toggle_packed"

let gen_steps =
  QCheck.Gen.(
    let pages = list_size (int_range 0 12) (pair (int_range 0 250) (int_range 0 15)) in
    let objs = list_size (int_range 1 3) (pair (int_range 0 2) pages) in
    list_size (int_range 1 14)
      (frequency
         [
           (5, map (fun o -> Commit o) objs);
           (2, map (fun k -> Prune k) (int_range 0 3));
           (2, map2 (fun k o -> Prune_mid (k, o)) (int_range 0 3) objs);
           (1, return Crash);
           (1, return Toggle_packed);
         ]))

(* Replay [steps] against a store and a model of every retained epoch's
   objects.  Every commit stages each object's meta as its epoch number.
   After each step the store's incrementally kept counts,
   free set and index must match a fresh walk, and every retained epoch
   must list the model's objects, read back each one's meta and pages,
   and pass [check_epoch] (its manifest rows against its leaves). *)
let counts_match_a_fresh_walk steps =
  let clock = Clock.create () and dev = Striped.create () in
  let store = ref (Store.format ~dev ~clock) in
  let oids = Array.init 3 (fun _ -> Store.alloc_oid !store) in
  let packed = ref true in
  (* (epoch, [(oid, meta, pages ascending)] by oid) per retained epoch,
     oldest first. *)
  let history = ref [] in
  let stage objs =
    let e = Store.begin_checkpoint !store in
    List.iter
      (fun (slot, pages) ->
        Store.put_object !store ~oid:oids.(slot) ~kind:"memory" ~meta:(string_of_int e);
        Store.put_pages !store ~oid:oids.(slot) (List.map (fun (i, c) -> (i, content c)) pages))
      objs;
    e
  in
  (* The staged objects compose over the head epoch at commit time, so
     over what a mid-epoch prune left. *)
  let commit e objs =
    ignore (Store.commit_checkpoint !store);
    let state = Hashtbl.create 4 in
    (match List.rev !history with
    | (_, head) :: _ ->
        List.iter
          (fun (oid, meta, pages) ->
            Hashtbl.replace state oid (meta, Hashtbl.of_seq (List.to_seq pages)))
          head
    | [] -> ());
    List.iter
      (fun (slot, pages) ->
        let oid = oids.(slot) in
        let pages_of =
          match Hashtbl.find_opt state oid with Some (_, h) -> h | None -> Hashtbl.create 16
        in
        Hashtbl.replace state oid (string_of_int e, pages_of);
        List.iter (fun (i, c) -> Hashtbl.replace pages_of i c) pages)
      objs;
    let objs =
      Hashtbl.fold
        (fun oid (meta, h) acc ->
          (oid, meta, List.sort compare (List.of_seq (Hashtbl.to_seq h))) :: acc)
        state []
    in
    history := !history @ [ (e, List.sort compare objs) ]
  in
  let prune k =
    ignore (Store.prune_history !store ~keep:k);
    let n = List.length !history in
    history := List.filteri (fun i _ -> i >= n - k) !history
  in
  let holds () =
    Store.content_index_consistent !store
    && Store.checkpoint_epochs !store = List.map fst !history
    && List.for_all
         (fun (epoch, objs) ->
           Store.objects_at !store ~epoch = List.map (fun (oid, _, _) -> (oid, "memory")) objs
           && Result.is_ok (Store.check_epoch !store ~epoch ~check_meta:(fun ~kind:_ _ -> Ok ()))
           && List.for_all
                (fun (oid, meta, pages) ->
                  Store.read_meta !store ~epoch ~oid = meta
                  && Store.read_pages !store ~epoch ~oid
                     = List.map (fun (i, c) -> (i, content c)) pages)
                objs)
         !history
  in
  List.for_all
    (fun step ->
      (match step with
      | Commit objs -> commit (stage objs) objs
      | Prune k -> prune k
      | Prune_mid (k, objs) ->
          let e = stage objs in
          prune k;
          commit e objs
      | Crash ->
          Store.wait_durable !store;
          Striped.crash dev ~now:(Clock.now clock);
          store := Store.recover ~dev ~clock;
          packed := true
      | Toggle_packed ->
          packed := not !packed;
          Store.set_packed_layout !store !packed);
      holds ())
    steps

type alloc_op = Block | Extent of int | Ref of int | Unref of int

let alloc_op_to_string = function
  | Block -> "Block"
  | Extent n -> Printf.sprintf "Extent %d" n
  | Ref k -> Printf.sprintf "Ref %d" k
  | Unref k -> Printf.sprintf "Unref %d" k

let gen_alloc_ops =
  QCheck.Gen.(
    list_size (int_range 1 80)
      (frequency
         [
           (4, return Block);
           (2, map (fun n -> Extent n) (int_range 1 8));
           (2, map (fun k -> Ref k) nat);
           (5, map (fun k -> Unref k) nat);
         ]))

(* Replay [ops] against an allocator and a naive model, block -> live
   items: every allocated block is counted once, [Ref]/[Unref] count the
   [k]th live block once more or once fewer, and a block at zero is
   freed.  No block may be handed out while live; the counts and the free
   set must match the model (the free set is exactly the uncounted blocks
   between the superblock and the frontier); and the frontier must sit
   just above the highest live block, so a freed top run folds back. *)
let allocator_matches_a_set_model ops =
  let a = Allocator.create () and live = Hashtbl.create 64 in
  let take b =
    let fresh = b > 0 && not (Hashtbl.mem live b) in
    if fresh then begin
      Hashtbl.replace live b 1;
      Allocator.retain a b
    end;
    fresh
  in
  let nth k =
    match List.sort compare (List.of_seq (Hashtbl.to_seq_keys live)) with
    | [] -> None
    | bs -> Some (List.nth bs (k mod List.length bs))
  in
  List.for_all
    (fun op ->
      let ok =
        match op with
        | Block -> take (Allocator.alloc_block a)
        | Extent n ->
            let b = Allocator.alloc_extent a n in
            List.for_all take (List.init n (fun i -> b + i))
        | Ref k ->
            Option.iter
              (fun b ->
                Hashtbl.replace live b (Hashtbl.find live b + 1);
                Allocator.retain a b)
              (nth k);
            true
        | Unref k -> (
            match nth k with
            | None -> true
            | Some b ->
                let left = Hashtbl.find live b - 1 in
                let zero = Allocator.release a b in
                if left = 0 then begin
                  Hashtbl.remove live b;
                  Allocator.free a b
                end
                else Hashtbl.replace live b left;
                zero = (left = 0))
      in
      ok
      && Allocator.consistent a (fun f ->
             Hashtbl.iter (fun b n -> for _ = 1 to n do f b done) live)
      && Allocator.allocated a = 1 + Hashtbl.length live
      && Allocator.frontier a = 1 + Hashtbl.fold (fun b _ m -> max b m) live 0)
    ops

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"allocator matches a naive set model" ~count:300
         (QCheck.make ~shrink:QCheck.Shrink.list
            ~print:(fun l -> String.concat "; " (List.map alloc_op_to_string l))
            gen_alloc_ops)
         allocator_matches_a_set_model);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"coalesced flush: crash/recover preserves every retained epoch"
         ~count:20
         QCheck.(
           pair
             (list_of_size (Gen.int_range 2 5)
                (list_of_size (Gen.int_range 1 60)
                   (pair (int_range 0 900) printable_char)))
             (int_range 0 3))
         (fun (epochs_spec, keep_extra) ->
           let clock = Clock.create () in
           let dev = Striped.create () in
           let store = Store.format ~dev ~clock in
           let oid = Store.alloc_oid store in
           List.iter
             (fun pages ->
               ignore (Store.begin_checkpoint store);
               Store.put_object store ~oid ~kind:"memory" ~meta:"equiv";
               Store.put_pages store ~oid
                 (List.map (fun (idx, c) -> (idx, payload c)) pages);
               ignore (Store.commit_checkpoint store))
             epochs_spec;
           (* Pruning also exercises leaf-cache invalidation of freed
              blocks before the crash. *)
           ignore (Store.prune_history store ~keep:(1 + keep_extra));
           Store.wait_durable store;
           let epochs = Store.checkpoint_epochs store in
           let before =
             List.map
               (fun e ->
                 ( e,
                   Store.read_meta store ~epoch:e ~oid,
                   Store.read_pages store ~epoch:e ~oid ))
               epochs
           in
           Striped.crash dev ~now:(Clock.now clock);
           let store2 = Store.recover ~dev ~clock in
           Store.checkpoint_epochs store2 = epochs
           && List.for_all
                (fun (e, meta, pages) ->
                  Store.read_meta store2 ~epoch:e ~oid = meta
                  && Store.read_pages store2 ~epoch:e ~oid = pages)
                before));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"prune atomicity: crash around the prune record is all-or-nothing"
         ~count:20
         QCheck.(
           pair
             (list_of_size (Gen.int_range 3 6)
                (list_of_size (Gen.int_range 1 30)
                   (pair (int_range 0 600) printable_char)))
             (int_range 1 2))
         (fun (epochs_spec, keep) ->
           (* Build the same history twice; prune_history returns with the
              clock advanced exactly to its superblock's completion, so
              [now - 1] crashes with the prune record submitted but not
              durable and [now] crashes with it just durable. *)
           let build () =
             let clock = Clock.create () in
             let dev = Striped.create () in
             let store = Store.format ~dev ~clock in
             let oid = Store.alloc_oid store in
             List.iter
               (fun pages ->
                 ignore (Store.begin_checkpoint store);
                 Store.put_object store ~oid ~kind:"memory" ~meta:"m";
                 Store.put_pages store ~oid
                   (List.map (fun (idx, c) -> (idx, payload c)) pages);
                 ignore (Store.commit_checkpoint store))
               epochs_spec;
             Store.wait_durable store;
             (clock, dev, store, oid)
           in
           let snapshot store oid =
             List.map
               (fun e ->
                 ( e,
                   Store.read_meta store ~epoch:e ~oid,
                   Store.read_pages store ~epoch:e ~oid ))
               (Store.checkpoint_epochs store)
           in
           (* Prune record lost: the full pre-prune history recovers —
              freed-in-memory blocks were never overwritten on disk. *)
           let clock_a, dev_a, store_a, oid_a = build () in
           let before_a = snapshot store_a oid_a in
           ignore (Store.prune_history store_a ~keep);
           Striped.crash dev_a ~now:(Clock.now clock_a - 1);
           let ra = Store.recover ~dev:dev_a ~clock:(Clock.create ()) in
           let ok_a = snapshot ra oid_a = before_a in
           (* Prune record durable: exactly the kept suffix recovers. *)
           let clock_b, dev_b, store_b, oid_b = build () in
           ignore (Store.prune_history store_b ~keep);
           let after_b = snapshot store_b oid_b in
           Striped.crash dev_b ~now:(Clock.now clock_b);
           let rb = Store.recover ~dev:dev_b ~clock:(Clock.create ()) in
           let ok_b =
             snapshot rb oid_b = after_b
             && List.length (Store.checkpoint_epochs rb) = keep
           in
           (* Both recoveries rebuild the content-addressed index from the
              durable leaves: its refcounts must match a fresh walk. *)
           ok_a && ok_b
           && Store.content_index_consistent ra
           && Store.content_index_consistent rb));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"mid-epoch prune: dedup-referenced pages survive the sweep"
         ~count:20
         QCheck.(
           triple
             (list_of_size (Gen.int_range 3 5)
                (list_of_size (Gen.int_range 1 25)
                   (pair (int_range 0 400) printable_char)))
             (list_of_size (Gen.int_range 1 25) (pair (int_range 0 400) printable_char))
             (int_range 1 2))
         (fun (epochs_spec, staged, keep) ->
           (* A checkpoint is staged, a prune runs mid-epoch, then the
              commit dedups its pages — several byte-identical to payloads
              the dropped epochs wrote.  Matches may only land on
              locations the kept epochs still reach, so every page must
              read back correctly before and after a crash, and the
              content index must agree with the durable leaves. *)
           let clock = Clock.create () in
           let dev = Striped.create () in
           let store = Store.format ~dev ~clock in
           let oid = Store.alloc_oid store in
           List.iter
             (fun pages ->
               ignore (Store.begin_checkpoint store);
               Store.put_object store ~oid ~kind:"memory" ~meta:"m";
               Store.put_pages store ~oid
                 (List.map (fun (idx, c) -> (idx, payload c)) pages);
               ignore (Store.commit_checkpoint store))
             epochs_spec;
           Store.wait_durable store;
           let e = Store.begin_checkpoint store in
           Store.put_object store ~oid ~kind:"memory" ~meta:"mid";
           (* Re-stage early epochs' exact payloads (dedup bait pointing
              into soon-pruned history) plus this epoch's fresh pages. *)
           let bait =
             List.concat (match epochs_spec with p :: _ -> [ p ] | [] -> [])
           in
           let pages = bait @ staged in
           Store.put_pages store ~oid
             (List.map (fun (idx, c) -> (idx, payload c)) pages);
           ignore (Store.prune_history store ~keep);
           ignore (Store.commit_checkpoint store);
           Store.wait_durable store;
           (* Latest content per index: staged list wins over bait. *)
           let model = Hashtbl.create 64 in
           List.iter (fun (idx, c) -> Hashtbl.replace model idx c) pages;
           let check st =
             Hashtbl.fold
               (fun idx c ok ->
                 ok
                 && Store.read_page st ~epoch:e ~oid ~idx = Some (payload c))
               model true
             && Store.content_index_consistent st
           in
           let ok_live = check store in
           Striped.crash dev ~now:(Clock.now clock);
           let r = Store.recover ~dev ~clock:(Clock.create ()) in
           ok_live && check r));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"dedup+delta epochs restore byte-identically to a forced-full epoch"
         ~count:30
         QCheck.(
           list_of_size (Gen.int_range 2 5)
             (list_of_size (Gen.int_range 1 30)
                (pair (int_range 0 350) printable_char)))
         (fun epochs_spec ->
           (* Store A accumulates the state as delta epochs with dedup and
              compression on (the repeated single-char payloads dedup
              heavily); store B writes the composed final state in one
              epoch with both off — the whole-page baseline layout.  The
              two must be byte-identical page for page, before and after A
              crashes and recovers. *)
           let clock_a = Clock.create () in
           let dev_a = Striped.create () in
           let a = Store.format ~dev:dev_a ~clock:clock_a in
           let oid = Store.alloc_oid a in
           List.iter
             (fun pages ->
               ignore (Store.begin_checkpoint a);
               Store.put_object a ~oid ~kind:"memory" ~meta:"delta";
               Store.put_pages a ~oid
                 (List.map (fun (idx, c) -> (idx, payload c)) pages);
               ignore (Store.commit_checkpoint a))
             epochs_spec;
           Store.wait_durable a;
           let model = Hashtbl.create 64 in
           List.iter
             (List.iter (fun (idx, c) -> Hashtbl.replace model idx c))
             epochs_spec;
           let full = Hashtbl.fold (fun idx c acc -> (idx, payload c) :: acc) model [] in
           let _clock_b, _dev_b, b = fresh () in
           Store.set_packed_layout b false;
           let oid_b = Store.alloc_oid b in
           let eb = Store.begin_checkpoint b in
           Store.put_object b ~oid:oid_b ~kind:"memory" ~meta:"full";
           Store.put_pages b ~oid:oid_b full;
           ignore (Store.commit_checkpoint b);
           Store.wait_durable b;
           let ea = Store.last_complete_epoch a in
           let pages_of st ~epoch ~oid = Store.read_pages st ~epoch ~oid in
           let want = pages_of b ~epoch:eb ~oid:oid_b in
           let ok_live = pages_of a ~epoch:ea ~oid = want in
           Striped.crash dev_a ~now:(Clock.now clock_a);
           let ra = Store.recover ~dev:dev_a ~clock:(Clock.create ()) in
           ok_live
           && pages_of ra ~epoch:ea ~oid = want
           && Store.content_index_consistent ra));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"store round-trips random page sets over epochs" ~count:40
         QCheck.(
           list_of_size (Gen.int_range 1 6)
             (list_of_size (Gen.int_range 0 20) (pair (int_range 0 600) printable_char)))
         (fun epochs_spec ->
           let _clock, _dev, store = fresh () in
           let oid = Store.alloc_oid store in
           (* Model: latest content per page index. *)
           let model = Hashtbl.create 64 in
           let ok = ref true in
           List.iter
             (fun pages ->
               let e = Store.begin_checkpoint store in
               Store.put_object store ~oid ~kind:"memory" ~meta:"";
               Store.put_pages store ~oid
                 (List.map (fun (idx, c) -> (idx, payload c)) pages);
               ignore (Store.commit_checkpoint store);
               List.iter (fun (idx, c) -> Hashtbl.replace model idx c) pages;
               Hashtbl.iter
                 (fun idx c ->
                   match Store.read_page store ~epoch:e ~oid ~idx with
                   | Some data -> if data <> payload c then ok := false
                   | None -> ok := false)
                 model)
             epochs_spec;
           !ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"recovery equals pre-crash durable state" ~count:30
         QCheck.(list_of_size (Gen.int_range 1 8) (string_of_size (Gen.int_range 1 50)))
         (fun metas ->
           let clock = Clock.create () in
           let dev = Striped.create () in
           let store = Store.format ~dev ~clock in
           let oid = Store.alloc_oid store in
           List.iter
             (fun meta ->
               ignore (Store.begin_checkpoint store);
               Store.put_object store ~oid ~kind:"blob" ~meta;
               ignore (Store.commit_checkpoint store))
             metas;
           Store.wait_durable store;
           let last = Store.last_complete_epoch store in
           Striped.crash dev ~now:(Clock.now clock);
           let store2 = Store.recover ~dev ~clock in
           Store.last_complete_epoch store2 = last
           && Store.read_meta store2 ~epoch:last ~oid = List.nth metas (List.length metas - 1)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"reference counts equal a fresh walk over random histories"
         ~count:60
         (QCheck.make ~shrink:QCheck.Shrink.list
            ~print:(fun l -> String.concat "\n" (List.map step_to_string l))
            gen_steps)
         counts_match_a_fresh_walk);
  ]

(* Manifest codec ---------------------------------------------------------------- *)

let sample_manifest =
  let entries =
    [
      Manifest.entry_of_source (3, "sls.memobj", "meta-a", [ (0, 17); (1, 99) ]);
      Manifest.entry_of_source (5, "sls.proc", "meta-b", []);
    ]
  in
  { Manifest.m_epoch = 12; m_count = 2; m_entries = entries }

let manifest_roundtrip_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"manifest image round-trips" ~count:200
       QCheck.(
         pair small_nat
           (small_list (triple small_nat small_string (small_list (pair small_nat small_nat)))))
       (fun (epoch, sources) ->
         let entries =
           List.mapi
             (fun i (oid, meta, crcs) ->
               Manifest.entry_of_source (oid + (i * 1000), "sls.kind", meta, crcs))
             sources
         in
         let m =
           { Manifest.m_epoch = epoch; m_count = List.length entries; m_entries = entries }
         in
         Manifest.of_string (Wire.to_string Manifest.codec m) = Ok m))

(* Truncation and bit-flips yield [Error "sls.manifest: ..."], never an
   exception. *)
let test_manifest_parser_typed () =
  let valid = Wire.to_string Manifest.codec sample_manifest in
  let parse what s =
    match Manifest.of_string s with
    | Ok _ -> ()
    | Error msg ->
        if not (String.starts_with ~prefix:"sls.manifest: " msg) then
          Alcotest.failf "%s: untyped reason %S" what msg
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  for len = 0 to String.length valid - 1 do
    parse (Printf.sprintf "truncated at %d" len) (String.sub valid 0 len)
  done;
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string valid in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x41));
      parse (Printf.sprintf "flipped byte %d" i) (Bytes.to_string b))
    valid

let () =
  Alcotest.run "aurora_objstore"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "short read" `Quick test_wire_short_read_raises;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "incremental COW" `Quick test_incremental_cow;
          Alcotest.test_case "carry forward" `Quick test_unchanged_object_carries_forward;
          Alcotest.test_case "double begin" `Quick test_double_begin_rejected;
          Alcotest.test_case "put_pages newest wins" `Quick test_put_pages_newest_wins;
          Alcotest.test_case "dedup within one commit" `Quick test_dedup_within_one_commit;
          Alcotest.test_case "read each stored range once" `Quick test_read_each_range_once;
          Alcotest.test_case "decode each stored range once" `Quick test_decode_each_range_once;
          Alcotest.test_case "history time travel" `Quick test_history_is_time_travel;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "clean shutdown" `Quick test_recovery_after_clean_shutdown;
          Alcotest.test_case "crash mid-checkpoint" `Quick test_crash_mid_checkpoint_keeps_previous;
          Alcotest.test_case "commit write order" `Quick test_commit_write_order;
          Alcotest.test_case "crash before first" `Quick test_crash_before_any_checkpoint;
          Alcotest.test_case "uninitialized device" `Quick test_recover_uninitialized_device_fails;
          Alcotest.test_case "read retry absorbs transients" `Quick
            test_read_retry_absorbs_transients;
          Alcotest.test_case "large version record" `Quick test_recover_large_version_record;
          Alcotest.test_case "large checkpoint record" `Quick
            test_recover_large_checkpoint_record;
          Alcotest.test_case "bad record is Corrupt_store" `Quick
            test_recover_bad_record_is_corrupt_store;
          Alcotest.test_case "read volume" `Quick test_recover_read_volume;
          Alcotest.test_case "one batched read" `Quick test_recover_time_one_batch;
          Alcotest.test_case "flat in retained epochs" `Quick test_recover_flat_in_epochs;
          Alcotest.test_case "past a full directory" `Quick test_recover_past_full_directory;
          Alcotest.test_case "directory disagrees with chain" `Quick
            test_directory_disagrees_with_chain;
          Alcotest.test_case "retries per range" `Quick test_recover_retries_per_range;
          Alcotest.test_case "older versions wait for first use" `Quick
            test_recover_skips_older_versions;
          Alcotest.test_case "corrupt older version at first use" `Quick
            test_corrupt_older_version_at_first_use;
          Alcotest.test_case "corrupt older manifest at first use" `Quick
            test_corrupt_older_manifest_at_first_use;
          Alcotest.test_case "deferred pass reads charged" `Quick test_settle_reads_charged;
        ] );
      ( "journal",
        [
          Alcotest.test_case "append and scan" `Quick test_journal_append_and_scan;
          Alcotest.test_case "truncate" `Quick test_journal_truncate;
          Alcotest.test_case "crash survival" `Quick test_journal_survives_crash;
          Alcotest.test_case "append after recovery" `Quick test_journal_append_after_recovery;
          Alcotest.test_case "read cost follows records" `Quick test_journal_read_cost_is_records;
          Alcotest.test_case "timing anchor" `Quick test_journal_timing_anchor;
        ] );
      ( "history",
        [
          Alcotest.test_case "prune frees blocks" `Quick test_prune_history_frees_blocks;
          Alcotest.test_case "straddling record lives" `Quick test_straddling_record_lives;
          Alcotest.test_case "shared record block" `Quick test_shared_record_block;
          Alcotest.test_case "freed blocks survive recovery" `Quick
            test_recovery_keeps_freed_blocks;
          Alcotest.test_case "prune all keeps numbering" `Quick test_prune_all_keeps_numbering;
          Alcotest.test_case "negative keep rejected" `Quick test_prune_negative_keep;
          Alcotest.test_case "lost prune superblock keeps the old chain" `Quick
            test_lost_prune_superblock;
          Alcotest.test_case "reused freed block keeps its bytes" `Quick
            test_reused_block_keeps_bytes;
          Alcotest.test_case "freed again waits for its newest batch" `Quick
            test_refreed_block_waits;
          Alcotest.test_case "recovery discards what it frees" `Quick
            test_recovery_discards_freed;
        ] );
      ( "residency",
        [
          Alcotest.test_case "charged read makes leaf resident" `Quick
            test_leaf_resident_after_charged_read;
          Alcotest.test_case "recovered store starts cold" `Quick
            test_recovered_store_starts_cold;
          Alcotest.test_case "freed leaf block charged again" `Quick
            test_freed_leaf_block_recharged;
          Alcotest.test_case "failed leaf read not resident" `Quick
            test_failed_leaf_read_not_resident;
          Alcotest.test_case "verify: one leaf round trip" `Quick
            test_verify_one_leaf_round_trip;
          Alcotest.test_case "resident hit skips on_read" `Quick
            test_resident_hit_skips_on_read;
          Alcotest.test_case "cluster: one round trip" `Quick test_cluster_one_round_trip;
          Alcotest.test_case "cluster: failed neighbour deferred" `Quick
            test_cluster_failed_neighbour;
          Alcotest.test_case "cluster: corrupt neighbour deferred" `Quick
            test_cluster_corrupt_neighbour;
          Alcotest.test_case "stream: fault waits for its window" `Quick
            test_stream_fault_waits_for_window;
          Alcotest.test_case "stream: failed neighbour deferred" `Quick
            test_stream_failed_neighbour;
          Alcotest.test_case "stream: corrupt neighbour deferred" `Quick
            test_stream_corrupt_neighbour;
          Alcotest.test_case "stream: unlisted leaf raises" `Quick
            test_stream_unlisted_leaf_raises;
          Alcotest.test_case "paid once, whichever path pays" `Quick test_residency_paid_once;
          Alcotest.test_case "bulk reads meet the injector" `Quick test_bulk_reads_meet_injector;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "leaf span" `Quick test_leaf_span_boundaries;
          Alcotest.test_case "full leaf" `Quick test_full_leaf_fits_a_block;
          Alcotest.test_case "many objects" `Quick test_many_objects_one_checkpoint;
          Alcotest.test_case "journal generations" `Quick test_journal_generation_isolation;
          Alcotest.test_case "prune/crash/recover" `Quick test_prune_then_crash_recover;
        ] );
      ("manifest", [ Alcotest.test_case "typed malformed parser" `Quick test_manifest_parser_typed ]);
      ("properties", qcheck_tests @ [ manifest_roundtrip_test ]);
    ]
