module Clock = Aurora_sim.Clock
module Striped = Aurora_block.Striped
module Fault = Aurora_block.Fault
module Wire = Aurora_objstore.Wire
module Manifest = Aurora_objstore.Manifest
module Store = Aurora_objstore.Store
module Store_format = Aurora_objstore.Store_format

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
     with Wire.Corrupt _ -> true)

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
  Alcotest.(check (list int)) "page indices" [ 0; 7 ] (Store.page_indices store ~epoch ~oid);
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
    (Store.page_indices store ~epoch:e2 ~oid)

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
    (List.length (Store.page_indices store2 ~epoch:1 ~oid))

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
    (List.sort compare (Store.page_indices store ~epoch:e ~oid));
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

(* Location (first block, blocks) of the newest checkpoint record, as the
   superblock names it: magic string, last epoch, record block, record
   blocks.  [record_blocks_offset] is where the last field sits. *)
let record_blocks_offset = 4 + String.length "AURSTORE" + 8 + 8

let head_record dev =
  let sb =
    Store.decode "superblock" Store_format.superblock_codec
      (Striped.read_nocharge dev ~off:0 ~len:Store.block_size)
  in
  (sb.Store_format.sb_record_block, sb.sb_record_nblocks)

let overwrite dev clock ~off data =
  ignore (Striped.write dev ~now:(Clock.now clock) ~off data);
  Striped.settle dev ~clock

(* Checkpoint record layout: magic u8, epoch u64, prev block u64, prev
   blocks u32, entry count u32, then per entry oid u64, version block u64,
   offset u32, length u32. *)
let first_entry_offset = 1 + 8 + 8 + 4 + 4

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
  let one = Bytes.create 8 in
  Bytes.set_int64_le one 0 1L;
  overwrite dev clock ~off:record_blocks_offset one;
  Alcotest.(check bool) "truncated record" true
    (raises_corrupt_store (fun () -> Store.recover ~dev ~clock));
  (* A record size beyond the store's allocated blocks. *)
  let big = Bytes.create 8 in
  Bytes.set_int64_le big 0 1_000_000L;
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
  (* A version entry whose offset, length or byte range is out of bounds
     is Corrupt_store too, never Invalid_argument or a raw wire error. *)
  let bad_entry what ~field value =
    let clock, dev = build () in
    let blk, _ = head_record dev in
    let v = Bytes.create 4 in
    Bytes.set_int32_le v 0 (Int32.of_int value);
    overwrite dev clock ~off:((blk * Store.block_size) + first_entry_offset + field) v;
    Alcotest.(check bool) what true (raises_corrupt_store (fun () -> Store.recover ~dev ~clock))
  in
  bad_entry "version offset past its block" ~field:16 Store.block_size;
  bad_entry "empty version record" ~field:20 0;
  bad_entry "version record past the allocated blocks" ~field:20 1_000_000

(* Recovery reads each distinct version record once, and only the blocks
   its packed bytes cover: K epochs that each rewrite one of M objects read
   the first epoch's packed run plus one block per later epoch, not K x M
   records, and every retained epoch comes back identical. *)
let test_recover_read_volume () =
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

(* Leaf residency ------------------------------------------------------------ *)

(* A full page of incompressible bytes: stored raw, one block, so a data
   read of it costs exactly one 4 KiB device read. *)
let noise_page seed =
  let r = Aurora_util.Rng.create seed in
  Bytes.init Store.block_size (fun _ -> Char.chr (Aurora_util.Rng.int r 256))

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

(* Virtual time of one 4 KiB read on an idle device. *)
let one_block_read =
  Aurora_sim.Cost.nvme_read_latency
  + Aurora_sim.Cost.transfer_time ~bandwidth:Aurora_sim.Cost.nvme_device_bandwidth
      Store.block_size

let test_leaf_resident_after_charged_read () =
  let clock, dev, store, oid, epoch = one_leaf_store 3 in
  let timed_read idx =
    let t0 = Clock.now clock in
    let page = Store.read_page store ~epoch ~oid ~idx in
    Alcotest.(check (option bytes)) (Printf.sprintf "page %d" idx) (Some (noise_page idx)) page;
    Clock.now clock - t0
  in
  (* Commit parsed the leaf but never paid for it: the first read does. *)
  Alcotest.(check int) "first read: leaf + data" (2 * one_block_read) (timed_read 0);
  Alcotest.(check int) "same leaf: one data read" one_block_read (timed_read 1);
  Alcotest.(check int) "same page again: one data read" one_block_read (timed_read 0);
  (* A bulk read charges its data as one streamed read; over a resident
     leaf it issues no block read at all. *)
  let pages, reads = device_reads dev (fun () -> Store.read_pages store ~epoch ~oid) in
  Alcotest.(check int) "read_pages: every page" 3 (List.length pages);
  Alcotest.(check int) "read_pages: no leaf read" 0 (List.length reads)

let test_recovered_store_starts_cold () =
  let clock, dev, store, oid, epoch = one_leaf_store 2 in
  ignore (Store.read_page store ~epoch ~oid ~idx:0);
  let store2 = Store.recover ~dev ~clock in
  (* The content-index rebuild, the page CRCs and the index listing all
     parse leaf 0 without charging it: none of them makes it resident. *)
  Alcotest.(check int) "crcs listed" 2 (List.length (Store.page_crcs store2 ~epoch ~oid));
  Alcotest.(check (list int)) "indices listed" [ 0; 1 ] (Store.page_indices store2 ~epoch ~oid);
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

let test_resident_hit_skips_on_read () =
  let _clock, dev, store, oid, epoch = one_leaf_store 2 in
  let _, cold = device_reads dev (fun () -> Store.read_page store ~epoch ~oid ~idx:0) in
  let leaf_read = List.hd cold in
  let page, warm = device_reads dev (fun () -> Store.read_page store ~epoch ~oid ~idx:1) in
  Alcotest.(check (option bytes)) "page 1" (Some (noise_page 1)) page;
  Alcotest.(check bool) "on_read never sees the resident leaf" false (List.mem leaf_read warm);
  Alcotest.(check int) "on_read sees the data read only" 1 (List.length warm)

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
   pages.  After each step the store's incrementally kept counts, free
   set and index must match a fresh walk, and every page of every
   retained epoch must read back. *)
let counts_match_a_fresh_walk steps =
  let clock = Clock.create () and dev = Striped.create () in
  let store = ref (Store.format ~dev ~clock) in
  let oids = Array.init 3 (fun _ -> Store.alloc_oid !store) in
  let packed = ref true in
  (* (epoch, [(oid, pages ascending)]) per retained epoch, oldest first. *)
  let history = ref [] in
  let stage objs =
    let e = Store.begin_checkpoint !store in
    List.iter
      (fun (slot, pages) ->
        Store.put_object !store ~oid:oids.(slot) ~kind:"memory" ~meta:"m";
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
          (fun (oid, pages) -> Hashtbl.replace state oid (Hashtbl.of_seq (List.to_seq pages)))
          head
    | [] -> ());
    List.iter
      (fun (slot, pages) ->
        let oid = oids.(slot) in
        if not (Hashtbl.mem state oid) then Hashtbl.replace state oid (Hashtbl.create 16);
        List.iter (fun (i, c) -> Hashtbl.replace (Hashtbl.find state oid) i c) pages)
      objs;
    let objs =
      Hashtbl.fold
        (fun oid h acc -> (oid, List.sort compare (List.of_seq (Hashtbl.to_seq h))) :: acc)
        state []
    in
    history := !history @ [ (e, objs) ]
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
           List.for_all
             (fun (oid, pages) ->
               Store.read_pages !store ~epoch ~oid = List.map (fun (i, c) -> (i, content c)) pages)
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

let qcheck_tests =
  [
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
          Alcotest.test_case "history time travel" `Quick test_history_is_time_travel;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "clean shutdown" `Quick test_recovery_after_clean_shutdown;
          Alcotest.test_case "crash mid-checkpoint" `Quick test_crash_mid_checkpoint_keeps_previous;
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
        ] );
      ( "journal",
        [
          Alcotest.test_case "append and scan" `Quick test_journal_append_and_scan;
          Alcotest.test_case "truncate" `Quick test_journal_truncate;
          Alcotest.test_case "crash survival" `Quick test_journal_survives_crash;
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
          Alcotest.test_case "resident hit skips on_read" `Quick
            test_resident_hit_skips_on_read;
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
