module Clock = Aurora_sim.Clock
module Striped = Aurora_block.Striped
module Store = Aurora_objstore.Store
module Fs = Aurora_fs.Fs
module Bench_fs = Aurora_fs.Bench_fs
module Aurora_bench = Aurora_fs.Aurora_bench
module Zfs_model = Aurora_fs.Zfs_model
module Ffs_model = Aurora_fs.Ffs_model
module Vnode = Aurora_kern.Vnode

let fresh () =
  let clock = Clock.create () in
  let dev = Striped.create () in
  let store = Store.format ~dev ~clock in
  (clock, dev, store, Fs.create ~store)

(* Rebuild the file system of [epoch], each file's pages read alone. *)
let restore_fs ~store ~epoch =
  Fs.restore_from_store ~store ~epoch ~pages:(fun oid -> Store.read_pages store ~epoch ~oid)

let test_create_write_read () =
  let clock, _dev, _store, fs = fresh () in
  let vn = Fs.create_file fs "/a/b/file" in
  Fs.write fs vn ~off:0 "file system contents";
  Alcotest.(check string) "roundtrip" "file system contents"
    (Fs.read fs vn ~off:0 ~len:100);
  Alcotest.(check int) "size" 20 (Vnode.size vn);
  ignore clock

let test_lookup_and_unlink () =
  let _clock, _dev, _store, fs = fresh () in
  ignore (Fs.create_file fs "/x");
  Alcotest.(check bool) "found" true (Fs.lookup fs "/x" <> None);
  Alcotest.(check bool) "unlinked" true (Fs.unlink fs "/x");
  Alcotest.(check bool) "gone" true (Fs.lookup fs "/x" = None);
  Alcotest.(check bool) "double unlink" false (Fs.unlink fs "/x")

let test_rename () =
  let _clock, _dev, _store, fs = fresh () in
  let vn = Fs.create_file fs "/old" in
  Fs.write fs vn ~off:0 "data";
  Alcotest.(check bool) "renamed" true (Fs.rename fs ~src:"/old" ~dst:"/new");
  Alcotest.(check bool) "old gone" true (Fs.lookup fs "/old" = None);
  match Fs.lookup fs "/new" with
  | Some vn' ->
      Alcotest.(check string) "same file" "data" (Fs.read fs vn' ~off:0 ~len:4)
  | None -> Alcotest.fail "new name missing"

let test_fsync_is_cheap () =
  let clock, _dev, _store, fs = fresh () in
  let vn = Fs.create_file fs "/f" in
  Fs.write fs vn ~off:0 (String.make 65536 'x');
  let t0 = Clock.now clock in
  Fs.fsync fs vn;
  let cost = Clock.now clock - t0 in
  (* Checkpoint consistency: fsync is just a syscall, not an I/O wait. *)
  Alcotest.(check bool) (Printf.sprintf "fsync ~free (%dns)" cost) true (cost < 10_000)

let test_flush_restore_roundtrip () =
  let clock, dev, store, fs = fresh () in
  let vn = Fs.create_file fs "/persist/me" in
  Fs.write fs vn ~off:0 "durable file data";
  (* Larger than one page, crossing boundaries. *)
  Fs.write fs vn ~off:5000 "second page";
  ignore (Store.begin_checkpoint store);
  Fs.flush_to_store fs;
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  let fs2 = restore_fs ~store:store2 ~epoch:(Store.last_complete_epoch store2) in
  match Fs.lookup fs2 "/persist/me" with
  | Some vn' ->
      Alcotest.(check string) "first page" "durable file data"
        (Fs.read fs2 vn' ~off:0 ~len:17);
      Alcotest.(check string) "second page" "second page" (Fs.read fs2 vn' ~off:5000 ~len:11);
      Alcotest.(check int) "size" (Vnode.size vn) (Vnode.size vn')
  | None -> Alcotest.fail "file lost across crash"

let test_incremental_vnode_flush () =
  let _clock, _dev, store, fs = fresh () in
  let vn = Fs.create_file fs "/f" in
  Fs.write fs vn ~off:0 "v1";
  ignore (Store.begin_checkpoint store);
  Fs.flush_to_store fs;
  ignore (Store.commit_checkpoint store);
  Alcotest.(check int) "dirty set cleared" 0 (Vnode.dirty_count vn);
  (* Unchanged file: the next flush stages nothing for it. *)
  ignore (Store.begin_checkpoint store);
  Fs.flush_to_store fs;
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Alcotest.(check bool) "still readable at latest epoch" true
    (Store.read_meta store ~epoch:(Store.last_complete_epoch store)
       ~oid:(Option.get (Fs.oid_of_inode fs (Vnode.inode vn)))
    <> "")

let test_anonymous_vnode_persisted () =
  let _clock, _dev, store, fs = fresh () in
  let vn = Fs.create_file fs "/tmp" in
  Vnode.opened vn;
  Fs.write fs vn ~off:0 "anon";
  Alcotest.(check bool) "unlink ok" true (Fs.unlink fs "/tmp");
  Alcotest.(check bool) "alive while open" true (Fs.vnode_by_inode fs (Vnode.inode vn) <> None);
  ignore (Store.begin_checkpoint store);
  Fs.flush_to_store fs;
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  let epoch = Store.last_complete_epoch store in
  let fs2 = restore_fs ~store ~epoch in
  (* No name, but the vnode object exists with its contents. *)
  match Fs.vnode_by_inode fs2 (Vnode.inode vn) with
  | Some vn' -> Alcotest.(check string) "content" "anon" (Fs.read fs2 vn' ~off:0 ~len:4)
  | None -> Alcotest.fail "anonymous vnode lost"

let test_closed_unlinked_vnode_reclaimed () =
  let _clock, _dev, _store, fs = fresh () in
  let vn = Fs.create_file fs "/gone" in
  Alcotest.(check bool) "unlink" true (Fs.unlink fs "/gone");
  Alcotest.(check bool) "reclaimed" true (Fs.vnode_by_inode fs (Vnode.inode vn) = None)

(* Bench adapters: structural sanity of the three FS models. *)

let run_seq fsops =
  let open Aurora_workloads.Filebench in
  (* Long enough that Aurora's asynchronous checkpoint flushes overlap the
     compute instead of draining serially at the end. *)
  let r = sequential_write fsops ~io_size:(64 * 1024) ~total:(256 * 1024 * 1024) in
  throughput_gib_s r

let test_bench_fs_sane_throughputs () =
  let aurora = run_seq (Aurora_bench.make ()) in
  let zfs = run_seq (Zfs_model.make ~checksum:false ()) in
  let zfs_csum = run_seq (Zfs_model.make ~checksum:true ()) in
  let ffs = run_seq (Ffs_model.make ()) in
  Alcotest.(check bool)
    (Printf.sprintf "aurora (%.2f) faster than zfs (%.2f)" aurora zfs)
    true (aurora > zfs);
  Alcotest.(check bool)
    (Printf.sprintf "zfs (%.2f) faster than zfs+csum (%.2f)" zfs zfs_csum)
    true (zfs > zfs_csum);
  Alcotest.(check bool)
    (Printf.sprintf "all in a plausible GiB/s band (%0.2f %0.2f %0.2f %0.2f)" aurora zfs zfs_csum ffs)
    true
    (List.for_all (fun x -> x > 0.3 && x < 12.0) [ aurora; zfs; zfs_csum; ffs ])

let test_bench_fs_zfs_small_write_penalty () =
  let open Aurora_workloads.Filebench in
  let small fsops =
    throughput_gib_s (random_write fsops ~io_size:4096 ~total:(16 * 1024 * 1024) ~seed:7)
  in
  let zfs = small (Zfs_model.make ~checksum:false ()) in
  let ffs = small (Ffs_model.make ()) in
  (* The record read-modify-write makes ZFS far slower at 4 KiB. *)
  Alcotest.(check bool)
    (Printf.sprintf "ffs (%.2f) >> zfs (%.2f) at 4KiB" ffs zfs)
    true
    (ffs > 2.0 *. zfs)

let test_bench_fs_aurora_fsync_wins () =
  let open Aurora_workloads.Filebench in
  let fsync_rate fsops = ops_per_sec (write_fsync fsops ~io_size:4096 ~count:2000) in
  let aurora = fsync_rate (Aurora_bench.make ()) in
  let zfs = fsync_rate (Zfs_model.make ~checksum:false ()) in
  let ffs = fsync_rate (Ffs_model.make ()) in
  Alcotest.(check bool)
    (Printf.sprintf "aurora (%.0f) beats ffs (%.0f) beats zfs (%.0f)" aurora ffs zfs)
    true
    (aurora > 2.0 *. ffs && ffs > zfs)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fs flush/restore preserves random files" ~count:25
         QCheck.(
           list_of_size (Gen.int_range 1 10)
             (pair (string_of_size (Gen.int_range 1 12)) (string_of_size (Gen.int_range 0 200))))
         (fun files ->
           let _clock, _dev, store, fs = fresh () in
           let model = Hashtbl.create 16 in
           List.iter
             (fun (name, content) ->
               let path = "/q/" ^ String.map (fun c -> if c = '/' then '_' else c) name in
               let vn = Fs.create_file fs path in
               Fs.write fs vn ~off:0 content;
               Hashtbl.replace model path content)
             files;
           ignore (Store.begin_checkpoint store);
           Fs.flush_to_store fs;
           ignore (Store.commit_checkpoint store);
           Store.wait_durable store;
           let fs2 = restore_fs ~store ~epoch:(Store.last_complete_epoch store) in
           Hashtbl.fold
             (fun path content ok ->
               ok
               &&
               match Fs.lookup fs2 path with
               | Some vn -> Fs.read fs2 vn ~off:0 ~len:(String.length content) = content
               | None -> false)
             model true));
  ]

let () =
  Alcotest.run "aurora_fs"
    [
      ( "namespace",
        [
          Alcotest.test_case "create/write/read" `Quick test_create_write_read;
          Alcotest.test_case "lookup/unlink" `Quick test_lookup_and_unlink;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "reclaim" `Quick test_closed_unlinked_vnode_reclaimed;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "fsync cheap" `Quick test_fsync_is_cheap;
          Alcotest.test_case "flush/restore" `Quick test_flush_restore_roundtrip;
          Alcotest.test_case "incremental flush" `Quick test_incremental_vnode_flush;
          Alcotest.test_case "anonymous vnode" `Quick test_anonymous_vnode_persisted;
        ] );
      ( "bench models",
        [
          Alcotest.test_case "sane throughputs" `Quick test_bench_fs_sane_throughputs;
          Alcotest.test_case "zfs 4KiB penalty" `Quick test_bench_fs_zfs_small_write_penalty;
          Alcotest.test_case "aurora fsync wins" `Quick test_bench_fs_aurora_fsync_wins;
        ] );
      ("properties", qcheck_tests);
    ]
