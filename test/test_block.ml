module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Device = Aurora_block.Device
module Fault = Aurora_block.Fault
module Striped = Aurora_block.Striped

let bytes_of s = Bytes.of_string s

let test_device_write_read () =
  let d = Device.create ~name:"nvme0" in
  let clock = Clock.create () in
  ignore (Device.write d ~now:0 ~off:100 (bytes_of "hello"));
  let completion = Device.submit_read d ~now:(Clock.now clock) ~off:100 ~len:5 in
  Alcotest.(check bool) "the read takes device time" true (completion > Clock.now clock);
  match Device.collect_read d ~completion ~off:100 ~len:5 with
  | Ok got -> Alcotest.(check string) "readback" "hello" (Bytes.to_string got)
  | Error msg -> Alcotest.fail msg

let test_device_unwritten_zero () =
  let d = Device.create ~name:"nvme0" in
  let got = Device.read_nocharge d ~off:8192 ~len:4 in
  Alcotest.(check string) "zeroes" "\000\000\000\000" (Bytes.to_string got)

let test_device_cross_sector () =
  let d = Device.create ~name:"nvme0" in
  let data = String.init 10000 (fun i -> Char.chr (i mod 256)) in
  ignore (Device.write d ~now:0 ~off:4000 (bytes_of data));
  let got = Device.read_nocharge d ~off:4000 ~len:10000 in
  Alcotest.(check string) "cross-sector roundtrip" data (Bytes.to_string got)

let test_device_overwrite_order () =
  let d = Device.create ~name:"nvme0" in
  let clock = Clock.create () in
  ignore (Device.write d ~now:0 ~off:0 (bytes_of "aaaa"));
  ignore (Device.write d ~now:0 ~off:2 (bytes_of "bb"));
  Device.settle d ~clock;
  let got = Device.read_nocharge d ~off:0 ~len:4 in
  Alcotest.(check string) "last writer wins" "aabb" (Bytes.to_string got)

let test_device_crash_discards_inflight () =
  let d = Device.create ~name:"nvme0" in
  let c1 = Device.write d ~now:0 ~off:0 (bytes_of "durable!") in
  (* Second write submitted just before the crash: still in the queue. *)
  let _c2 = Device.write d ~now:c1 ~off:0 (bytes_of "vanishes") in
  Device.crash d ~now:c1;
  let got = Device.read_nocharge d ~off:0 ~len:8 in
  Alcotest.(check string) "first write survived" "durable!" (Bytes.to_string got)

let test_device_crash_at_zero_loses_all () =
  let d = Device.create ~name:"nvme0" in
  ignore (Device.write d ~now:0 ~off:0 (bytes_of "gone"));
  Device.crash d ~now:0;
  let got = Device.read_nocharge d ~off:0 ~len:4 in
  Alcotest.(check string) "nothing durable" "\000\000\000\000" (Bytes.to_string got)

let test_device_write_timing () =
  let d = Device.create ~name:"nvme0" in
  let c = Device.write d ~now:0 ~off:0 (Bytes.make 4096 'x') in
  let expected =
    Cost.nvme_write_latency + Cost.transfer_time ~bandwidth:Cost.nvme_device_bandwidth 4096
  in
  Alcotest.(check int) "latency + transfer" expected c

let test_device_queueing_serializes () =
  let d = Device.create ~name:"nvme0" in
  let c1 = Device.write d ~now:0 ~off:0 (Bytes.make 4096 'x') in
  let c2 = Device.write d ~now:0 ~off:4096 (Bytes.make 4096 'y') in
  Alcotest.(check bool) "second queues behind first" true (c2 > c1)

let test_device_charge_parameter () =
  let d = Device.create ~name:"nvme0" in
  (* 64 payload bytes charged as a full logical page. *)
  let c = Device.write ~charge:4096 d ~now:0 ~off:0 (Bytes.make 64 'p') in
  let expected =
    Cost.nvme_write_latency + Cost.transfer_time ~bandwidth:Cost.nvme_device_bandwidth 4096
  in
  Alcotest.(check int) "charged logical size" expected c

let test_device_stats () =
  let d = Device.create ~name:"nvme0" in
  ignore (Device.write d ~now:0 ~off:0 (Bytes.make 100 'x'));
  ignore (Device.write d ~now:0 ~off:200 (Bytes.make 50 'y'));
  Alcotest.(check int) "bytes written" 150 (Device.bytes_written d);
  Alcotest.(check int) "write ops" 2 (Device.write_ops d);
  Device.reset_stats d;
  Alcotest.(check int) "reset" 0 (Device.bytes_written d)

let test_striped_roundtrip () =
  let s = Striped.create () in
  let clock = Clock.create () in
  let data = String.init 300_000 (fun i -> Char.chr ((i * 7) mod 256)) in
  ignore (Striped.write s ~now:0 ~off:1234 (bytes_of data));
  Striped.settle s ~clock;
  let got = Striped.read_nocharge s ~off:1234 ~len:300_000 in
  Alcotest.(check bool) "multi-stripe roundtrip" true (Bytes.to_string got = data)

let test_striped_parallelism () =
  (* A 1 MiB write across 4 devices should complete much faster than on 1. *)
  let striped = Striped.create ~devices:4 () in
  let single = Striped.create ~devices:1 () in
  let big = Bytes.make (1024 * 1024) 'z' in
  let c4 = Striped.write striped ~now:0 ~off:0 big in
  let c1 = Striped.write single ~now:0 ~off:0 big in
  Alcotest.(check bool)
    (Printf.sprintf "4-way faster (%d vs %d)" c4 c1)
    true
    (c4 * 3 < c1 * 2)

let test_striped_crash () =
  let s = Striped.create () in
  let c1 = Striped.write s ~now:0 ~off:0 (bytes_of "before-crash-data") in
  let _ = Striped.write s ~now:c1 ~off:0 (bytes_of "after-crash-write") in
  Striped.crash s ~now:c1;
  let got = Striped.read_nocharge s ~off:0 ~len:17 in
  Alcotest.(check string) "durable data survives" "before-crash-data" (Bytes.to_string got)

let test_striped_charge_fragments () =
  let s = Striped.create () in
  let clock = Clock.create () in
  (* 64-byte payload standing for a 4 KiB page. *)
  ignore (Striped.write ~charge:4096 s ~now:0 ~off:65536 (Bytes.make 64 'q'));
  Striped.settle s ~clock;
  let got = Striped.read_nocharge s ~off:65536 ~len:64 in
  Alcotest.(check string) "payload stored" (String.make 64 'q') (Bytes.to_string got)

(* One vectored extent spanning several stripes: every segment lands at
   its extent-relative offset (including segments crossing stripe
   boundaries) and the gaps stay zero. *)
let test_write_vec_roundtrip () =
  let s = Striped.create () in
  let clock = Clock.create () in
  let stripe = Cost.nvme_stripe_size in
  let seg rel str = (rel, Bytes.of_string str) in
  let boundary = String.init 64 (fun i -> Char.chr (65 + i)) in
  let segments =
    [|
      seg 0 "head";
      seg 4096 "mid-block";
      (* Crosses the stripe-0/stripe-1 device boundary. *)
      seg (stripe - 32) boundary;
      seg (3 * stripe) "far";
    |]
  in
  ignore (Striped.write_vec s ~now:0 ~off:0 ~len:(4 * stripe) segments);
  Striped.settle s ~clock;
  let check name off expect =
    Alcotest.(check string)
      name expect
      (Bytes.to_string (Striped.read_nocharge s ~off ~len:(String.length expect)))
  in
  check "head" 0 "head";
  check "mid-block" 4096 "mid-block";
  check "stripe boundary" (stripe - 32) boundary;
  check "far stripe" (3 * stripe) "far";
  check "gap stays zero" 64 "\000\000\000\000"

(* Unsorted segments are handled (sorted on a copy) identically. *)
let test_write_vec_unsorted () =
  let s = Striped.create () in
  let clock = Clock.create () in
  let segments = [| (8192, Bytes.of_string "bbbb"); (0, Bytes.of_string "aaaa") |] in
  ignore (Striped.write_vec s ~now:0 ~off:0 ~len:16384 segments);
  Striped.settle s ~clock;
  Alcotest.(check string) "low segment" "aaaa"
    (Bytes.to_string (Striped.read_nocharge s ~off:0 ~len:4));
  Alcotest.(check string) "high segment" "bbbb"
    (Bytes.to_string (Striped.read_nocharge s ~off:8192 ~len:4))

(* The whole point of the coalesced flush: an extent costs one submission
   per member device, however many blocks it covers, while the per-block
   path costs one per block — and the single trailing latency makes the
   extent finish sooner. *)
let test_write_vec_one_submission_per_device () =
  let stripe = Cost.nvme_stripe_size in
  let nblocks = (8 * stripe) / 4096 in
  let segments =
    Array.init nblocks (fun i -> (i * 4096, Bytes.make 64 'v'))
  in
  let vec = Striped.create () in
  let cv = Striped.write_vec vec ~now:0 ~off:0 ~len:(8 * stripe) segments in
  Alcotest.(check int) "one op per device" 4 (Striped.write_ops vec);
  let plain = Striped.create () in
  let cp = ref 0 in
  Array.iter
    (fun (rel, data) ->
      let c = Striped.write ~charge:4096 plain ~now:0 ~off:rel data in
      if c > !cp then cp := c)
    segments;
  Alcotest.(check int) "one op per block" nblocks (Striped.write_ops plain);
  (* Latency trails the queue in this model, so a deep per-block queue
     already streams at bandwidth: the extent's virtual time matches it
     up to per-call rounding of transfer_time.  The batching win is the
     submission count above (per-command host overhead). *)
  Alcotest.(check bool) "extent streams at device bandwidth" true
    (cv <= !cp + nblocks)

(* Crash semantics: an extent's segments share one completion time — a
   crash before it discards all of them, a crash at it keeps all. *)
let test_write_vec_crash_atomicity () =
  let run crash_at =
    let s = Striped.create () in
    let segments = [| (0, Bytes.of_string "aaaa"); (4096, Bytes.of_string "bbbb") |] in
    let c = Striped.write_vec s ~now:0 ~off:0 ~len:8192 segments in
    Striped.crash s ~now:(crash_at c);
    ( Bytes.to_string (Striped.read_nocharge s ~off:0 ~len:4),
      Bytes.to_string (Striped.read_nocharge s ~off:4096 ~len:4) )
  in
  let a, b = run (fun c -> c) in
  Alcotest.(check (pair string string)) "crash at completion keeps both"
    ("aaaa", "bbbb") (a, b);
  let a, b = run (fun c -> c - 1) in
  Alcotest.(check (pair string string)) "crash before completion loses both"
    ("\000\000\000\000", "\000\000\000\000") (a, b)

(* Crash models a reboot: host-side counters restart with the machine, and
   with the in-flight queue discarded nothing is pending, so durable_until
   must read 0 (regression: stats used to survive the crash). *)
let test_crash_resets_stats () =
  let d = Device.create ~name:"nvme0" in
  let c = Device.write d ~now:0 ~off:0 (Bytes.make 4096 'x') in
  ignore (Device.write d ~now:c ~off:4096 (Bytes.make 4096 'y'));
  Alcotest.(check int) "ops before crash" 2 (Device.write_ops d);
  Alcotest.(check bool) "pending durability" true (Device.durable_until d > 0);
  Device.crash d ~now:c;
  Alcotest.(check int) "write ops reset" 0 (Device.write_ops d);
  Alcotest.(check int) "bytes written reset" 0 (Device.bytes_written d);
  Alcotest.(check int) "bytes read reset" 0 (Device.bytes_read d);
  Alcotest.(check int) "nothing in flight" 0 (Device.durable_until d);
  (* The durable prefix itself survives the reboot. *)
  Alcotest.(check string) "durable data kept" (String.make 4 'x')
    (Bytes.to_string (Device.read_nocharge d ~off:0 ~len:4))

(* import_sectors replaces a used device's state wholesale: stale committed
   sectors, queued writes and counters must all go, exactly as crash does
   (regression: importing over a device with pending writes used to leak
   both the old bytes and the old accounting). *)
let test_import_sectors_resets_used_device () =
  let clock = Clock.create () in
  let src = Device.create ~name:"src" in
  ignore (Device.write src ~now:0 ~off:0 (Bytes.of_string "imported"));
  Device.settle src ~clock;
  let image = Device.export_sectors src in
  let dst = Device.create ~name:"dst" in
  ignore (Device.write dst ~now:0 ~off:0 (Bytes.of_string "old-committed"));
  Device.settle dst ~clock;
  (* Leave a write in flight so the import has a queue to discard. *)
  ignore (Device.write dst ~now:(Clock.now clock) ~off:8192 (Bytes.of_string "queued"));
  Device.import_sectors dst image;
  Alcotest.(check string) "imported bytes visible" "imported"
    (Bytes.to_string (Device.read_nocharge dst ~off:0 ~len:8));
  Alcotest.(check string) "stale committed bytes gone" "\000\000\000\000\000"
    (Bytes.to_string (Device.read_nocharge dst ~off:8 ~len:5));
  Alcotest.(check string) "queued write discarded" "\000\000\000\000\000\000"
    (Bytes.to_string (Device.read_nocharge dst ~off:8192 ~len:6));
  Alcotest.(check int) "stats reset" 0 (Device.write_ops dst);
  Alcotest.(check int) "nothing in flight" 0 (Device.durable_until dst)

(* A discard is an in-flight entry completing at its issue time: reads
   see zeros at once, a crash before its completion undoes it, once
   folded in the committed sectors it fully covers are gone, and a write
   submitted after it lands over it.  It moves no queue, no counter and
   no fault handler. *)
let test_device_discard () =
  let clock = Clock.create () in
  let setup () =
    let d = Device.create ~name:"nvme0" in
    let f = Fault.create () in
    Device.set_fault d (Some f);
    ignore (Device.write d ~now:0 ~off:0 (Bytes.make 8192 'a'));
    ignore (Device.write d ~now:0 ~off:8192 (Bytes.make 100 'b'));
    Device.settle d ~clock;
    (d, f)
  in
  let read d off len = Bytes.to_string (Device.read_nocharge d ~off ~len) in
  let now = Clock.now clock in
  let d, f = setup () in
  Alcotest.(check int) "three sectors held" 3 (Device.sectors_held d);
  let ops = Device.write_ops d and written = Device.bytes_written d in
  Device.discard d ~now ~off:0 ~len:4096;
  Alcotest.(check string) "discarded range reads zeros" (String.make 4096 '\000') (read d 0 4096);
  Alcotest.(check string) "the rest is kept" (String.make 4096 'a') (read d 4096 4096);
  Alcotest.(check int) "no device operation" ops (Device.write_ops d);
  Alcotest.(check int) "no bytes written" written (Device.bytes_written d);
  Alcotest.(check int) "no fault-handler submission" 2 (Fault.submissions f);
  Alcotest.(check int) "no queue time" now (Device.durable_until d);
  Device.crash d ~now:(now - 1);
  Alcotest.(check string) "a crash before completion keeps the sectors" (String.make 4096 'a')
    (read d 0 4096);
  Alcotest.(check int) "all three held" 3 (Device.sectors_held d);
  let d, _ = setup () in
  Device.discard d ~now ~off:0 ~len:4096;
  Device.crash d ~now;
  Alcotest.(check int) "after completion the sector is gone" 2 (Device.sectors_held d);
  Alcotest.(check string) "and reads zeros" (String.make 4096 '\000') (read d 0 4096);
  (* A partly covered sector stays, zeroed where covered. *)
  let d, _ = setup () in
  Device.discard d ~now ~off:8192 ~len:50;
  Device.apply_durable d ~now;
  Alcotest.(check int) "a partly covered sector stays" 3 (Device.sectors_held d);
  Alcotest.(check string) "zeroed where covered"
    (String.make 50 '\000' ^ String.make 50 'b')
    (read d 8192 100);
  (* A write submitted after the discard survives both. *)
  let d, _ = setup () in
  Device.discard d ~now ~off:0 ~len:8192;
  let c = Device.write d ~now ~off:4096 (Bytes.make 4096 'n') in
  Device.apply_durable d ~now:c;
  Device.crash d ~now:c;
  Alcotest.(check string) "the later write survives" (String.make 4096 'n') (read d 4096 4096);
  Alcotest.(check string) "the rest stays discarded" (String.make 4096 '\000') (read d 0 4096);
  Alcotest.(check int) "held: the rewritten sector and the tail" 2 (Device.sectors_held d)

(* A striped discard deallocates each stripe fragment on its member. *)
let test_striped_discard () =
  let clock = Clock.create () in
  let s = Striped.create () in
  let len = 2 * Cost.nvme_stripe_size in
  ignore (Striped.write s ~now:0 ~off:0 (Bytes.make len 'x'));
  Striped.settle s ~clock;
  let held = Striped.sectors_held s and ops = Striped.write_ops s in
  Alcotest.(check int) "every sector held" (len / 4096) held;
  Striped.discard s ~now:(Clock.now clock) ~off:4096 ~len:(len - 8192);
  Alcotest.(check string) "reads zeros across the stripe boundary"
    (String.make (len - 8192) '\000')
    (Bytes.to_string (Striped.read_nocharge s ~off:4096 ~len:(len - 8192)));
  Striped.apply_durable s ~now:(Clock.now clock);
  Alcotest.(check int) "two sectors left" 2 (Striped.sectors_held s);
  Alcotest.(check int) "no device operation" ops (Striped.write_ops s);
  Alcotest.(check string) "the ends kept" "xx"
    (Bytes.to_string (Striped.read_nocharge s ~off:0 ~len:1)
    ^ Bytes.to_string (Striped.read_nocharge s ~off:(len - 1) ~len:1))

(* [Striped.submit_vec] at the clock's time; the clock advances to the
   last arrival. *)
let read_vec s ~clock ranges =
  let arrived = Striped.submit_vec s ~now:(Clock.now clock) ranges in
  Clock.advance_to clock (Array.fold_left (fun m (c, _) -> max m c) (Clock.now clock) arrived);
  Array.map snd arrived

(* One vectored read: one-block ranges spread over all four members
   complete in one read latency plus the busiest member's queued
   transfers, faster than reading them one after another, each range
   returns what a read of it alone does, and a fault on one fragment
   touches only that fragment's range. *)
let test_read_vec () =
  let stripe = Cost.nvme_stripe_size and block = 4096 in
  let s = Striped.create () in
  let clock = Clock.create () in
  let data = Bytes.init (4 * stripe) (fun i -> Char.chr (((i * 31) + (i / 4096)) land 0xFF)) in
  ignore (Striped.write s ~now:0 ~off:0 data);
  Striped.settle s ~clock;
  (* Range i is block i/4 of stripe i mod 4, on member i mod 4: members 0
     and 1 serve three ranges, members 2 and 3 two. *)
  let ranges = Array.init 10 (fun i -> (((i mod 4) * stripe) + (i / 4 * block), block)) in
  let t0 = Clock.now clock in
  let got = read_vec s ~clock ranges in
  let batch = Clock.now clock - t0 in
  Alcotest.(check int) "one latency plus the busiest member's transfers"
    (Cost.nvme_read_latency
    + (3 * Cost.transfer_time ~bandwidth:Cost.nvme_device_bandwidth block))
    batch;
  (* The same ranges one after another, each waited for. *)
  let t0 = Clock.now clock in
  let alone = Array.map (fun r -> (read_vec s ~clock [| r |]).(0)) ranges in
  let sequential = Clock.now clock - t0 in
  Alcotest.(check bool)
    (Printf.sprintf "batch beats sequential (%d < %d ns)" batch sequential)
    true (batch < sequential);
  Array.iteri
    (fun i _ ->
      match (got.(i), alone.(i)) with
      | Ok b, Ok a ->
          Alcotest.(check string) (Printf.sprintf "range %d = plain read" i)
            (Bytes.to_string a) (Bytes.to_string b)
      | _ -> Alcotest.failf "range %d failed" i)
    ranges;
  (* A range across a stripe boundary reads both fragments. *)
  (match read_vec s ~clock [| (stripe - 100, 200); (0, 8) |] with
  | [| Ok b; Ok _ |] ->
      Alcotest.(check string) "stripe-spanning range" (Bytes.sub_string data (stripe - 100) 200)
        (Bytes.to_string b)
  | _ -> Alcotest.fail "stripe-spanning batch failed");
  (* Fail range 2's only fragment (member 2, device offset 0) and flip a
     byte of range 5's (member 1, device offset 4096). *)
  let f = Fault.create () in
  f.Fault.on_read <-
    (fun r ->
      match (r.Fault.r_dev, r.Fault.r_off) with
      | "nvme2", 0 -> Fault.Fail
      | "nvme1", 4096 -> Fault.Flip [ 0 ]
      | _ -> Fault.Clean);
  Striped.set_fault s (Some f);
  let t0 = Clock.now clock in
  let faulty = read_vec s ~clock ranges in
  Striped.set_fault s None;
  Alcotest.(check bool) "the failed batch still took device time" true (Clock.now clock > t0);
  Array.iteri
    (fun i (off, len) ->
      let want = Bytes.sub data off len in
      match (i, faulty.(i)) with
      | 2, Error _ -> ()
      | 2, Ok _ -> Alcotest.fail "range 2 should fail"
      | 5, Ok b ->
          Alcotest.(check bool) "range 5 corrupted" false (Bytes.equal b want);
          Alcotest.(check string) "only its first byte" (Bytes.sub_string want 1 (len - 1))
            (Bytes.sub_string b 1 (len - 1))
      | _, Ok b -> Alcotest.(check bool) (Printf.sprintf "range %d intact" i) true (Bytes.equal b want)
      | _, Error msg -> Alcotest.failf "range %d failed: %s" i msg)
    ranges

(* Torn vectored writes: a fault that keeps only a prefix of each device's
   submission tears the extent along per-device segment order — the lowest
   device-local offsets survive, later segments vanish — and tearing one
   member of a stripe-spanning extent leaves the other members' data
   intact (multi-device partial landing). *)
let test_write_vec_torn_prefix_per_device () =
  let stripe = Cost.nvme_stripe_size in
  let s = Striped.create () in
  let f = Fault.create () in
  f.Fault.on_write <- (fun _ -> Fault.Torn 1);
  Striped.set_fault s (Some f);
  (* Two segments per member device; deliberately unsorted input, so the
     torn prefix also proves segments are sorted before tearing. *)
  let seg d k = ((d * stripe) + (k * 4096), Bytes.make 64 (Char.chr (65 + (2 * d) + k))) in
  let segments = [| seg 2 1; seg 0 0; seg 3 0; seg 1 1; seg 0 1; seg 2 0; seg 1 0; seg 3 1 |] in
  let c = Striped.write_vec s ~now:0 ~off:0 ~len:(4 * stripe) segments in
  Striped.set_fault s None;
  Striped.crash s ~now:c;
  for d = 0 to 3 do
    let first = Bytes.to_string (Striped.read_nocharge s ~off:(d * stripe) ~len:64) in
    let second =
      Bytes.to_string (Striped.read_nocharge s ~off:((d * stripe) + 4096) ~len:64)
    in
    Alcotest.(check string)
      (Printf.sprintf "device %d keeps its lowest-offset segment" d)
      (String.make 64 (Char.chr (65 + (2 * d)))) first;
    Alcotest.(check string)
      (Printf.sprintf "device %d loses its later segment" d)
      (String.make 64 '\000') second
  done

(* Dropping one member's submission loses exactly that member's slice of a
   stripe-spanning extent, including the tail of a segment that crosses
   the stripe boundary mid-payload. *)
let test_write_vec_drop_one_device () =
  let stripe = Cost.nvme_stripe_size in
  let s = Striped.create () in
  let f = Fault.create () in
  f.Fault.on_write <-
    (fun (info : Fault.write_info) ->
      if info.w_dev = "nvme1" then Fault.Drop else Fault.Land);
  Striped.set_fault s (Some f);
  (* One segment crossing the stripe-0/stripe-1 boundary: its head lands
     on nvme0, its tail is on the dropped device. *)
  let boundary = Bytes.of_string (String.init 64 (fun i -> Char.chr (97 + (i mod 26)))) in
  let segments = [| (stripe - 32, boundary); ((2 * stripe) + 100, Bytes.make 16 'z') |] in
  let c = Striped.write_vec s ~now:0 ~off:0 ~len:(3 * stripe) segments in
  Striped.set_fault s None;
  Striped.crash s ~now:c;
  Alcotest.(check string) "head half on nvme0 landed"
    (String.init 32 (fun i -> Char.chr (97 + (i mod 26))))
    (Bytes.to_string (Striped.read_nocharge s ~off:(stripe - 32) ~len:32));
  Alcotest.(check string) "tail half on dropped nvme1 lost" (String.make 32 '\000')
    (Bytes.to_string (Striped.read_nocharge s ~off:stripe ~len:32));
  Alcotest.(check string) "nvme2 segment landed" (String.make 16 'z')
    (Bytes.to_string (Striped.read_nocharge s ~off:((2 * stripe) + 100) ~len:16))

let test_image_save_load () =
  let s = Striped.create () in
  let clock = Clock.create () in
  let data = String.init 200_000 (fun i -> Char.chr ((i * 13) mod 256)) in
  ignore (Striped.write s ~now:0 ~off:5000 (Bytes.of_string data));
  Clock.advance clock 123_456_789;
  let path = Filename.temp_file "aurora" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Striped.save_file s ~clock path;
      let s2, saved_time = Striped.load_file path in
      Alcotest.(check int) "virtual time persisted" (Clock.now clock) saved_time;
      Alcotest.(check bool) "bytes identical" true
        (Bytes.to_string (Striped.read_nocharge s2 ~off:5000 ~len:200_000) = data))

let test_image_bad_file () =
  let path = Filename.temp_file "aurora" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not an image";
      close_out oc;
      Alcotest.(check bool) "rejected" true
        (try
           ignore (Striped.load_file path);
           false
         with Failure _ | End_of_file -> true))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"device write/read roundtrip" ~count:200
         QCheck.(pair (int_range 0 100_000) (string_of_size (Gen.int_range 1 5000)))
         (fun (off, data) ->
           let d = Device.create ~name:"q" in
           let clock = Clock.create () in
           ignore (Device.write d ~now:0 ~off (Bytes.of_string data));
           Device.settle d ~clock;
           Bytes.to_string (Device.read_nocharge d ~off ~len:(String.length data)) = data));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"striped write/read roundtrip across stripes" ~count:100
         QCheck.(pair (int_range 0 500_000) (string_of_size (Gen.int_range 1 200_000)))
         (fun (off, data) ->
           let s = Striped.create () in
           let clock = Clock.create () in
           ignore (Striped.write s ~now:0 ~off (Bytes.of_string data));
           Striped.settle s ~clock;
           Bytes.to_string (Striped.read_nocharge s ~off ~len:(String.length data)) = data));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"crash preserves prefix determinism" ~count:100
         QCheck.(list_of_size (Gen.int_range 1 20) (string_of_size (Gen.return 64)))
         (fun writes ->
           (* Writes land at disjoint offsets; crashing after the k-th
              completion preserves exactly the first k writes. *)
           let d = Device.create ~name:"q" in
           let completions =
             List.mapi
               (fun i data -> Device.write d ~now:0 ~off:(i * 64) (Bytes.of_string data))
               writes
           in
           let k = List.length writes / 2 in
           let kth = List.nth completions (max 0 (k - 1)) in
           Device.crash d ~now:(if k = 0 then -1 else kth);
           List.for_all2
             (fun i data ->
               let got = Bytes.to_string (Device.read_nocharge d ~off:(i * 64) ~len:64) in
               if i < k then got = data else got = String.make 64 '\000')
             (List.init (List.length writes) Fun.id)
             writes));
  ]

let () =
  Alcotest.run "aurora_block"
    [
      ( "device",
        [
          Alcotest.test_case "write/read" `Quick test_device_write_read;
          Alcotest.test_case "unwritten reads zero" `Quick test_device_unwritten_zero;
          Alcotest.test_case "cross-sector" `Quick test_device_cross_sector;
          Alcotest.test_case "overwrite order" `Quick test_device_overwrite_order;
          Alcotest.test_case "crash discards inflight" `Quick test_device_crash_discards_inflight;
          Alcotest.test_case "crash at zero" `Quick test_device_crash_at_zero_loses_all;
          Alcotest.test_case "write timing" `Quick test_device_write_timing;
          Alcotest.test_case "queue serializes" `Quick test_device_queueing_serializes;
          Alcotest.test_case "charge parameter" `Quick test_device_charge_parameter;
          Alcotest.test_case "stats" `Quick test_device_stats;
          Alcotest.test_case "crash resets stats" `Quick test_crash_resets_stats;
          Alcotest.test_case "import resets used device" `Quick
            test_import_sectors_resets_used_device;
          Alcotest.test_case "discard" `Quick test_device_discard;
        ] );
      ( "striped",
        [
          Alcotest.test_case "roundtrip" `Quick test_striped_roundtrip;
          Alcotest.test_case "parallelism" `Quick test_striped_parallelism;
          Alcotest.test_case "crash" `Quick test_striped_crash;
          Alcotest.test_case "charge fragments" `Quick test_striped_charge_fragments;
          Alcotest.test_case "read_vec" `Quick test_read_vec;
          Alcotest.test_case "write_vec roundtrip" `Quick test_write_vec_roundtrip;
          Alcotest.test_case "write_vec unsorted" `Quick test_write_vec_unsorted;
          Alcotest.test_case "write_vec submissions" `Quick
            test_write_vec_one_submission_per_device;
          Alcotest.test_case "write_vec crash atomicity" `Quick
            test_write_vec_crash_atomicity;
          Alcotest.test_case "write_vec torn prefix" `Quick
            test_write_vec_torn_prefix_per_device;
          Alcotest.test_case "write_vec dropped device" `Quick
            test_write_vec_drop_one_device;
          Alcotest.test_case "image save/load" `Quick test_image_save_load;
          Alcotest.test_case "image bad file" `Quick test_image_bad_file;
          Alcotest.test_case "discard" `Quick test_striped_discard;
        ] );
      ("properties", qcheck_tests);
    ]
