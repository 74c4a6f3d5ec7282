(* Record/replay and coredump: direct unit coverage for lib/core/replay.ml
   and lib/core/coredump.ml, plus one span-annotated record/replay
   round-trip through the tracer. *)

module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Syscall = Aurora_kern.Syscall
module Wire = Aurora_objstore.Wire
module Group = Aurora_core.Group
module Sls = Aurora_core.Sls
module Replay = Aurora_core.Replay
module Coredump = Aurora_core.Coredump
module Trace = Aurora_obs.Trace

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m = 0 || go 0

let entry_eq (a : Replay.entry) (b : Replay.entry) =
  match (a, b) with
  | Replay.Recv_msg (f1, p1), Replay.Recv_msg (f2, p2) -> f1 = f2 && p1 = p2
  | Replay.Clock_read v1, Replay.Clock_read v2 -> v1 = v2
  | _ -> false

let entry_pp fmt (e : Replay.entry) =
  match e with
  | Replay.Recv_msg (fd, p) -> Format.fprintf fmt "Recv_msg (%d, %S)" fd p
  | Replay.Clock_read v -> Format.fprintf fmt "Clock_read %d" v

let entry_t = Alcotest.testable entry_pp entry_eq

(* A booted system with one process, a connected socketpair, and an
   attached group — the recording fixture. *)
let fixture () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"recorded" in
  let sfda, sfdb = Syscall.socketpair m p in
  let group = Sls.attach sys [ p ] in
  (sys, m, p, sfda, sfdb, group)

(* Entry serialization ------------------------------------------------------ *)

let test_entry_roundtrip () =
  List.iter
    (fun e ->
      Alcotest.check entry_t "round-trips" e
        (Wire.of_string Replay.entry_codec (Wire.to_string Replay.entry_codec e)))
    [
      Replay.Recv_msg (0, "");
      Replay.Recv_msg (7, "payload with \x00 bytes \xff");
      Replay.Clock_read 0;
      Replay.Clock_read 123_456_789_012;
    ]

let test_entry_corrupt_kind () =
  let w = Wire.writer () in
  Wire.u8 w 9;
  let s = Bytes.to_string (Wire.contents w) in
  Alcotest.(check bool) "bad kind rejected" true
    (try
       ignore (Wire.of_string Replay.entry_codec s);
       false
     with Wire.Corrupt _ -> true)

(* Recorder ----------------------------------------------------------------- *)

let test_recorder_logs_inputs () =
  let sys, m, p, sfda, sfdb, group = fixture () in
  let rec_ = Replay.Recorder.attach group in
  Alcotest.(check int) "log starts empty" 0 (Replay.Recorder.log_length rec_);
  ignore (Syscall.write m p ~fd:sfda "hello");
  (match Replay.Recorder.recv_msg rec_ p ~fd:sfdb with
  | Some got -> Alcotest.(check string) "payload delivered" "hello" got
  | None -> Alcotest.fail "receive returned nothing");
  Alcotest.(check int) "receive logged" 1 (Replay.Recorder.log_length rec_);
  (* An empty socket records nothing. *)
  (match Replay.Recorder.recv_msg rec_ p ~fd:sfdb with
  | None -> ()
  | Some _ -> Alcotest.fail "empty socket produced a payload");
  Alcotest.(check int) "empty receive not logged" 1 (Replay.Recorder.log_length rec_);
  let clk = m.Machine.clock in
  Clock.advance clk 500;
  (* The sample is taken before the log append charges journal I/O time,
     so it equals the clock at call entry. *)
  let before = Clock.now clk in
  let v = Replay.Recorder.read_clock rec_ in
  Alcotest.(check int) "clock sample is current" before v;
  Alcotest.(check int) "clock read logged" 2 (Replay.Recorder.log_length rec_);
  (* Checkpoint truncation: the journal empties and the recovered log is
     empty too. *)
  ignore (Group.checkpoint ~wait_durable:true group);
  Replay.Recorder.on_checkpoint rec_;
  Alcotest.(check int) "truncated at checkpoint" 0 (Replay.Recorder.log_length rec_);
  ignore (Group.checkpoint ~wait_durable:true group);
  Alcotest.(check int) "recovered log empty after truncate" 0
    (List.length
       (Replay.recover ~store:sys.Sls.store
          ~journal_id:(Replay.Recorder.journal_id rec_)))

let test_recover_matches_log () =
  let sys, m, p, sfda, sfdb, group = fixture () in
  let rec_ = Replay.Recorder.attach group in
  ignore (Syscall.write m p ~fd:sfda "one");
  ignore (Syscall.write m p ~fd:sfda "two");
  let r1 = Replay.Recorder.recv_msg rec_ p ~fd:sfdb in
  let clk = m.Machine.clock in
  Clock.advance clk 1_000;
  let t1 = Replay.Recorder.read_clock rec_ in
  let r2 = Replay.Recorder.recv_msg rec_ p ~fd:sfdb in
  Alcotest.(check (option string)) "first receive" (Some "one") r1;
  Alcotest.(check (option string)) "second receive" (Some "two") r2;
  ignore (Group.checkpoint ~wait_durable:true group);
  let entries =
    Replay.recover ~store:sys.Sls.store
      ~journal_id:(Replay.Recorder.journal_id rec_)
  in
  Alcotest.(check (list entry_t)) "recovered log matches recording"
    [
      Replay.Recv_msg (sfdb, "one");
      Replay.Clock_read t1;
      Replay.Recv_msg (sfdb, "two");
    ]
    entries;
  Alcotest.(check int) "unknown journal id recovers nothing" 0
    (List.length (Replay.recover ~store:sys.Sls.store ~journal_id:999_999))

(* Replayer ----------------------------------------------------------------- *)

let test_replayer_feeds_entries () =
  let rp =
    Replay.Replayer.create
      [
        Replay.Recv_msg (5, "a");
        Replay.Clock_read 10;
        Replay.Recv_msg (5, "b");
        Replay.Recv_msg (8, "other");
      ]
  in
  Alcotest.(check int) "all entries pending" 4 (Replay.Replayer.remaining rp);
  (* Per-source streams: the clock read is answered out of line without
     disturbing the receive order. *)
  Alcotest.(check (option int)) "clock replay" (Some 10)
    (Replay.Replayer.read_clock rp);
  Alcotest.(check (option string)) "fd 5 first" (Some "a")
    (Replay.Replayer.recv_msg rp ~fd:5);
  Alcotest.(check (option string)) "fd 8 skips fd 5 entries" (Some "other")
    (Replay.Replayer.recv_msg rp ~fd:8);
  Alcotest.(check (option string)) "fd 5 second" (Some "b")
    (Replay.Replayer.recv_msg rp ~fd:5);
  Alcotest.(check int) "log exhausted" 0 (Replay.Replayer.remaining rp);
  Alcotest.(check (option string)) "exhausted log resumes live" None
    (Replay.Replayer.recv_msg rp ~fd:5);
  Alcotest.(check (option int)) "no clock entries left" None
    (Replay.Replayer.read_clock rp)

(* Span-annotated record/replay round-trip: the recorded inputs replay
   to the same values, and the recorder's trace instants land inside the
   annotating span. *)
let test_replay_roundtrip_traced () =
  let sys, m, p, sfda, sfdb, group = fixture () in
  let clk = m.Machine.clock in
  Trace.enable ~capacity:1024 ~clock:clk ();
  let rec_ = Replay.Recorder.attach group in
  let recorded =
    Trace.with_span ~cat:"replay" ~name:"record-window" (fun () ->
        ignore (Syscall.write m p ~fd:sfda "input-1");
        let a = Replay.Recorder.recv_msg rec_ p ~fd:sfdb in
        Clock.advance clk 2_000;
        let t = Replay.Recorder.read_clock rec_ in
        ignore (Syscall.write m p ~fd:sfda "input-2");
        let b = Replay.Recorder.recv_msg rec_ p ~fd:sfdb in
        (a, t, b))
  in
  ignore (Group.checkpoint ~wait_durable:true group);
  let events = Trace.events () in
  Trace.disable ();
  let a, t, b = recorded in
  (* The trace: record instants strictly inside the Begin/End pair. *)
  let span_ts name ph =
    match
      List.find_opt
        (fun e -> e.Trace.ev_ph = ph && e.Trace.ev_name = name)
        events
    with
    | Some e -> e.Trace.ev_ts
    | None -> Alcotest.failf "span event %s missing" name
  in
  let b_ts = span_ts "record-window" Trace.Begin in
  let e_ts = span_ts "record-window" Trace.End in
  let records =
    List.filter
      (fun e -> e.Trace.ev_cat = "replay" && e.Trace.ev_name = "record")
      events
  in
  Alcotest.(check int) "three inputs traced" 3 (List.length records);
  List.iter
    (fun e ->
      Alcotest.(check bool) "record instant inside the span" true
        (e.Trace.ev_ts >= b_ts && e.Trace.ev_ts <= e_ts))
    records;
  (* The replay: recovered entries reproduce the recorded values. *)
  let entries =
    Replay.recover ~store:sys.Sls.store
      ~journal_id:(Replay.Recorder.journal_id rec_)
  in
  Alcotest.(check int) "three entries recovered" 3 (List.length entries);
  let rp = Replay.Replayer.create entries in
  Alcotest.(check (option string)) "replayed input-1" a
    (Replay.Replayer.recv_msg rp ~fd:sfdb);
  Alcotest.(check (option int)) "replayed clock" (Some t)
    (Replay.Replayer.read_clock rp);
  Alcotest.(check (option string)) "replayed input-2" b
    (Replay.Replayer.recv_msg rp ~fd:sfdb)

(* Coredump ----------------------------------------------------------------- *)

let test_coredump_renders_checkpoint () =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let p = Syscall.spawn m ~name:"dumped" in
  let _rd, _wr = Syscall.pipe m p in
  ignore (Syscall.mmap_anon p ~npages:4);
  let group = Sls.attach sys [ p ] in
  let stats = Group.checkpoint ~wait_durable:true group in
  let dump = Coredump.dump ~store:sys.Sls.store ~epoch:stats.Group.epoch in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "dump mentions %S" needle)
        true (contains dump needle))
    [
      Printf.sprintf "checkpoint %d" stats.Group.epoch;
      "Program Headers";
      "  LOAD oid=";
      "  NOTE ";
      "Threads:";
      "Process";
      "(dumped)";
      "    Thread";
      "rip=";
    ]

let () =
  Trace.disable ();
  Alcotest.run "replay"
    [
      ( "entries",
        [
          Alcotest.test_case "round-trip" `Quick test_entry_roundtrip;
          Alcotest.test_case "corrupt kind rejected" `Quick test_entry_corrupt_kind;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "logs receives and clock reads" `Quick
            test_recorder_logs_inputs;
          Alcotest.test_case "recover matches the recording" `Quick
            test_recover_matches_log;
        ] );
      ( "replayer",
        [
          Alcotest.test_case "feeds recorded values per source" `Quick
            test_replayer_feeds_entries;
          Alcotest.test_case "traced record/replay round-trip" `Quick
            test_replay_roundtrip_traced;
        ] );
      ( "coredump",
        [
          Alcotest.test_case "renders a checkpoint" `Quick
            test_coredump_renders_checkpoint;
        ] );
    ]
