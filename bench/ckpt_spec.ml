(* Speculative soft-quiesce A/B: stop-window time, STW vs speculative.

   A memcached-shaped service — a key arena plus many per-connection
   sockets whose buffers must be serialized every cycle — checkpoints at
   100 Hz while a mutilate-style zipfian client mutates a sweep of
   arena fractions per interval.  Each configuration runs the identical
   deterministic foreground trace twice:

   - STW: the classic cycle; the OS serialize pass runs inside the stop
     window, so every connection's fd costs stop time;
   - speculative: the serialize pass and page harvest run concurrently
     with execution on a spare core (a run hook keeps serving requests
     whenever a soft-quiesce yield window opens, at the same mutation
     rate as the foreground), and the stop window shrinks to quiesce +
     conflict validation.

   The speculative arm also reports the requests the hook served *during*
   checkpointing — application progress the STW arm forfeits — and the
   conflict set the validator re-copied.  A separate hookless pair run
   checks byte-identity: a speculative epoch followed by a forced-full
   one with no intervening ops must hold identical objects, metadata and
   page checksums.

   A full run writes BENCH_ckpt_spec.json.

     dune exec bench/main.exe -- ckpt-spec          # full sweep
     dune exec bench/main.exe -- ckpt-spec smoke    # tiny CI pass (gated) *)

module Clock = Aurora_sim.Clock
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Store = Aurora_objstore.Store
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Memcached = Aurora_apps.Memcached_sim
module Mutilate = Aurora_workloads.Mutilate

type side = {
  s_stop_ns : float;
  s_quiesce_ns : float;
  s_serialize_ns : float;  (** in-stop for STW; spare-core busy for spec *)
  s_speculate_ns : float;
  s_validate_ns : float;
  s_conflict_objects : float;
  s_conflict_pages : float;
  s_hook_ops : float;  (** requests served inside soft-quiesce windows *)
}

type sample = { conns : int; npages : int; rate : float; stw : side; spec : side }

let avgi f stats = Report.mean (List.map (fun s -> float_of_int (f s)) stats)

let serve mc mut =
  match Mutilate.next mut with
  | Mutilate.Get k -> Memcached.get mc k
  | Mutilate.Set (k, v) -> Memcached.set mc k ~value_bytes:v

let run_arm ~speculative ~conns ~nkeys ~rate ~intervals =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let mc = Memcached.create ~machine:m ~nkeys in
  let p = Memcached.proc mc in
  let socks = Array.init conns (fun _ -> Syscall.socketpair m p) in
  let group = Sls.attach sys [ p ] in
  if speculative then Group.set_speculative group true;
  let period = Group.period_ns group in
  let clk = m.Aurora_kern.Machine.clock in
  let hook_ops = ref 0 in
  if speculative then begin
    (* The service keeps answering requests whenever the soft serialize
       pass yields, at [rate] of the requests the window's duration could
       serve (the fraction carried over to the next window), each marking
       a connection socket — exactly the mutation stream the validator
       must splice, so the conflict set follows the rate. *)
    let hmut = Mutilate.create ~nkeys ~get_ratio:0.5 ~seed:13 () in
    let hsock = ref 0 in
    let credit = ref 0.0 in
    Aurora_kern.Machine.set_run_hook m
      (Some
         (fun ns ->
           credit := !credit +. (rate *. float_of_int ns /. float_of_int Memcached.base_service_ns);
           while !credit >= 1.0 do
             credit := !credit -. 1.0;
             incr hook_ops;
             serve mc hmut;
             incr hsock;
             ignore
               (Syscall.write m p ~fd:(fst socks.(!hsock mod conns)) "h")
           done))
  end;
  ignore (Group.checkpoint ~wait_durable:true group);
  let mut = Mutilate.create ~nkeys ~get_ratio:0.5 ~seed:7 () in
  let npages = Memcached.arena_pages mc in
  (* ~2 ops per target dirty page: the zipfian mix is half sets. *)
  let nreq = max 2 (int_of_float (2.0 *. rate *. float_of_int npages)) in
  let t0 = Clock.now clk in
  let stats = ref [] in
  for i = 1 to intervals do
    for _ = 1 to nreq do
      serve mc mut
    done;
    (* Per-request connection activity: every socket buffer is dirty by
       checkpoint time, as a loaded server's would be. *)
    Array.iter (fun (a, _) -> ignore (Syscall.write m p ~fd:a "x")) socks;
    Clock.advance_to clk (t0 + (i * period));
    stats := Group.checkpoint group :: !stats
  done;
  Store.wait_durable sys.Sls.store;
  Aurora_kern.Machine.set_run_hook m None;
  let st = !stats in
  {
    s_stop_ns = avgi (fun s -> s.Group.stop_ns) st;
    s_quiesce_ns = avgi (fun s -> s.Group.quiesce_ns) st;
    s_serialize_ns = avgi (fun s -> s.Group.os_serialize_ns) st;
    s_speculate_ns = avgi (fun s -> s.Group.speculate_ns) st;
    s_validate_ns = avgi (fun s -> s.Group.validate_ns) st;
    s_conflict_objects = avgi (fun s -> s.Group.conflict_objects) st;
    s_conflict_pages = avgi (fun s -> s.Group.conflict_pages) st;
    s_hook_ops = float_of_int !hook_ops /. float_of_int intervals;
  }

let measure ~conns ~nkeys ~rate ~intervals =
  let stw = run_arm ~speculative:false ~conns ~nkeys ~rate ~intervals in
  let spec = run_arm ~speculative:true ~conns ~nkeys ~rate ~intervals in
  {
    conns;
    npages = (nkeys + 15) / 16;
    rate;
    stw;
    spec;
  }

(* Byte-identity: same world, no hook; a speculative epoch and a forced
   full one with no ops in between must be indistinguishable. *)
let identity_check ~conns ~nkeys =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let mc = Memcached.create ~machine:m ~nkeys in
  let p = Memcached.proc mc in
  let socks = Array.init conns (fun _ -> Syscall.socketpair m p) in
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  Group.set_speculative group true;
  let mut = Mutilate.create ~nkeys ~get_ratio:0.3 ~seed:99 () in
  for _ = 1 to 2 do
    for _ = 1 to 40 do
      serve mc mut
    done;
    Array.iter (fun (a, _) -> ignore (Syscall.write m p ~fd:a "i")) socks;
    ignore (Group.checkpoint ~wait_durable:true group)
  done;
  let c1 = Group.checkpoint ~wait_durable:true group in
  let c2 = Group.checkpoint ~wait_durable:true ~full:true group in
  let store = sys.Sls.store in
  let e1 = c1.Group.epoch and e2 = c2.Group.epoch in
  let objs1 = Store.objects_at store ~epoch:e1 in
  let objs2 = Store.objects_at store ~epoch:e2 in
  objs1 = objs2
  && List.for_all
       (fun (oid, _) ->
         Store.read_meta store ~epoch:e1 ~oid = Store.read_meta store ~epoch:e2 ~oid
         && Store.page_crcs store ~epoch:e1 ~oid = Store.page_crcs store ~epoch:e2 ~oid)
       objs2

let reduction s = s.stw.s_stop_ns /. Float.max 1.0 s.spec.s_stop_ns

let columns : sample Report.column list =
  Report.
    [
      ("conns", "conns", fun s -> Count s.conns);
      ("pages", "npages", fun s -> Count s.npages);
      ("mutation", "mutation_rate", fun s -> Percent s.rate);
      ("stw stop", "stw_stop_ns", fun s -> Ns s.stw.s_stop_ns);
      ("stw quiesce", "stw_quiesce_ns", fun s -> Ns s.stw.s_quiesce_ns);
      ("stw serialize", "stw_serialize_ns", fun s -> Ns s.stw.s_serialize_ns);
      ("spec stop", "spec_stop_ns", fun s -> Ns s.spec.s_stop_ns);
      ("spec quiesce", "spec_quiesce_ns", fun s -> Ns s.spec.s_quiesce_ns);
      ("speculate", "spec_speculate_ns", fun s -> Ns s.spec.s_speculate_ns);
      ("validate", "spec_validate_ns", fun s -> Ns s.spec.s_validate_ns);
      ("spare core", "spec_spare_core_ns", fun s -> Ns s.spec.s_serialize_ns);
      ("conflict obj", "spec_conflict_objects", fun s -> Num (1, s.spec.s_conflict_objects));
      ("conflict pg", "spec_conflict_pages", fun s -> Num (1, s.spec.s_conflict_pages));
      ("ops-in-ckpt", "spec_hook_ops_per_ckpt", fun s -> Num (1, s.spec.s_hook_ops));
      ("reduction", "stop_reduction", fun s -> Num (2, reduction s));
    ]

(* Acceptance gate: at <= 1% mutation the speculative stop window must
   be >= 5x shorter than stop-the-world, and the speculative image must
   be byte-identical to a forced-full one. *)
let gates samples ~identity =
  let identity = ("byte identity vs forced-full", Report.Bool identity, "true", identity) in
  match List.filter (fun s -> s.rate <= 0.011) samples with
  | [] -> Report.gates "ckpt-spec" [ identity ]
  | low ->
      let worst = Report.worst reduction low in
      Report.gates "ckpt-spec"
        [ identity; ("1% stop reduction", Num (2, worst), ">= 5", worst >= 5.0) ]

let run mode =
  let configs, intervals =
    match mode with
    | Report.Smoke -> ([ (384, 8192, 0.01); (384, 8192, 0.10) ], 4)
    | Full ->
        ( List.map (fun rate -> (384, 16384, rate)) [ 0.01; 0.05; 0.10; 0.25 ]
          @ List.map (fun rate -> (512, 16384, rate)) [ 0.01; 0.05 ],
          8 )
    | _ -> raise Report.Usage
  in
  print_endline
    "ckpt-spec: speculative soft-quiesce vs stop-the-world, 100 Hz stop window";
  print_endline
    "  (identical foreground trace; the speculative arm also serves requests \
     inside the window)";
  print_newline ();
  let samples =
    List.map
      (fun (conns, nkeys, rate) -> measure ~conns ~nkeys ~rate ~intervals)
      configs
  in
  let conns, nkeys, _ = List.hd configs in
  let identity = identity_check ~conns:(min conns 16) ~nkeys in
  Report.emit mode ~bench:"ckpt_spec" ~file:"BENCH_ckpt_spec.json"
    ~extra:[ ("byte_identity", Bool identity) ]
    columns samples;
  gates samples ~identity
