(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 9), plus the design ablations and a set of
   wall-clock microbenchmarks, and runs the A/B, gate and torture
   commands.

     dune exec bench/main.exe                   # every paper artifact
     dune exec bench/main.exe -- table5 fig3    # some of them
     dune exec bench/main.exe -- micro          # Bechamel wall-clock runs
     dune exec bench/main.exe -- smoke          # every smoke pass and gate
     dune exec bench/main.exe -- NAME [smoke | fast | deep [seed]]

   A command with no mode runs its full sweep (the torture commands:
   their fast pass); only a full run writes BENCH_*.json or
   OBS_trace.json.  Every failed gate is listed at the end and the exit
   status is 1. *)

let artifacts =
  [
    ("table1", "CRIU checkpoint breakdown (500 MB Redis)", Table1.run);
    ("table4", "POSIX object checkpoint/restore times", Table4.run);
    ("table5", "memory-object stop times (incremental/atomic/journal)", Table5.run);
    ("table6", "application checkpoint and restore times", Table6.run);
    ("table7", "Aurora vs CRIU vs RDB", Table7.run);
    ("fig3", "FileBench: Aurora FS vs ZFS vs FFS", Fig3.run);
    ("fig4", "Memcached max throughput vs checkpoint period", Fig4.run);
    ("fig5", "Memcached latency at fixed 120 kops/s", Fig5.run);
    ("fig6", "RocksDB configurations", Fig6.run);
    ("ablate", "design-choice ablations", Ablate.run);
    ("ext-sync", "external synchrony cost (paper section 8 caveat)", Extsync_bench.run);
    ("flush-scale", "coalesced flush pipeline vs dirty-set size", fun () -> Flush_scale.run ());
  ]

let commands =
  [
    ("ckpt-steady", "incremental vs full OS-state serialization", Ckpt_steady.run);
    ("ckpt-dedup", "page dedup + compression vs block-per-page", Ckpt_dedup.run);
    ("ckpt-spec", "speculative soft-quiesce vs stop-the-world", Ckpt_spec.run);
    ("obs-report", "per-phase latency table and span identity", Obs_report.run);
    ("obs-overhead", "tracing cost gate", Obs_overhead.run);
    ("fleet", "multi-tenant interleaved checkpointing", Fleet.run);
    ("ha-quorum", "replication torture, bench and gates", Ha_quorum.run);
    ("http-sim", "HTTP tier SLO vs checkpoint period", Http_sim.run);
    ("restore-traffic", "HTTP traffic after an on-demand socket restore", Restore_traffic.run);
    ("torture", "crash-consistency torture sweep", Torture_sweep.run);
  ]

(* Tiny-parameter pass over the bench machinery (the bench-smoke dune
   alias): flush-scale, the micro harness, Table 5's steady-state gate,
   Table 6's restore-to-running gate, then every command's smoke run with
   its gates. *)
let smoke () =
  Flush_scale.run ~sizes:[ 256; 1024 ] ();
  Micro.run ();
  (* Bound first: the operands of [@] are evaluated right to left. *)
  let table5 = Table5.smoke () in
  let table6 = Table6.smoke () in
  table5 @ table6
  @ List.concat_map
      (fun (name, _, run) -> if name = "torture" then [] else run Report.Smoke)
      commands

let usage () =
  print_endline "usage: main.exe [artifact...] | main.exe COMMAND [smoke | fast | deep [seed]]";
  print_endline "artifacts:";
  List.iter (fun (n, d, _) -> Printf.printf "  %-12s %s\n" n d) artifacts;
  print_endline "  micro        Bechamel wall-clock microbenchmarks";
  print_endline "  smoke        every smoke pass and gate (dune build @bench-smoke)";
  print_endline "commands:";
  List.iter (fun (n, d, _) -> Printf.printf "  %-12s %s\n" n d) commands;
  exit 1

let run_artifact name =
  match List.find_opt (fun (n, _, _) -> n = name) artifacts with
  | Some (_, _, f) ->
      f ();
      []
  | None -> (
      match name with
      | "micro" ->
          Micro.run ();
          []
      | "smoke" -> smoke ()
      | _ -> usage ())

let mode_of_args = function
  | [] -> Report.Full
  | [ "smoke" ] -> Smoke
  | [ "fast" ] -> Fast
  | [ "deep" ] -> Deep None
  | [ "deep"; seed ] -> (
      match int_of_string_opt seed with Some s -> Deep (Some s) | None -> usage ())
  | _ -> usage ()

let () =
  let failures =
    match Array.to_list Sys.argv with
    | [] | [ _ ] ->
        print_endline "=== Aurora single level store: paper evaluation suite ===";
        print_newline ();
        List.iter (fun (_, _, f) -> f ()) artifacts;
        []
    | _ :: name :: args -> (
        match List.find_opt (fun (n, _, _) -> n = name) commands with
        | Some (_, _, run) -> (
            try run (mode_of_args args) with Report.Usage -> usage ())
        | None -> List.concat_map run_artifact (name :: args))
  in
  if failures <> [] then begin
    prerr_endline "failures:";
    List.iter (fun f -> prerr_endline ("  " ^ f)) failures;
    exit 1
  end
