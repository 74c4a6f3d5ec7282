(* The repo benchmark: five workloads, two clocks, per-layer metrics.

     dune exec --release benchmark/main.exe -- run --workload <name|all> --seed <n>
       [--seconds <s>] [--trace [0|1]]
     dune exec --release benchmark/main.exe -- selftest

   [run] prints every metric as [name value unit n=<samples>], writes one
   JSON object per workload to benchmark/out/, ends with a one-line JSON
   summary, and exits nonzero if any output check fails.  Without
   [--trace] it reports the end-to-end metrics; with it, the per-layer
   metrics of a traced pass that must reproduce the untraced pass's
   virtual-clock values exactly.  See benchmark/README.md. *)

module Metrics = Aurora_obs.Metrics
open Suite

(* ---- provenance and output ------------------------------------------------ *)

let git_rev () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    try
      let rd, wr = Unix.pipe ~cloexec:true () in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
      let pid =
        Unix.create_process "git" [| "git"; "--git-dir=.git"; "rev-parse"; "HEAD" |]
          Unix.stdin wr null
      in
      Unix.close wr;
      Unix.close null;
      let ic = Unix.in_channel_of_descr rd in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 when String.length line >= 40 -> String.trim line
      | _ -> "unknown"
    with Unix.Unix_error _ -> "unknown"

let utc_now () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900) (t.tm_mon + 1) t.tm_mday
    t.tm_hour t.tm_min t.tm_sec

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float carries; JSON has no NaN or infinity. *)
let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let metric_json (m : Metric.t) =
  json_obj
    ([
       ("value", json_num m.value);
       ("unit", json_str m.unit_);
       ("n", string_of_int m.n);
       ("clock", json_str (match m.clock with Metric.Virtual -> "virtual" | Metric.Host -> "host"));
     ]
    @ if m.note = "" then [] else [ ("percentile", json_str m.note) ])

let print_metric (m : Metric.t) =
  Printf.printf "%-28s %-14s %-6s n=%d%s\n" m.name
    (Printf.sprintf "%.6g" m.value)
    m.unit_ m.n
    (if m.note = "" then "" else " (" ^ m.note ^ ")")

let out_dir = Filename.concat "benchmark" "out"

let write_file path contents =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* ---- one workload ---------------------------------------------------------- *)

let run_one w ~seed ~seconds ~trace =
  let scale = scale_of_seconds seconds in
  let plain = run_pass w ~seed ~scale ~tracing:false in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. float_of_int (1 lsl 20)
  in
  let e2e = end_to_end w plain ~heap_mb in
  let traced =
    if not trace then None
    else begin
      Metrics.set_enabled true;
      let t = run_pass w ~seed ~scale ~tracing:true in
      Metrics.set_enabled false;
      Some t
    end
  in
  let errors = ref (List.rev plain.errors) in
  let layers =
    match traced with
    | None -> []
    | Some t ->
        errors := !errors @ List.rev t.errors;
        (* The traced pass must reproduce every virtual value exactly. *)
        List.iter2
          (fun (a : Metric.t) (b : Metric.t) ->
            if a.clock = Metric.Virtual && (a.value <> b.value || a.n <> b.n) then
              errors :=
                !errors
                @ [ Printf.sprintf "traced %s = %.17g (n=%d), untraced %.17g (n=%d)" a.name
                      b.value b.n a.value a.n ])
          e2e (end_to_end w t ~heap_mb);
        write_file (Filename.concat out_dir (w.name ^ ".trace.json")) (Common.trace_json t);
        layer_metrics t ~overhead:(100. *. ((host_s t /. host_s plain) -. 1.))
  in
  let errors = !errors in
  let attempted = plain.attempted and failed = plain.failed in
  Printf.printf "== %s  seed=%d seconds=%d reps=%d%s\n" w.name seed seconds reps
    (if trace then "  (traced)" else "");
  List.iter print_metric (if trace then layers else e2e);
  Printf.printf "attempted=%d failed=%d checks=%s\n" attempted failed
    (if errors = [] then "ok" else "FAILED");
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  let provenance =
    [
      ("workload", json_str w.name);
      ("why", json_str w.why);
      ("seed", string_of_int seed);
      ("rep_seeds", "[" ^ String.concat ", " (List.init reps (fun i -> string_of_int (rep_seed seed i))) ^ "]");
      ("seconds", string_of_int seconds);
      ("traced", string_of_bool trace);
      ("git_rev", json_str (git_rev ()));
      ("host_utc", json_str (utc_now ()));
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_str Sys.ocaml_version);
      ("sizes", json_obj (List.map (fun (k, v) -> (k, json_str v)) (w.sizes scale)));
    ]
  in
  let metrics_json ms = json_obj (List.map (fun (m : Metric.t) -> (m.name, metric_json m)) ms) in
  write_file
    (Filename.concat out_dir (w.name ^ if trace then ".traced.json" else ".json"))
    (json_obj
       (provenance
       @ [
           ("end_to_end", metrics_json e2e);
           ("per_layer", metrics_json layers);
           ("attempted", string_of_int attempted);
           ("failed", string_of_int failed);
           ("check_failures", "[" ^ String.concat ", " (List.map json_str errors) ^ "]");
         ])
    ^ "\n");
  (* The summary line: BENCHMARK.json's end_to_end metrics, or with
     tracing its per_layer metrics. *)
  let summary =
    if trace then layers else List.filter (fun (m : Metric.t) -> List.mem m.name contract) e2e
  in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (errors = []));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           json_obj
             (List.map
                (fun (m : Metric.t) ->
                  (m.name, json_obj [ ("value", json_num m.value); ("unit", json_str m.unit_) ]))
                summary) );
       ]);
  errors = []

(* ---- command line ------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe run --workload <name|all> --seed <n> [--seconds <s>] [--trace [0|1]]\n\
    \       main.exe selftest\n\
     workloads: all";
  List.iter (fun w -> prerr_endline ("  " ^ w.name)) workloads;
  exit 2

let parse_run args =
  let workload = ref None and seed = ref None and seconds = ref 10 and trace = ref false in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ ->
        Printf.eprintf "%s: expected a non-negative integer, got %S\n" flag v;
        exit 2
  in
  let rec loop = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Some v;
        loop rest
    | "--seed" :: v :: rest ->
        seed := Some (int_arg "--seed" v);
        loop rest
    | "--seconds" :: v :: rest ->
        seconds := max 1 (int_arg "--seconds" v);
        loop rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := v = "1";
        loop rest
    | "--trace" :: rest ->
        trace := true;
        loop rest
    | arg :: _ ->
        Printf.eprintf "unexpected argument %S\n" arg;
        usage ()
  in
  loop args;
  match (!workload, !seed) with
  | Some w, Some s -> (w, s, !seconds, !trace)
  | _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> (
      let name, seed, seconds, trace = parse_run args in
      if name = "all" then begin
        (* Each workload in its own process, one at a time. *)
        let ok =
          List.fold_left
            (fun ok w ->
              let argv =
                [| Sys.executable_name; "run"; "--workload"; w.name; "--seed";
                   string_of_int seed; "--seconds"; string_of_int seconds; "--trace";
                   (if trace then "1" else "0") |]
              in
              let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> ok
              | _ -> false)
            true workloads
        in
        exit (if ok then 0 else 1)
      end
      else
        match List.find_opt (fun w -> w.name = name) workloads with
        | None ->
            Printf.eprintf "unknown workload %S\n" name;
            usage ()
        | Some w -> exit (if run_one w ~seed ~seconds ~trace then 0 else 1))
  | [ _; "selftest" ] -> exit (if Selftest.run () then 0 else 1)
  | _ -> usage ()
