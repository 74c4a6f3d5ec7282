(* Multi-tenant fleet checkpoint sweep: groups x period x mutation ratio.

   Each configuration boots a fleet of G single-process tenants on one
   virtual clock — per-tenant machine, store and striped array, all flush
   traffic drained through the shared bandwidth arbiter with staggered
   TDM windows — and runs the fleet scheduler for a fixed number of
   periods.  Reported per cell: aggregate checkpoint throughput, the
   worst per-tenant p99 stop time against the identical tenant run as a
   one-tenant fleet at the same period, the Jain fairness index over
   per-tenant flushed bytes, flush-span collisions between distinct
   tenants, and the admission-control delay/reject counts.

   A full run writes BENCH_fleet.json.

     dune exec bench/main.exe -- fleet          # full sweep (up to 128 groups)
     dune exec bench/main.exe -- fleet smoke    # tiny CI pass (gated) *)

module Fleet = Aurora_core.Fleet

type sample = {
  groups : int;
  period_ns : int;
  ratio : float;
  r : Fleet.report;
  solo_p99_ns : float; (* same spec, same period, as a one-tenant fleet *)
}

let spec_of ~ratio i =
  let s = Fleet.default_spec (Printf.sprintf "t%03d" i) in
  (* Mutation ratio = fraction of the tenant's arena dirtied per period. *)
  let dirty =
    max 1 (int_of_float (Float.round (ratio *. float_of_int s.Fleet.sp_arena_pages)))
  in
  { s with Fleet.sp_dirty_pages = dirty }

let measure ~groups ~period_ns ~ratio ~periods =
  let specs = List.init groups (spec_of ~ratio) in
  let f = Fleet.create ~period_ns specs in
  Fleet.run_for f ~duration:(periods * period_ns);
  let r = Fleet.report f in
  (* The baseline: the same tenant as a one-tenant fleet, alone on its
     store and the flush lane. *)
  let solo = Fleet.create ~period_ns [ List.hd specs ] in
  Fleet.run_for solo ~duration:(periods * period_ns);
  let solo_p99_ns = (List.hd (Fleet.report solo).Fleet.r_tenants).Fleet.tr_stop_p99 in
  { groups; period_ns; ratio; r; solo_p99_ns }

let sum s sel = List.fold_left (fun acc tr -> acc + sel tr) 0 s.r.Fleet.r_tenants

(* The worst tenant's p99 stop time. *)
let p99_stop s =
  List.fold_left (fun acc tr -> Float.max acc tr.Fleet.tr_stop_p99) 0.0 s.r.Fleet.r_tenants

let slowdown s = p99_stop s /. Float.max 1.0 s.solo_p99_ns

let columns : sample Report.column list =
  Report.
    [
      ("groups", "groups", fun s -> Count s.groups);
      ("period", "period_ns", fun s -> Ns (float_of_int s.period_ns));
      ("mutation", "mutation_ratio", fun s -> Percent s.ratio);
      ("epochs", "epochs", fun s -> Count s.r.Fleet.r_epochs);
      ("ckpt/s", "ckpt_throughput_per_s", fun s -> Num (1, s.r.Fleet.r_ckpt_throughput));
      ("bytes/s", "bytes_per_s", fun s -> Bytes s.r.Fleet.r_bytes_per_s);
      ("p99 stop", "p99_stop_ns", fun s -> Ns (p99_stop s));
      ("solo p99", "solo_p99_stop_ns", fun s -> Ns s.solo_p99_ns);
      ("slowdown", "p99_slowdown", fun s -> Num (3, slowdown s));
      ("jain", "jain", fun s -> Num (4, s.r.Fleet.r_jain));
      ("coll", "collisions", fun s -> Count s.r.Fleet.r_collisions);
      ("delayed", "delayed", fun s -> Count (sum s (fun tr -> tr.Fleet.tr_delayed)));
      ("rejected", "rejected", fun s -> Count (sum s (fun tr -> tr.Fleet.tr_rejected)));
      ("lanes ok", "accounting_ok", fun s -> Bool s.r.Fleet.r_accounting_ok);
    ]

(* Acceptance gates, over every measured cell: perfect window
   partitioning (zero cross-tenant flush overlaps), the arbiter's
   attribution identity, and fairness >= 0.9.  The interference gate —
   p99 stop within 3x of the one-tenant baseline — binds at the largest
   fleet, where a shared-lane pileup would show first. *)
let gates samples =
  let max_groups = List.fold_left (fun acc s -> max acc s.groups) 0 samples in
  let collisions = List.fold_left (fun acc s -> acc + s.r.Fleet.r_collisions) 0 samples in
  let accounting = List.for_all (fun s -> s.r.Fleet.r_accounting_ok) samples in
  let jain = Report.worst (fun s -> s.r.Fleet.r_jain) samples in
  let slowdown =
    List.fold_left
      (fun acc s -> if s.groups = max_groups then Float.max acc (slowdown s) else acc)
      0.0 samples
  in
  Report.gates "fleet"
    [
      ("flush-window collisions", Count collisions, "0", collisions = 0);
      ("lane accounting exact", Bool accounting, "true", accounting);
      ("min jain", Num (4, jain), ">= 0.9", jain >= 0.9);
      ( Printf.sprintf "p99 stop / solo at %d groups" max_groups,
        Num (3, slowdown),
        "<= 3",
        slowdown <= 3.0 );
    ]

let run mode =
  let ms = 1_000_000 in
  let configs =
    match mode with
    | Report.Smoke -> [ (2, 10 * ms, 0.25); (4, 10 * ms, 1.0) ]
    | Full ->
        [
          (1, 10 * ms, 0.25);
          (8, 10 * ms, 0.25);
          (8, 10 * ms, 1.0);
          (32, 10 * ms, 0.25);
          (32, 10 * ms, 1.0);
          (32, 5 * ms, 1.0);
          (128, 10 * ms, 0.25);
          (128, 10 * ms, 1.0);
          (128, 5 * ms, 1.0);
        ]
    | _ -> raise Report.Usage
  in
  let periods = if mode = Smoke then 6 else 12 in
  print_endline
    "fleet: multi-tenant interleaved checkpointing (shared clock, shared \
     flush lane, staggered TDM windows)";
  print_newline ();
  let samples =
    List.map
      (fun (groups, period_ns, ratio) -> measure ~groups ~period_ns ~ratio ~periods)
      configs
  in
  Report.emit mode ~bench:"fleet" ~file:"BENCH_fleet.json" columns samples;
  gates samples
