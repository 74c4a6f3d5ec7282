module Cost = Aurora_sim.Cost
module Resource = Aurora_sim.Resource
module Rng = Aurora_util.Rng

type fault_profile = {
  p_drop : float;
  p_duplicate : float;
  p_reorder : float;
  p_corrupt : float;
  p_partition : float;
  partition_ns : int;
  reorder_ns : int;
}

let no_faults =
  {
    p_drop = 0.;
    p_duplicate = 0.;
    p_reorder = 0.;
    p_corrupt = 0.;
    p_partition = 0.;
    partition_ns = 0;
    reorder_ns = 500_000;
  }

let lossy_profile p =
  {
    no_faults with
    p_drop = p;
    p_duplicate = p /. 2.;
    p_reorder = p /. 2.;
    p_corrupt = p /. 2.;
  }

type stats = {
  l_sent : int;
  l_delivered : int;
  l_dropped : int;
  l_duplicated : int;
  l_reordered : int;
  l_corrupted : int;
  l_retransmits : int;
  l_partition_drops : int;
}

let zero_stats =
  {
    l_sent = 0;
    l_delivered = 0;
    l_dropped = 0;
    l_duplicated = 0;
    l_reordered = 0;
    l_corrupted = 0;
    l_retransmits = 0;
    l_partition_drops = 0;
  }

type delivery = { d_payload : string; d_arrival : int }

type t = {
  wire : Resource.t;
  mutable faults : (Rng.t * fault_profile) option;
  mutable fault_seed : int;
  mutable partition_until : int;
  mutable scheduled : (int * int) list; (* (start, heal), scripted partitions *)
  mutable stats : stats;
}

let create ?(name = "10gbe") () =
  {
    wire = Resource.create ~name;
    faults = None;
    fault_seed = 0;
    partition_until = 0;
    scheduled = [];
    stats = zero_stats;
  }

let delivery_time t ~now ~bytes =
  let serialize = Cost.transfer_time ~bandwidth:Cost.net_bandwidth bytes in
  let sent = Resource.submit t.wire ~now ~duration:serialize in
  sent + Cost.net_one_way_latency

let rtt ~bytes =
  (2 * Cost.net_one_way_latency)
  + Cost.transfer_time ~bandwidth:Cost.net_bandwidth bytes
  + (2 * Cost.net_per_message_cpu)

let set_faults t ~seed profile =
  t.fault_seed <- seed;
  t.faults <- Some (Rng.create seed, profile)

let stats t = t.stats

(* A scripted window that covers [now] behaves exactly like an active
   probabilistic partition: fold it into [partition_until] so both the
   dark-window check and the sender's deadline extension see it. *)
let activate_scheduled t ~now =
  List.iter
    (fun (start, heal) ->
      if now >= start && now < heal then
        t.partition_until <- max t.partition_until heal)
    t.scheduled

let partitioned_until t = t.partition_until

let partition t ~now ~duration =
  t.partition_until <- max t.partition_until (now + duration)

let partition_at t ~at ~duration =
  if duration > 0 then t.scheduled <- (at, at + duration) :: t.scheduled

let scheduled_partitions t =
  List.sort compare t.scheduled

let corrupt_payload rng payload =
  if String.length payload = 0 then payload
  else begin
    let b = Bytes.of_string payload in
    let i = Rng.int rng (Bytes.length b) in
    let flip = 1 + Rng.int rng 255 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor flip));
    Bytes.to_string b
  end

let transmit t ?(retransmit = false) ~now ~payload () =
  let s = t.stats in
  t.stats <-
    {
      s with
      l_sent = s.l_sent + 1;
      l_retransmits = (s.l_retransmits + if retransmit then 1 else 0);
    };
  activate_scheduled t ~now;
  if now < t.partition_until then begin
    (* Both directions are dark until the partition heals. *)
    t.stats <-
      { t.stats with l_partition_drops = t.stats.l_partition_drops + 1 };
    []
  end
  else
    let arrival = delivery_time t ~now ~bytes:(String.length payload) in
    match t.faults with
    | None ->
        t.stats <- { t.stats with l_delivered = t.stats.l_delivered + 1 };
        [ { d_payload = payload; d_arrival = arrival } ]
    | Some (rng, p) ->
        (* A partition can begin with this message: it is the one that
           discovers the cable is gone. *)
        if p.p_partition > 0. && Rng.float rng 1.0 < p.p_partition then
          t.partition_until <- max t.partition_until (now + p.partition_ns);
        if now < t.partition_until || Rng.float rng 1.0 < p.p_drop then begin
          t.stats <- { t.stats with l_dropped = t.stats.l_dropped + 1 };
          []
        end
        else begin
          let payload =
            if Rng.float rng 1.0 < p.p_corrupt then begin
              t.stats <-
                { t.stats with l_corrupted = t.stats.l_corrupted + 1 };
              corrupt_payload rng payload
            end
            else payload
          in
          let arrival =
            if Rng.float rng 1.0 < p.p_reorder then begin
              t.stats <-
                { t.stats with l_reordered = t.stats.l_reordered + 1 };
              arrival + 1 + Rng.int rng (max 1 p.reorder_ns)
            end
            else arrival
          in
          let deliveries =
            if Rng.float rng 1.0 < p.p_duplicate then begin
              t.stats <-
                { t.stats with l_duplicated = t.stats.l_duplicated + 1 };
              [
                { d_payload = payload; d_arrival = arrival };
                {
                  d_payload = payload;
                  d_arrival = arrival + 1 + Rng.int rng (max 1 p.reorder_ns);
                };
              ]
            end
            else [ { d_payload = payload; d_arrival = arrival } ]
          in
          t.stats <-
            {
              t.stats with
              l_delivered = t.stats.l_delivered + List.length deliveries;
            };
          deliveries
        end

let reset t =
  Resource.reset t.wire;
  t.partition_until <- 0;
  t.stats <- zero_stats;
  match t.faults with
  | None -> ()
  | Some (_, p) -> t.faults <- Some (Rng.create t.fault_seed, p)
