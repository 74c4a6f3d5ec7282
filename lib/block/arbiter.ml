module Cost = Aurora_sim.Cost
module Resource = Aurora_sim.Resource

type tenant = {
  tn_name : string;
  tn_weight : int;
  tn_order : int;
  mutable tn_grants : int;
  mutable tn_bytes : int;
  mutable tn_busy_ns : int;
  mutable tn_wait_ns : int;
  mutable tn_delayed : int;
  mutable tn_rejected : int;
  mutable tn_window_off : int;
  mutable tn_window_len : int;
}

type decision = Admit | Delay of int | Reject

type t = {
  lane : Resource.t;
  bandwidth : int;
  period : int;
  mutable tenants : tenant list; (* registration order, newest last *)
  mutable busy_ns : int;
}

let create ~name ~bandwidth ~period_ns =
  assert (bandwidth > 0 && period_ns > 0);
  {
    lane = Resource.create ~name;
    bandwidth;
    period = period_ns;
    tenants = [];
    busy_ns = 0;
  }

(* Weighted TDM layout: tenant windows tile the period in registration
   order, each [period * w / sum_w] wide.  Integer division leaves the
   remainder as slack at the end of the period — slack absorbs flush
   tails rather than being handed to the last tenant. *)
let assign_windows t =
  let sum_w = List.fold_left (fun a tn -> a + tn.tn_weight) 0 t.tenants in
  let off = ref 0 in
  List.iter
    (fun tn ->
      tn.tn_window_off <- !off;
      tn.tn_window_len <- t.period * tn.tn_weight / max 1 sum_w;
      off := !off + tn.tn_window_len)
    t.tenants

let register t ~name ?(weight = 1) () =
  assert (weight > 0);
  let tn =
    {
      tn_name = name;
      tn_weight = weight;
      tn_order = List.length t.tenants;
      tn_grants = 0;
      tn_bytes = 0;
      tn_busy_ns = 0;
      tn_wait_ns = 0;
      tn_delayed = 0;
      tn_rejected = 0;
      tn_window_off = 0;
      tn_window_len = 0;
    }
  in
  t.tenants <- t.tenants @ [ tn ];
  assign_windows t;
  tn

let tenant_name tn = tn.tn_name
let window _t tn = (tn.tn_window_off, tn.tn_window_len)

let submit t tn ~now ~bytes =
  let duration = Cost.transfer_time ~bandwidth:t.bandwidth bytes in
  let start, completion = Resource.submit_timed t.lane ~now ~duration in
  tn.tn_grants <- tn.tn_grants + 1;
  tn.tn_bytes <- tn.tn_bytes + bytes;
  tn.tn_busy_ns <- tn.tn_busy_ns + duration;
  tn.tn_wait_ns <- tn.tn_wait_ns + (start - now);
  t.busy_ns <- t.busy_ns + duration;
  completion

let admit t tn ~now ~est_bytes =
  let est_ns = Cost.transfer_time ~bandwidth:t.bandwidth est_bytes in
  if est_ns > tn.tn_window_len then Reject
  else begin
    let pos = now mod t.period in
    let in_window =
      pos >= tn.tn_window_off && pos + est_ns <= tn.tn_window_off + tn.tn_window_len
    in
    if in_window then Admit
    else
      (* Distance to the next opening of this tenant's window. *)
      let d =
        if pos < tn.tn_window_off then tn.tn_window_off - pos
        else t.period - pos + tn.tn_window_off
      in
      Delay d
  end

let note_delayed _t tn = tn.tn_delayed <- tn.tn_delayed + 1
let note_rejected _t tn = tn.tn_rejected <- tn.tn_rejected + 1

type tenant_stats = {
  ts_name : string;
  ts_weight : int;
  ts_grants : int;
  ts_bytes : int;
  ts_busy_ns : int;
  ts_wait_ns : int;
  ts_delayed : int;
  ts_rejected : int;
}

let stats _t tn =
  {
    ts_name = tn.tn_name;
    ts_weight = tn.tn_weight;
    ts_grants = tn.tn_grants;
    ts_bytes = tn.tn_bytes;
    ts_busy_ns = tn.tn_busy_ns;
    ts_wait_ns = tn.tn_wait_ns;
    ts_delayed = tn.tn_delayed;
    ts_rejected = tn.tn_rejected;
  }

let lane_busy_ns t = t.busy_ns

let accounting_ok t =
  List.fold_left (fun a tn -> a + tn.tn_busy_ns) 0 t.tenants = t.busy_ns
