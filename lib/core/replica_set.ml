module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Store = Aurora_objstore.Store
module Link = Aurora_net.Link
module Rng = Aurora_util.Rng
module Otrace = Aurora_obs.Trace

type health = Healthy | Degraded | Evicted | Rejoining

let health_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Evicted -> "evicted"
  | Rejoining -> "rejoining"

(* One sequenced frame of the shared epoch log: the delta from the
   previous logged epoch (full stream for the first).  Frames are the
   same bytes for every standby because every standby follows the same
   chain; only rejoin catch-up frames are built per standby.  An entry
   outlives its frame: the frame is dropped (set to "") once every live,
   non-evicted standby has acked it, and the entry once every standby
   not dead has (see [trim_log]). *)
type log_entry = {
  le_idx : int;
  le_epoch : int;
  mutable le_frame : string;
  le_bytes : int; (* stream (body) size, for lag accounting *)
  le_upto_bytes : int; (* [le_bytes] of this entry and every older one *)
}

type inflight = {
  if_epoch : int;
  if_frame : string;
  if_bytes : int;
  mutable if_attempts : int;
  mutable if_deadline : int;
}

type standby = {
  sb_idx : int;
  sb_store : Store.t;
  sb_link : Link.t;
  sb_rng : Rng.t; (* retransmit jitter, seeded per standby *)
  mutable sb_health : health;
  mutable sb_dead : bool;
  (* sender side *)
  mutable sb_next : int; (* log index of the next epoch to put in flight *)
  mutable sb_inflight : inflight list;
      (* oldest epoch first; while Rejoining, just the catch-up frame *)
  mutable sb_acked : int; (* newest primary epoch verified-acked *)
  mutable sb_acked_bytes : int; (* stream bytes shipped and acked *)
  mutable sb_acked_log : int; (* log entries at or below [sb_acked] *)
  mutable sb_acked_log_bytes : int; (* their [le_bytes] *)
  mutable sb_consec_timeouts : int;
  mutable sb_pending_acks : (int * Migrate.ack) list; (* arrival, ack *)
  (* receiver side (the standby proper) *)
  mutable sb_rcv_epoch : int; (* newest primary epoch installed *)
  mutable sb_gap : (int * Migrate.shipment) list; (* epoch -> buffered frame *)
  mutable sb_installed : (int * int) list;
      (* standby epoch -> primary epoch, retained epochs only *)
  (* counters *)
  mutable sb_retransmits : int;
  mutable sb_timeouts : int;
  mutable sb_dup_acks : int;
  mutable sb_verify_rejects : int;
  mutable sb_prunes : int;
}

type stats = {
  rs_epochs_logged : int;
  rs_acked_total : int;
  rs_attempts : int;
  rs_retransmits : int;
  rs_timeouts : int;
  rs_dup_acks : int;
  rs_verify_rejects : int;
  rs_evictions : int;
  rs_rejoins : int;
  rs_released_msgs : int;
  rs_primary_prunes : int;
}

type t = {
  primary : Group.t;
  outbox : Extsync.t option;
  window : int;
  standbys : standby array;
  mutable log : log_entry list; (* newest first, trimmed *)
  mutable log_len : int; (* entries ever logged, trimmed ones included *)
  mutable log_bytes : int; (* stream bytes of every logged frame *)
  mutable log_trimmed : int * int; (* entries trimmed, their stream bytes *)
  mutable last_logged : int; (* newest primary epoch in the log *)
  mutable quorum_released : int; (* outbox released up to this epoch *)
  mutable st_attempts : int;
  mutable st_acked_total : int;
  mutable st_evictions : int;
  mutable st_rejoins : int;
  mutable st_released : int;
  mutable st_prunes : int;
}

(* Attempts per frame before the standby is evicted, and the
   consecutive-timeout thresholds of the health state machine. *)
let max_retries = 8
let degrade_after = 2
let evict_after = 6

(* Retention.  Every store of the set keeps at least its newest
   [keep_epochs] epochs, the depth a verified restore can fall back
   through, and prunes once it retains [prune_every] epochs more than it
   must keep, so each prune's synchronous superblock write is paid once
   per [prune_every] epochs. *)
let keep_epochs = 16
let prune_every = 10

let create ?(window = 4) ?(seed = 1) ?outbox ~primary ~standbys () =
  if standbys = [] then invalid_arg "Replica_set.create: no standbys";
  if window < 1 then invalid_arg "Replica_set.create: window < 1";
  let mk i (store, link) =
    {
      sb_idx = i;
      sb_store = store;
      sb_link = link;
      sb_rng = Rng.create ((seed * 1_000_003) + (i * 7919) + 17);
      sb_health = Healthy;
      sb_dead = false;
      sb_next = 0;
      sb_inflight = [];
      sb_acked = 0;
      sb_acked_bytes = 0;
      sb_acked_log = 0;
      sb_acked_log_bytes = 0;
      sb_consec_timeouts = 0;
      sb_pending_acks = [];
      sb_rcv_epoch = 0;
      sb_gap = [];
      sb_installed = [];
      sb_retransmits = 0;
      sb_timeouts = 0;
      sb_dup_acks = 0;
      sb_verify_rejects = 0;
      sb_prunes = 0;
    }
  in
  {
    primary;
    outbox;
    window;
    standbys = Array.of_list (List.mapi mk standbys);
    log = [];
    log_len = 0;
    log_bytes = 0;
    log_trimmed = (0, 0);
    last_logged = 0;
    quorum_released = 0;
    st_attempts = 0;
    st_acked_total = 0;
    st_evictions = 0;
    st_rejoins = 0;
    st_released = 0;
    st_prunes = 0;
  }

(* Acks needed before an epoch is quorum-committed: ⌈(N+1)/2⌉. *)
let quorum t = (Array.length t.standbys / 2) + 1
let last_logged_epoch t = t.last_logged
let pclock t = Store.clock (Group.store t.primary)

(* The q-th largest cumulative ack over all standbys.  Acks from standbys
   that later died still count: the ack certified the epoch was durably
   installed there at the time, which is what made the epoch
   quorum-committed; killing a minority afterwards cannot un-commit it
   (a majority acked, so some survivor still holds it). *)
let quorum_epoch t =
  let acked =
    Array.to_list (Array.map (fun sb -> sb.sb_acked) t.standbys)
    |> List.sort (fun a b -> compare b a)
  in
  List.nth acked (quorum t - 1)

(* Receiver -------------------------------------------------------------- *)

(* A standby keeps its newest [keep_epochs] installed epochs, and its
   epoch map only their entries.  It prunes on its own store's clock
   once its acks are on the wire and no frame waits in its gap buffer, so
   neither an ack nor a buffered install waits on the prune's synchronous
   superblock write. *)
let prune_standby sb =
  let store = sb.sb_store in
  if sb.sb_gap = [] && List.length (Store.checkpoint_epochs store) >= keep_epochs + prune_every
  then begin
    ignore (Store.prune_history store ~keep:keep_epochs);
    sb.sb_prunes <- sb.sb_prunes + 1;
    let oldest = match Store.checkpoint_epochs store with e :: _ -> e | [] -> max_int in
    sb.sb_installed <- List.filter (fun (e, _) -> e >= oldest) sb.sb_installed
  end

(* Install shipments strictly in epoch order: a frame whose base is ahead
   of what the standby holds waits in the gap buffer until the missing
   epochs land (selective repeat).  Every install is digest-verified
   before commit; each produces its own ack carrying the cumulative
   installed epoch, so one ack can confirm a whole drained gap. *)
let rs_receive sb (d : Link.delivery) =
  let sclk = Store.clock sb.sb_store in
  Clock.advance_to sclk d.Link.d_arrival;
  match Migrate.open_shipment d.Link.d_payload with
  | Error _ -> [] (* corrupt in flight: silence, the sender retransmits *)
  | Ok sh ->
      let acks = ref [] in
      let ack ~epoch ~ok ~reason =
        acks :=
          Migrate.seal Migrate.ack_codec
            { ack_seq = sb.sb_rcv_epoch; ack_epoch = epoch; ack_ok = ok; ack_reason = reason }
          :: !acks
      in
      let install sh =
        match Migrate.install_verified ~store:sb.sb_store sh with
        | Ok standby_epoch ->
            sb.sb_rcv_epoch <- sh.Migrate.sh_epoch;
            sb.sb_installed <-
              (standby_epoch, sh.Migrate.sh_epoch) :: sb.sb_installed;
            ack ~epoch:sh.Migrate.sh_epoch ~ok:true ~reason:""
        | Error msg ->
            sb.sb_verify_rejects <- sb.sb_verify_rejects + 1;
            ack ~epoch:sh.Migrate.sh_epoch ~ok:false ~reason:msg
      in
      if sh.Migrate.sh_epoch <= sb.sb_rcv_epoch then begin
        sb.sb_dup_acks <- sb.sb_dup_acks + 1;
        ack ~epoch:sh.Migrate.sh_epoch ~ok:true ~reason:"duplicate"
      end
      else if sh.Migrate.sh_base > sb.sb_rcv_epoch then begin
        (* The chain has a hole: hold the frame, ack nothing for it. *)
        if not (List.mem_assoc sh.Migrate.sh_epoch sb.sb_gap) then
          sb.sb_gap <- (sh.Migrate.sh_epoch, sh) :: sb.sb_gap
      end
      else begin
        install sh;
        (* The install may have filled the hole in front of buffered
           frames: drain everything now contiguous, oldest first. *)
        let rec drain_gap () =
          let ready, held =
            List.partition
              (fun (_, g) ->
                g.Migrate.sh_base <= sb.sb_rcv_epoch
                && g.Migrate.sh_epoch > sb.sb_rcv_epoch)
              sb.sb_gap
          in
          sb.sb_gap <-
            List.filter (fun (e, _) -> e > sb.sb_rcv_epoch) held;
          match List.sort compare ready with
          | [] -> ()
          | (_, g) :: rest ->
              sb.sb_gap <- sb.sb_gap @ rest;
              install g;
              drain_gap ()
        in
        drain_gap ()
      end;
      if Otrace.is_on () then
        Otrace.instant ~ts:(Clock.now sclk) ~cat:"rset" "receive"
          ~args:
            [
              ("standby", Otrace.Int sb.sb_idx);
              ("epoch", Otrace.Int sh.Migrate.sh_epoch);
              ("installed", Otrace.Int sb.sb_rcv_epoch);
            ];
      (* Acks travel back through the same fault plane. *)
      let acks =
        List.concat_map
          (fun frame ->
            Link.transmit sb.sb_link ~now:(Clock.now sclk) ~payload:frame ()
            |> List.filter_map (fun (ad : Link.delivery) ->
                   match Migrate.open_ack ad.Link.d_payload with
                   | Ok a -> Some (ad.Link.d_arrival, a)
                   | Error _ -> None))
          (List.rev !acks)
      in
      prune_standby sb;
      acks

(* Sender ---------------------------------------------------------------- *)

let idx_of_epoch t epoch =
  if epoch = 0 then 0
  else
    match List.find_opt (fun le -> le.le_epoch = epoch) t.log with
    | Some le -> le.le_idx + 1
    | None -> t.log_len (* unknown epoch: ship nothing until re-synced *)

let log_nth t idx =
  List.find_opt (fun le -> le.le_idx = idx) t.log

(* Entries logged at or below [epoch] and their stream bytes, trimmed
   ones included: the newest such entry counts every older one.  Exact
   for any epoch at or above the newest trimmed entry's, which every ack
   is (see [trim_log]). *)
let logged_upto t epoch =
  match List.find_opt (fun le -> le.le_epoch <= epoch) t.log with
  | Some le -> (le.le_idx + 1, le.le_upto_bytes)
  | None -> t.log_trimmed

let alive_active sb =
  (not sb.sb_dead) && sb.sb_health <> Evicted

let evict t sb ~reason =
  if sb.sb_health <> Evicted then begin
    sb.sb_health <- Evicted;
    sb.sb_inflight <- [];
    t.st_evictions <- t.st_evictions + 1;
    if Otrace.is_on () then
      Otrace.instant ~cat:"rset" "evict"
        ~args:
          [ ("standby", Otrace.Int sb.sb_idx); ("reason", Otrace.Str reason) ]
  end

let base_timeout frame = 2 * Link.rtt ~bytes:(String.length frame)

(* Exponential backoff with per-standby jitter: deadline k doubles the
   base and adds up to half a base of seeded noise, so two standbys that
   lost the same frame do not retransmit in lockstep.  A deadline inside
   a known partition is extended past the heal — backoff alone cannot
   out-wait a dark link. *)
let next_deadline sb ~now ~frame ~attempts =
  let base = base_timeout frame in
  let backoff = base * (1 lsl min (attempts - 1) 10) in
  let jitter = Rng.int sb.sb_rng (1 + (base / 2)) in
  let deadline = now + backoff + jitter in
  let heal = Link.partitioned_until sb.sb_link in
  if heal > deadline then heal + base + jitter else deadline

let transmit_frame t sb ~now ~retransmit inf =
  t.st_attempts <- t.st_attempts + 1;
  if retransmit then sb.sb_retransmits <- sb.sb_retransmits + 1;
  let deliveries =
    Link.transmit sb.sb_link ~retransmit ~now ~payload:inf.if_frame ()
  in
  List.iter
    (fun d -> sb.sb_pending_acks <- sb.sb_pending_acks @ rs_receive sb d)
    (List.sort (fun a b -> compare a.Link.d_arrival b.Link.d_arrival) deliveries)

(* Apply one ack, which reached the primary at [arrival].  [ack_seq]
   carries the receiver's cumulative installed epoch, so a single
   surviving ack can advance past several lost ones (in-order install
   makes cumulative acks sound). *)
let apply_ack t sb ~arrival (a : Migrate.ack) =
  if not a.Migrate.ack_ok then begin
    (* The frame arrived intact but the composed epoch contradicts the
       manifest digest: the standby has diverged, retransmitting the
       same bytes cannot help.  Evict; a rejoin catch-up resyncs it. *)
    evict t sb ~reason:("diverged: " ^ a.Migrate.ack_reason)
  end
  else begin
    let cum = max a.Migrate.ack_seq a.Migrate.ack_epoch in
    if cum <= sb.sb_acked then sb.sb_dup_acks <- sb.sb_dup_acks + 1
    else begin
      (* The log entries in (acked, cum]: [sb_acked_log] and its bytes
         count the entries at or below [sb_acked]. *)
      let upto, upto_bytes = logged_upto t cum in
      let covered = upto - sb.sb_acked_log
      and covered_bytes = upto_bytes - sb.sb_acked_log_bytes in
      sb.sb_acked_log <- upto;
      sb.sb_acked_log_bytes <- upto_bytes;
      (match (sb.sb_health, sb.sb_inflight) with
      | Rejoining, [ inf ] when cum >= inf.if_epoch ->
          (* The catch-up frame covers the whole (acked, target] gap in
             one cumulative delta; count its bytes, not the log's. *)
          sb.sb_acked_bytes <- sb.sb_acked_bytes + inf.if_bytes;
          t.st_acked_total <- t.st_acked_total + 1
      | _ ->
          sb.sb_acked_bytes <- sb.sb_acked_bytes + covered_bytes;
          t.st_acked_total <- t.st_acked_total + covered);
      sb.sb_acked <- cum;
      sb.sb_consec_timeouts <- 0;
      sb.sb_inflight <-
        List.filter (fun inf -> inf.if_epoch > cum) sb.sb_inflight;
      (match sb.sb_health with
      | Degraded -> sb.sb_health <- Healthy
      | Rejoining when sb.sb_inflight = [] ->
          sb.sb_health <- Healthy;
          sb.sb_next <- idx_of_epoch t cum
      | _ -> ());
      if Otrace.is_on () then
        Otrace.instant ~ts:arrival ~cat:"rset" "ack"
          ~args:
            [
              ("standby", Otrace.Int sb.sb_idx);
              ("cum", Otrace.Int cum);
              ("health", Otrace.Str (health_name sb.sb_health));
            ]
    end
  end

let on_timeout t sb =
  sb.sb_timeouts <- sb.sb_timeouts + 1;
  sb.sb_consec_timeouts <- sb.sb_consec_timeouts + 1;
  if sb.sb_consec_timeouts >= evict_after then
    evict t sb
      ~reason:(Printf.sprintf "%d consecutive timeouts" sb.sb_consec_timeouts)
  else if sb.sb_consec_timeouts >= degrade_after && sb.sb_health = Healthy
  then begin
    sb.sb_health <- Degraded;
    if Otrace.is_on () then
      Otrace.instant ~cat:"rset" "degrade"
        ~args:[ ("standby", Otrace.Int sb.sb_idx) ]
  end

(* A standby's retransmits and window fill at [now], after [pump] has
   applied its arrived acks. *)
let pump_standby t sb ~now =
  if alive_active sb then begin
    (* 1. Expired frames: back off and retransmit, unless the frame is
       out of attempts — then the standby cannot make in-order progress
       and is evicted. *)
    let retransmit inf =
      if alive_active sb && inf.if_deadline <= now then begin
        on_timeout t sb;
        if alive_active sb then begin
          if inf.if_attempts >= max_retries then
            evict t sb
              ~reason:
                (Printf.sprintf "epoch %d unacked after %d attempts"
                   inf.if_epoch inf.if_attempts)
          else begin
            inf.if_attempts <- inf.if_attempts + 1;
            inf.if_deadline <-
              next_deadline sb ~now ~frame:inf.if_frame
                ~attempts:inf.if_attempts;
            transmit_frame t sb ~now ~retransmit:true inf
          end
        end
      end
    in
    List.iter retransmit sb.sb_inflight;
    (* 2. Fill the window with the next epochs of the chain. *)
    if sb.sb_health = Healthy || sb.sb_health = Degraded then begin
      while
        List.length sb.sb_inflight < t.window && sb.sb_next < t.log_len
      do
        match log_nth t sb.sb_next with
        | None -> sb.sb_next <- t.log_len
        | Some le ->
            let inf =
              {
                if_epoch = le.le_epoch;
                if_frame = le.le_frame;
                if_bytes = le.le_bytes;
                if_attempts = 1;
                if_deadline = now + base_timeout le.le_frame;
              }
            in
            sb.sb_inflight <- sb.sb_inflight @ [ inf ];
            sb.sb_next <- sb.sb_next + 1;
            transmit_frame t sb ~now ~retransmit:false inf
      done
    end
  end

(* The ack from [sb] that arrived at [arrival] was applied: if it
   advanced the quorum, the outbox releases at its arrival, not at the
   poll ([now]) that found it. *)
let release_at_quorum t sb ~arrival ~now =
  match t.outbox with
  | None -> ()
  | Some outbox ->
      let qe = quorum_epoch t in
      if qe > t.quorum_released then begin
        let n = Extsync.release_up_to outbox ~epoch:qe ~now:arrival in
        t.st_released <- t.st_released + n;
        if Otrace.is_on () then
          Otrace.instant ~ts:arrival ~cat:"rset" "release"
            ~args:
              [
                ("standby", Otrace.Int sb.sb_idx);
                ("epoch", Otrace.Int sb.sb_acked);
                ("quorum_epoch", Otrace.Int qe);
                ("now", Otrace.Int now);
                ("msgs", Otrace.Int n);
              ];
        t.quorum_released <- qe
      end

(* The primary keeps every epoch at or above the lowest epoch acked by a
   live, non-evicted standby (the base of that standby's catch-up frame
   should it be evicted; a standby that acked nothing needs none), the
   newest logged epoch (the next frame's base), and always its newest
   [keep_epochs].  It prunes in [pump], after the release, and only when
   the outbox holds no message: no held message waits on the prune's
   synchronous superblock write. *)
let prune_primary t =
  let held = match t.outbox with None -> 0 | Some outbox -> Extsync.pending outbox in
  if held = 0 then begin
    let store = Group.store t.primary in
    let epochs = Store.checkpoint_epochs store in
    let pin =
      Array.fold_left
        (fun m sb -> if alive_active sb && sb.sb_acked > 0 then min m sb.sb_acked else m)
        t.last_logged t.standbys
    in
    let pinned = if pin = 0 then 0 else List.length (List.filter (fun e -> e >= pin) epochs) in
    let keep = max keep_epochs pinned in
    if List.length epochs >= keep + prune_every then begin
      ignore (Store.prune_history store ~keep);
      t.st_prunes <- t.st_prunes + 1
    end
  end

let pump t =
  let now = Clock.now (pclock t) in
  Option.iter (Extsync.observe ~now) t.outbox;
  (* 1. The acks of every live standby that have arrived by now, in
     arrival order (ties by standby index, each standby's own oldest
     first), releasing after each at its arrival.  Standbys share no
     sender state, so merging their acks moves no protocol decision. *)
  let arrived =
    Array.to_list t.standbys
    |> List.concat_map (fun sb ->
           if not (alive_active sb) then []
           else begin
             let usable, later =
               List.partition (fun (arrival, _) -> arrival <= now) sb.sb_pending_acks
             in
             sb.sb_pending_acks <- later;
             List.map (fun (arrival, a) -> (arrival, sb, a)) usable
           end)
    |> List.stable_sort (fun (a, sa, _) (b, sb, _) -> compare (a, sa.sb_idx) (b, sb.sb_idx))
  in
  List.iter
    (fun (arrival, sb, a) ->
      apply_ack t sb ~arrival a;
      release_at_quorum t sb ~arrival ~now)
    arrived;
  (* 2. Retransmits and window fills, at now. *)
  Array.iter (fun sb -> pump_standby t sb ~now) t.standbys;
  prune_primary t;
  if Otrace.is_on () then
    Otrace.instant ~cat:"rset" "window"
      ~args:
        (( "quorum_epoch", Otrace.Int (quorum_epoch t) )
        :: Array.to_list
             (Array.map
                (fun sb ->
                  ( Printf.sprintf "occ%d" sb.sb_idx,
                    Otrace.Int (List.length sb.sb_inflight) ))
                t.standbys))

(* Forget what no standby can still ask for: a frame once every live,
   non-evicted standby has acked it (only frames above a standby's acked
   epoch are ever put in flight, and a rejoin builds its own catch-up
   frame), an entry once every standby not dead has (a rejoined
   standby's late acks still count the entries above its acked epoch;
   [logged_upto] counts the trimmed ones). *)
let trim_log t =
  let lowest f =
    Array.fold_left (fun m sb -> if f sb then min m sb.sb_acked else m) max_int t.standbys
  in
  let frames_upto = lowest alive_active and entries_upto = lowest (fun sb -> not sb.sb_dead) in
  let rec keep = function
    | [] -> []
    | le :: _ when le.le_epoch <= entries_upto ->
        t.log_trimmed <- (le.le_idx + 1, le.le_upto_bytes);
        []
    | le :: rest ->
        if le.le_epoch <= frames_upto then le.le_frame <- "";
        le :: keep rest
  in
  t.log <- keep t.log

let ship t =
  let newest = Group.last_epoch t.primary in
  if newest > t.last_logged then begin
    let store = Group.store t.primary in
    trim_log t;
    (* Every epoch checkpointed since the last call becomes one frame;
       when the caller skipped rounds the single delta base..newest is
       the whole gap. *)
    match Migrate.frame ~store ~base:t.last_logged ~epoch:newest with
    | Error msg -> failwith ("Replica_set.ship: " ^ msg)
    | Ok (frame, bytes) ->
        let le =
          { le_idx = t.log_len; le_epoch = newest; le_frame = frame;
            le_bytes = bytes; le_upto_bytes = t.log_bytes + bytes }
        in
        t.log <- le :: t.log;
        t.log_len <- t.log_len + 1;
        t.log_bytes <- t.log_bytes + bytes;
        t.last_logged <- newest
  end;
  pump t

(* Drain: walk the primary clock through the next protocol event (an ack
   arrival or a retransmit deadline) until the target holds or no event
   can change anything. *)
let drained t = function
  | `Quorum -> quorum_epoch t >= t.last_logged
  | `All ->
      Array.for_all
        (fun sb ->
          (not (alive_active sb))
          || (sb.sb_acked >= t.last_logged && sb.sb_inflight = []))
        t.standbys

let next_event t =
  Array.fold_left
    (fun acc sb ->
      if not (alive_active sb) then acc
      else begin
        let fold_min acc x = match acc with
          | None -> Some x
          | Some y -> Some (min x y)
        in
        let acc =
          List.fold_left
            (fun acc (arrival, _) -> fold_min acc arrival)
            acc sb.sb_pending_acks
        in
        List.fold_left
          (fun acc inf -> fold_min acc inf.if_deadline)
          acc sb.sb_inflight
      end)
    None t.standbys

let drain t target =
  let clk = pclock t in
  pump t;
  let rec go () =
    if drained t target then true
    else
      match next_event t with
      | None -> drained t target
      | Some ev ->
          Clock.advance_to clk (max ev (Clock.now clk + 1));
          pump t;
          go ()
  in
  go ()

(* Harness hooks --------------------------------------------------------- *)

let check_idx t i =
  if i < 0 || i >= Array.length t.standbys then
    invalid_arg (Printf.sprintf "Replica_set: no standby %d" i)

let kill t i =
  check_idx t i;
  let sb = t.standbys.(i) in
  if not sb.sb_dead then begin
    sb.sb_dead <- true;
    evict t sb ~reason:"killed";
    sb.sb_health <- Evicted;
    sb.sb_pending_acks <- [];
    (* The machine is gone: its link never carries anything again
       (max_int/2 avoids overflowing the heal instant). *)
    Link.partition sb.sb_link ~now:(Clock.now (pclock t))
      ~duration:(max_int / 2)
  end

let rejoin t i =
  check_idx t i;
  let sb = t.standbys.(i) in
  if (not sb.sb_dead) && sb.sb_health = Evicted && t.last_logged > 0 then begin
    let now = Clock.now (pclock t) in
    let store = Group.store t.primary in
    (* Catch-up: a window of one frame, the cumulative delta from the
       standby's last acked epoch, or the full checkpoint stream (base 0)
       when it never acked anything or the primary has pruned that epoch
       (an evicted standby pins nothing).  A full frame stages every
       object over whatever the standby holds.  The verified ack that
       empties the window covers the whole gap and returns the standby to
       normal window shipping. *)
    let base =
      if List.mem sb.sb_acked (Store.checkpoint_epochs store) then sb.sb_acked else 0
    in
    match Migrate.frame ~store ~base ~epoch:t.last_logged with
    | Error msg -> failwith ("Replica_set.rejoin: " ^ msg)
    | Ok (frame, bytes) ->
        let inf =
          {
            if_epoch = t.last_logged;
            if_frame = frame;
            if_bytes = bytes;
            if_attempts = 1;
            if_deadline = now + base_timeout frame;
          }
        in
        sb.sb_health <- Rejoining;
        sb.sb_consec_timeouts <- 0;
        sb.sb_inflight <- [ inf ];
        sb.sb_next <- t.log_len;
        t.st_rejoins <- t.st_rejoins + 1;
        if Otrace.is_on () then
          Otrace.instant ~cat:"rset" "rejoin"
            ~args:
              [
                ("standby", Otrace.Int i);
                ("base", Otrace.Int base);
                ("target", Otrace.Int t.last_logged);
              ];
        transmit_frame t sb ~now ~retransmit:false inf
  end

(* Introspection --------------------------------------------------------- *)

type standby_view = {
  sv_idx : int;
  sv_health : health;
  sv_dead : bool;
  sv_acked_epoch : int;
  sv_installed_epoch : int;
  sv_lag_epochs : int;
  sv_lag_bytes : int;
  sv_window_occupancy : int;
  sv_consec_timeouts : int;
  sv_retransmits : int;
  sv_timeouts : int;
  sv_dup_acks : int;
  sv_verify_rejects : int;
  sv_shipped_bytes : int;
  sv_prunes : int;
}

let view t i =
  check_idx t i;
  let sb = t.standbys.(i) in
  {
    sv_idx = i;
    sv_health = sb.sb_health;
    sv_dead = sb.sb_dead;
    sv_acked_epoch = sb.sb_acked;
    sv_installed_epoch = sb.sb_rcv_epoch;
    sv_lag_epochs = t.log_len - sb.sb_acked_log;
    sv_lag_bytes = t.log_bytes - sb.sb_acked_log_bytes;
    sv_window_occupancy = List.length sb.sb_inflight;
    sv_consec_timeouts = sb.sb_consec_timeouts;
    sv_retransmits = sb.sb_retransmits;
    sv_timeouts = sb.sb_timeouts;
    sv_dup_acks = sb.sb_dup_acks;
    sv_verify_rejects = sb.sb_verify_rejects;
    sv_shipped_bytes = sb.sb_acked_bytes;
    sv_prunes = sb.sb_prunes;
  }

let views t = List.init (Array.length t.standbys) (view t)

let stats t =
  let sum sel = Array.fold_left (fun a sb -> a + sel sb) 0 t.standbys in
  {
    rs_epochs_logged = t.log_len;
    rs_acked_total = t.st_acked_total;
    rs_attempts = t.st_attempts;
    rs_retransmits = sum (fun sb -> sb.sb_retransmits);
    rs_timeouts = sum (fun sb -> sb.sb_timeouts);
    rs_dup_acks = sum (fun sb -> sb.sb_dup_acks);
    rs_verify_rejects = sum (fun sb -> sb.sb_verify_rejects);
    rs_evictions = t.st_evictions;
    rs_rejoins = t.st_rejoins;
    rs_released_msgs = t.st_released;
    rs_primary_prunes = t.st_prunes;
  }

(* Election and failover ------------------------------------------------- *)

type vote = {
  vt_idx : int;
  vt_primary_epoch : int;
  vt_standby_epoch : int;
}

type election_report = {
  el_votes : vote list;
  el_winner : int;
  el_source_epoch : int;
  el_dropped_msgs : int;
  el_downtime_ns : int;
  el_restore : Restore.verified;
}

(* A survivor's vote: the newest local epoch that passes manifest
   verification and whose primary-epoch correspondence the shipping
   layer remembers.  Verification happens before voting so a survivor
   with a corrupt newest epoch advertises what it can actually serve;
   the vote keeps what it verified, so the winner restores from it. *)
let vote_of sb =
  match
    Restore.check_newest ~store:sb.sb_store
      ~eligible:(fun e -> List.mem_assoc e sb.sb_installed)
      ()
  with
  | Error _ -> None
  | Ok checked ->
      let e = Restore.checked_epoch checked in
      Some
        ( { vt_idx = sb.sb_idx; vt_primary_epoch = List.assoc e sb.sb_installed;
            vt_standby_epoch = e },
          checked )

let elect_and_failover t ~survivors ~machine =
  List.iter (check_idx t) survivors;
  let clk = machine.Machine.clock in
  let live =
    List.filter (fun i -> not t.standbys.(i).sb_dead) (List.sort_uniq compare survivors)
  in
  let store_clocks = List.map (fun i -> Store.clock t.standbys.(i).sb_store) live in
  let t0 = Clock.now clk and s0 = List.map Clock.now store_clocks in
  (* One round: the request goes to every live survivor at once, and
     each verifies its vote on its own store's clock, in parallel. *)
  if live <> [] then Clock.advance clk (Link.rtt ~bytes:64);
  let ballots = List.filter_map (fun i -> vote_of t.standbys.(i)) live in
  match
    List.sort
      (fun (a, _) (b, _) ->
        match compare b.vt_primary_epoch a.vt_primary_epoch with
        | 0 -> compare a.vt_idx b.vt_idx
        | c -> c)
      ballots
  with
  | [] -> Error "election: no survivor holds a verified epoch"
  | (winner, checked) :: _ -> (
      let votes = List.map fst ballots in
      if Otrace.is_on () then
        Otrace.instant ~cat:"rset" "elect"
          ~args:
            [
              ("winner", Otrace.Int winner.vt_idx);
              ("epoch", Otrace.Int winner.vt_primary_epoch);
              ("votes", Otrace.Int (List.length votes));
            ];
      let sb = t.standbys.(winner.vt_idx) in
      match Restore.restore_verified ~machine ~store:sb.sb_store ~checked () with
      | Error e -> Error ("election restore: " ^ Restore.pp_restore_error e)
      | Ok v ->
          let source =
            match List.assoc_opt v.Restore.vr_epoch sb.sb_installed with
            | Some pe -> pe
            | None -> 0
          in
          (* Messages buffered for the discarded window were never
             released (release stops at quorum_epoch <= source); drop
             them now so they never escape. *)
          let dropped =
            match t.outbox with
            | None -> 0
            | Some outbox ->
                if source > 0 then Extsync.drop_after outbox ~epoch:source
                else Extsync.drop_all outbox
          in
          (* The takeover waits for the slowest vote, then restores. *)
          let slowest =
            List.fold_left2 (fun m c s -> max m (Clock.now c - s)) 0 store_clocks s0
          in
          Ok
            {
              el_votes = votes;
              el_winner = winner.vt_idx;
              el_source_epoch = source;
              el_dropped_msgs = dropped;
              el_downtime_ns = Clock.now clk - t0 + slowest;
              el_restore = v;
            })

(* Byte-identity of two checkpoints -------------------------------------- *)

let stores_identical ~src ~src_epoch ~dst ~dst_epoch =
  let a = Store.objects_at src ~epoch:src_epoch
  and b = Store.objects_at dst ~epoch:dst_epoch in
  List.length a = List.length b
  && List.for_all2
       (fun (oa, ka) (ob, kb) ->
         oa = ob && ka = kb
         && Store.read_meta src ~epoch:src_epoch ~oid:oa
            = Store.read_meta dst ~epoch:dst_epoch ~oid:ob
         && Store.page_crcs src ~epoch:src_epoch ~oid:oa
            = Store.page_crcs dst ~epoch:dst_epoch ~oid:ob)
       a b

(* Live migration -------------------------------------------------------- *)

type migration_report = {
  mig_rounds : int;
  mig_precopy_bytes : int;
  mig_final_bytes : int;
  mig_downtime_ns : int;
  mig_total_ns : int;
  mig_source_epoch : int;
  mig_identical : bool;
}

(* Pre-copy rounds stop after [migrate_max_rounds], or once a round's
   delta falls below [migrate_stop_ratio] of the first full stream. *)
let migrate_max_rounds = 8
let migrate_stop_ratio = 0.1

let migrate_live ?link ~primary ~target_store ~machine ~workload () =
  let link =
    match link with Some l -> l | None -> Link.create ~name:"migrate" ()
  in
  let t =
    create ~primary ~standbys:[ (target_store, link) ] ()
  in
  let clk = pclock t in
  let t_begin = Clock.now clk in
  Otrace.with_span ~cat:"rset" ~name:"migrate"
    ~args:[ ("max_rounds", Otrace.Int migrate_max_rounds) ]
  @@ fun () ->
  (* Pre-copy: the service keeps running (the workload mutates between
     rounds, modeling execution concurrent with the previous round's
     shipment); each round checkpoints and pipelines the delta. *)
  let first_bytes = ref 0 in
  let precopy = ref 0 in
  let rounds = ref 0 in
  (try
     for r = 1 to migrate_max_rounds do
       rounds := r;
       workload r;
       ignore (Group.checkpoint ~wait_durable:true primary);
       let before = (view t 0).sv_shipped_bytes in
       ship t;
       if not (drain t `All) then raise Exit;
       let shipped = (view t 0).sv_shipped_bytes - before in
       if r = 1 then first_bytes := max 1 shipped;
       precopy := !precopy + shipped;
       (* Converged: the last delta is a small fraction of the full
          stream, so the stop-and-copy tail will be short. *)
       if r > 1 && float_of_int shipped < migrate_stop_ratio *. float_of_int !first_bytes
       then raise Exit
     done
   with Exit -> ());
  let sb = t.standbys.(0) in
  if sb.sb_health = Evicted then
    Error "migration: target evicted during pre-copy"
  else begin
    (* Cut-over: the workload stops here; everything after this instant
       is downtime until the target machine is restored. *)
    let t_stop = Clock.now clk in
    ignore (Group.checkpoint ~wait_durable:true primary);
    let before = (view t 0).sv_shipped_bytes in
    ship t;
    if not (drain t `All) then Error "migration: final delta never acked"
    else begin
      let final_bytes = (view t 0).sv_shipped_bytes - before in
      match Restore.restore_verified ~machine ~store:target_store () with
      | Error e -> Error ("migration restore: " ^ Restore.pp_restore_error e)
      | Ok v ->
          let source =
            match List.assoc_opt v.Restore.vr_epoch sb.sb_installed with
            | Some pe -> pe
            | None -> 0
          in
          let downtime =
            Clock.now clk - t_stop + v.Restore.vr_result.Restore.restore_ns
          in
          let identical =
            source > 0
            && stores_identical ~src:(Group.store primary) ~src_epoch:source
                 ~dst:target_store ~dst_epoch:v.Restore.vr_epoch
          in
          if Otrace.is_on () then
            Otrace.instant ~cat:"rset" "cutover"
              ~args:
                [
                  ("downtime_ns", Otrace.Int downtime);
                  ("source_epoch", Otrace.Int source);
                ];
          Ok
            {
              mig_rounds = !rounds;
              mig_precopy_bytes = !precopy;
              mig_final_bytes = final_bytes;
              mig_downtime_ns = downtime;
              mig_total_ns = Clock.now clk - t_begin;
              mig_source_epoch = source;
              mig_identical = identical;
            }
    end
  end
