module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Resource = Aurora_sim.Resource
module Otrace = Aurora_obs.Trace

type t = { devs : Device.t array; stripe : int }

let create ?(devices = Cost.nvme_stripe_devices) ?(stripe = Cost.nvme_stripe_size)
    () =
  assert (devices > 0 && stripe > 0);
  let devs =
    Array.init devices (fun i -> Device.create ~name:(Printf.sprintf "nvme%d" i))
  in
  { devs; stripe }

(* Split [off, off+len) into per-device fragments on stripe boundaries and
   apply [f dev dev_off frag_off frag_len] to each. *)
let iter_fragments t ~off ~len f =
  let n = Array.length t.devs in
  let pos = ref off in
  let remaining = ref len in
  while !remaining > 0 do
    let stripe_idx = !pos / t.stripe in
    let within = !pos mod t.stripe in
    let frag_len = min !remaining (t.stripe - within) in
    let dev = t.devs.(stripe_idx mod n) in
    (* The device-local offset places consecutive stripes of this device
       contiguously, as a RAID-0 layout does. *)
    let dev_off = ((stripe_idx / n) * t.stripe) + within in
    f dev dev_off (!pos - off) frag_len;
    pos := !pos + frag_len;
    remaining := !remaining - frag_len
  done

(* A fragment of a [charge]-sized logical extent carries whatever slice of
   the (possibly shorter) payload overlaps it; devices are charged for the
   full logical fragment. *)
let payload_slice data frag_off frag_len =
  let avail = Bytes.length data - frag_off in
  if avail <= 0 then Bytes.empty else Bytes.sub data frag_off (min avail frag_len)

let write ?charge t ~now ~off data =
  let len = max (Bytes.length data) (match charge with Some c -> c | None -> 0) in
  let completion = ref now in
  iter_fragments t ~off ~len (fun dev dev_off frag_off frag_len ->
      let frag = payload_slice data frag_off frag_len in
      let c = Device.write ~charge:frag_len dev ~now ~off:dev_off frag in
      if c > !completion then completion := c);
  !completion

(* Vectored extent write: one queued submission per member device for the
   whole logical range [off, off+len).  In the RAID-0 layout consecutive
   stripes of one device are device-contiguous, so any extent maps to at
   most one contiguous range per device — a 40 MiB extent costs 4 device
   submissions, not 10k block writes. *)
let write_vec t ~now ~off ~len segments =
  if len <= 0 then now
  else begin
    if Otrace.is_on () then
      Otrace.instant ~cat:"blk" "write_vec"
        ~args:
          [
            ("off", Otrace.Int off);
            ("len", Otrace.Int len);
            ("segments", Otrace.Int (Array.length segments));
          ];
    let n = Array.length t.devs in
    (* The flush pipeline hands us segments already in ascending order;
       only sort (on a copy) when a caller didn't. *)
    let sorted = ref true in
    Array.iteri
      (fun i (o, _) -> if i > 0 && fst segments.(i - 1) > o then sorted := false)
      segments;
    let segs =
      if !sorted then segments
      else begin
        let c = Array.copy segments in
        Array.sort (fun (a, _) (b, _) -> compare a b) c;
        c
      end
    in
    let dstart = Array.make n (-1) in
    let dend = Array.make n 0 in
    let dsegs = Array.make n [] in
    let cursor = ref 0 in
    let pos = ref off and remaining = ref len in
    while !remaining > 0 do
      let stripe_idx = !pos / t.stripe in
      let within = !pos mod t.stripe in
      let frag_len = min !remaining (t.stripe - within) in
      let d = stripe_idx mod n in
      let dev_off = ((stripe_idx / n) * t.stripe) + within in
      let frag_off = !pos - off in
      let frag_end = frag_off + frag_len in
      if dstart.(d) < 0 then dstart.(d) <- dev_off;
      dend.(d) <- dev_off + frag_len;
      (* Fragments and segments are both walked in ascending order: slice
         every segment overlapping this fragment, advancing the shared
         cursor past fully consumed ones. *)
      let c = ref !cursor in
      let scanning = ref true in
      while !scanning && !c < Array.length segs do
        let rel, data = segs.(!c) in
        let seg_end = rel + Bytes.length data in
        if seg_end <= frag_off then begin
          incr c;
          cursor := !c
        end
        else if rel >= frag_end then scanning := false
        else begin
          let s = max rel frag_off and e = min seg_end frag_end in
          if e > s then
            dsegs.(d) <-
              (dev_off + (s - frag_off), Bytes.sub data (s - rel) (e - s))
              :: dsegs.(d);
          if seg_end <= frag_end then begin
            incr c;
            cursor := !c
          end
          else scanning := false
        end
      done;
      pos := !pos + frag_len;
      remaining := !remaining - frag_len
    done;
    let completion = ref now in
    for d = 0 to n - 1 do
      if dstart.(d) >= 0 then begin
        let doff = dstart.(d) in
        let dlen = dend.(d) - doff in
        let local = List.rev_map (fun (o, b) -> (o - doff, b)) dsegs.(d) in
        let c = Device.submit_extent t.devs.(d) ~now ~off:doff ~len:dlen local in
        if c > !completion then completion := c
      end
    done;
    !completion
  end

(* Priority-lane write (see Device.write_priority): fragments share the
   caller-supplied completion. *)
let write_priority t ~now ~off data ~completion =
  iter_fragments t ~off ~len:(Bytes.length data) (fun dev dev_off frag_off frag_len ->
      let frag = payload_slice data frag_off frag_len in
      ignore (Device.write_priority dev ~now ~off:dev_off frag ~completion));
  completion

(* Every fragment of every range is queued at the same instant, so the
   member devices work in parallel while each serialises its own
   transfers.  Nothing waits: each range is collected as soon as its
   fragments are queued (collecting moves no queue and no clock, so the
   batch reads as if every range were queued first), fragment by
   fragment, fails at its first failed fragment, and carries the
   completion of its last fragment. *)
let submit_vec t ~now ranges =
  if Otrace.is_on () && Array.length ranges > 1 then
    Otrace.instant ~cat:"blk" "read_vec"
      ~args:
        [
          ("ranges", Otrace.Int (Array.length ranges));
          ("bytes", Otrace.Int (Array.fold_left (fun a (_, len) -> a + len) 0 ranges));
        ];
  Array.map
    (fun (off, len) ->
      let out = ref Bytes.empty and arrival = ref now and err = ref None in
      iter_fragments t ~off ~len (fun dev dev_off frag_off frag_len ->
          let completion = Device.submit_read dev ~now ~off:dev_off ~len:frag_len in
          arrival := max !arrival completion;
          if !err = None then
            match Device.collect_read dev ~completion ~off:dev_off ~len:frag_len with
            | Ok frag when frag_len = len -> out := frag
            | Ok frag ->
                if Bytes.length !out = 0 then out := Bytes.make len '\000';
                Bytes.blit frag 0 !out frag_off frag_len
            | Error msg -> err := Some msg);
      (!arrival, match !err with None -> Ok !out | Some msg -> Error msg))
    ranges

let read_nocharge t ~off ~len =
  let out = Bytes.make len '\000' in
  iter_fragments t ~off ~len (fun dev dev_off frag_off frag_len ->
      let frag = Device.read_nocharge dev ~off:dev_off ~len:frag_len in
      Bytes.blit frag 0 out frag_off frag_len);
  out

(* Each stripe fragment is discarded on its member device; the store
   discards whole blocks, which never straddle a stripe. *)
let discard t ~now ~off ~len =
  iter_fragments t ~off ~len (fun dev dev_off _ frag_len ->
      Device.discard dev ~now ~off:dev_off ~len:frag_len)

let settle t ~clock = Array.iter (fun d -> Device.settle d ~clock) t.devs

let apply_durable t ~now = Array.iter (fun d -> Device.apply_durable d ~now) t.devs
let crash t ~now = Array.iter (fun d -> Device.crash d ~now) t.devs

(* One handler shared by every member device: the submission counter is
   global, so an index names a boundary of the whole array. *)
let set_fault t f = Array.iter (fun d -> Device.set_fault d f) t.devs

(* One (arbiter, tenant) pair shared by every member device: each
   fragment's bytes occupy the shared lane, so an extent spanning the
   array charges the lane exactly once per byte. *)
let set_arbiter t a = Array.iter (fun d -> Device.set_arbiter d a) t.devs

let image_magic = "AURIMAGE"

let save_file t ~clock path =
  settle t ~clock;
  let oc = open_out_bin path in
  output_string oc image_magic;
  output_binary_int oc (Array.length t.devs);
  output_binary_int oc t.stripe;
  (* The virtual clock continues across invocations, like wall time. *)
  output_string oc (Printf.sprintf "%020d" (Clock.now clock));
  Array.iter
    (fun d ->
      let sectors = Device.export_sectors d in
      output_binary_int oc (List.length sectors);
      List.iter
        (fun (idx, sector) ->
          output_binary_int oc idx;
          output_binary_int oc (Bytes.length sector);
          output_bytes oc sector)
        sectors)
    t.devs;
  close_out oc

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let magic = really_input_string ic (String.length image_magic) in
      if magic <> image_magic then failwith "Striped.load_file: not a machine image";
      let devices = input_binary_int ic in
      let stripe = input_binary_int ic in
      let saved_time = int_of_string (really_input_string ic 20) in
      let t = create ~devices ~stripe () in
      Array.iter
        (fun d ->
          let n = input_binary_int ic in
          let sectors =
            List.init n (fun _ ->
                let idx = input_binary_int ic in
                let len = input_binary_int ic in
                let sector = Bytes.create len in
                really_input ic sector 0 len;
                (idx, sector))
          in
          Device.import_sectors d sectors)
        t.devs;
      (t, saved_time))

let sum f t = Array.fold_left (fun acc d -> acc + f d) 0 t.devs
let sectors_held t = sum Device.sectors_held t
let bytes_held t = sum Device.bytes_held t
let bytes_written t = sum Device.bytes_written t
let bytes_read t = sum Device.bytes_read t
let write_ops t = sum Device.write_ops t
let reset_stats t = Array.iter Device.reset_stats t.devs
