module Fault = Aurora_block.Fault
module Rng = Aurora_util.Rng

(* Crash exactly at a device-submission boundary: the [index]-th global
   submission (1-based) is about to be issued when Crash_point fires, so
   nothing of it — or anything after it — reaches the device. *)
let crash_at ~index =
  let f = Fault.create () in
  f.Fault.on_write <-
    (fun (info : Fault.write_info) ->
      if info.w_index >= index then
        raise (Fault.Crash_point { index = info.w_index; now = info.w_now });
      Fault.Land);
  f

(* Observe-only handler: records each submission's acknowledged completion
   time, indexed by the shared 1-based submission counter. *)
let counting () =
  let timeline : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let f = Fault.create () in
  f.Fault.on_complete <-
    (fun (info : Fault.write_info) ~completion ->
      Hashtbl.replace timeline info.w_index completion);
  (f, timeline)

type profile = {
  p_drop : float;  (** acknowledged write silently lost *)
  p_torn : float;  (** only a prefix of the submission lands *)
  p_delay : float;  (** durability lags the acknowledged completion *)
  max_delay_ns : int;
  p_read_fail : float;  (** charged read raises [Fault.Io_error] *)
  p_flip : float;  (** charged read returns corrupted bytes *)
}

let no_faults =
  {
    p_drop = 0.;
    p_torn = 0.;
    p_delay = 0.;
    max_delay_ns = 0;
    p_read_fail = 0.;
    p_flip = 0.;
  }

let read_errors_profile p = { no_faults with p_read_fail = p }
let write_loss_profile p = { no_faults with p_drop = p /. 2.; p_torn = p /. 2. }

let random ~seed profile =
  let wrng = Rng.create seed in
  let rrng = Rng.create (seed lxor 0x5deece66d) in
  let f = Fault.create () in
  f.Fault.on_write <-
    (fun (info : Fault.write_info) ->
      let roll = Rng.float wrng 1.0 in
      if roll < profile.p_drop then Fault.Drop
      else if roll < profile.p_drop +. profile.p_torn then
        (* Tear inside the submission: extents keep a strict prefix of
           their segments, plain writes a prefix of whole sectors. *)
        Fault.Torn
          (if info.w_segments > 1 then Rng.int wrng info.w_segments
           else Rng.int wrng (max 1 (info.w_len / 4096)))
      else if
        roll < profile.p_drop +. profile.p_torn +. profile.p_delay
        && profile.max_delay_ns > 0
      then Fault.Delay (Rng.int_in wrng 1 profile.max_delay_ns)
      else Fault.Land);
  f.Fault.on_read <-
    (fun (info : Fault.read_info) ->
      let roll = Rng.float rrng 1.0 in
      if roll < profile.p_read_fail then Fault.Fail
      else if roll < profile.p_read_fail +. profile.p_flip then
        Fault.Flip [ Rng.int rrng (max 1 info.r_len) ]
      else Fault.Clean);
  f
