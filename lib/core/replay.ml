module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Store = Aurora_objstore.Store
module Wire = Aurora_objstore.Wire

type entry = Recv_msg of int * string | Clock_read of int

let entry_codec =
  Wire.Codec.(
    tagged "replay entry kind"
      [
        case 0 (pair u32 str)
          (fun (fd, payload) -> Recv_msg (fd, payload))
          (function Recv_msg (fd, payload) -> Some (fd, payload) | _ -> None);
        case 1 u64 (fun v -> Clock_read v) (function Clock_read v -> Some v | _ -> None);
      ])

module Recorder = struct
  type t = {
    group : Group.t;
    journal : Api.journal;
    mutable since_checkpoint : int;
  }

  let attach group =
    {
      group;
      journal = Api.sls_journal_open group ~size:(4 * 1024 * 1024);
      since_checkpoint = 0;
    }

  let log t e =
    if Aurora_obs.Trace.is_on () then
      Aurora_obs.Trace.instant ~cat:"replay" "record"
        ~args:
          [
            ( "kind",
              Aurora_obs.Trace.Str
                (match e with Recv_msg _ -> "recv_msg" | Clock_read _ -> "clock_read") );
          ];
    Api.sls_journal t.group t.journal (Wire.to_string entry_codec e);
    t.since_checkpoint <- t.since_checkpoint + 1

  let recv_msg t p ~fd =
    let machine = Group.machine t.group in
    match Syscall.recv_msg machine p ~fd with
    | Some (payload, _fds) ->
        log t (Recv_msg (fd, payload));
        Some payload
    | None -> None

  let read_clock t =
    let v = Clock.now (Group.clock t.group) in
    log t (Clock_read v);
    v

  let on_checkpoint t =
    if Aurora_obs.Trace.is_on () then
      Aurora_obs.Trace.instant ~cat:"replay" "truncate"
        ~args:[ ("entries", Aurora_obs.Trace.Int t.since_checkpoint) ];
    Api.sls_journal_truncate t.group t.journal;
    t.since_checkpoint <- 0

  let log_length t = t.since_checkpoint
  let journal_id t = Api.journal_id t.journal
end

let recover ~store ~journal_id =
  match Store.journal_find store journal_id with
  | None -> []
  | Some j -> List.map (Wire.of_string entry_codec) (Store.journal_records store j)

module Replayer = struct
  type t = { mutable entries : entry list }

  let create entries = { entries }

  let recv_msg t ~fd =
    (* Re-execution is deterministic, so the next receive on [fd] is the
       next Recv_msg entry for it. *)
    let rec take acc = function
      | [] -> None
      | Recv_msg (f, payload) :: rest when f = fd ->
          t.entries <- List.rev_append acc rest;
          Some payload
      | other :: rest -> take (other :: acc) rest
    in
    take [] t.entries

  let read_clock t =
    let rec take acc = function
      | [] -> None
      | Clock_read v :: rest ->
          t.entries <- List.rev_append acc rest;
          Some v
      | other :: rest -> take (other :: acc) rest
    in
    take [] t.entries

  let remaining t = List.length t.entries
end
