module Clock = Aurora_sim.Clock

type arg = Int of int | Str of string
type phase = Begin | End | Instant | Complete | Counter

type event = {
  ev_ts : int;
  ev_dur : int;
  ev_ph : phase;
  ev_cat : string;
  ev_name : string;
  ev_args : (string * arg) list;
}

type st = {
  clock : Clock.t;
  buf : event array;
  mutable head : int;  (* index of the oldest buffered event *)
  mutable len : int;
  mutable dropped : int;
}

(* The singleton: [None] means disabled, and every recording entry point
   is a single match on this ref. *)
let state : st option ref = ref None

let null_event =
  { ev_ts = 0; ev_dur = 0; ev_ph = Instant; ev_cat = ""; ev_name = ""; ev_args = [] }

let enable ?(capacity = 65536) ~clock () =
  state :=
    Some
      {
        clock;
        buf = Array.make (Stdlib.max 1 capacity) null_event;
        head = 0;
        len = 0;
        dropped = 0;
      }

let disable () = state := None
let is_on () = match !state with None -> false | Some _ -> true

let push st ev =
  let cap = Array.length st.buf in
  if st.len = cap then begin
    st.buf.(st.head) <- ev;
    st.head <- (st.head + 1) mod cap;
    st.dropped <- st.dropped + 1
  end
  else begin
    st.buf.((st.head + st.len) mod cap) <- ev;
    st.len <- st.len + 1
  end

let with_span ?(args = []) ?end_args ~cat ~name f =
  match !state with
  | None -> f ()
  | Some st ->
      push st
        {
          ev_ts = Clock.now st.clock;
          ev_dur = 0;
          ev_ph = Begin;
          ev_cat = cat;
          ev_name = name;
          ev_args = args;
        };
      let finish args =
        push st
          {
            ev_ts = Clock.now st.clock;
            ev_dur = 0;
            ev_ph = End;
            ev_cat = cat;
            ev_name = name;
            ev_args = args;
          }
      in
      (match f () with
      | v ->
          finish (match end_args with Some g -> g v | None -> []);
          v
      | exception e ->
          finish [];
          raise e)

let instant ?ts ?(args = []) ~cat name =
  match !state with
  | None -> ()
  | Some st ->
      let ts = match ts with Some t -> t | None -> Clock.now st.clock in
      push st
        { ev_ts = ts; ev_dur = 0; ev_ph = Instant; ev_cat = cat; ev_name = name; ev_args = args }

let complete ~ts ~dur ?(args = []) ~cat name =
  match !state with
  | None -> ()
  | Some st ->
      push st
        { ev_ts = ts; ev_dur = dur; ev_ph = Complete; ev_cat = cat; ev_name = name; ev_args = args }

let counter ?ts ~cat ~name v =
  match !state with
  | None -> ()
  | Some st ->
      let ts = match ts with Some t -> t | None -> Clock.now st.clock in
      push st
        {
          ev_ts = ts;
          ev_dur = 0;
          ev_ph = Counter;
          ev_cat = cat;
          ev_name = name;
          ev_args = [ ("value", Int v) ];
        }

let events () =
  match !state with
  | None -> []
  | Some st ->
      let cap = Array.length st.buf in
      List.init st.len (fun i -> st.buf.((st.head + i) mod cap))

let dropped () = match !state with None -> 0 | Some st -> st.dropped

let spans name events =
  let found = ref [] and stack = ref [] in
  List.iter
    (fun e ->
      match e.ev_ph with
      | Begin -> stack := (e.ev_name, e.ev_ts) :: !stack
      | End -> (
          match !stack with
          | (n, t) :: rest ->
              stack := rest;
              if n = name then found := (t, e.ev_ts - t) :: !found
          | [] -> ())
      | _ -> ())
    events;
  List.rev !found

let reset () =
  match !state with
  | None -> ()
  | Some st ->
      st.head <- 0;
      st.len <- 0;
      st.dropped <- 0

(* ---- export ---- *)

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let ph_letter = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"
  | Complete -> "X"
  | Counter -> "C"

let json_args b args =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      json_escape b k;
      Buffer.add_string b "\":";
      match v with
      | Int n -> Buffer.add_string b (string_of_int n)
      | Str s ->
          Buffer.add_char b '"';
          json_escape b s;
          Buffer.add_char b '"')
    args;
  Buffer.add_char b '}'

let export_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "{\"ph\":\"";
      Buffer.add_string b (ph_letter ev.ev_ph);
      Buffer.add_string b "\",\"ts\":";
      Buffer.add_string b (string_of_int ev.ev_ts);
      if ev.ev_ph = Complete then begin
        Buffer.add_string b ",\"dur\":";
        Buffer.add_string b (string_of_int ev.ev_dur)
      end;
      Buffer.add_string b ",\"pid\":1,\"tid\":1,\"cat\":\"";
      json_escape b ev.ev_cat;
      Buffer.add_string b "\",\"name\":\"";
      json_escape b ev.ev_name;
      Buffer.add_string b "\",\"args\":";
      json_args b ev.ev_args;
      Buffer.add_char b '}')
    (events ());
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let text_args b args =
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ' ';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      match v with
      | Int n -> Buffer.add_string b (string_of_int n)
      | Str s -> Buffer.add_string b s)
    args

let export_text () =
  let b = Buffer.create 4096 in
  let indent d =
    for _ = 1 to d do
      Buffer.add_string b "  "
    done
  in
  let depth = ref 0 in
  let stack = ref [] in
  List.iter
    (fun ev ->
      match ev.ev_ph with
      | Begin ->
          Printf.bprintf b "@%-12d " ev.ev_ts;
          indent !depth;
          Printf.bprintf b "> %s:%s" ev.ev_cat ev.ev_name;
          text_args b ev.ev_args;
          Buffer.add_char b '\n';
          stack := ev.ev_ts :: !stack;
          incr depth
      | End ->
          let t0 = match !stack with [] -> ev.ev_ts | t :: rest -> stack := rest; t in
          depth := Stdlib.max 0 (!depth - 1);
          Printf.bprintf b "@%-12d " ev.ev_ts;
          indent !depth;
          Printf.bprintf b "< %s:%s dur=%d" ev.ev_cat ev.ev_name (ev.ev_ts - t0);
          text_args b ev.ev_args;
          Buffer.add_char b '\n'
      | Instant ->
          Printf.bprintf b "@%-12d " ev.ev_ts;
          indent !depth;
          Printf.bprintf b "! %s:%s" ev.ev_cat ev.ev_name;
          text_args b ev.ev_args;
          Buffer.add_char b '\n'
      | Complete ->
          Printf.bprintf b "@%-12d " ev.ev_ts;
          indent !depth;
          Printf.bprintf b "* %s:%s dur=%d" ev.ev_cat ev.ev_name ev.ev_dur;
          text_args b ev.ev_args;
          Buffer.add_char b '\n'
      | Counter ->
          Printf.bprintf b "@%-12d " ev.ev_ts;
          indent !depth;
          Printf.bprintf b "C %s:%s" ev.ev_cat ev.ev_name;
          text_args b ev.ev_args;
          Buffer.add_char b '\n')
    (events ());
  Buffer.contents b
