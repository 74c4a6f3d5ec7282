(* The shared surface of the bench commands: run modes, one column list
   per A/B table that both prints the text table and writes the rows of
   BENCH_<name>.json, and the gate line every acceptance check prints.

   A command declares each column once — header, JSON key and a typed
   cell — so the table and the file cannot drift apart.  Commands return
   their failed gates instead of exiting; [main.exe] exits 1 after the
   last command, so one failing gate never hides a later one. *)

module Text_table = Aurora_util.Text_table
module Units = Aurora_util.Units

(* [Full] is the committed sweep (the only mode that writes files);
   [Fast]/[Deep] are the torture depths; a seedless [Deep] takes the
   command's default seed. *)
type mode = Full | Smoke | Fast | Deep of int option

(* Raised by a command handed a mode it has no run for. *)
exception Usage

type cell =
  | Ns of float  (** virtual nanoseconds *)
  | Bytes of float
  | Num of int * float  (** a ratio, index or mean at [d] decimals *)
  | Count of int
  | Percent of float  (** a fraction: the table shows 25%, the file 0.2500 *)
  | Str of string
  | Bool of bool

(* Header, JSON key, cell. *)
type 'a column = string * string * ('a -> cell)

let text = function
  | Ns x -> Units.ns_to_string (int_of_float x)
  | Bytes x -> Units.bytes_to_string (int_of_float x)
  | Num (d, x) -> Printf.sprintf "%.*f" d x
  | Count n -> string_of_int n
  | Percent x -> Printf.sprintf "%.0f%%" (x *. 100.0)
  | Str s -> s
  | Bool b -> string_of_bool b

(* Keys and string cells are plain ASCII names, which %S quotes exactly
   as JSON does. *)
let json = function
  | Ns x | Bytes x -> Printf.sprintf "%.0f" x
  | Percent x -> Printf.sprintf "%.4f" x
  | Str s -> Printf.sprintf "%S" s
  | c -> text c

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

(* The worst (smallest) [f] over [rows]: what a ">= bound" gate checks. *)
let worst f rows = List.fold_left (fun acc r -> Float.min acc (f r)) infinity rows

(* Print [rows] as a table; a full run also writes them, plus the
   top-level [extra] fields, to [file]. *)
let emit mode ~bench ~file ?(extra = []) (columns : 'a column list) rows =
  let table = Text_table.create ~header:(List.map (fun (h, _, _) -> h) columns) in
  List.iter
    (fun r -> Text_table.add_row table (List.map (fun (_, _, f) -> text (f r)) columns))
    rows;
  Text_table.print table;
  print_newline ();
  if mode = Full then begin
    let row r =
      List.map (fun (_, k, f) -> Printf.sprintf "%S: %s" k (json (f r))) columns
      |> String.concat ", "
    in
    let oc = open_out file in
    Printf.fprintf oc "{\n  \"bench\": %S,\n" bench;
    List.iter (fun (k, c) -> Printf.fprintf oc "  %S: %s,\n" k (json c)) extra;
    Printf.fprintf oc "  \"configs\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" (List.map (fun r -> "    {" ^ row r ^ "}") rows));
    close_out oc;
    Printf.printf "wrote %s\n" file
  end

(* Acceptance checks, each [(what, value, need, ok)]: prints one
   [gate <command>: <what> <value> (need <bound>) OK|FAIL] line per check,
   in order, and returns the failed ones. *)
let gates command checks =
  List.concat_map
    (fun (what, value, need, ok) ->
      let line = Printf.sprintf "gate %s: %s %s (need %s)" command what (text value) need in
      Printf.printf "%s %s\n%!" line (if ok then "OK" else "FAIL");
      if ok then [] else [ line ])
    checks
