module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Crc32 = Aurora_util.Crc32
module Rle = Aurora_util.Rle
module Fault = Aurora_block.Fault
module IntMap = Map.Make (Int)
open Store_format

(* What decoding stored bytes gave: a payload with its CRC-32, coded
   bytes that do not decode, or the read's error ([Pending] until a batch
   decodes them). *)
type decoded = Pending | Payload of bytes * int | Undecodable | Unread of string

let payload p stored =
  match if p.p_comp then Rle.decompress ~olen:p.p_olen stored else stored with
  | payload -> Some payload
  | exception Invalid_argument _ -> None

let payload_of p stored =
  match payload p stored with Some b -> Payload (b, Crc32.of_bytes b) | None -> Undecodable

let fault_cluster = 16
let in_window ~span idx i = i / span = idx / span && i / leaf_span = idx / leaf_span

(* A range a page batch read: the first entry naming it, its arrival and
   read, its decode, and whether a page took the decoded buffer. *)
type range = {
  r_entry : leaf_entry;
  r_read : int * (bytes, string) result;
  mutable r_decoded : decoded;
  mutable r_claimed : bool;
}

(* A page read: its object, its leaf entry and its range. *)
type streamed = { s_oid : int; s_entry : leaf_entry; s_range : range }

(* The stored bytes of every [(oid, entries)] object, submitted at [now]
   as one vectored batch without waiting; each object's pages, in order.
   Each distinct stored range is read once and decoded once. *)
let submit_pages ~submit ~now objects =
  let n = List.fold_left (fun n (_, entries) -> n + List.length entries) 0 objects in
  let slots = Hashtbl.create n and ranges = ref [] in
  let slot p =
    let r = (off_of_block p.p_blk + p.p_off, p.p_clen) in
    match Hashtbl.find_opt slots r with
    | Some i -> i
    | None ->
        let i = Hashtbl.length slots in
        Hashtbl.replace slots r i;
        ranges := (r, p) :: !ranges;
        i
  in
  let slotted = List.map (fun (_, entries) -> Array.of_list (List.map slot entries)) objects in
  let reads = Array.of_list (List.rev !ranges) in
  let decoded =
    Array.map2
      (fun (_, r_entry) r_read -> { r_entry; r_read; r_decoded = Pending; r_claimed = false })
      reads (submit ~now (Array.map fst reads))
  in
  List.map2
    (fun (s_oid, entries) slots ->
      List.mapi (fun k s_entry -> { s_oid; s_entry; s_range = decoded.(slots.(k)) }) entries)
    objects slotted

(* Wait for the last arrival of the ranges of [pages] not yet decoded,
   decode them and charge their decompression once, so a range decoded
   before, for any page, costs nothing again. *)
let decode_ranges clk pages =
  let arrival = ref (Clock.now clk) and coded = ref 0 in
  List.iter
    (fun { s_range = r; _ } ->
      if r.r_decoded = Pending then begin
        let p = r.r_entry and at, read = r.r_read in
        r.r_decoded <- (match read with Ok stored -> payload_of p stored | Error msg -> Unread msg);
        arrival := max !arrival at;
        if p.p_comp && Result.is_ok read then coded := !coded + p.p_olen
      end)
    pages;
  Clock.advance_to clk !arrival;
  if !coded > 0 then
    Clock.advance clk (Cost.transfer_time ~bandwidth:Cost.decompress_bandwidth !coded)

(* Page [x]'s payload from its decoded range, checked against its leaf
   CRC, or the exception a demand for it raises. *)
let checked x =
  let p = x.s_entry in
  match x.s_range.r_decoded with
  | Payload (_, crc) when crc <> p.p_crc ->
      Error (Corrupt_store (Printf.sprintf "oid %d page %d payload corrupt" x.s_oid p.p_idx))
  | Payload (payload, _) -> Ok payload
  | Undecodable -> Error (Corrupt_store (Printf.sprintf "page %d: corrupt coded payload" p.p_idx))
  | Unread msg -> Error (Fault.Io_error msg)
  | Pending -> assert false

(* [decode_ranges], then raise the first page's error, taking nothing. *)
let check_pages clk pages =
  decode_ranges clk pages;
  List.iter (fun x -> Result.iter_error raise (checked x)) pages

(* [decode_ranges], then every page of [pages] that checks, in order: the
   first to take a range gets its decoded buffer, every other a copy, so
   no two pages share one.  A [demanded] page raises for its read
   ([Fault.Io_error]) or its payload ([Corrupt_store]); any other that
   fails is left out, to fail the call that demands it. *)
let decode_pages clk ~demanded pages =
  decode_ranges clk pages;
  List.filter_map
    (fun x ->
      let r = x.s_range in
      match checked x with
      | Ok payload when r.r_claimed -> Some (x.s_entry.p_idx, Bytes.copy payload)
      | Ok payload ->
          r.r_claimed <- true;
          Some (x.s_entry.p_idx, payload)
      | Error e when demanded x.s_entry.p_idx -> raise e
      | Error _ -> None)
    pages

let read_window ~submit clk ~oid ~idx ~span entries =
  if not (List.exists (fun p -> p.p_idx = idx) entries) then []
  else
    let window = List.filter (fun p -> in_window ~span idx p.p_idx) entries in
    decode_pages clk ~demanded:(( = ) idx)
      (List.concat (submit_pages ~submit ~now:(Clock.now clk) [ (oid, window) ]))

let read ~submit clk objects =
  let pages = submit_pages ~submit ~now:(Clock.now clk) objects in
  check_pages clk (List.concat pages);
  List.map (decode_pages clk ~demanded:(fun _ -> true)) pages

(* One object's share: the pages read until a consumer takes them, by
   index, and its unlisted leaves, by leaf index, each with its arrival
   and the error the demand path raises. *)
type share = {
  clk : Clock.t;
  slots : (int, streamed) Hashtbl.t;
  unlisted : (int * exn) IntMap.t;
}

let stream ~submit clk ~now listed objects =
  (* Each object's listed pages, and its unlisted leaves by leaf index. *)
  let objects =
    List.map
      (fun (oid, leaves) ->
        let entries, unlisted =
          IntMap.fold
            (fun leaf blk (entries, unlisted) ->
              match Hashtbl.find listed blk with
              | _, Ok es -> (List.rev_append es entries, unlisted)
              | arrival, Error e -> (entries, IntMap.add leaf (arrival, e) unlisted))
            leaves ([], IntMap.empty)
        in
        ((oid, List.rev entries), unlisted))
      objects
  in
  let now = Hashtbl.fold (fun _ (arrival, _) m -> max m arrival) listed now in
  List.map2
    (fun ((oid, _), unlisted) pages ->
      let slots = Hashtbl.create (List.length pages) in
      List.iter (fun x -> Hashtbl.replace slots x.s_entry.p_idx x) pages;
      (oid, { clk; slots; unlisted }))
    objects
    (submit_pages ~submit ~now (List.map fst objects))

(* Wait for an unlisted leaf's arrival, then raise its error. *)
let fail_unlisted s (arrival, e) =
  Clock.advance_to s.clk arrival;
  raise e

let pager s idx =
  match IntMap.find_opt (idx / leaf_span) s.unlisted with
  | Some u -> fail_unlisted s u
  | None when not (Hashtbl.mem s.slots idx) -> []
  | None ->
      let lo = idx / fault_cluster * fault_cluster in
      let taken =
        decode_pages s.clk
          ~demanded:(( = ) idx)
          (List.filter_map
             (fun i ->
               if in_window ~span:fault_cluster idx i then Hashtbl.find_opt s.slots i else None)
             (List.init fault_cluster (fun k -> lo + k)))
      in
      List.iter (fun (i, _) -> Hashtbl.remove s.slots i) taken;
      taken

let pager_stores s idx = Hashtbl.mem s.slots idx || IntMap.mem (idx / leaf_span) s.unlisted

(* Every page left in [s], by index, once an unlisted leaf has raised. *)
let pages_left s =
  Option.iter (fun (_, u) -> fail_unlisted s u) (IntMap.min_binding_opt s.unlisted);
  List.sort
    (fun x y -> compare x.s_entry.p_idx y.s_entry.p_idx)
    (List.of_seq (Hashtbl.to_seq_values s.slots))

let check s = check_pages s.clk (pages_left s)

let take_all s =
  let pages = decode_pages s.clk ~demanded:(fun _ -> true) (pages_left s) in
  Hashtbl.reset s.slots;
  pages
