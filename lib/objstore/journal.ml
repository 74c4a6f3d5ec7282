module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Resource = Aurora_sim.Resource
module Striped = Aurora_block.Striped
open Store_format

type t = {
  id : int;
  start : int; (* first block *)
  blocks : int;
  mutable head : int option; (* append offset in bytes; None until a recovered one is scanned *)
  mutable gen : int;
      (* truncation generation: records from earlier generations that
         survive beyond the new head are stale and must not be replayed *)
}

type registry = { queue : Resource.t; mutable journals : t list }
type read = off:int -> len:int -> bytes

let registry entries =
  {
    queue = Resource.create ~name:"journal";
    journals =
      List.map (fun (id, start, blocks, gen) -> { id; start; blocks; head = None; gen }) entries;
  }

let entries r = List.map (fun j -> (j.id, j.start, j.blocks, j.gen)) r.journals
let all r = r.journals
let find r id = List.find_opt (fun j -> j.id = id) r.journals
let id j = j.id
let extent j = (j.start, j.blocks)
let capacity j = j.blocks * block_size

let create r ~start ~blocks =
  let j = { id = List.length r.journals + 1; start; blocks; head = Some 0; gen = 0 } in
  r.journals <- r.journals @ [ j ];
  j

(* The records of the current generation from the first byte, and the
   offset just past the last of them.  The journal is read a window at a
   time, one block first and then as much again as has been read, and
   the scan stops once it ends inside what has been read: a near-empty
   journal costs one block's read however large it is. *)
let scan j ~read =
  let cap = capacity j and base = off_of_block j.start in
  (* [data] holds the journal's bytes from [pos] to what has been read. *)
  let rec go acc pos data =
    let r = Wire.reader data in
    let rec next acc =
      let at = pos + Bytes.length data - Wire.remaining r in
      match Wire.read journal_record_codec r with
      | gen, s when gen = j.gen -> next (s :: acc)
      | _ -> (List.rev acc, at)
      | exception Wire.Corrupt _ when Wire.short r && pos + Bytes.length data < cap ->
          let have = pos + Bytes.length data in
          let more = read ~off:(base + have) ~len:(min have (cap - have)) in
          go acc at (Bytes.cat (Bytes.sub data (at - pos) (have - at)) more)
      | exception Wire.Corrupt _ -> (List.rev acc, at)
    in
    next acc
  in
  go [] 0 (read ~off:base ~len:(min block_size cap))

let records j ~read =
  let recs, head = scan j ~read in
  if j.head = None then j.head <- Some head;
  recs

let rec append r j ~dev ~clock ~read data =
  match j.head with
  | None ->
      ignore (records j ~read);
      append r j ~dev ~clock ~read data
  | Some head ->
      let payload = Wire.encode journal_record_codec (j.gen, data) in
      let len = Bytes.length payload in
      if head + len > capacity j then invalid_arg "journal full";
      let now = Clock.now clock in
      (* The visible latency is the synchronous single-stream append path
         (26 us + bytes at ~2.6 GiB/s, the Table 5 journal column).
         Synchronous appends ride the device's priority lane: they do not
         wait behind queued background checkpoint flushes, and the payload
         becomes durable exactly at the acknowledged sync completion
         (write_priority), so a crash can never catch a sync-acknowledged
         record still volatile — the crash-point enumerator checks
         precisely this. *)
      let sync_done =
        Resource.submit r.queue ~now
          ~duration:
            (Cost.nvme_sync_write_latency
            + Cost.transfer_time ~bandwidth:Cost.journal_stream_bandwidth len)
      in
      ignore
        (Striped.write_priority dev ~now ~off:(off_of_block j.start + head) payload
           ~completion:sync_done);
      j.head <- Some (head + len);
      Clock.advance_to clock sync_done

let truncate j ~dev ~clock ~persist =
  j.head <- Some 0;
  (* Persist the bumped generation (superblock) before invalidating the
     first header — the standard WAL-reset ordering. *)
  j.gen <- j.gen + 1;
  persist ();
  Clock.advance_to clock
    (Striped.write dev ~now:(Clock.now clock) ~off:(off_of_block j.start) (Bytes.make 8 '\000'))
