module Clock = Aurora_sim.Clock
module Striped = Aurora_block.Striped
module Fault = Aurora_block.Fault
open Store_format

type cleaf = { entries : leaf_entry list; resident : bool }

type t = {
  dev : Striped.t;
  cache : (int, cleaf) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

type submit = now:int -> (int * int) array -> (int * (bytes, string) result) array

let capacity = 65_536
let create dev = { dev; cache = Hashtbl.create 1024; hits = 0; misses = 0 }
let hits t = t.hits
let misses t = t.misses
let forget t blk = Hashtbl.remove t.cache blk
let recycle t = Hashtbl.reset t.cache

let insert t blk leaf =
  if Hashtbl.length t.cache >= capacity then Hashtbl.reset t.cache;
  Hashtbl.replace t.cache blk leaf

let add t blk entries = insert t blk { entries; resident = false }

let entries t blk =
  match Hashtbl.find_opt t.cache blk with
  | Some c ->
      t.hits <- t.hits + 1;
      c.entries
  | None ->
      t.misses <- t.misses + 1;
      let entries =
        decode "leaf" leaf_codec
          (Striped.read_nocharge t.dev ~off:(off_of_block blk) ~len:block_size)
      in
      add t blk entries;
      entries

let paid t ~(submit : submit) ~now blks =
  let out = Hashtbl.create 16 in
  let cold =
    List.filter
      (fun b ->
        match Hashtbl.find_opt t.cache b with
        | Some c ->
            t.hits <- t.hits + 1;
            if c.resident then Hashtbl.replace out b (now, Ok c.entries);
            not c.resident
        | None ->
            t.misses <- t.misses + 1;
            true)
      (List.sort_uniq compare blks)
    |> Array.of_list
  in
  let uncached = Array.fold_left (fun n b -> if Hashtbl.mem t.cache b then n else n + 1) 0 cold in
  if Hashtbl.length t.cache + uncached > capacity then Hashtbl.reset t.cache;
  Array.iteri
    (fun k (arrival, read) ->
      let b = cold.(k) in
      let r =
        match read with
        | Error msg -> Error (Fault.Io_error msg)
        | Ok data -> (
            match Hashtbl.find_opt t.cache b with
            | Some c -> Ok c.entries
            | None -> (
                try Ok (decode "leaf" leaf_codec data) with Corrupt_store _ as e -> Error e))
      in
      Result.iter (fun entries -> Hashtbl.replace t.cache b { entries; resident = true }) r;
      Hashtbl.replace out b (arrival, r))
    (submit ~now (Array.map (fun b -> (off_of_block b, block_size)) cold));
  out

let resident t clk ~submit blks =
  let now = Clock.now clk in
  let leaves = paid t ~submit ~now blks in
  Clock.advance_to clk (Hashtbl.fold (fun _ (arrival, _) m -> max m arrival) leaves now);
  List.iter
    (fun b ->
      match Hashtbl.find leaves b with _, Error (Fault.Io_error _ as e) -> raise e | _ -> ())
    (List.sort compare blks);
  fun b -> Result.fold ~ok:Fun.id ~error:raise (snd (Hashtbl.find leaves b))
