let kib = 1024
let mib = 1024 * kib
let gib = 1024 * mib
let page_size = 4096
let pages_of_bytes bytes = (bytes + page_size - 1) / page_size
let us = 1_000
let ms = 1_000_000
let sec = 1_000_000_000

let scaled_to_string value steps unit_names =
  (* Find the largest unit not exceeding the value and print with a precision
     that keeps three significant-ish digits. *)
  let rec pick i =
    if i + 1 < Array.length steps && value >= steps.(i + 1) then pick (i + 1)
    else i
  in
  let i = pick 0 in
  let scaled = float_of_int value /. float_of_int steps.(i) in
  if Float.is_integer scaled && scaled < 1000.0 then
    Printf.sprintf "%.0f %s" scaled unit_names.(i)
  else if scaled >= 100.0 then Printf.sprintf "%.0f %s" scaled unit_names.(i)
  else if scaled >= 10.0 then Printf.sprintf "%.1f %s" scaled unit_names.(i)
  else Printf.sprintf "%.2f %s" scaled unit_names.(i)

let bytes_to_string b = scaled_to_string b [| 1; kib; mib; gib |] [| "B"; "KiB"; "MiB"; "GiB" |]
let ns_to_string ns = scaled_to_string ns [| 1; us; ms; sec |] [| "ns"; "\xc2\xb5s"; "ms"; "s" |]
