(* Byte-level run-length coding for checkpoint page payloads, plus the
   compressibility classifier the cost model keys on.

   The store compresses page payloads on the flush path; the transform
   must be exactly invertible (restore and the deep-verify pass re-CRC
   the original bytes) and must never grow a stored payload — callers
   get [None] when coding wins nothing and write the raw bytes with the
   flag bit clear.

   Encoding: a sequence of (count, byte) pairs, count in 1..255.  That
   is a factor-2 expansion worst case, which [compress] hides by
   refusing to emit anything not strictly smaller than the input. *)

type cls = Zero | Text | Binary | Random

(* Number of maximal byte runs, counting a >255 run once per 255-byte
   chunk (what the encoder will actually emit). *)
let runs b =
  let n = Bytes.length b in
  if n = 0 then 0
  else begin
    let runs = ref 0 in
    let i = ref 0 in
    while !i < n do
      let c = Bytes.unsafe_get b !i in
      let j = ref !i in
      while !j < n && Bytes.unsafe_get b !j = c && !j - !i < 255 do
        incr j
      done;
      incr runs;
      i := !j
    done;
    !runs
  end

let classify b =
  let n = Bytes.length b in
  if n = 0 then Zero
  else begin
    let first = Bytes.unsafe_get b 0 in
    let constant = ref true in
    (try
       for i = 1 to n - 1 do
         if Bytes.unsafe_get b i <> first then begin
           constant := false;
           raise Exit
         end
       done
     with Exit -> ());
    if !constant then Zero
    else
      (* Estimated coded size is 2 bytes per run. *)
      let est = 2 * runs b in
      if est * 2 <= n then Text
      else if est * 10 <= n * 9 then Binary
      else Random
  end

let compress b =
  let n = Bytes.length b in
  if n = 0 then None
  else begin
    let out = Buffer.create (n / 4) in
    let i = ref 0 in
    (try
       while !i < n do
         let c = Bytes.unsafe_get b !i in
         let j = ref !i in
         while !j < n && Bytes.unsafe_get b !j = c && !j - !i < 255 do
           incr j
         done;
         Buffer.add_char out (Char.chr (!j - !i));
         Buffer.add_char out c;
         if Buffer.length out >= n then raise Exit;
         i := !j
       done;
       Some (Buffer.to_bytes out)
     with Exit -> None)
  end

let decompress ~olen c =
  let out = Bytes.create olen in
  let n = Bytes.length c in
  if n land 1 <> 0 then invalid_arg "Rle.decompress: odd coded length";
  let pos = ref 0 in
  let i = ref 0 in
  while !i < n do
    let count = Char.code (Bytes.unsafe_get c !i) in
    let byte = Bytes.unsafe_get c (!i + 1) in
    if count = 0 || !pos + count > olen then
      invalid_arg "Rle.decompress: coded stream contradicts olen";
    Bytes.unsafe_fill out !pos count byte;
    pos := !pos + count;
    i := !i + 2
  done;
  if !pos <> olen then invalid_arg "Rle.decompress: short coded stream";
  out
