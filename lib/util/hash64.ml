(* 64-bit-class content hash, FNV-1a style, folded into OCaml's native
   int.  Values are masked to 62 bits so they stay non-negative and
   round-trip through Wire.u64 unchanged on every host.

   This replaces the ad-hoc CRC/XOR page fingerprints: XOR-folding raw
   CRCs is order-insensitive *and* cancels duplicate pages (two pages
   with equal content contribute nothing), which made the old
   fingerprint blind to exactly the states a dedup store produces.
   [pair] mixes the page index into the per-page digest first, so the
   XOR fold over a page set stays order-independent (required by the
   incremental manifest-row delta maintenance) while duplicate page
   contents at different indices no longer cancel. *)

let mask = (1 lsl 62) - 1

(* FNV prime; fits comfortably in 62 bits. *)
let prime = 0x100000001B3

(* Arbitrary non-zero 62-bit seed (FNV offset basis truncated). *)
let seed = 0xBF29CE484222325

let of_bytes b =
  let h = ref seed in
  for i = 0 to Bytes.length b - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * prime land mask
  done;
  !h

let of_string s = of_bytes (Bytes.unsafe_of_string s)

(* splitmix-style finalizer keeps single-bit input differences from
   producing correlated outputs under XOR folding. *)
let finalize h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x3F58476D1CE4E5B9 land mask in
  let h = h lxor (h lsr 27) in
  let h = h * 0x14D049BB133111EB land mask in
  h lxor (h lsr 31)

let pair a b =
  let h = (seed lxor (a land mask)) * prime land mask in
  let h = (h lxor (b land mask)) * prime land mask in
  finalize h
