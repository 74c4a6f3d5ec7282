type writer = Buffer.t

let writer () = Buffer.create 256
let u8 w v = Buffer.add_uint8 w (v land 0xff)

let u32 w v =
  assert (v >= 0 && v < 0x1_0000_0000);
  Buffer.add_int32_le w (Int32.of_int v)

let u64 w v = Buffer.add_int64_le w (Int64.of_int v)

let str w s =
  u32 w (String.length s);
  Buffer.add_string w s

let list w f l =
  u32 w (List.length l);
  List.iter f l

let contents w = Buffer.to_bytes w

type reader = { data : bytes; mutable pos : int; mutable short : bool }

exception Corrupt of string

let reader data = { data; pos = 0; short = false }

let need r n =
  if r.pos + n > Bytes.length r.data then begin
    r.short <- true;
    raise (Corrupt (Printf.sprintf "short read at %d (+%d of %d)" r.pos n (Bytes.length r.data)))
  end

let ru8 r =
  need r 1;
  let v = Bytes.get_uint8 r.data r.pos in
  r.pos <- r.pos + 1;
  v

let ru32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_le r.data r.pos) land 0xffff_ffff in
  r.pos <- r.pos + 4;
  v

let ru64 r =
  need r 8;
  let v = Int64.to_int (Bytes.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let rstr r =
  let n = ru32 r in
  need r n;
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

let rlist r f =
  let n = ru32 r in
  List.init n (fun _ -> f r)

let remaining r = Bytes.length r.data - r.pos
let short r = r.short

(* Two-way codecs ---------------------------------------------------------- *)

type 'a codec = { w : writer -> 'a -> unit; r : reader -> 'a }

let read c = c.r

let encode c v =
  let w = writer () in
  c.w w v;
  contents w

let decode c data = c.r (reader data)

let to_string c v =
  let w = writer () in
  c.w w v;
  Buffer.contents w

let of_string c s = decode c (Bytes.unsafe_of_string s)
let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

module Codec = struct
  let u8 = { w = u8; r = ru8 }
  let u32 = { w = u32; r = ru32 }
  let u64 = { w = u64; r = ru64 }
  let str = { w = str; r = rstr }
  let conv f g c = { w = (fun w v -> c.w w (f v)); r = (fun r -> g (c.r r)) }
  let bool = { w = (fun w b -> u8.w w (Bool.to_int b)); r = (fun r -> ru8 r <> 0) }
  let list c = { w = (fun w l -> list w (c.w w) l); r = (fun r -> rlist r c.r) }

  (* Readers bind each part before the next, so fields are read in order. *)
  let pair a b =
    { w = (fun w (x, y) -> a.w w x; b.w w y); r = (fun r -> let x = a.r r in (x, b.r r)) }

  let triple a b c =
    conv (fun (x, y, z) -> (x, (y, z))) (fun (x, (y, z)) -> (x, y, z)) (pair a (pair b c))

  let quad a b c d =
    conv (fun (w, x, y, z) -> (w, (x, y, z))) (fun (w, (x, y, z)) -> (w, x, y, z))
      (pair a (triple b c d))

  let option c =
    { w = (fun w v -> bool.w w (Option.is_some v); Option.iter (c.w w) v);
      r = (fun r -> if bool.r r then Some (c.r r) else None) }

  (* A record under construction, last field outermost: the constructor,
     then each field's codec and getter, or a constant. *)
  type ('r, 'k) fields =
    | Record : 'k -> ('r, 'k) fields
    | Field : ('r, 'a -> 'k) fields * 'a codec * ('r -> 'a) -> ('r, 'k) fields
    | Magic : ('r, 'k) fields * 'a codec * 'a * string -> ('r, 'k) fields

  let record k = Record k
  let field c get f = Field (f, c, get)
  let magic c v what f = Magic (f, c, v, what)

  let rec write_fields : type r k. (r, k) fields -> writer -> r -> unit =
   fun f w v ->
    match f with
    | Record _ -> ()
    | Field (f, c, get) ->
        write_fields f w v;
        c.w w (get v)
    | Magic (f, c, m, _) ->
        write_fields f w v;
        c.w w m

  (* Fields are read in order and the constructor is applied to up to
     eight of them at once: a partial application per field would double
     the cost of decoding a radix leaf. *)
  let rec read_fields : type r k. (r, k) fields -> reader -> k =
   fun f r ->
    match f with
    | Record k -> k
    | Field
        (Field (Field (Field (Field (Field (Field (Field (f, a, _), b, _), c, _), d, _), e, _), g, _), h, _), i, _)
      ->
        let k = read_fields f r in
        let a = a.r r in
        let b = b.r r in
        let c = c.r r in
        let d = d.r r in
        let e = e.r r in
        let g = g.r r in
        let h = h.r r in
        k a b c d e g h (i.r r)
    | Field (Field (Field (Field (f, a, _), b, _), c, _), d, _) ->
        let k = read_fields f r in
        let a = a.r r in
        let b = b.r r in
        let c = c.r r in
        k a b c (d.r r)
    | Field (f, a, _) ->
        let k = read_fields f r in
        k (a.r r)
    | Magic (f, c, m, what) ->
        let k = read_fields f r in
        let at = r.pos in
        if c.r r <> m then corrupt "bad %s at byte %d" what at;
        k

  let seal f = { w = write_fields f; r = read_fields f }

  type 'a case = { tag : int; cw : writer -> 'a -> bool; cr : reader -> 'a }

  (* Writing a tagged value allocates nothing beyond what [proj] does:
     object images write one per enum field. *)
  let case tag c inj proj =
    let cw w v = match proj v with Some x -> u8.w w tag; c.w w x; true | None -> false in
    { tag; cw; cr = (fun r -> inj (c.r r)) }

  let rec write_case what w v = function
    | [] -> invalid_arg ("Wire.tagged: " ^ what)
    | k :: ks -> if not (k.cw w v) then write_case what w v ks

  let tagged what cases =
    let w w v = write_case what w v cases in
    let r r =
      let at = r.pos in
      let tag = ru8 r in
      match List.find_opt (fun k -> k.tag = tag) cases with
      | Some k -> k.cr r
      | None -> corrupt "bad %s %d at byte %d" what tag at
    in
    { w; r }

  let enum what values =
    let none = { w = (fun _ () -> ()); r = (fun _ -> ()) } in
    let case_of i v = case i none (fun () -> v) (fun x -> if x = v then Some () else None) in
    tagged what (List.mapi case_of values)
end
