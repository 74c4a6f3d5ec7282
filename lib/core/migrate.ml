module Crc32 = Aurora_util.Crc32
module Manifest = Aurora_objstore.Manifest
module Store = Aurora_objstore.Store
module Wire = Aurora_objstore.Wire

let magic = "AURSTRM1"

(* Page-granular deltas: an object appears if it is new, its metadata
   changed, or some of its pages moved — and only the moved pages are
   shipped (the receiver composes them onto the base it already holds).
   The store finds them from its copy-on-write leaf metadata
   ([Store.read_changed_pages]), so an object or leaf that [epoch] shares
   with [base] costs no read at all.  Epoch 0 is the empty base: every
   object is new, so the delta from it is the full checkpoint. *)
let serialize_incremental ~store ~base ~epoch =
  let in_base = Hashtbl.create 64 in
  if base <> 0 then
    List.iter
      (fun (oid, _) -> Hashtbl.replace in_base oid ())
      (Store.objects_at store ~epoch:base);
  let deltas = Hashtbl.create 32 in
  let objects =
    List.filter
      (fun (oid, _) ->
        if not (Hashtbl.mem in_base oid) then begin
          Hashtbl.replace deltas oid (Store.read_pages store ~epoch ~oid);
          true
        end
        else begin
          let pages = Store.read_changed_pages store ~base ~epoch ~oid in
          Hashtbl.replace deltas oid pages;
          pages <> []
          || Store.read_meta store ~epoch ~oid <> Store.read_meta store ~epoch:base ~oid
        end)
      (Store.objects_at store ~epoch)
  in
  let w = Wire.writer () in
  Wire.str w magic;
  Wire.u64 w epoch;
  Wire.list w
    (fun (oid, kind) ->
      Wire.u64 w oid;
      Wire.str w kind;
      Wire.str w (Store.read_meta store ~epoch ~oid);
      Wire.list w
        (fun (idx, payload) ->
          Wire.u32 w idx;
          Wire.str w (Bytes.to_string payload))
        (Hashtbl.find deltas oid))
    objects;
  Bytes.to_string (Wire.contents w)

let parse_stream stream =
  let r = Wire.reader (Bytes.of_string stream) in
  if Wire.rstr r <> magic then failwith "bad stream magic";
  let src_epoch = Wire.ru64 r in
  let objects =
    Wire.rlist r (fun r ->
        let oid = Wire.ru64 r in
        let kind = Wire.rstr r in
        let meta = Wire.rstr r in
        let pages =
          Wire.rlist r (fun r ->
              let idx = Wire.ru32 r in
              let payload = Bytes.of_string (Wire.rstr r) in
              (idx, payload))
        in
        (oid, kind, meta, pages))
  in
  (src_epoch, objects)

(* Frames ---------------------------------------------------------------------------- *)

(* Every transfer — [sls send], live migration, HA shipping — wraps a
   stream in a sequenced frame with a CRC-32 trailer, so a corrupted
   delivery is rejected (and retransmitted) instead of parsed.  Alongside
   the stream travels a digest of the sender's epoch manifest: the
   receiver composes the delta onto its own previous epoch, recomputes
   the manifest of the result, and only commits — and acks — if the
   digests agree.  That makes the ack a statement about the
   *composed standby state*, not just about the bytes that crossed. *)

let shipment_magic = "AURSHIP1"
let ack_magic = "AURACK01"

type shipment = {
  sh_seq : int;
  sh_base : int;
  sh_epoch : int;
  sh_manifest_oid : int;
  sh_count : int;
  sh_summary : int;
  sh_body : string;
}

type ack = { ack_seq : int; ack_epoch : int; ack_ok : bool; ack_reason : string }

let seal frame_of =
  let w = Wire.writer () in
  frame_of w;
  let crc = Crc32.of_bytes (Wire.contents w) in
  Wire.u32 w crc;
  Bytes.to_string (Wire.contents w)

let open_sealed ~what parse s =
  if String.length s < 4 then Error (what ^ ": frame too short")
  else begin
    let body_len = String.length s - 4 in
    let r = Wire.reader (Bytes.of_string s) in
    let expect =
      let tr = Wire.reader (Bytes.of_string (String.sub s body_len 4)) in
      Wire.ru32 tr
    in
    if Crc32.of_string (String.sub s 0 body_len) <> expect then
      Error (what ^ ": frame CRC mismatch")
    else
      try Ok (parse r) with
      | Wire.Corrupt msg -> Error (what ^ ": " ^ msg)
      | Failure msg -> Error (what ^ ": " ^ msg)
  end

let seal_shipment ~seq ~base ~epoch ~manifest_oid ~count ~summary body =
  seal (fun w ->
      Wire.str w shipment_magic;
      Wire.u64 w seq;
      Wire.u64 w base;
      Wire.u64 w epoch;
      Wire.u64 w manifest_oid;
      Wire.u32 w count;
      Wire.u32 w summary;
      Wire.str w body)

(* The one way a checkpoint leaves a store: the delta from [base] to
   [epoch], sealed with the digest of [epoch]'s manifest.  The epoch
   doubles as the ARQ sequence number: the replication log is a totally
   ordered chain, so no separate counter is needed and every standby's
   selective acks name epochs directly. *)
let frame ~store ~base ~epoch =
  let body = serialize_incremental ~store ~base ~epoch in
  match Store.manifest store ~epoch with
  | Error e -> Error e
  | Ok (manifest_oid, m) ->
      Ok
        ( seal_shipment ~seq:epoch ~base ~epoch ~manifest_oid
            ~count:m.Manifest.m_count
            ~summary:(Manifest.summary m.Manifest.m_entries)
            body,
          String.length body )

let open_shipment s =
  open_sealed ~what:"shipment"
    (fun r ->
      (match Wire.rstr r with
      | m when m = shipment_magic -> ()
      | m -> failwith (Printf.sprintf "bad magic %S" m));
      let sh_seq = Wire.ru64 r in
      let sh_base = Wire.ru64 r in
      let sh_epoch = Wire.ru64 r in
      let sh_manifest_oid = Wire.ru64 r in
      let sh_count = Wire.ru32 r in
      let sh_summary = Wire.ru32 r in
      let sh_body = Wire.rstr r in
      { sh_seq; sh_base; sh_epoch; sh_manifest_oid; sh_count; sh_summary; sh_body })
    s

let seal_ack ~seq ~epoch ~ok ~reason =
  seal (fun w ->
      Wire.str w ack_magic;
      Wire.u64 w seq;
      Wire.u64 w epoch;
      Wire.u8 w (if ok then 1 else 0);
      Wire.str w reason)

let open_ack s =
  open_sealed ~what:"ack"
    (fun r ->
      (match Wire.rstr r with
      | m when m = ack_magic -> ()
      | m -> failwith (Printf.sprintf "bad magic %S" m));
      let ack_seq = Wire.ru64 r in
      let ack_epoch = Wire.ru64 r in
      let ack_ok = Wire.ru8 r = 1 in
      let ack_reason = Wire.rstr r in
      { ack_seq; ack_epoch; ack_ok; ack_reason })
    s

(* Install a shipment, verifying the composed epoch against the sender's
   manifest digest before committing anything.  The delta is staged first;
   the check composes it over the previous epoch from the epoch table and
   the leaves ([Store.staging_manifest_source]), independently of the row
   cache the standby's own manifest is then built from.  On [Error] the
   staging epoch is aborted and the standby store is untouched. *)
let install_verified ~store (sh : shipment) =
  match parse_stream sh.sh_body with
  | exception Failure msg -> Error msg
  | exception Wire.Corrupt msg -> Error msg
  | src_epoch, objects ->
      if src_epoch <> sh.sh_epoch then
        Error
          (Printf.sprintf "stream epoch %d contradicts frame epoch %d" src_epoch
             sh.sh_epoch)
      else begin
        let epoch = Store.begin_checkpoint store in
        List.iter
          (fun (oid, kind, meta, pages) ->
            Store.reserve_oids store ~upto:oid;
            Store.put_object store ~oid ~kind ~meta;
            Store.put_pages store ~oid pages)
          objects;
        let entries =
          List.map Manifest.entry_of_source (Store.staging_manifest_source store)
        in
        let verdict =
          if List.length entries <> sh.sh_count then
            Error
              (Printf.sprintf "composed epoch has %d objects, manifest says %d"
                 (List.length entries) sh.sh_count)
          else if Manifest.summary entries <> sh.sh_summary then
            Error "composed epoch contradicts the shipped manifest digest"
          else Ok epoch
        in
        (match verdict with
        | Error _ -> Store.abort_checkpoint store
        | Ok _ ->
            (* The standby's manifest names its own epoch (epochs are local
               to a store); the primary-epoch correspondence is the
               shipping layer's to remember. *)
            ignore (Store.put_manifest store ~oid:sh.sh_manifest_oid);
            ignore (Store.commit_checkpoint store);
            Store.wait_durable store);
        verdict
      end
