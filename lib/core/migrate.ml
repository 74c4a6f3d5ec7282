module Clock = Aurora_sim.Clock
module Crc32 = Aurora_util.Crc32
module Manifest = Aurora_objstore.Manifest
module Otrace = Aurora_obs.Trace
module Store = Aurora_objstore.Store
module Striped = Aurora_block.Striped
module Wire = Aurora_objstore.Wire

(* A stream: the epoch it materializes, then per object its oid, kind,
   metadata and the shipped pages as (index, payload). *)
let stream_codec =
  Wire.Codec.(
    let page = pair u32 (conv Bytes.to_string Bytes.of_string str) in
    record (fun epoch objects -> (epoch, objects))
    |> magic str "AURSTRM1" "stream magic"
    |> field u64 fst
    |> field (list (quad u64 str str (list page))) snd
    |> seal)

(* Page-granular deltas: an object appears if it is new, its metadata
   changed, or some of its pages moved — and only the moved pages are
   shipped (the receiver composes them onto the base it already holds).
   The store finds them from its copy-on-write leaf metadata
   ([Store.read_delta]), so an object or leaf that [epoch] shares with
   [base] costs no read at all, and the rest costs one leaf batch and one
   page batch for the whole frame; the newest epoch against its parent
   costs no read, its commit having kept the delta.  Epoch 0 is the
   empty base: every object is new, so the delta from it is the full
   checkpoint.  The build
   is traced as one [migrate/frame] span on the store's clock, with the
   device bytes it read, leaves and pages. *)
let serialize_incremental ~store ~base ~epoch =
  let clk = Store.clock store in
  let dev = Store.device store in
  let t0 = Clock.now clk and read0 = Striped.bytes_read dev in
  let delta = Store.read_delta store ~base ~epoch in
  let body = Wire.to_string stream_codec (epoch, delta) in
  if Otrace.is_on () then
    Otrace.complete ~ts:t0 ~dur:(Clock.now clk - t0) ~cat:"migrate" "frame"
      ~args:
        [
          ("objects", Otrace.Int (List.length delta));
          ("read_bytes", Otrace.Int (Striped.bytes_read dev - read0));
          ("pages", Otrace.Int (List.fold_left (fun a (_, _, _, p) -> a + List.length p) 0 delta));
          ("bytes", Otrace.Int (String.length body));
        ];
  body

(* Frames ---------------------------------------------------------------------------- *)

(* Every transfer — [sls send], live migration, HA shipping — wraps a
   stream in a sequenced frame with a CRC-32 trailer, so a corrupted
   delivery is rejected (and retransmitted) instead of parsed.  Alongside
   the stream travels a digest of the sender's epoch manifest: the
   receiver composes the delta onto its own previous epoch, recomputes
   the manifest of the result, and only commits — and acks — if the
   digests agree.  That makes the ack a statement about the
   *composed standby state*, not just about the bytes that crossed. *)

type shipment = {
  sh_seq : int;
  sh_base : int;
  sh_epoch : int;
  sh_count : int;
  sh_summary : int;
  sh_body : string;
}

type ack = { ack_seq : int; ack_epoch : int; ack_ok : bool; ack_reason : string }

let shipment_codec =
  Wire.Codec.(
    record (fun sh_seq sh_base sh_epoch sh_count sh_summary sh_body ->
        { sh_seq; sh_base; sh_epoch; sh_count; sh_summary; sh_body })
    |> magic str "AURSHIP1" "shipment magic"
    |> field u64 (fun s -> s.sh_seq)
    |> field u64 (fun s -> s.sh_base)
    |> field u64 (fun s -> s.sh_epoch)
    |> field u32 (fun s -> s.sh_count)
    |> field u32 (fun s -> s.sh_summary)
    |> field str (fun s -> s.sh_body)
    |> seal)

let ack_codec =
  Wire.Codec.(
    record (fun ack_seq ack_epoch ack_ok ack_reason -> { ack_seq; ack_epoch; ack_ok; ack_reason })
    |> magic str "AURACK01" "ack magic"
    |> field u64 (fun a -> a.ack_seq)
    |> field u64 (fun a -> a.ack_epoch)
    |> field bool (fun a -> a.ack_ok)
    |> field str (fun a -> a.ack_reason)
    |> seal)

let seal codec v =
  let body = Wire.to_string codec v in
  body ^ Wire.to_string Wire.Codec.u32 (Crc32.of_string body)

let open_sealed ~what codec s =
  let body_len = String.length s - 4 in
  if body_len < 0 then Error (what ^ ": frame too short")
  else if
    Crc32.of_string (String.sub s 0 body_len)
    <> Wire.of_string Wire.Codec.u32 (String.sub s body_len 4)
  then Error (what ^ ": frame CRC mismatch")
  else
    try Ok (Wire.of_string codec s) with Wire.Corrupt msg -> Error (what ^ ": " ^ msg)

(* The one way a checkpoint leaves a store: the delta from [base] to
   [epoch], sealed with the digest of [epoch]'s manifest.  The epoch
   doubles as the ARQ sequence number: the replication log is a totally
   ordered chain, so no separate counter is needed and every standby's
   selective acks name epochs directly. *)
let frame ~store ~base ~epoch =
  let body = serialize_incremental ~store ~base ~epoch in
  match Store.manifest store ~epoch with
  | Error e -> Error e
  | Ok m ->
      Ok
        ( seal shipment_codec
            {
              sh_seq = epoch;
              sh_base = base;
              sh_epoch = epoch;
              sh_count = m.Manifest.m_count;
              sh_summary = Manifest.summary m.Manifest.m_entries;
              sh_body = body;
            },
          String.length body )

let open_shipment = open_sealed ~what:"shipment" shipment_codec

let open_ack = open_sealed ~what:"ack" ack_codec

(* Install a shipment, verifying the composed epoch against the sender's
   manifest digest before committing anything.  The delta is staged first;
   the check composes it over the previous epoch from the epoch table and
   the leaves ([Store.staging_manifest_source]), independently of the
   manifest rows its versions carry, which the standby's own manifest is
   then composed from at commit.  On
   [Error] the staging epoch is aborted and the standby store is
   untouched. *)
let install_verified ~store (sh : shipment) =
  match Wire.of_string stream_codec sh.sh_body with
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
        (* The commit gives the standby's epoch its own manifest, which
           names the standby's epoch (epochs are local to a store); the
           primary-epoch correspondence is the shipping layer's to
           remember. *)
        (match verdict with
        | Error _ -> Store.abort_checkpoint store
        | Ok _ ->
            ignore (Store.commit_checkpoint store);
            Store.wait_durable store);
        verdict
      end
