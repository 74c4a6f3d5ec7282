(** [sls send] / [sls recv], live migration and HA shipping: one way to
    move a checkpoint between stores.

    The sender builds a {!frame}: the delta from a base epoch
    ({!serialize_incremental}; base 0 ships the full checkpoint), sealed
    with a CRC-32 trailer and the digest of the sender's epoch manifest.
    The receiver opens it ({!open_shipment}), reads its base and epoch for
    its own gap and duplicate rules, and installs it with
    {!install_verified}, the only install: the delta is composed onto the
    receiver's previous epoch and committed, with the receiver's own
    manifest, only if the composed epoch matches the digest.  A received
    epoch therefore always passes {!Restore.restore_verified}.  Manifests
    never cross the wire: they are not objects of their epoch.

    The stream, the shipment frame and the ack are each stated once, as
    {!stream_codec}, {!shipment_codec} and {!ack_codec}: the sender and
    the receiver use the same value, so the frame layout cannot drift
    between them. *)

val serialize_incremental :
  store:Aurora_objstore.Store.t -> base:int -> epoch:int -> string
(** The frame body: the delta from [base] to [epoch], every object new
    since [base] with all its pages, and every object whose metadata or
    page locations changed with only the pages whose stored location
    changed ({!Aurora_objstore.Store.read_delta}: one vectored batch of
    the leaves the two epochs do not share, then one vectored batch of
    every moved page; no read at all for the newest epoch against its
    parent, whose delta its commit kept in memory).  Blocks are
    copy-on-write, so that page set is a superset of the pages whose
    bytes changed, never a subset: a page rewritten with identical bytes
    at a new location ships again, one deduplicated onto its old location
    does not.  Composed onto [base], the stream yields [epoch]'s pages
    and metadata exactly.  [~base:0] names the empty base: every object
    is new and the stream is the full checkpoint.  With the tracer on, the
    build is one [migrate/frame] complete event on the store's clock,
    with the objects, device bytes read ([read_bytes], 0 for a kept
    delta), pages and bytes of the stream. *)

(** {1 Frames} *)

type shipment = {
  sh_seq : int;  (** ARQ sequence number *)
  sh_base : int;  (** base epoch the delta assumes (0 = full stream) *)
  sh_epoch : int;  (** sender epoch the stream materializes *)
  sh_count : int;  (** objects in the epoch *)
  sh_summary : int;
      (** {!Aurora_objstore.Manifest.summary} of the sender manifest *)
  sh_body : string;  (** the {!serialize_incremental} stream *)
}

type ack = { ack_seq : int; ack_epoch : int; ack_ok : bool; ack_reason : string }

(** {2 Codecs} *)

val stream_codec :
  (int * (int * string * string * (int * bytes) list) list) Aurora_objstore.Wire.codec
(** The {!serialize_incremental} stream: the epoch it materializes, then
    per object its oid, kind, metadata and shipped (index, payload)
    pages. *)

val shipment_codec : shipment Aurora_objstore.Wire.codec
val ack_codec : ack Aurora_objstore.Wire.codec

val seal : 'a Aurora_objstore.Wire.codec -> 'a -> string
(** A sealed frame: the codec's bytes followed by their CRC-32. *)

val frame :
  store:Aurora_objstore.Store.t -> base:int -> epoch:int -> (string * int, string) result
(** The sealed frame carrying [epoch] as a delta from [base], with
    [sh_seq = epoch], and the size of its stream body.  [Error] when
    [epoch] has no readable manifest
    ({!Aurora_objstore.Store.manifest}). *)

val open_shipment : string -> (shipment, string) result
(** Checks the CRC trailer before parsing; a flipped bit anywhere in the
    frame is an [Error], never an exception. *)

val open_ack : string -> (ack, string) result

val install_verified :
  store:Aurora_objstore.Store.t -> shipment -> (int, string) result
(** Install a shipment: stage the delta, check the object count and
    digest of the composed epoch, which
    {!Aurora_objstore.Store.staging_manifest_source} reads off the epoch
    table and the leaves, then commit, which gives the receiver's epoch
    its own manifest.  On [Error] the staging epoch is
    aborted ({!Aurora_objstore.Store.abort_checkpoint}) and the store is
    untouched. *)
