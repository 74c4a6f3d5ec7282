(** [sls send] / [sls recv]: ship checkpoints between machines.

    A checkpoint serializes to a self-contained byte stream (all objects,
    metadata and pages); the receiver installs it as a fresh checkpoint in
    its own store and can then restore it.  {!serialize_incremental}
    ships only what changed since a base epoch, which is the building
    block for live migration and high availability (pre-copy iterations
    of dirty state). *)

val serialize : store:Aurora_objstore.Store.t -> epoch:int -> string
(** The full checkpoint as a portable stream: the delta from the empty
    base, [serialize_incremental ~base:0]. *)

val serialize_incremental :
  store:Aurora_objstore.Store.t -> base:int -> epoch:int -> string
(** The delta from [base] to [epoch]: every object new since [base] with
    all its pages, and every object whose metadata or page locations
    changed with only the pages whose stored location changed
    ({!Aurora_objstore.Store.read_changed_pages}).  Blocks are
    copy-on-write, so that page set is a superset of the pages whose
    bytes changed, never a subset: a page rewritten with identical bytes
    at a new location ships again, one deduplicated onto its old location
    does not.  Composed onto [base], the stream yields [epoch]'s pages
    and metadata exactly.  [~base:0] names the empty base: every object
    is new and the stream is the full checkpoint. *)

val stream_size : string -> int

val install :
  store:Aurora_objstore.Store.t -> string -> int
(** Install a stream as a new checkpoint in the target store; returns its
    epoch there.  Raises [Failure] on a corrupt stream. *)

val transfer_time_ns : bytes:int -> int
(** Time to push a stream over the 10 GbE link of the testbed. *)

(** {1 Replication frames}

    HA shipments wrap a stream in a sequenced frame with a CRC-32
    trailer plus a digest of the sender's epoch manifest.  Manifests
    themselves never cross the wire as stream objects (the store does
    not list them): the receiver stages the delta over its previous
    epoch, recomputes the manifest digest of the result, and commits
    (and acks) only if the digests agree. *)

type shipment = {
  sh_seq : int;  (** ARQ sequence number *)
  sh_base : int;  (** base epoch the delta assumes (0 = full stream) *)
  sh_epoch : int;  (** sender epoch the stream materializes *)
  sh_manifest_oid : int;  (** oid the manifest object lives at *)
  sh_count : int;  (** objects in the epoch, manifest excluded *)
  sh_summary : int;
      (** {!Aurora_objstore.Manifest.summary} of the sender manifest *)
  sh_body : string;  (** the {!serialize}/{!serialize_incremental} stream *)
}

type ack = { ack_seq : int; ack_epoch : int; ack_ok : bool; ack_reason : string }

val seal_shipment :
  seq:int ->
  base:int ->
  epoch:int ->
  manifest_oid:int ->
  count:int ->
  summary:int ->
  string ->
  string

val open_shipment : string -> (shipment, string) result
(** Checks the CRC trailer before parsing; a flipped bit anywhere in the
    frame is an [Error], never an exception. *)

val seal_ack : seq:int -> epoch:int -> ok:bool -> reason:string -> string
val open_ack : string -> (ack, string) result

val install_verified :
  store:Aurora_objstore.Store.t -> shipment -> (int, string) result
(** Install a shipment: stage the delta, check the object count and
    digest of the composed epoch, which
    {!Aurora_objstore.Store.staging_manifest_source} reads off the epoch
    table and the leaves, then stage the receiver's own manifest at the
    frame's manifest oid and commit.  On [Error] the staging epoch is
    aborted ({!Aurora_objstore.Store.abort_checkpoint}) and the store is
    untouched. *)
