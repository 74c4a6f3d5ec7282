(** The epoch manifest: one per committed epoch, a property of the epoch
    rather than an object in it.  It records the epoch id, the object
    count and, per object, a CRC-32 of the metadata, the page count and a
    {!fingerprint} of the per-page CRC-32s the store keeps in its radix
    leaves.  {!Store.commit_checkpoint} composes it for every epoch and
    packs its bytes beside the epoch's version records, where the
    checkpoint record locates them, and {!Store.verify_epoch} checks an
    epoch against it, so corruption is detected instead of deserialized.
    A replication frame carries only its {!summary}. *)

type entry = {
  me_oid : int;
  me_kind : string;
  me_meta_crc : int;  (** CRC-32 of the serialized metadata *)
  me_pages : int;  (** resident page count *)
  me_pages_crc : int;  (** {!fingerprint} of the page CRCs *)
}

type t = {
  m_epoch : int;  (** the epoch id at the store that wrote it *)
  m_count : int;  (** objects in the epoch *)
  m_entries : entry list;  (** sorted by oid *)
}

val page_fp : int -> int -> int
(** [page_fp idx crc] is one page's term of {!fingerprint}; XOR-folding
    these terms in any order gives the fingerprint. *)

val fingerprint : (int * int) list -> int
(** Order-independent combination of [(page index, CRC-32)] pairs. *)

val entry_of_source : int * string * string * (int * int) list -> entry
(** Build an entry from one [(oid, kind, meta, page CRCs)] row of
    {!Store.staging_manifest_source}. *)

val summary : entry list -> int
(** Order-independent digest of a manifest's entries; travels in
    replication frames so the receiver can verify its composed epoch
    without the manifest body crossing the wire. *)

val codec : t Wire.codec
(** The [AURMANF2] encoding, stated once. *)

val of_string : string -> (t, string) result
(** Parse an [AURMANF2] encoding.  Never raises: a truncated or garbled
    input yields [Error "sls.manifest: <detail>"]. *)
