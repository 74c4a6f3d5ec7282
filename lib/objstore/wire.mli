(** Binary serialization for everything that is stored or shipped.

    Every persisted or transmitted format — the store's superblock,
    checkpoint, version, leaf and journal records, the epoch manifest,
    the POSIX object images, file-system metadata, replay and
    application journal entries, migration streams and frames, the CRIU
    baseline's image — is
    little-endian and length-prefixed, and each is stated exactly once,
    as a two-way {!codec} that both encodes and decodes.  Recovery parses
    the exact bytes back off the simulated device — there is no in-memory
    shortcut on the recovery path. *)

(** {1 Writing} *)

type writer

val writer : unit -> writer
val u8 : writer -> int -> unit
val u32 : writer -> int -> unit
val u64 : writer -> int -> unit
val str : writer -> string -> unit
(** Length-prefixed. *)

val list : writer -> ('a -> unit) -> 'a list -> unit
(** Count-prefixed; the callback writes each element. *)

val contents : writer -> bytes

(** {1 Reading} *)

type reader

exception Corrupt of string

val reader : bytes -> reader
val ru8 : reader -> int
val ru32 : reader -> int
val ru64 : reader -> int
val rstr : reader -> string
val rlist : reader -> (reader -> 'a) -> 'a list
val remaining : reader -> int

val short : reader -> bool
(** A read from this reader raised [Corrupt] because its input ended
    inside a value: more bytes could still make it parse. *)

(** {1 Two-way codecs} *)

type 'a codec
(** One format's single statement: the same value writes an ['a] and reads
    it back, so a writer and its reader cannot disagree. *)

val encode : 'a codec -> 'a -> bytes

val decode : 'a codec -> bytes -> 'a
(** Reads from the start of the input and ignores trailing bytes (store
    records are read out of padded blocks).  A short read, a bad tag or a
    bad magic raises [Corrupt] with its byte offset. *)

val to_string : 'a codec -> 'a -> string
val of_string : 'a codec -> string -> 'a

val read : 'a codec -> reader -> 'a
(** Decode the next value of a stream of records. *)

module Codec : sig
  val u8 : int codec
  val u32 : int codec
  val u64 : int codec
  val str : string codec  (** length-prefixed *)

  val bool : bool codec  (** one byte: 1 or 0; any nonzero byte reads true *)

  val list : 'a codec -> 'a list codec  (** count-prefixed *)

  val option : 'a codec -> 'a option codec  (** a {!bool} flag, then the value *)

  val pair : 'a codec -> 'b codec -> ('a * 'b) codec
  val triple : 'a codec -> 'b codec -> 'c codec -> ('a * 'b * 'c) codec
  val quad : 'a codec -> 'b codec -> 'c codec -> 'd codec -> ('a * 'b * 'c * 'd) codec

  val conv : ('a -> 'b) -> ('b -> 'a) -> 'b codec -> 'a codec
  (** [conv f g c] encodes [f x] with [c] and decodes through [g]. *)

  (** {2 Records}

      [record k |> field c1 get1 |> ... |> field cn getn |> seal] states a
      record once: fields are written in order through their getters and
      read back in the same order into the constructor
      [k : t1 -> ... -> tn -> 'r]. *)

  type ('r, 'k) fields

  val record : 'k -> ('r, 'k) fields
  val field : 'a codec -> ('r -> 'a) -> ('r, 'a -> 'k) fields -> ('r, 'k) fields

  val magic : 'a codec -> 'a -> string -> ('r, 'k) fields -> ('r, 'k) fields
  (** [magic c v what] is a constant field: it writes [v] and checks it on
      read, raising [Corrupt "bad <what> at byte <n>"]. *)

  val seal : ('r, 'r) fields -> 'r codec

  (** {2 Tagged cases} *)

  type 'a case

  val case : int -> 'b codec -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
  (** [case tag c inject project]: values [project] accepts are written as
      the tag byte and then [c]. *)

  val tagged : string -> 'a case list -> 'a codec
  (** The first case that accepts a value encodes it.  An unknown tag
      raises [Corrupt "bad <what> <tag> at byte <n>"]. *)

  val enum : string -> 'a list -> 'a codec
  (** [enum what values]: one byte, the value's index in [values]; a
      {!tagged} of constant cases, so an out-of-range byte raises
      [Corrupt]. *)
end
