(** Serialization of POSIX objects to and from store images.

    Each kernel object kind has an image (what restore needs), a
    serializer to the store's wire format, and a parser back.  The image
    is stated once, in {!Image}, over the kernel's own types: a thread, a
    kevent, a socket's domain, protocol, addresses and TCP state, a shm
    segment's kind and a mapping's protection are written and read as
    the kernel values themselves.  References between objects — a
    file-descriptor slot pointing at a description, a description
    pointing at a pipe, a VM entry pointing at a memory object — are
    encoded as 64-bit object identifiers, which is the heart of the POSIX
    object model: sharing is represented structurally, never re-inferred.

    A byte that names no value of its kernel type (an out-of-range
    filter, domain, protocol, TCP state or shm kind) is {!Malformed}, so
    {!parse_check} rejects the image before restore builds anything from
    it.  Serializers are pure; the checkpoint path charges the modeled
    serialization costs separately. *)

include module type of struct
  include Image
end

(** {1 Object kind tags used in the store} *)

val kind_group : string
val kind_proc : string
val kind_fdesc : string
val kind_pipe : string
val kind_socket : string
val kind_kqueue : string
val kind_pty : string
val kind_shm : string
val kind_memobj : string

exception Malformed of string
(** The single typed error every [*_of_string] parser raises on malformed
    input (object kind and byte offset in the message) — short reads, bad
    tags, and anything a hostile payload would otherwise provoke out of
    the runtime as [Failure]/[Invalid_argument]. *)

(** {1 Serializers}

    Every [*_to_string]/[*_of_string] pair below and {!parse_check} come
    from one kind -> codec table, so a serializer and its parser cannot
    disagree.  Adding a kind means one codec in {!Image} and one table
    entry. *)

val proc_to_string : proc_image -> string
val proc_of_string : string -> proc_image
val fdesc_to_string : fdesc_image -> string
val fdesc_of_string : string -> fdesc_image
val pipe_to_string : pipe_image -> string
val pipe_of_string : string -> pipe_image
val socket_to_string : socket_image -> string
val socket_of_string : string -> socket_image
val kqueue_to_string : Aurora_kern.Kqueue.kevent list -> string
val kqueue_of_string : string -> Aurora_kern.Kqueue.kevent list
val pty_to_string : pty_image -> string
val pty_of_string : string -> pty_image
val shm_to_string : shm_image -> string
val shm_of_string : string -> shm_image
val memobj_to_string : memobj_image -> string
val memobj_of_string : string -> memobj_image
val group_to_string : group_image -> string
val group_of_string : string -> group_image

val parse_check : kind:string -> string -> (unit, string) result
(** Try parsing [meta] as a [kind] image; [Ok ()] for kinds serialized
    elsewhere (file-system objects, raw memory). *)
