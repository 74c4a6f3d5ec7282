module Wire = Aurora_objstore.Wire

include Image

let kind_group = "sls.group"
let kind_proc = "sls.proc"
let kind_fdesc = "sls.fdesc"
let kind_pipe = "sls.pipe"
let kind_socket = "sls.socket"
let kind_kqueue = "sls.kqueue"
let kind_pty = "sls.pty"
let kind_shm = "sls.shm"
let kind_memobj = "sls.memobj"

exception Malformed of string

(* The kind -> codec table ---------------------------------------------------------- *)

(* Every parser funnels malformed input through [Malformed]: short reads,
   bad tags (Wire.Corrupt, with the byte offset) and anything a hostile
   payload provokes out of the runtime (Failure/Invalid_argument). *)
let decode kind codec s =
  try Wire.of_string codec s
  with Wire.Corrupt msg | Failure msg | Invalid_argument msg ->
    raise (Malformed (Printf.sprintf "%s: %s" kind msg))

let checks : (string, string -> unit) Hashtbl.t = Hashtbl.create 16

(* One entry per kind: its serializer, its parser, and its [parse_check]. *)
let kind name codec =
  Hashtbl.replace checks name (fun s -> ignore (decode name codec s));
  (Wire.to_string codec, decode name codec)

let proc_to_string, proc_of_string = kind kind_proc proc
let fdesc_to_string, fdesc_of_string = kind kind_fdesc fdesc
let pipe_to_string, pipe_of_string = kind kind_pipe pipe
let socket_to_string, socket_of_string = kind kind_socket socket
let kqueue_to_string, kqueue_of_string = kind kind_kqueue kqueue
let pty_to_string, pty_of_string = kind kind_pty pty
let shm_to_string, shm_of_string = kind kind_shm shm
let memobj_to_string, memobj_of_string = kind kind_memobj memobj
let group_to_string, group_of_string = kind kind_group group

(* Can [meta] be parsed as a [kind] image?  Restore verification passes
   this to [Store.verify_epoch] as its [check_meta], so a corrupt image is
   rejected *before* the restore path starts materializing kernel objects
   from it. *)
let parse_check ~kind meta =
  match Hashtbl.find_opt checks kind with
  | None -> Ok () (* fs.* and raw memory objects have their own parsers *)
  | Some check -> ( try Ok (check meta) with Malformed msg -> Error msg)
