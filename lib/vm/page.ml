let logical_size = 4096
let payload_size = 64

type t = { pid : int; mutable data : bytes }

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let alloc_sized ~payload =
  assert (payload > 0 && payload <= logical_size);
  { pid = fresh_id (); data = Bytes.make payload '\000' }

let alloc () = alloc_sized ~payload:payload_size
let alloc_full () = alloc_sized ~payload:logical_size

let alloc_init f = { pid = fresh_id (); data = Bytes.init payload_size f }

let id t = t.pid
let copy t = { pid = fresh_id (); data = Bytes.copy t.data }

let fold t off =
  assert (off >= 0 && off < logical_size);
  off mod Bytes.length t.data

let get t off = Bytes.get t.data (fold t off)

let set t off c = Bytes.set t.data (fold t off) c

let blit_payload t = Bytes.copy t.data

let load_payload t b = t.data <- Bytes.copy b

let equal_content a b = Bytes.equal a.data b.data
