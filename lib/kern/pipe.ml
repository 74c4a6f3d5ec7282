let capacity = 64 * 1024

type t = {
  pipe_id : int;
  buf : Buffer.t;
  mutable rd_open : bool;
  mutable wr_open : bool;
  mutable gen : int;
  knotes : Kqueue.knlist;
}

let next_id = ref 0

let create () =
  incr next_id;
  {
    pipe_id = !next_id;
    buf = Buffer.create 256;
    rd_open = true;
    wr_open = true;
    gen = 0;
    knotes = Kqueue.knlist ();
  }

let id t = t.pipe_id
let generation t = t.gen
let knotes t = t.knotes

(* Every change to the image may change either end's readiness, so a
   stamp also activates the pipe's knotes. *)
let touch t =
  t.gen <- t.gen + 1;
  Aurora_sim.Genlog.note ~kind:Aurora_sim.Genlog.kind_pipe ~id:t.pipe_id;
  Kqueue.activate t.knotes

let write t data =
  let room = capacity - Buffer.length t.buf in
  let n = min room (String.length data) in
  Buffer.add_substring t.buf data 0 n;
  if n > 0 then touch t;
  n

let read t ~len =
  let n = min len (Buffer.length t.buf) in
  let out = Buffer.sub t.buf 0 n in
  let rest = Buffer.sub t.buf n (Buffer.length t.buf - n) in
  Buffer.clear t.buf;
  Buffer.add_string t.buf rest;
  if n > 0 then touch t;
  out

let buffered t = Buffer.length t.buf
let peek_all t = Buffer.contents t.buf

let refill t data =
  Buffer.clear t.buf;
  Buffer.add_string t.buf data;
  touch t

let close_read t =
  t.rd_open <- false;
  touch t

let close_write t =
  t.wr_open <- false;
  touch t

let read_open t = t.rd_open
let write_open t = t.wr_open

(* Test hook: mutate buffered contents WITHOUT bumping the generation, to
   model a kernel subsystem that forgot the stamp discipline.  Incremental
   checkpoints will persist stale state for this pipe; the restore-vs-model
   diff must catch it (negative control in the test suite).  Readiness is
   not the stamp: a kqueue still sees the new bytes. *)
let unstamped_poke_for_tests t data =
  Buffer.clear t.buf;
  Buffer.add_string t.buf data;
  Kqueue.activate t.knotes
