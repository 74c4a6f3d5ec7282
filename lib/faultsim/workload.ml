module Clock = Aurora_sim.Clock
module Rng = Aurora_util.Rng
module Store = Aurora_objstore.Store
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Fdesc = Aurora_kern.Fdesc
module Pipe = Aurora_kern.Pipe
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page

type op =
  | Checkpoint of (int * string * string * (int * char) list) list
  | Prune of int
  | Journal_create of int
  | Journal_append of int * string
  | Journal_truncate of int
  | Wait
  | Advance of int

let payload_size = 64
let page_payload c = Bytes.make payload_size c

(* Wire size of one journal record (tag u8 + gen u32 + length-prefixed
   string); the model mirrors the store's capacity check with it. *)
let journal_record_len data = 9 + String.length data

let journal_capacity_of_size size =
  let nblocks = max 1 ((size + Store.block_size - 1) / Store.block_size) in
  nblocks * Store.block_size

(* Printing: every op renders as a line that reads back as OCaml-ish
   construction syntax, so a failing qcheck case is a replayable script. *)

let op_to_string = function
  | Checkpoint objs ->
      let obj (oid, kind, meta, pages) =
        Printf.sprintf "(%d, %S, %S, [%s])" oid kind meta
          (String.concat "; "
             (List.map (fun (i, c) -> Printf.sprintf "(%d, %C)" i c) pages))
      in
      Printf.sprintf "Checkpoint [%s]" (String.concat "; " (List.map obj objs))
  | Prune keep -> Printf.sprintf "Prune %d" keep
  | Journal_create size -> Printf.sprintf "Journal_create %d" size
  | Journal_append (id, data) -> Printf.sprintf "Journal_append (%d, %S)" id data
  | Journal_truncate id -> Printf.sprintf "Journal_truncate %d" id
  | Wait -> "Wait"
  | Advance ns -> Printf.sprintf "Advance %d" ns

let ops_to_string ops =
  String.concat "\n" (List.mapi (fun i op -> Printf.sprintf "  %2d: %s" i (op_to_string op)) ops)

(* Running an op list against a real store ---------------------------------- *)

type runner = {
  store : Store.t;
  check_counts : bool;
  journals : (int, Store.journal) Hashtbl.t;
  mutable journal_heads : (int * int * int) list; (* id, head bytes, capacity *)
}

let runner ?(check_counts = true) store =
  { store; check_counts; journals = Hashtbl.create 4; journal_heads = [] }

let journal_fits t id len =
  match List.find_opt (fun (i, _, _) -> i = id) t.journal_heads with
  | None -> false
  | Some (_, head, cap) -> head + len <= cap

let note_append t id len =
  t.journal_heads <-
    List.map
      (fun ((i, head, cap) as e) -> if i = id then (i, head + len, cap) else e)
      t.journal_heads

let run_op t op =
  match op with
  | Checkpoint objs ->
      ignore (Store.begin_checkpoint t.store);
      List.iter
        (fun (oid, kind, meta, pages) ->
          Store.reserve_oids t.store ~upto:oid;
          Store.put_object t.store ~oid ~kind ~meta;
          if pages <> [] then
            Store.put_pages t.store ~oid
              (List.map (fun (i, c) -> (i, page_payload c)) pages))
        objs;
      ignore (Store.commit_checkpoint t.store)
  | Prune keep ->
      ignore (Store.prune_history t.store ~keep:(max 1 keep));
      (* The live store's incrementally kept counts, before any cut. *)
      if t.check_counts && not (Store.content_index_consistent t.store) then
        failwith (Printf.sprintf "Prune %d: block counts disagree with a fresh walk" keep)
  | Journal_create size ->
      let j = Store.journal_create t.store ~size in
      Hashtbl.replace t.journals (Store.journal_id j) j;
      t.journal_heads <-
        (Store.journal_id j, 0, journal_capacity_of_size size) :: t.journal_heads
  | Journal_append (id, data) -> (
      (* Appends that would overflow are skipped deterministically; the
         model applies the identical predicate. *)
      match Hashtbl.find_opt t.journals id with
      | Some j when journal_fits t id (journal_record_len data) ->
          Store.journal_append t.store j data;
          note_append t id (journal_record_len data)
      | Some _ | None -> ())
  | Journal_truncate id -> (
      match Hashtbl.find_opt t.journals id with
      | Some j ->
          Store.journal_truncate t.store j;
          t.journal_heads <-
            List.map
              (fun ((i, _, cap) as e) -> if i = id then (i, 0, cap) else e)
              t.journal_heads
      | None -> ())
  | Wait -> Store.wait_durable t.store
  | Advance ns -> Clock.advance (Store.clock t.store) ns

(* Random workloads ----------------------------------------------------------- *)

let gen_checkpoint rng ~max_oid ~max_pages =
  let nobjs = Rng.int_in rng 1 (max 1 (max_oid / 2)) in
  Checkpoint
    (List.init nobjs (fun _ ->
         let oid = Rng.int_in rng 1 max_oid in
         let npages = Rng.int_in rng 0 max_pages in
         let pages =
           List.init npages (fun _ ->
               (Rng.int_in rng 0 900, Char.chr (Rng.int_in rng 33 122)))
         in
         (oid, "memory", Printf.sprintf "m%d" (Rng.int_in rng 0 9999), pages)))

let gen_op rng ~max_oid ~max_pages =
  match Rng.int rng 10 with
  | 0 -> Prune (Rng.int_in rng 1 3)
  | 1 -> Journal_create ((1 + Rng.int rng 16) * 4096)
  | 2 | 3 -> Journal_append (Rng.int_in rng 1 3, Printf.sprintf "r%d" (Rng.int rng 100000))
  | 4 -> Journal_truncate (Rng.int_in rng 1 3)
  | 5 -> if Rng.bool rng then Wait else Advance (Rng.int_in rng 1_000 200_000)
  | _ -> gen_checkpoint rng ~max_oid ~max_pages

let gen_ops rng ~n ~max_oid ~max_pages =
  List.init n (fun _ -> gen_op rng ~max_oid ~max_pages)

(* Speculative-checkpoint arm: a soft-quiesce cycle stages every object
   speculatively while the workload keeps running, then the validator
   re-puts the conflict set over the staged image, relying on the store's
   newest-wins staging (last put_object wins wholesale, duplicate
   put_pages rows replace).  At the store level that is a checkpoint whose
   object list carries a stale prelude superseded row-by-row by the real
   content — so rewriting every Checkpoint op this way puts the exact
   splice mechanism under crash-point enumeration: recovery must land on
   a model snapshot, never a half-spliced blend of prelude and
   correction. *)
let speculative_arm ops =
  let stale_char c = Char.chr (33 + ((Char.code c + 7 - 33) mod 90)) in
  List.map
    (function
      | Checkpoint objs ->
          let prelude =
            List.map
              (fun (oid, kind, meta, pages) ->
                ( oid,
                  kind,
                  "spec:" ^ meta,
                  List.map (fun (i, c) -> (i, stale_char c)) pages ))
              objs
          in
          Checkpoint (prelude @ objs)
      | op -> op)
    ops

(* The acceptance-criteria workload: three checkpoints with cross-leaf
   page spreads, journal traffic, and a prune — replayed back-to-back with
   no waits, so the commit pipeline stays as deep as it ever gets. *)
let standard =
  let pages lo n step c =
    List.init n (fun i -> (lo + (i * step), Char.chr (Char.code c + (i mod 20))))
  in
  [
    Journal_create (64 * 1024);
    Checkpoint
      [
        (1, "memory", "proc-1", pages 0 40 7 'a');
        (2, "vnode", "file-2", pages 200 30 11 'A');
      ];
    Journal_append (1, "record-one");
    Checkpoint
      [
        (1, "memory", "proc-1b", pages 0 25 13 'g');
        (3, "memory", "proc-3", pages 500 35 9 'p');
      ];
    Journal_append (1, "record-two");
    Journal_append (1, "record-three");
    Checkpoint
      [ (2, "vnode", "file-2b", pages 240 20 17 'M'); (3, "memory", "", pages 510 15 23 'q') ];
    Prune 2;
    Journal_truncate 1;
    Journal_append (1, "post-truncate");
    Checkpoint [ (4, "memory", "wide", pages 0 40 101 'W') ];
    Journal_append (1, "record-four");
    Checkpoint
      [ (4, "memory", "wide2", pages 20 40 97 'X'); (5, "vnode", "tail", pages 1000 25 3 'Y') ];
    Checkpoint [ (1, "memory", "final", pages 3 12 31 'z') ];
    (* Second phase: with payloads packed into coalesced extents a
       checkpoint submits a handful of device writes, so boundary coverage
       needs operations, not pages.  These cycles mix exact repeats of
       earlier content (dedup hits: leaf references, no data write) with
       fresh content, plus a second journal, so the enumerator crashes
       inside dedup-heavy and dedup-free flushes alike. *)
    Journal_create (32 * 1024);
    Checkpoint
      [
        (* Byte-identical to epoch 1's object 1 pages: all dedup hits. *)
        (6, "memory", "twin", pages 0 40 7 'a');
        (7, "vnode", "fresh-7", pages 50 30 19 '0');
      ];
    Journal_append (2, "second-journal-one");
    Journal_append (1, "interleaved");
    Checkpoint
      [ (7, "vnode", "fresh-7b", pages 80 25 29 '5'); (6, "memory", "", pages 7 18 41 'k') ];
    Journal_append (2, "second-journal-two");
    Prune 3;
    Checkpoint
      [
        (8, "memory", "mixed", pages 0 30 7 'a');
        (* Repeats of object 5's tail plus new indices. *)
        (5, "vnode", "tail2", pages 1000 25 3 'Y');
      ];
    Journal_truncate 2;
    Journal_append (2, "post-truncate-two");
    Checkpoint [ (8, "memory", "mixed2", pages 60 22 13 'C') ];
    Journal_append (1, "record-five");
    Checkpoint [ (2, "vnode", "file-2c", pages 240 20 17 'M'); (9, "memory", "ninth", pages 2000 28 5 'e') ];
  ]

(* Kernel-driven recorded profiles -------------------------------------------

   The two POSIX surfaces the object model uniquely handles — fork's COW
   sharing and POSIX shm — are exercised by running a REAL kernel model
   (Aurora_kern.Machine, no store attached) and projecting its state into
   plain ops after every epoch of activity.  The projection reads page
   bytes through each process's own address space, so what lands in the
   recorded Checkpoint is the genuine COW resolution: a child that has
   not diverged from its parent records byte-identical pages (store dedup
   hits), and divergence after a fork shows up as differing fill chars on
   the same page index.  The resulting op list is a pure value — the
   crash-point enumerator replays it with no kernel in the loop. *)

let fork_oid_base = 10
let pipe_oid_base = 100
let fork_arena_pages = 8

type fam_proc = {
  fp_id : int;  (* recorder-stable id: kernel pids vary with history *)
  fp_parent : int;
  fp_proc : Process.t;
  fp_base : int;
  fp_written : (int, unit) Hashtbl.t;
}

type fam_pipe = {
  pp_id : int;
  pp_reader : int;  (* fam id of the child holding the read end *)
  pp_writer : int;  (* fam id of the parent holding the write end *)
  pp_rd_fd : int;
  pp_wr_fd : int;
}

let fork_bomb ?(seed = 11) ?(epochs = 6) () =
  let rng = Rng.create seed in
  let m = Machine.create () in
  let root_proc = Syscall.spawn m ~name:"sh" in
  let root_arena = Syscall.mmap_anon root_proc ~npages:fork_arena_pages in
  let root =
    {
      fp_id = 0;
      fp_parent = -1;
      fp_proc = root_proc;
      fp_base = Vm_space.addr_of_entry root_arena;
      fp_written = Hashtbl.create 8;
    }
  in
  let live = ref [ root ] in
  let pipes = ref [] in
  let next_id = ref 1 in
  let next_pipe = ref 0 in
  let rev_ops = ref [ Journal_create (16 * 1024) ] in
  let emit op = rev_ops := op :: !rev_ops in
  let log fmt = Printf.ksprintf (fun s -> emit (Journal_append (1, s))) fmt in
  let write_page fp =
    let vpn = Rng.int rng fork_arena_pages in
    let c = Char.chr (Rng.int_in rng 97 122) in
    Vm_space.write_byte fp.fp_proc.Process.space
      ~addr:(fp.fp_base + (vpn * Page.logical_size))
      c;
    Hashtbl.replace fp.fp_written vpn ()
  in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let is_leaf fp = not (List.exists (fun o -> o.fp_parent = fp.fp_id) !live) in
  let do_fork () =
    let parent = pick !live in
    (* The pipe is created before the fork so its two descriptions span
       the parent/child boundary — the shell-pipeline shape. *)
    let rd, wr = Syscall.pipe m parent.fp_proc in
    let child_proc = Syscall.fork m parent.fp_proc in
    let child =
      {
        fp_id = !next_id;
        fp_parent = parent.fp_id;
        fp_proc = child_proc;
        fp_base = parent.fp_base;
        fp_written = Hashtbl.copy parent.fp_written;
      }
    in
    incr next_id;
    Syscall.close parent.fp_proc rd;
    Syscall.close child_proc wr;
    let p =
      { pp_id = !next_pipe; pp_reader = child.fp_id; pp_writer = parent.fp_id;
        pp_rd_fd = rd; pp_wr_fd = wr }
    in
    incr next_pipe;
    ignore (Syscall.write m parent.fp_proc ~fd:wr (Printf.sprintf "f%d" child.fp_id));
    live := !live @ [ child ];
    pipes := !pipes @ [ p ];
    log "fork %d->%d pipe %d" parent.fp_id child.fp_id p.pp_id
  in
  let do_exit () =
    match List.filter (fun fp -> fp.fp_id <> 0 && is_leaf fp) !live with
    | [] -> ()
    | leaves ->
        let fp = pick leaves in
        Syscall.exit m fp.fp_proc ~code:0;
        (match List.find_opt (fun o -> o.fp_id = fp.fp_parent) !live with
        | Some parent -> ignore (Syscall.waitpid m parent.fp_proc)
        | None -> ());
        live := List.filter (fun o -> o.fp_id <> fp.fp_id) !live;
        pipes :=
          List.filter
            (fun p -> p.pp_reader <> fp.fp_id && p.pp_writer <> fp.fp_id)
            !pipes;
        log "exit %d" fp.fp_id
  in
  let do_pipe_traffic () =
    match !pipes with
    | [] -> ()
    | ps ->
        let p = pick ps in
        (match List.find_opt (fun o -> o.fp_id = p.pp_writer) !live with
        | Some w ->
            ignore
              (Syscall.write m w.fp_proc ~fd:p.pp_wr_fd
                 (Printf.sprintf "m%d" (Rng.int rng 100)))
        | None -> ());
        (match List.find_opt (fun o -> o.fp_id = p.pp_reader) !live with
        | Some r ->
            if Rng.bool rng then
              ignore (Syscall.read m r.fp_proc ~fd:p.pp_rd_fd ~len:2)
        | None -> ())
  in
  let checkpoint_objects () =
    let procs =
      List.map
        (fun fp ->
          let pages =
            Hashtbl.fold (fun vpn () acc -> vpn :: acc) fp.fp_written []
            |> List.sort compare
            |> List.map (fun vpn ->
                   ( vpn,
                     Vm_space.read_byte fp.fp_proc.Process.space
                       ~addr:(fp.fp_base + (vpn * Page.logical_size)) ))
          in
          ( fork_oid_base + fp.fp_id,
            "memory",
            Printf.sprintf "sh-%d/pp%d" fp.fp_id fp.fp_parent,
            pages ))
        (List.sort (fun a b -> compare a.fp_id b.fp_id) !live)
    in
    let pipe_objs =
      List.map
        (fun p ->
          let content =
            match List.find_opt (fun o -> o.fp_id = p.pp_reader) !live with
            | Some r -> (
                match (Syscall.fd_exn r.fp_proc p.pp_rd_fd).Fdesc.kind with
                | Fdesc.Pipe_read pipe -> Pipe.peek_all pipe
                | _ -> "")
            | None -> ""
          in
          ( pipe_oid_base + p.pp_id,
            "pipe",
            Printf.sprintf "r%d-w%d:%s" p.pp_reader p.pp_writer content,
            [] ))
        !pipes
    in
    procs @ pipe_objs
  in
  for _epoch = 1 to epochs do
    let actions = Rng.int_in rng 3 6 in
    for _ = 1 to actions do
      match Rng.int rng 10 with
      | 0 | 1 | 2 when List.length !live < 7 -> do_fork ()
      | 3 when List.length !live > 2 -> do_exit ()
      | 4 | 5 -> do_pipe_traffic ()
      | _ -> write_page (pick !live)
    done;
    emit (Checkpoint (checkpoint_objects ()));
    (match Rng.int rng 6 with
    | 0 -> emit (Advance (Rng.int_in rng 10_000 120_000))
    | 1 -> emit Wait
    | 2 when Rng.bool rng -> emit (Prune (Rng.int_in rng 2 4))
    | _ -> ())
  done;
  List.rev !rev_ops

(* POSIX-shm producer/consumer ring ------------------------------------- *)

let shm_oid = 7
let shm_nslots = 4

(* One field per page so a torn flush can separate a slot's sequence
   stamp from its body: page 0 = head, page 1 = tail, pages 2..5 = the
   per-slot seqlock stamps, pages 6..9 = the per-slot bodies. *)
let shm_npages = 2 + (2 * shm_nslots)

(* Ring fields render as page fill chars; the checker inverts them, so
   the alphabet avoids every character the render format treats as
   structure (',' ':' ';' '|' and anything [String.escaped] rewrites)
   and its even length means sequence parity — the seqlock's
   published/in-flight bit — survives the wrap. *)
let shm_alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwx"
let shm_enc v = shm_alphabet.[v mod String.length shm_alphabet]
let shm_enc_body r = shm_alphabet.[r * 7 mod String.length shm_alphabet]
let shm_empty_body = '-'

let shm_ring ?(seed = 23) ?(epochs = 8) () =
  let rng = Rng.create seed in
  let m = Machine.create () in
  let prod = Syscall.spawn m ~name:"ring-prod" in
  let cons = Syscall.spawn m ~name:"ring-cons" in
  let pfd = Syscall.shm_open m prod ~name:"/aurora-ring" ~npages:shm_npages in
  let cfd = Syscall.shm_open m cons ~name:"/aurora-ring" ~npages:shm_npages in
  let pbase = Vm_space.addr_of_entry (Syscall.mmap_shm prod ~fd:pfd) in
  let cbase = Vm_space.addr_of_entry (Syscall.mmap_shm cons ~fd:cfd) in
  (* Producer-side stores and consumer-side loads go through each
     process's own mapping of the one shared object; head/seq/body
     written here must be visible over there. *)
  let wr_prod vpn c =
    Vm_space.write_byte prod.Process.space
      ~addr:(pbase + (vpn * Page.logical_size))
      c
  in
  let wr_cons vpn c =
    Vm_space.write_byte cons.Process.space
      ~addr:(cbase + (vpn * Page.logical_size))
      c
  in
  let rd_cons vpn =
    Vm_space.read_byte cons.Process.space ~addr:(cbase + (vpn * Page.logical_size))
  in
  wr_prod 0 (shm_enc 0);
  wr_cons 1 (shm_enc 0);
  for s = 0 to shm_nslots - 1 do
    wr_prod (2 + s) (shm_enc 0);
    wr_prod (2 + shm_nslots + s) shm_empty_body
  done;
  let head = ref 0 in
  let tail = ref 0 in
  (* (record, stage): stage 1 = seq marked odd, body still old; stage 2 =
     body written, seq still odd.  Either way a crash must restore a ring
     whose reader skips the slot. *)
  let publishing = ref None in
  let rev_ops = ref [ Journal_create (8 * 1024) ] in
  let emit op = rev_ops := op :: !rev_ops in
  let log fmt = Printf.ksprintf (fun s -> emit (Journal_append (1, s))) fmt in
  let finish_publish () =
    match !publishing with
    | None -> ()
    | Some (r, stage) ->
        if stage < 2 then wr_prod (2 + shm_nslots + (r mod shm_nslots)) (shm_enc_body r);
        wr_prod (2 + (r mod shm_nslots)) (shm_enc ((2 * r) + 2));
        head := r + 1;
        wr_prod 0 (shm_enc !head);
        publishing := None;
        log "pub %d" r
  in
  let start_publish r stage =
    wr_prod (2 + (r mod shm_nslots)) (shm_enc ((2 * r) + 1));
    if stage >= 2 then wr_prod (2 + shm_nslots + (r mod shm_nslots)) (shm_enc_body r);
    publishing := Some (r, stage)
  in
  let consume () =
    if !tail < !head then begin
      let r = !tail in
      let c = rd_cons (2 + shm_nslots + (r mod shm_nslots)) in
      (* The consumer observes through its own mapping: a mismatch here
         would mean the two mappings are not one object. *)
      assert (c = shm_enc_body r);
      tail := r + 1;
      wr_cons 1 (shm_enc !tail);
      log "cons %d" r
    end
  in
  for _epoch = 1 to epochs do
    finish_publish ();
    let pubs = Rng.int_in rng 0 2 in
    for _ = 1 to pubs do
      if !head - !tail < shm_nslots then begin
        start_publish !head 2;
        finish_publish ()
      end
    done;
    let cons_n = Rng.int_in rng 0 2 in
    for _ = 1 to cons_n do
      consume ()
    done;
    (* Some epochs checkpoint mid-publish: the seqlock stamp is odd and
       the head unmoved, so the recorded snapshot is exactly the torn
       window a crash could land in. *)
    if !head - !tail < shm_nslots && Rng.int rng 10 < 4 then
      start_publish !head (Rng.int_in rng 1 2);
    let meta =
      Printf.sprintf "head=%d;tail=%d;slots=%d;pub=%s" !head !tail shm_nslots
        (match !publishing with
        | None -> "-"
        | Some (r, stage) -> Printf.sprintf "%d@%d" r stage)
    in
    let pages = List.init shm_npages (fun vpn -> (vpn, rd_cons vpn)) in
    emit (Checkpoint [ (shm_oid, "shm", meta, pages) ]);
    match Rng.int rng 5 with
    | 0 -> emit (Advance (Rng.int_in rng 10_000 80_000))
    | 1 -> emit Wait
    | _ -> ()
  done;
  finish_publish ();
  List.rev !rev_ops

(* Seqlock invariant over a rendered snapshot: given head/tail/pub from
   the meta line, every ring page is reconstructible — so a recovered
   snapshot either matches the reference ring exactly or it has exposed
   a torn record. *)
let shm_ring_check render =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_chunk epoch line =
    match String.split_on_char '|' line with
    | [ _o7; _kind; meta; pages_str ] -> (
        let field name =
          let prefix = name ^ "=" in
          String.split_on_char ';' meta
          |> List.find_map (fun kv ->
                 if String.length kv > String.length prefix
                    && String.sub kv 0 (String.length prefix) = prefix
                 then
                   Some
                     (String.sub kv (String.length prefix)
                        (String.length kv - String.length prefix))
                 else None)
        in
        match (field "head", field "tail", field "pub") with
        | Some h, Some t, Some pub -> (
            let head = int_of_string h and tail = int_of_string t in
            let pub =
              if pub = "-" then None
              else
                match String.split_on_char '@' pub with
                | [ r; st ] -> Some (int_of_string r, int_of_string st)
                | _ -> None
            in
            let pages_str =
              let s = String.trim pages_str in
              if String.length s > 0 && s.[String.length s - 1] = ';' then
                String.sub s 0 (String.length s - 1)
              else s
            in
            let page_char =
              let tbl = Hashtbl.create 16 in
              List.iter
                (fun part ->
                  match String.index_opt part ':' with
                  | Some i ->
                      let idx = int_of_string (String.sub part 0 i) in
                      if String.length part > i + 1 then
                        Hashtbl.replace tbl idx part.[i + 1]
                  | None -> ())
                (String.split_on_char ',' pages_str);
              fun vpn -> Hashtbl.find_opt tbl vpn
            in
            if tail > head then fail "E%d: tail %d ahead of head %d" epoch tail head
            else if head - tail > shm_nslots then
              fail "E%d: occupancy %d overflows %d slots" epoch (head - tail)
                shm_nslots
            else if page_char 0 <> Some (shm_enc head) then
              fail "E%d: head page disagrees with head=%d" epoch head
            else if page_char 1 <> Some (shm_enc tail) then
              fail "E%d: tail page disagrees with tail=%d" epoch tail
            else begin
              (* Reconstruct each slot: the newest record it held, or the
                 in-flight publication.  A published (even) stamp whose
                 body differs from its record is an exposed torn write. *)
              let result = ref (Ok ()) in
              for slot = 0 to shm_nslots - 1 do
                let expect_seq, expect_body =
                  match pub with
                  | Some (r, stage) when r mod shm_nslots = slot ->
                      let prev = r - shm_nslots in
                      ( shm_enc ((2 * r) + 1),
                        if stage >= 2 then shm_enc_body r
                        else if prev >= 0 then shm_enc_body prev
                        else shm_empty_body )
                  | _ ->
                      let last =
                        (* Newest completed record in this slot. *)
                        let rec go r = if r < 0 then None
                          else if r mod shm_nslots = slot then Some r
                          else go (r - 1)
                        in
                        go (head - 1)
                      in
                      (match last with
                      | Some r -> (shm_enc ((2 * r) + 2), shm_enc_body r)
                      | None -> (shm_enc 0, shm_empty_body))
                in
                (match !result with
                | Error _ -> ()
                | Ok () ->
                    if page_char (2 + slot) <> Some expect_seq then
                      result :=
                        fail "E%d: slot %d seq stamp torn (head=%d tail=%d)"
                          epoch slot head tail
                    else if page_char (2 + shm_nslots + slot) <> Some expect_body
                    then
                      result :=
                        fail
                          "E%d: slot %d body does not match its seq stamp \
                           (half-written record exposed)"
                          epoch slot)
              done;
              !result
            end)
        | _ -> fail "E%d: shm meta missing head/tail/pub" epoch)
    | _ -> fail "E%d: malformed shm object line" epoch
  in
  let epoch = ref 0 in
  let prefix = Printf.sprintf "O%d|shm|" shm_oid in
  List.fold_left
    (fun acc line ->
      match acc with
      | Error _ -> acc
      | Ok checked ->
          if String.length line > 1 && line.[0] = 'E' then begin
            (match int_of_string_opt (String.sub line 1 (String.length line - 1)) with
            | Some e -> epoch := e
            | None -> ());
            acc
          end
          else if
            String.length line >= String.length prefix
            && String.sub line 0 (String.length prefix) = prefix
          then
            match check_chunk !epoch line with
            | Ok () -> Ok (checked + 1)
            | Error e -> Error e
          else acc)
    (Ok 0)
    (String.split_on_char '\n' render)
