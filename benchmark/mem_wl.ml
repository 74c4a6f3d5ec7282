(* mem_churn: a memory- and store-write-heavy closed loop.  Four processes
   (a parent, two copy-on-write forked children and an independent
   process) each own a 2048-page arena — a third zero pages, a third
   text, a third random bytes — and every 10 ms epoch writes 8 bytes into
   5% of each arena's pages and one message into a pipe, then takes a
   stop-the-world checkpoint.  Every tenth epoch prunes the store's
   history to 16 epochs.

   Building the image and the epoch step are shared with restore_read,
   which churns the same shape of image before it crashes it. *)

module Clock = Aurora_sim.Clock
module Rng = Aurora_util.Rng
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page
module Store = Aurora_objstore.Store
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group

type config = {
  arena_pages : int;
  mutation : float;  (** share of each arena's pages written per epoch *)
  epochs : int;
  warmup : int;
  period_ns : int;
  prune_every : int;
  keep : int;
}

(* One repetition at [scale] 1.0: 300 epochs, 25 of them warm-up. *)
let config ~scale =
  let epochs = max 24 (int_of_float (scale *. 300.)) in
  {
    arena_pages = 2048;
    mutation = 0.05;
    epochs;
    warmup = max 2 (epochs / 12);
    period_ns = 10_000_000;
    prune_every = 10;
    keep = 16;
  }

let sizes c =
  [
    ("processes", "4 (parent, 2 forked children, 1 independent)");
    ("arena_pages", string_of_int c.arena_pages);
    ("mutation", Printf.sprintf "%.3f" c.mutation);
    ("epochs", string_of_int c.epochs);
    ("warmup_epochs", string_of_int c.warmup);
    ("period_ns", string_of_int c.period_ns);
    ("prune", Printf.sprintf "keep %d every %d epochs" c.keep c.prune_every);
  ]

(* Page payload the arena starts with: zero, text or random, by thirds. *)
let initial_payload rng ~npages i =
  if i < npages / 3 then String.make Page.payload_size '\000'
  else if i < 2 * npages / 3 then
    let s = Printf.sprintf "page %06d: the quick brown fox jumps over the lazy dog. " i in
    String.sub (s ^ s) 0 Page.payload_size
  else String.init Page.payload_size (fun _ -> Char.chr (Rng.int rng 256))

let populate rng space ~base ~npages =
  for i = 0 to npages - 1 do
    Vm_space.write_string space ~addr:(base + (i * Page.logical_size))
      (initial_payload rng ~npages i)
  done

type image = {
  sys : Sls.system;
  group : Group.t;
  procs : Process.t list;
  arenas : (Process.t * int) list;  (** every process with its arena base *)
  parent : Process.t;
  reader : Process.t;
  pipe_rd : int;
  pipe_wr : int;
}

(* Boot and build the four-process image; [extra] adds more kernel
   objects to the parent before it forks (restore_read's pipes, sockets,
   kqueue and shared memory).  With [cow] the children inherit the
   parent's arena copy-on-write; without it every process maps its own
   arena after the fork. *)
let build ?(extra = fun _ _ -> ()) ?(cow = true) (r : Common.t) rng c ~period_ns =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  Common.trace_on r m.Machine.clock;
  let arena p =
    let base = Vm_space.addr_of_entry (Syscall.mmap_anon p ~npages:c.arena_pages) in
    populate rng p.Process.space ~base ~npages:c.arena_pages;
    base
  in
  let parent = Syscall.spawn m ~name:"churn" in
  let inherited = if cow then Some (arena parent) else None in
  let pipe_rd, pipe_wr = Syscall.pipe m parent in
  extra m parent;
  let child1 = Syscall.fork m parent in
  let child2 = Syscall.fork m parent in
  let indep = Syscall.spawn m ~name:"indep" in
  let own p = match inherited with Some base -> base | None -> arena p in
  let base = own parent in
  let base1 = own child1 and base2 = own child2 in
  let ibase = arena indep in
  let procs = [ parent; child1; child2; indep ] in
  let group = Sls.attach ~period_ns sys procs in
  ignore (Group.checkpoint ~wait_durable:true group);
  Common.drain r;
  {
    sys;
    group;
    procs;
    arenas = [ (parent, base); (child1, base1); (child2, base2); (indep, ibase) ];
    parent;
    reader = child1;
    pipe_rd;
    pipe_wr;
  }

(* One application step: 8-byte writes into [mutation] of every arena's
   pages, then one pipe message (the previous one is read first, so the
   pipe always holds unread data at the checkpoint).  Returns the bytes
   the application wrote. *)
let step img rng c ~epoch =
  let m = img.sys.Sls.machine in
  let writes = max 1 (int_of_float (c.mutation *. float_of_int c.arena_pages)) in
  List.iter
    (fun ((p : Process.t), base) ->
      for _ = 1 to writes do
        let page = Rng.int rng c.arena_pages in
        let off = 8 * Rng.int rng (Page.payload_size / 8) in
        Vm_space.write_string p.space
          ~addr:(base + (page * Page.logical_size) + off)
          (String.init 8 (fun _ -> Char.chr (Rng.int rng 256)))
      done)
    img.arenas;
  let msg = Printf.sprintf "epoch %08d" epoch in
  if epoch > 0 then
    ignore (Syscall.read m img.reader ~fd:img.pipe_rd ~len:(String.length msg));
  ignore (Syscall.write m img.parent ~fd:img.pipe_wr msg);
  (writes * 8 * List.length img.arenas) + String.length msg

let prune (r : Common.t) store c ~clock =
  let freed =
    Common.span r ~clock "store.prune" (fun () -> Store.prune_history store ~keep:c.keep)
  in
  Common.add r "store.prune_freed_blocks" (float_of_int freed)

let run_rep (r : Common.t) c ~seed ~last =
  let rng = Rng.create seed in
  let img = Common.setup r (fun () -> build r rng c ~period_ns:c.period_ns) in
  let clk = img.sys.Sls.machine.Machine.clock in
  let store = img.sys.Sls.store in
  let t0 = Clock.now clk in
  let epoch_at k =
    Clock.advance_to clk (t0 + (k * c.period_ns));
    let app_bytes = step img rng c ~epoch:k in
    let measured = k > c.warmup in
    ignore (Common.checkpoint ~measured r img.group);
    if measured then Common.add r "app_bytes" (float_of_int app_bytes);
    if k mod c.prune_every = 0 then prune r store c ~clock:clk
  in
  for k = 1 to c.warmup do
    epoch_at k
  done;
  let finish =
    Common.begin_counters r ~devs:[ img.sys.Sls.device ] ~procs:img.procs
  in
  Common.measure r (fun () ->
      for k = c.warmup + 1 to c.epochs do
        epoch_at k
      done);
  finish ~procs:img.procs;
  Store.wait_durable store;
  Common.space_amp r store img.group;
  if last then begin
    Common.verify_retained r store;
    Common.crash_and_recover r ~dev:img.sys.Sls.device ~clock:clk
  end;
  Common.trace_off r

let metrics (r : Common.t) =
  Metric.stop_metrics r @ [ Metric.write_amp r ]
