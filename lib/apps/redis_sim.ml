module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Striped = Aurora_block.Striped
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page

type t = {
  rd_proc : Process.t;
  pages : int;
  machine : Machine.t;
}

let create ~machine ?(client_connections = 240) ~resident_mib () =
  let proc = Syscall.spawn machine ~name:"redis-server" in
  let pages = resident_mib * 1024 * 1024 / Page.logical_size in
  let arena = Syscall.mmap_anon proc ~npages:pages in
  let base = Vm_space.addr_of_entry arena in
  (* The whole keyspace is resident. *)
  Vm_space.touch_write proc.Process.space ~addr:base ~len:(pages * Page.logical_size);
  (* Kernel-object population of a serving Redis: a listener, client
     connections, an event kqueue, and the self-pipe. *)
  let listener = Syscall.socket machine proc Aurora_kern.Socket.Inet Aurora_kern.Socket.Tcp in
  Syscall.bind proc ~fd:listener { Aurora_kern.Socket.host = "0.0.0.0"; port = 6379 };
  Syscall.listen proc ~fd:listener;
  for _ = 1 to client_connections do
    ignore (Syscall.socket machine proc Aurora_kern.Socket.Inet Aurora_kern.Socket.Tcp)
  done;
  ignore (Syscall.kqueue machine proc);
  ignore (Syscall.pipe machine proc);
  { rd_proc = proc; pages; machine }

let proc t = t.rd_proc
let resident_pages t = t.pages

type rdb_breakdown = { fork_stop_ns : int; serialize_write_ns : int }

let rdb_save t ~dev =
  let clk = t.machine.Machine.clock in
  let t0 = Clock.now clk in
  (* fork: the parent stalls while every writable page is marked COW and
     the page tables are duplicated. *)
  let child = Syscall.fork t.machine t.rd_proc in
  let fork_stop_ns = Clock.now clk - t0 in
  (* The child walks the keyspace, serializes key-value pairs and writes
     the .rdb file; serialization is the bottleneck (Table 7: the write
     is 3x slower than Aurora's despite writing only the data). *)
  let bytes = t.pages * Page.logical_size in
  let serialize_ns = Cost.transfer_time ~bandwidth:Cost.rdb_serialize_bandwidth bytes in
  Clock.advance clk serialize_ns;
  ignore (Striped.write ~charge:bytes dev ~now:(Clock.now clk) ~off:0 Bytes.empty);
  Syscall.exit t.machine child ~code:0;
  ignore (Syscall.waitpid t.machine t.rd_proc);
  { fork_stop_ns; serialize_write_ns = serialize_ns }
