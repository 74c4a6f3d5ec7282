(** The calibrated cost model.

    Every constant is a virtual-time charge in nanoseconds (or a bandwidth in
    bytes per second).  The values are calibrated so that the composed costs
    land on the measurements the paper reports for its testbed (dual Xeon
    Silver 4116, 4x Intel Optane 900P striped at 64 KiB, 10 GbE); the
    comment next to each constant records the paper anchor it was derived
    from.  See DESIGN.md section 6. *)

(** {1 CPU and memory} *)

val page_copy : int
(** Copying one 4 KiB page within memory (~9 GiB/s streaming). *)

val memory_copy_bandwidth : int
(** Bulk streaming copy bandwidth, bytes/s. *)

(** {1 Virtual memory operations} *)

val cow_mark_page : int
(** Marking one PTE copy-on-write during checkpoint stop.  Anchor: Table 5,
    1 GiB dirty incremental checkpoint = 6.1 ms => ~23 ns/page.  This is
    the model's one-PTE write, so it is also what fault-around charges
    per neighbour it maps. *)

val soft_fault : int
(** Page-fault trap + shadow lookup + PTE install, no copy. *)

val cow_fault : int
(** Write fault that allocates and copies a private page into the top
    shadow. *)

val shadow_chain_hop : int
(** Extra object lookup per additional level in a shadow chain. *)

val tlb_shootdown : int
(** Per-checkpoint TLB invalidation broadcast. *)

val ipi_roundtrip : int
(** Forcing all cores of a consistency group to the kernel boundary
    (quiesce).  Anchors the gap between atomic and incremental checkpoints in
    Table 5 together with OS-state serialization. *)

val collapse_page_move : int
(** Moving one page between VM objects during a collapse (hash removal,
    insertion, PTE fixups). *)

(** {1 POSIX object serialization atoms (Table 4 anchors)} *)

val obj_serialize_base : int
(** Locking and copying the fixed fields of one kernel object (~1.2 µs:
    pipes and vnodes checkpoint in ~1.7 µs total). *)

val obj_restore_base : int
(** Recreating one kernel object (~2 µs). *)

val kqueue_per_event : int
(** Per-event lock+copy; 1024 events => ~34 µs (Table 4: 35.2 µs). *)

val sysv_namespace_scan : int
(** Scanning the global System V namespace (Table 4: SysV shm 14.9 µs vs
    POSIX shm 4.5 µs). *)

val devfs_lock : int
(** Device-filesystem locking when recreating a pseudoterminal (Table 4:
    pty restore 30.2 µs). *)

val shm_shadow_setup : int
(** Shadowing a shared-memory object during checkpoint (included in the
    POSIX shm checkpoint figure). *)

val socket_buffer_scan_per_kib : int
(** Parsing a socket buffer for in-flight control messages. *)

val proc_serialize : int
(** Process structure: credentials, pgrp/session links, limits. *)

val thread_serialize : int
(** Thread: signal masks, pending signals, scheduling state. *)

val cpu_state_copy : int
(** Registers off the kernel stack + FPU/vector state. *)

val vm_entry_serialize : int
(** One VM map entry (range, protection, madvise hints, object ref). *)

val vnode_path_lookup : int
(** namei + name-cache lookup; the cost Aurora avoids by referencing inode
    numbers (ablation: bench vnode-by-path). *)

val ckpt_dirty_check : int
(** Comparing one object's generation stamp against the record of its last
    persisted image (a lock + one cache line).  Charged instead of the
    serialize atoms when an incremental checkpoint skips a clean object. *)

(** {1 Orchestrator} *)

val syscall_overhead : int
(** Entering/leaving the kernel for an Aurora API call. *)

val shadow_object_setup : int
(** Interposing one system shadow above a VM object. *)

val ckpt_record_write : int
(** Initiating the on-disk checkpoint record (object-table delta +
    checkpoint descriptor).  Anchor: Table 5 atomic base ~80 µs. *)

val async_flush_setup : int
(** Building the dirty-page list and queueing the asynchronous writes. *)

val orchestrator_barrier : int
(** Serialization barriers across the OS for one consistency-group
    checkpoint (coordinating object writers, section 4.1).  Together with
    quiesce, OS-state serialization and flush setup this composes the
    ~185 us incremental-checkpoint floor of Table 5. *)

val restore_object_link : int
(** Relinking one restored object into the process (fd table slot, map
    entry). *)

(** {1 Storage devices} *)

val nvme_read_latency : int
val nvme_write_latency : int

val nvme_sync_write_latency : int
(** Synchronous write incl. flush; anchor: journal 4 KiB = 28 µs. *)

val nvme_device_bandwidth : int
(** Per-device streaming bandwidth, bytes/s (Optane 900P class). *)

val nvme_stripe_devices : int
(** 4 devices striped at 64 KiB, as in the paper's testbed. *)

val nvme_stripe_size : int

val journal_stream_bandwidth : int
(** Sustained synchronous journal append bandwidth; anchor: 1 GiB journaled
    write = 417 ms => ~2.6 GiB/s. *)

val nvme_max_extent_bytes : int
(** Largest single vectored submission the flush pipeline coalesces (4 MiB,
    1024 blocks): the sweet spot where per-I/O latency has fully amortized
    against the stripe's streaming bandwidth; larger extents are split so
    no single submission monopolizes the device queues. *)

(** {1 Page-granular checkpointing: hashing and compression}

    Charged by the object store's flush path, per page payload, keyed on
    {!Aurora_util.Rle.cls}.  Hashing is xxHash-class single-core
    throughput; compression bandwidths are LZ4-class, split by how hard
    the match finder works per input byte. *)

val page_hash_bandwidth : int
(** Content-hash throughput over the original payload, bytes/s. *)

val compress_zero_bandwidth : int
(** Constant pages: one run, near-memcpy streaming. *)

val compress_text_bandwidth : int
(** Highly repetitive payloads (>=2x reduction). *)

val compress_binary_bandwidth : int
(** Mildly compressible payloads (>=10% reduction). *)

val compress_random_bandwidth : int
(** Incompressible payloads: the early-bailout scan only. *)

val decompress_bandwidth : int
(** Decompression on the read/restore path, bytes/s of original data. *)

(** {1 CRIU and RDB baselines (Table 1 / Table 7 anchors)} *)

val criu_per_object_inference : int
(** Per-kernel-object cost of CRIU's userspace traversal and sharing
    inference (procfs reads, parasite-code injection amortized).  Anchor:
    Table 1 OS-state copy = 49 ms for a 500 MB Redis. *)

val criu_copy_bandwidth : int
(** CRIU page-copy bandwidth while the target is stopped.  Anchor: 413 ms
    for 500 MB => ~1.2 GiB/s. *)

val criu_io_bandwidth : int
(** CRIU image-write bandwidth (no flush).  Anchor: 350 ms for 500 MB. *)

val fork_cow_per_page : int
(** Marking one page COW in fork (Redis RDB; 500 MiB fork stop ~8 ms). *)

val rdb_serialize_bandwidth : int
(** Redis RDB child serialization + write bandwidth.  Anchor: ~300 ms for
    500 MB. *)

(** {1 Network (10 GbE)} *)

val net_one_way_latency : int
(** Application-observed one-way latency over the 10 GbE testbed: NIC,
    interrupt coalescing and both network stacks.  Anchor: Figure 5's
    baseline average of 157 us at 120 kops/s. *)

val net_bandwidth : int
(** Link bandwidth, bytes/s. *)

val net_per_message_cpu : int
(** Socket send/receive CPU cost per message. *)

(** {1 Composite helpers} *)

val copy_time : int -> int
(** [copy_time bytes] at {!memory_copy_bandwidth}. *)

val transfer_time : bandwidth:int -> int -> int
(** [transfer_time ~bandwidth bytes] in nanoseconds. *)
