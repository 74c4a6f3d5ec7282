(* CPU and memory *)
let page_copy = 450
let memory_copy_bandwidth = 9 * 1024 * 1024 * 1024

(* Virtual memory *)
let cow_mark_page = 23
let soft_fault = 1_400
let cow_fault = 2_100
let shadow_chain_hop = 150
let tlb_shootdown = 4_000
let ipi_roundtrip = 6_000
let collapse_page_move = 260

(* POSIX object serialization atoms *)
let obj_serialize_base = 1_200
let obj_restore_base = 2_000
let kqueue_per_event = 33
let sysv_namespace_scan = 10_400
let devfs_lock = 28_200
let shm_shadow_setup = 2_800
let socket_buffer_scan_per_kib = 350
let proc_serialize = 9_000
let thread_serialize = 3_200
let cpu_state_copy = 900
let vm_entry_serialize = 450
let vnode_path_lookup = 11_000
let ckpt_dirty_check = 100

(* Orchestrator *)
let syscall_overhead = 1_500
let shadow_object_setup = 600
let ckpt_record_write = 26_000
let async_flush_setup = 42_000
let orchestrator_barrier = 115_000
let restore_object_link = 700

(* Storage *)
let nvme_read_latency = 10_000
let nvme_write_latency = 12_000
let nvme_sync_write_latency = 26_000
let nvme_device_bandwidth = 2_200 * 1024 * 1024
let nvme_stripe_devices = 4
let nvme_stripe_size = 64 * 1024
let journal_stream_bandwidth = 2_600 * 1024 * 1024
let nvme_max_extent_bytes = 4 * 1024 * 1024

(* CRIU / RDB baselines *)
let criu_per_object_inference = 155_000
let criu_copy_bandwidth = 1_270 * 1024 * 1024
let criu_io_bandwidth = 1_500 * 1024 * 1024
let fork_cow_per_page = 60
let rdb_serialize_bandwidth = 1_750 * 1024 * 1024

(* Page-granular checkpointing: content hashing and compression.
   Hashing is xxHash-class single-core throughput on the paper's Xeon
   Silver; compression bandwidths are LZ4-class, split by how hard the
   match finder has to work per input byte: constant pages stream at
   near-memcpy speed, text compresses at a few hundred MiB/s, binary is
   slower, and incompressible data costs only the early-bailout scan. *)
let page_hash_bandwidth = 12 * 1024 * 1024 * 1024
let compress_zero_bandwidth = 6 * 1024 * 1024 * 1024
let compress_text_bandwidth = 680 * 1024 * 1024
let compress_binary_bandwidth = 410 * 1024 * 1024
let compress_random_bandwidth = 1_900 * 1024 * 1024
let decompress_bandwidth = 2_400 * 1024 * 1024

(* Network *)
let net_one_way_latency = 65_000
let net_bandwidth = 1_150 * 1024 * 1024
let net_per_message_cpu = 2_000

let transfer_time ~bandwidth bytes =
  if bytes <= 0 then 0
  else
    (* ns = bytes / (bytes/s) * 1e9, computed in float to avoid overflow on
       multi-GiB transfers. *)
    int_of_float (float_of_int bytes /. float_of_int bandwidth *. 1e9)

let copy_time bytes = transfer_time ~bandwidth:memory_copy_bandwidth bytes
