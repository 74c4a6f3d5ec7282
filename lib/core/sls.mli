(** The Aurora single level store: public facade.

    Typical use:

    {[
      let sys = Sls.boot () in
      let p = Aurora_kern.Syscall.spawn sys.Sls.machine ~name:"app" in
      (* ... the application builds state ... *)
      let group = Sls.attach sys [ p ] in
      ignore (Aurora_core.Group.checkpoint group);
      (* ... crash! ... *)
      let sys', restored = Sls.reboot_and_restore sys in
      ignore (sys', restored)
    ]}

    The submodules hold the full API: {!Group} (consistency groups and
    checkpointing), {!Api} (the Table 3 application API), {!Restore},
    {!Migrate} ([sls send]/[sls recv]), {!Coredump} ([sls dump]) and
    {!Extsync} (external synchrony). *)

type system = {
  machine : Aurora_kern.Machine.t;
  device : Aurora_block.Striped.t;
  store : Aurora_objstore.Store.t;
  fs : Aurora_fs.Fs.t;
}

val boot : unit -> system
(** A fresh machine: 4-way striped NVMe array, formatted object store, and
    the Aurora file system mounted. *)

val attach : ?period_ns:int -> system -> Aurora_kern.Process.t list -> Group.t
(** [sls attach]: put processes under transparent persistence.  The group
    checkpoints stop-the-world until {!Group.set_speculative} makes
    speculative soft-quiesce its mode. *)

val crash : system -> unit
(** Power failure now: all volatile state is lost; only device-durable
    bytes survive. *)

val reboot_and_restore : ?lazy_pages:bool -> system -> system * Restore.result
(** Crash the machine, then boot a fresh kernel, recover the store from
    the devices, and restore the last complete checkpoint. *)
