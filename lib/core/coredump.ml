module Store = Aurora_objstore.Store
module Thread = Aurora_kern.Thread

let dump ~store ~epoch =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "ELF Core Dump (Aurora SLS checkpoint %d)\n" epoch;
  out "Class: ELF64  Machine: x86-64  Type: CORE\n\n";
  let objects = Store.objects_at store ~epoch in
  out "Program Headers (memory objects):\n";
  List.iter
    (fun (oid, kind) ->
      if kind = Serial.kind_memobj then begin
        let pages = Store.page_crcs store ~epoch ~oid in
        let image = Serial.memobj_of_string (Store.read_meta store ~epoch ~oid) in
        out "  LOAD oid=%-6d pages=%-8d parent=%s\n" oid (List.length pages)
          (match image.Serial.i_parent_oid with
          | Some p -> string_of_int p
          | None -> "-")
      end)
    objects;
  out "\nNotes (POSIX objects):\n";
  List.iter
    (fun (oid, kind) ->
      if kind <> Serial.kind_memobj && kind <> Serial.kind_proc then
        out "  NOTE %-12s oid=%d size=%d\n" kind oid
          (String.length (Store.read_meta store ~epoch ~oid)))
    objects;
  out "\nThreads:\n";
  List.iter
    (fun (oid, kind) ->
      if kind = Serial.kind_proc then begin
        let p = Serial.proc_of_string (Store.read_meta store ~epoch ~oid) in
        out "  Process %d (%s) ppid=%d pgid=%d sid=%d fds=%d maps=%d\n"
          p.Serial.i_pid_local p.Serial.i_name p.Serial.i_ppid_local
          p.Serial.i_pgid p.Serial.i_sid (List.length p.Serial.i_fds)
          (List.length p.Serial.i_entries);
        List.iter
          (fun { Thread.tid_local; regs = { Thread.rip; rsp; rflags; _ }; _ } ->
            out "    Thread %d rip=%#x rsp=%#x rflags=%#x\n" tid_local rip rsp rflags)
          p.Serial.i_threads
      end)
    objects;
  Buffer.contents buf
