(* Storage-layer suite: the Mem backend's durable/volatile split, the
   real-file backend, seeded fault injection, crash-point enumeration,
   and the headline qcheck property — absent faults, the file backend
   and the in-memory backend hold byte-identical journal images and
   replay identically. *)

open Enclaves
module B = Store.Backend
module J = Journal

(* --- Mem: the page-cache model --- *)

let test_mem_volatile_durable_split () =
  let m = Store.Mem.create () in
  Store.Mem.pwrite m ~file:"f" ~off:0 "hello";
  Alcotest.(check (option string)) "process sees the write" (Some "hello")
    (Store.Mem.read m ~file:"f");
  Alcotest.(check (option string)) "crash loses the write" None
    (Store.Mem.durable_of m "f");
  Store.Mem.fsync m ~file:"f";
  Alcotest.(check (option string)) "fsync makes it durable" (Some "hello")
    (Store.Mem.durable_of m "f");
  (* Extend without sync: only the synced prefix survives. *)
  Store.Mem.pwrite m ~file:"f" ~off:5 " world";
  Alcotest.(check (option string)) "tail volatile" (Some "hello")
    (Store.Mem.durable_of m "f");
  Alcotest.(check (option string)) "tail visible" (Some "hello world")
    (Store.Mem.read m ~file:"f")

let test_mem_gap_zero_fill () =
  let m = Store.Mem.create () in
  Store.Mem.pwrite m ~file:"g" ~off:3 "xy";
  Alcotest.(check (option string)) "gap zero-filled" (Some "\000\000\000xy")
    (Store.Mem.read m ~file:"g")

let test_mem_rename_punishes_unsynced_src () =
  (* The classic ordering bug: rename before fsync. The rename is
     atomic in the volatile view, but the durable side of [dst] must
     NOT contain bytes that were never synced. *)
  let m = Store.Mem.create () in
  Store.Mem.pwrite m ~file:"dst" ~off:0 "old";
  Store.Mem.fsync m ~file:"dst";
  Store.Mem.pwrite m ~file:"staged" ~off:0 "new";
  Store.Mem.rename m ~src:"staged" ~dst:"dst";
  Alcotest.(check (option string)) "process sees the replacement" (Some "new")
    (Store.Mem.read m ~file:"dst");
  Alcotest.(check (option string)) "crash finds NO dst — unsynced rename" None
    (Store.Mem.durable_of m "dst");
  (* Done right: write, fsync, THEN rename. *)
  let m = Store.Mem.create () in
  Store.Mem.pwrite m ~file:"dst" ~off:0 "old";
  Store.Mem.fsync m ~file:"dst";
  Store.Mem.pwrite m ~file:"staged" ~off:0 "new";
  Store.Mem.fsync m ~file:"staged";
  Store.Mem.rename m ~src:"staged" ~dst:"dst";
  Alcotest.(check (option string)) "synced rename is crash-atomic" (Some "new")
    (Store.Mem.durable_of m "dst");
  Alcotest.(check (option string)) "src gone" None (Store.Mem.read m ~file:"staged")

let test_mem_remove () =
  let m = Store.Mem.create () in
  Store.Mem.pwrite m ~file:"f" ~off:0 "x";
  Store.Mem.fsync m ~file:"f";
  Store.Mem.remove m ~file:"f";
  Alcotest.(check (option string)) "volatile gone" None (Store.Mem.read m ~file:"f");
  Alcotest.(check (option string)) "durable gone" None (Store.Mem.durable_of m "f");
  Store.Mem.remove m ~file:"f" (* idempotent *)

(* --- File: the real thing, in a scratch directory --- *)

let scratch_counter = ref 0

let with_scratch_dir f =
  incr scratch_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "enclaves-store-test-%d-%d" (Unix.getpid ())
         !scratch_counter)
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let test_file_roundtrip () =
  with_scratch_dir (fun dir ->
      let fb = Store.File.create ~dir in
      Alcotest.(check (option string)) "missing file" None
        (Store.File.read fb ~file:"j");
      Store.File.pwrite fb ~file:"j" ~off:0 "hello";
      Store.File.pwrite fb ~file:"j" ~off:5 " world";
      Alcotest.(check (option string)) "sequential writes" (Some "hello world")
        (Store.File.read fb ~file:"j");
      Store.File.pwrite fb ~file:"j" ~off:0 "HELLO";
      Alcotest.(check (option string)) "in-place overwrite" (Some "HELLO world")
        (Store.File.read fb ~file:"j");
      Store.File.pwrite fb ~file:"gap" ~off:3 "xy";
      Alcotest.(check (option string)) "gap zero-filled like Mem"
        (Some "\000\000\000xy")
        (Store.File.read fb ~file:"gap");
      Store.File.fsync fb ~file:"j";
      Store.File.pwrite fb ~file:"staged" ~off:0 "replacement";
      Store.File.fsync fb ~file:"staged";
      Store.File.rename fb ~src:"staged" ~dst:"j";
      Alcotest.(check (option string)) "rename replaces" (Some "replacement")
        (Store.File.read fb ~file:"j");
      Alcotest.(check (option string)) "src unlinked" None
        (Store.File.read fb ~file:"staged");
      Store.File.remove fb ~file:"j";
      Alcotest.(check (option string)) "removed" None
        (Store.File.read fb ~file:"j");
      Store.File.remove fb ~file:"j" (* idempotent *);
      Alcotest.check_raises "path separators rejected"
        (Invalid_argument "File: file names must not contain '/'") (fun () ->
          Store.File.pwrite fb ~file:"../escape" ~off:0 "x"))

(* --- Fault: seeded injection --- *)

let certain p = { Store.Fault.none with Store.Fault.torn_write = p }

let test_fault_torn_write () =
  let mem = Store.Mem.create () in
  let rng = Prng.Splitmix.create 3L in
  let f = Store.Fault.create ~config:(certain 1.0) ~rng (Store.Mem.handle mem) in
  let h = Store.Fault.handle f in
  B.pwrite h ~file:"f" ~off:0 "0123456789";
  let landed = Option.value ~default:"" (Store.Mem.read mem ~file:"f") in
  Alcotest.(check bool) "a strict prefix landed silently" true
    (String.length landed < 10
    && landed = String.sub "0123456789" 0 (String.length landed));
  Alcotest.(check int) "counted" 1 (Metrics.get (Store.Fault.counters f) Store.Fault.Counter.torn_writes)

let test_fault_short_write_then_heal () =
  let mem = Store.Mem.create () in
  let rng = Prng.Splitmix.create 4L in
  let config = { Store.Fault.none with Store.Fault.short_write = 1.0 } in
  let f = Store.Fault.create ~config ~rng (Store.Mem.handle mem) in
  let h = Store.Fault.handle f in
  (try
     B.pwrite h ~file:"f" ~off:0 "0123456789";
     Alcotest.fail "short write must raise"
   with B.Eio _ -> ());
  let landed = Option.value ~default:"" (Store.Mem.read mem ~file:"f") in
  Alcotest.(check bool) "prefix landed" true (String.length landed < 10);
  (* The journal's retry discipline: re-issuing the same pwrite heals
     the tear because it rewrites the same offset. *)
  Store.Mem.pwrite mem ~file:"f" ~off:0 "0123456789";
  Alcotest.(check (option string)) "retry heals" (Some "0123456789")
    (Store.Mem.read mem ~file:"f")

let test_fault_dropped_fsync () =
  let mem = Store.Mem.create () in
  let rng = Prng.Splitmix.create 5L in
  let config = { Store.Fault.none with Store.Fault.drop_fsync = 1.0 } in
  let f = Store.Fault.create ~config ~rng (Store.Mem.handle mem) in
  let h = Store.Fault.handle f in
  B.pwrite h ~file:"f" ~off:0 "data";
  B.fsync h ~file:"f";
  Alcotest.(check (option string)) "fsync silently dropped" None
    (Store.Mem.durable_of mem "f");
  Alcotest.(check int) "counted" 1
    (Metrics.get (Store.Fault.counters f) Store.Fault.Counter.dropped_fsyncs)

let test_fault_crash_after_k_writes () =
  let mem = Store.Mem.create () in
  let rng = Prng.Splitmix.create 6L in
  let config =
    { Store.Fault.none with Store.Fault.crash_after_writes = Some 2 }
  in
  let f = Store.Fault.create ~config ~rng (Store.Mem.handle mem) in
  let h = Store.Fault.handle f in
  B.pwrite h ~file:"f" ~off:0 "first";
  B.fsync h ~file:"f";
  (try
     B.pwrite h ~file:"f" ~off:5 "-second";
     Alcotest.fail "second mutation must crash"
   with B.Crashed _ -> ());
  Alcotest.(check bool) "crashed" true (Store.Fault.crashed f);
  (* Everything after the crash point is dead too. *)
  (try
     B.read h ~file:"f" |> ignore;
     Alcotest.fail "post-crash call must raise"
   with B.Crashed _ -> ());
  (* The durable image survives exactly the synced prefix. *)
  Alcotest.(check (option string)) "durable image = synced prefix"
    (Some "first") (Store.Mem.durable_of mem "f")

let test_journal_retries_transient_eio () =
  let mem = Store.Mem.create () in
  let rng = Prng.Splitmix.create 7L in
  let config = { Store.Fault.none with Store.Fault.eio = 0.3 } in
  let f = Store.Fault.create ~config ~rng (Store.Mem.handle mem) in
  let j = J.create ~disk:(Store.Fault.handle f) () in
  for e = 1 to 30 do
    J.append j (J.Epoch_bump { key = String.make 16 'k'; epoch = e })
  done;
  Alcotest.(check bool) "EIOs were injected" true
    ((Metrics.get (Store.Fault.counters f) Store.Fault.Counter.eio_injected) > 0);
  Alcotest.(check bool) "journal absorbed them" true (Metrics.get (J.counters j) J.Counter.eio_retries > 0);
  (* Every injected EIO notwithstanding, the volatile image is exactly
     the journal's acknowledged bytes. *)
  Alcotest.(check (option string)) "image matches acknowledged bytes"
    (Some (J.contents j))
    (Store.Mem.read mem ~file:(J.file j))

(* --- Crashpoint: the enumeration itself --- *)

let test_crashpoint_durable_at_matches_mem () =
  let mem = Store.Mem.create () in
  let r = Store.Crashpoint.recorder mem in
  let h = Store.Crashpoint.handle r in
  B.pwrite h ~file:"a" ~off:0 "one";
  B.fsync h ~file:"a";
  B.pwrite h ~file:"b" ~off:0 "two";
  B.pwrite h ~file:"a" ~off:3 "-more";
  let ops = Store.Crashpoint.ops r in
  Alcotest.(check int) "ops recorded" 4 (List.length ops);
  (* The model's final durable view agrees with the live Mem device. *)
  Alcotest.(check (list (pair string string))) "final durable view"
    (Store.Mem.crash_image mem)
    (Store.Crashpoint.durable_at ops (List.length ops));
  (* Boundary 0 is the empty disk; boundary 2 has only the synced "one". *)
  Alcotest.(check (list (pair string string))) "boundary 0 empty" []
    (Store.Crashpoint.durable_at ops 0);
  Alcotest.(check (list (pair string string))) "boundary 2 synced prefix"
    [ ("a", "one") ]
    (Store.Crashpoint.durable_at ops 2);
  let images = Store.Crashpoint.enumerate ops in
  Alcotest.(check bool) "boundaries + tears enumerated" true
    (List.length images > 2 * (List.length ops + 1));
  Alcotest.(check bool) "dedup is a lower bound" true
    (Store.Crashpoint.dedup_count images <= List.length images)

let test_crash_matrix_bounded () =
  let r = Crash_matrix.run ~members:2 ~appends:6 ~compact_every:4 () in
  Alcotest.(check (list string)) "no violations" []
    (List.map
       (fun v -> Format.asprintf "%a" Crash_matrix.pp_violation v)
       r.Crash_matrix.violations);
  Alcotest.(check bool) "compaction exercised (damaged images exist)" true
    (r.Crash_matrix.damaged > 0);
  Alcotest.(check bool) "checkpoints verified" true (r.Crash_matrix.checkpoints > 5)

(* --- the headline property: Mem and File agree byte for byte --- *)

(* A random journal workload: establishes, closes, bumps and explicit
   compactions, dense enough to trigger auto-compaction too. *)
let workload_gen =
  let open QCheck.Gen in
  let record =
    frequency
      [
        (4, map (fun i -> `Establish (Printf.sprintf "m%d" (i mod 5))) small_nat);
        (2, map (fun i -> `Close (Printf.sprintf "m%d" (i mod 5))) small_nat);
        (3, return `Bump);
        (1, return `Compact);
      ]
  in
  list_size (int_range 1 40) record

let apply_workload j ops =
  let epoch = ref 0 in
  List.iter
    (fun op ->
      match op with
      | `Establish m ->
          J.append j (J.Session_established { member = m; key = String.make 16 'k' })
      | `Close m -> J.append j (J.Session_closed { member = m })
      | `Bump ->
          incr epoch;
          J.append j (J.Epoch_bump { key = String.make 16 'g'; epoch = !epoch })
      | `Compact -> J.compact j)
    ops

let qcheck_tests =
  [
    QCheck.Test.make ~name:"Mem and File hold byte-identical journal images"
      ~count:60 ~long_factor:5
      (QCheck.make workload_gen)
      (fun ops ->
        with_scratch_dir (fun dir ->
            let mem = Store.Mem.create () in
            let fb = Store.File.create ~dir in
            let jm = J.create ~compact_every:8 ~disk:(Store.Mem.handle mem) () in
            let jf = J.create ~compact_every:8 ~disk:(Store.File.handle fb) () in
            apply_workload jm ops;
            apply_workload jf ops;
            let im = Store.Mem.read mem ~file:(J.file jm) in
            let if_ = Store.File.read fb ~file:(J.file jf) in
            (* Identical images, both equal to the acknowledged bytes... *)
            im = if_
            && im = Some (J.contents jm)
            && J.contents jm = J.contents jf
            (* ...and identical replay results. *)
            &&
            let rm, sm = J.replay (Option.get im) in
            let rf, sf = J.replay (Option.get if_) in
            sm = J.Clean && sf = J.Clean
            && List.for_all2 J.record_equal rm rf
            && J.state_of_records rm = J.state_of_records rf));
    QCheck.Test.make ~name:"load from either backend recovers the same state"
      ~count:30 ~long_factor:5
      (QCheck.make workload_gen)
      (fun ops ->
        with_scratch_dir (fun dir ->
            let mem = Store.Mem.create () in
            let fb = Store.File.create ~dir in
            let jm = J.create ~compact_every:8 ~disk:(Store.Mem.handle mem) () in
            let jf = J.create ~compact_every:8 ~disk:(Store.File.handle fb) () in
            apply_workload jm ops;
            apply_workload jf ops;
            let _, stm, stam = J.load ~disk:(Store.Mem.handle mem) () in
            let _, stf, staf = J.load ~disk:(Store.File.handle fb) () in
            stam = J.Clean && staf = J.Clean && stm = stf
            && stm = J.state jm && stf = J.state jf));
  ]

let suite =
  [
    ( "store",
      List.map
        (fun (name, f) -> Alcotest.test_case name `Quick f)
        [
          ("mem: volatile/durable split", test_mem_volatile_durable_split);
          ("mem: gap zero-fill", test_mem_gap_zero_fill);
          ("mem: rename punishes unsynced src", test_mem_rename_punishes_unsynced_src);
          ("mem: remove", test_mem_remove);
          ("file: roundtrip in a scratch dir", test_file_roundtrip);
          ("fault: torn write lands a silent prefix", test_fault_torn_write);
          ("fault: short write raises and heals on retry", test_fault_short_write_then_heal);
          ("fault: dropped fsync leaves tail volatile", test_fault_dropped_fsync);
          ("fault: crash after k writes", test_fault_crash_after_k_writes);
          ("journal absorbs transient EIO", test_journal_retries_transient_eio);
          ("crashpoint: durable_at matches the device", test_crashpoint_durable_at_matches_mem);
          ("crash matrix: bounded run, no violations", test_crash_matrix_bounded);
        ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_tests );
  ]
