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

(* --- format pins: every durable structure's bytes and backend ops ---

   Each structure runs a seeded workload against a crash-point
   recorder. The pin is the digest of the final durable disk (every
   file, by name), the number of backend operations logged, and the
   digest of the rendered operation log. A change to framing,
   checksums, compaction or write order moves at least one of the
   three. *)

let pinned workload =
  let mem = Store.Mem.create () in
  let r = Store.Crashpoint.recorder mem in
  workload (Store.Crashpoint.handle r);
  let digest s = Digest.to_hex (Digest.string s) in
  let disk =
    String.concat ""
      (List.map
         (fun (file, bytes) -> file ^ "\000" ^ bytes ^ "\000")
         (Store.Mem.crash_image mem))
  in
  let ops = Store.Crashpoint.ops r in
  let log =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Store.Crashpoint.pp_op) ops)
  in
  Printf.sprintf "%s %d %s" (digest disk) (List.length ops) (digest log)

let pin_key rng = String.init 16 (fun _ -> Char.chr (Prng.Splitmix.next_int rng 256))

let journal_workload disk =
  let rng = Prng.Splitmix.create 21L in
  let j = J.create ~compact_every:5 ~disk () in
  for i = 0 to 13 do
    let m = Printf.sprintf "m%d" (i mod 3) in
    J.append j
      (match i mod 3 with
      | 0 -> J.Session_established { member = m; key = pin_key rng }
      | 1 -> J.Epoch_bump { key = pin_key rng; epoch = i }
      | _ -> J.Session_closed { member = m })
  done;
  J.compact j;
  J.append j (J.Epoch_bump { key = pin_key rng; epoch = 99 })

let queue_workload disk =
  let rng = Prng.Splitmix.create 22L in
  let q = Store.Queue.create ~compact_every:5 ~disk ~file:"queue-m1" () in
  for i = 1 to 12 do
    let e = Store.Queue.push q ~epoch:(i / 3) (pin_key rng) in
    if i = 4 then Store.Queue.ack q ~upto:(e.Store.Queue.seq - 1);
    if i = 7 then Store.Queue.drop q ~seq:e.Store.Queue.seq
  done;
  Store.Queue.ack q ~upto:(Store.Queue.next_seq q - 2);
  Store.Queue.drop q ~seq:(Store.Queue.next_seq q - 1)

let vault_workload disk =
  let v = Store.Vault.create ~disk () in
  List.iter (Store.Vault.put v) [ 1; 2; 5; 3; 9; 10 ];
  ignore (Store.Vault.of_bytes ~file:"vault-copy" ~disk (Store.Vault.contents v))

let replica_workload disk =
  let rng = Prng.Splitmix.create 23L in
  let key = Sym_crypto.Key.fresh Sym_crypto.Key.Long_term rng in
  let j = J.create ~compact_every:4 () in
  let wire = Queue.create () in
  let source =
    Replication.Source.create ~self:"m0" ~backups:[ "b1" ] ~term:1 ~key ~rng
      ~send:(fun f -> Queue.push f wire)
      ~journal:j ()
  in
  let replica =
    Replication.Replica.create ~self:"b1" ~primary:"m0" ~key ~rng ~disk ()
  in
  let pump () =
    while not (Queue.is_empty wire) do
      List.iter
        (Replication.Source.handle_frame source)
        (Replication.Replica.handle_frame replica (Queue.pop wire))
    done
  in
  for i = 1 to 9 do
    J.append j (J.Epoch_bump { key = pin_key rng; epoch = i });
    if i mod 4 = 0 then
      Replication.Source.ship_queue_image source ~file:"queue-m1"
        (Printf.sprintf "image-%d" i);
    pump ()
  done

let test_format_pins () =
  List.iter
    (fun (name, workload, pin) ->
      Alcotest.(check string) name pin (pinned workload))
    [
      ("journal", journal_workload,
       "b9ee04f4dba7e78abadaf46c851f7320 42 0a7c6959160288556f2b5dd6e145b28d");
      ("queue", queue_workload,
       "4dd787ba1f178a440166b069bbd4713e 40 5ea23cb36940bd250ae8e7f54cdf38c4");
      ("vault", vault_workload,
       "8fb3a895b3217d175276baf26101d0db 14 285b94e64542028dc6a9feb68981bb85");
      ("replica", replica_workload,
       "a1b6ae4436f655939804be8f03937342 36 9f2b393d5ef53c7390cd325482a6946a");
    ]

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
          ("format pins: journal, queue, vault and replica images", test_format_pins);
        ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_tests );
  ]
