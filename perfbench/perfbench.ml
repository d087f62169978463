(* The repo benchmark. One process, one thread, one closed-loop client.

   perfbench.exe --workload W --seed N --seconds S --trace 0|1
     [--spans-out FILE]
   perfbench.exe --selftest

   --trace 0 measures the end-to-end metrics with tracing off. --trace 1
   repeats that run, replays the same seed and ops with spans around
   the benchmark's calls into each layer, times the layers it cannot
   reach from outside standalone, and prints the per-layer metrics.
   The last line of standard output is one JSON object. *)

module D = Enclaves.Driver.Improved
module W = Workloads

let now_ns = Spans.now_ns
let ms ns = float_of_int ns /. 1e6

type limit = Seconds of float | Ops of int

let round_seed seed r =
  Prng.Splitmix.remix (Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int r))

let vnow (round : W.round) =
  match round.W.driver with
  | Some d -> Netsim.Sim.now (D.sim d)
  | None -> 0L

(* --- the untraced run: end-to-end metrics --- *)

type plain = {
  setups : float list;  (** seconds, [builds_per_round] per round *)
  op_ns : int array;
  rounds : (int * string) list;  (** ops and end-state fingerprint per round *)
  attempted : int;
  failed : int;
  vtime_us : int64;
  events : int;
  minor_words : float;
  major_collections : int;
  heap_peak_mb : float;  (** over set-up and the first round of ops *)
}

(* Each round builds its group this many times, each build timed after
   a full major collection, and runs its ops on the last: the extra
   builds give setup_s more samples than one per round. *)
let builds_per_round = 3

let run_plain (w : W.t) ~seed limit =
  let start = now_ns () in
  let attempted = ref 0 and failed = ref 0 in
  let stop () =
    match limit with
    | Seconds s -> float_of_int (now_ns () - start) /. 1e9 >= s
    | Ops n -> !attempted >= n
  in
  let setups = ref [] and rounds = ref [] and op_ns = ref [] in
  let vtime = ref 0L and events = ref 0 in
  let minor = ref 0.0 and major = ref 0 in
  let r = ref 0 in
  let heap_words = ref 0 in
  while not (stop ()) do
    let build () =
      let s0 = now_ns () in
      let round = w.W.setup ~seed:(round_seed seed !r) None in
      setups := (float_of_int (now_ns () - s0) /. 1e9) :: !setups;
      round
    in
    for _ = 2 to builds_per_round do
      ignore (build ());
      Gc.full_major ()
    done;
    let round = build () in
    let i = ref 0 in
    while !i < w.W.per_round && (!i = 0 || not (stop ())) do
      let mw0 = Gc.minor_words () in
      let mc0 = (Gc.quick_stat ()).Gc.major_collections in
      let v0 = vnow round in
      let t0 = now_ns () in
      let check = round.W.step !attempted in
      let t1 = now_ns () in
      minor := !minor +. (Gc.minor_words () -. mw0);
      major := !major + ((Gc.quick_stat ()).Gc.major_collections - mc0);
      vtime := Int64.add !vtime (Int64.sub (vnow round) v0);
      op_ns := (t1 - t0) :: !op_ns;
      if not (check ()) then incr failed;
      incr attempted;
      incr i
    done;
    events := !events + !(round.W.events);
    rounds := (!i, round.W.fingerprint ()) :: !rounds;
    (* The peak over a fixed amount of work: a longer run would also
       grow the heap through fragmentation, making the peak depend on
       speed. *)
    if !r = 0 then heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    (* Drop this round's group before the next is built, so every round
       starts without the last one's garbage. *)
    Gc.full_major ();
    incr r
  done;
  {
    setups = List.rev !setups;
    op_ns = Array.of_list (List.rev !op_ns);
    rounds = List.rev !rounds;
    attempted = !attempted;
    failed = !failed;
    vtime_us = !vtime;
    events = !events;
    minor_words = !minor;
    major_collections = !major;
    heap_peak_mb = float_of_int (!heap_words * (Sys.word_size / 8)) /. 1048576.0;
  }

let percentile = Standalone.percentile

(* The gated end-to-end metrics: these repeat from run to run. Set-up
   and op time are both p95s, for the reason given under [ungated]. *)
let end_to_end p =
  [
    ("setup_s", percentile 0.95 (Array.of_list p.setups), "s");
    ("op_ms_p95", percentile 0.95 (Array.map ms p.op_ns), "ms");
    ("heap_peak_mb", p.heap_peak_mb, "MB");
  ]

(* Printed, not gated. A shared 2-core box alternates between two
   speed states on a scale of seconds; the median and the mean land in
   one or the other from run to run. The p95 stays in the slow one
   unless under a twentieth of the run was slow; the p90 drops out of
   it once under a tenth was. The same holds for the group builds
   behind setup_s. *)
let ungated p =
  let op_ms = Array.map ms p.op_ns in
  let total_s = Array.fold_left ( +. ) 0.0 op_ms /. 1e3 in
  [
    ("e2e.ops", float_of_int p.attempted, "count");
    ("e2e.ops_per_s", float_of_int p.attempted /. total_s, "1/s");
    ("e2e.op_ms_p50", percentile 0.5 op_ms, "ms");
    ("e2e.op_ms_p99", percentile 0.99 op_ms, "ms");
  ]

(* --- the traced run: per-layer metrics --- *)

type traced = {
  spans : Spans.t;
  t_attempted : int;
  t_failed : int;
  t_rounds : string list;  (** fingerprints *)
  frames : int;
  frame_bytes : int;
  sealed_frames : int;
  sealed_bytes : int;
  trace_entries : int;  (** largest network trace a round ended with *)
  journal_records : int;
  journal_seen : Enclaves.Journal.record list;  (** oldest first *)
  delivery : Netsim.Stats.delivery;  (** summed over rounds *)
  last_explore : Symbolic.Explore.result option;
}

let frame_stats net ~skip =
  let frames = ref 0 and bytes = ref 0 and sealed = ref 0 and sbytes = ref 0 in
  List.iteri
    (fun i e ->
      match e with
      | Netsim.Trace.Sent { payload; _ } when i >= skip -> (
          incr frames;
          bytes := !bytes + String.length payload;
          match Wire.Frame.decode payload with
          | Ok f when Result.is_ok (Sym_crypto.Aead.decode f.Wire.Frame.body) ->
              incr sealed;
              sbytes := !sbytes + String.length f.Wire.Frame.body
          | Ok _ | Error _ -> ())
      | _ -> ())
    (Netsim.Trace.entries (Netsim.Network.trace net));
  (!frames, !bytes, !sealed, !sbytes)

let add_delivery (a : Netsim.Stats.delivery) (b : Netsim.Stats.delivery) =
  let open Netsim.Stats in
  {
    queued = a.queued + b.queued;
    drained = a.drained + b.drained;
    deduped = a.deduped + b.deduped;
    resealed = a.resealed + b.resealed;
    rejected_stale = a.rejected_stale + b.rejected_stale;
    delivered_stale = a.delivered_stale + b.delivered_stale;
    queue_bytes_hwm = max a.queue_bytes_hwm b.queue_bytes_hwm;
  }

let sub_delivery (a : Netsim.Stats.delivery) (b : Netsim.Stats.delivery) =
  let open Netsim.Stats in
  {
    queued = a.queued - b.queued;
    drained = a.drained - b.drained;
    deduped = a.deduped - b.deduped;
    resealed = a.resealed - b.resealed;
    rejected_stale = a.rejected_stale - b.rejected_stale;
    delivered_stale = a.delivered_stale - b.delivered_stale;
    queue_bytes_hwm = a.queue_bytes_hwm;
  }

let run_traced (w : W.t) ~seed (p : plain) =
  let sp = Spans.create () in
  let attempted = ref 0 and failed = ref 0 in
  let fps = ref [] in
  let frames = ref 0 and fbytes = ref 0 and sealed = ref 0 and sbytes = ref 0 in
  let entries = ref 0 in
  let jrecords = ref 0 and jseen = ref [] in
  let delivery = ref Netsim.Stats.empty_delivery in
  List.iteri
    (fun r (ops, _) ->
      let round = w.W.setup ~seed:(round_seed seed r) (Some sp) in
      let skip, d0 =
        match round.W.driver with
        | Some d ->
            ( Netsim.Trace.length (Netsim.Network.trace (D.net d)),
              D.delivery_stats d )
        | None -> (0, Netsim.Stats.empty_delivery)
      in
      let journal () =
        match round.W.driver with
        | Some d -> Option.value ~default:"" (D.journal_bytes d)
        | None -> ""
      in
      for _ = 1 to ops do
        let id = !attempted in
        let before = journal () in
        Spans.set_op sp id;
        let check = Spans.span sp Op (fun () -> round.W.step id) in
        if not (check ()) then incr failed;
        incr attempted;
        let after = journal () in
        if after <> "" then begin
          let n, seen = Standalone.appended ~before ~after in
          jrecords := !jrecords + n;
          jseen := List.rev_append seen !jseen
        end
      done;
      fps := round.W.fingerprint () :: !fps;
      Gc.full_major ();
      match round.W.driver with
      | Some d ->
          let net = D.net d in
          let f, b, s, sb = frame_stats net ~skip in
          frames := !frames + f;
          fbytes := !fbytes + b;
          sealed := !sealed + s;
          sbytes := !sbytes + sb;
          entries := max !entries (Netsim.Trace.length (Netsim.Network.trace net));
          delivery := add_delivery !delivery (sub_delivery (D.delivery_stats d) d0)
      | None -> ())
    p.rounds;
  {
    spans = sp;
    t_attempted = !attempted;
    t_failed = !failed;
    t_rounds = List.rev !fps;
    frames = !frames;
    frame_bytes = !fbytes;
    sealed_frames = !sealed;
    sealed_bytes = !sbytes;
    trace_entries = !entries;
    journal_records = !jrecords;
    journal_seen = List.rev !jseen;
    delivery = !delivery;
    (* One retained exploration for the standalone model timings. *)
    last_explore = (if w == W.verify_2join then Some (W.explore ()) else None);
  }

let per_layer (w : W.t) (p : plain) (t : traced) =
  let n = float_of_int t.t_attempted in
  let per x = float_of_int x /. n in
  let tot = Spans.totals t.spans in
  let self k = ms (Spans.self_ns tot k) in
  let calls k = Spans.count tot k in
  let mean_us k =
    if calls k = 0 then 0.0 else float_of_int (Spans.dur_ns tot k) /. float_of_int (calls k) /. 1e3
  in
  let c = Standalone.crypto () in
  let jappend_us, jstore =
    if t.journal_records = 0 || t.journal_seen = [] then (0.0, Standalone.no_store)
    else Standalone.journal ~seen:t.journal_seen ~count:t.journal_records
  in
  let dstore =
    if w == W.offline_drain then
      Standalone.delivery ~ops:t.t_attempted ~members:W.offline_members
        ~lag:W.offline_lag ~notices:W.offline_notices
    else Standalone.no_store
  in
  let store = Standalone.add_store jstore dstore in
  let dl = t.delivery in
  let canon_us, succ_us, states, edges =
    match t.last_explore with
    | Some r ->
        let cu, su = Standalone.symbolic W.verify_config r in
        (cu, su, Symbolic.Explore.state_count r, Symbolic.Explore.edge_count r)
    | None -> (0.0, 0.0, 0, 0)
  in
  let traced_op_ms = ms (Spans.dur_ns tot Op) in
  let plain_op_ms = ms (Array.fold_left ( + ) 0 p.op_ns) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  [
    ("leader.busy_ms_per_op", (self Leader_receive +. self Leader_call) /. n, "ms");
    ("leader.calls_per_op", per (calls Leader_receive + calls Leader_call), "count");
    ("member.busy_ms_per_op", (self Member_receive +. self Member_call) /. n, "ms");
    ("member.calls_per_op", per (calls Member_receive + calls Member_call), "count");
    ("sym_crypto.seal_us_64B", c.Standalone.seal_64, "us");
    ("sym_crypto.seal_us_1KiB", c.seal_1k, "us");
    ("sym_crypto.open_us_64B", c.open_64, "us");
    ("sym_crypto.open_us_1KiB", c.open_1k, "us");
    ("sym_crypto.kdf_us", c.kdf, "us");
    ("sym_crypto.sealed_frames_per_op", per t.sealed_frames, "count");
    ("sym_crypto.sealed_bytes_per_op", per t.sealed_bytes, "B");
    ( "sym_crypto.seal_open_est_ms_per_op",
      Standalone.seal_open_ms c ~frames:t.sealed_frames ~bytes:t.sealed_bytes /. n,
      "ms" );
    ("wire.frames_per_op", per t.frames, "count");
    ("wire.bytes_per_op", per t.frame_bytes, "B");
    ("wire.encode_us", mean_us Wire_encode, "us");
    ("netsim.events_per_op", float_of_int p.events /. float_of_int p.attempted, "count");
    ("netsim.loop_self_ms_per_op", self Netsim_run /. n, "ms");
    ("netsim.send_us", mean_us Netsim_send, "us");
    ("netsim.trace_entries", float_of_int t.trace_entries, "count");
    ( "netsim.vtime_ms_per_op",
      Int64.to_float p.vtime_us /. 1e3 /. float_of_int p.attempted,
      "ms" );
    ("journal.records_per_op", per t.journal_records, "count");
    ("journal.append_us", jappend_us, "us");
    ("store.pwrite_per_op", per store.Standalone.pwrites, "count");
    ("store.fsync_per_op", per store.fsyncs, "count");
    ("store.busy_ms_per_op", ms store.busy_ns /. n, "ms");
    ("delivery.queued_per_op", per dl.Netsim.Stats.queued, "count");
    ("delivery.drained_per_op", per dl.drained, "count");
    ("delivery.resealed_per_op", per dl.resealed, "count");
    ("delivery.rejected_stale_per_op", per dl.rejected_stale, "count");
    (* [drained] already excludes the records rejected beyond the
       window: drained + rejected = queued once every queue is empty. *)
    ("delivery.useful_ratio", ratio dl.drained dl.queued, "ratio");
    ("delivery.queue_bytes_hwm", float_of_int dl.queue_bytes_hwm, "B");
    ("delivery.drain_ms_per_op", self Delivery_drain /. n, "ms");
    ("symbolic.states", float_of_int states, "count");
    ("symbolic.edges", float_of_int edges, "count");
    ("symbolic.explore_ms", mean_us Explore /. 1e3, "ms");
    ("symbolic.invariants_ms", mean_us Invariants /. 1e3, "ms");
    ("symbolic.canon_us", canon_us, "us");
    ("symbolic.successors_us", succ_us, "us");
    ("gc.minor_words_per_op", p.minor_words /. float_of_int p.attempted, "words");
    ( "gc.major_collections_per_op",
      float_of_int p.major_collections /. float_of_int p.attempted,
      "count" );
    ("trace.ops", n, "count");
    ("trace.op_ms_mean", traced_op_ms /. n, "ms");
    ("trace.unaccounted_ms_per_op", self Op /. n, "ms");
    ("trace.overhead_pct", 100.0 *. ((traced_op_ms /. plain_op_ms) -. 1.0), "%");
  ]

(* --- output --- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

(* Progress and diagnostics; the selftest runs quiet. *)
let verbose = ref true
let say fmt = Printf.ksprintf (fun s -> if !verbose then print_string s) fmt

let print_metrics metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "%-40s %14.4f %s\n" name v unit) metrics

(* Where the traced op time went: self time per layer, as a share of
   the traced op wall time; the rest is the op's own unspanned work. *)
let print_accounting (t : traced) =
  let tot = Spans.totals t.spans in
  let op = ms (Spans.dur_ns tot Op) in
  if op > 0.0 then begin
    say "accounting of %.1f ms traced op time over %d ops:\n" op t.t_attempted;
    Array.iter
      (fun k ->
        let s = ms (Spans.self_ns tot k) in
        if Spans.count tot k > 0 then
          say "  %-22s %10.2f ms  %5.1f%%  (%d spans)\n"
            (if k = Spans.Op then "unaccounted (op self)" else Spans.name k)
            s (100.0 *. s /. op) (Spans.count tot k))
      Spans.kinds
  end

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  info : (string * float * string) list;  (** printed, not in the result *)
}

let bench (w : W.t) ~seed ~trace ?spans_out limit =
  let p = run_plain w ~seed limit in
  say "workload %s seed %Ld: %d ops in %d rounds, %d failed\n" w.W.name seed
    p.attempted (List.length p.rounds) p.failed;
  List.iteri (fun r (ops, fp) -> say "  round %d: %d ops, %s\n" r ops fp) p.rounds;
  let setups = Array.of_list p.setups in
  say "  set-up: %d builds, p50 %.2f ms, p95 %.2f ms\n" (Array.length setups)
    (1e3 *. percentile 0.5 setups) (1e3 *. percentile 0.95 setups);
  if not trace then
    {
      correct = p.failed = 0;
      attempted = p.attempted;
      failed = p.failed;
      metrics = end_to_end p;
      info = ungated p;
    }
  else begin
    let t = run_traced w ~seed p in
    let same = t.t_rounds = List.map snd p.rounds in
    say "traced run: %d ops, %d failed, end state %s the untraced run's\n"
      t.t_attempted t.t_failed (if same then "equals" else "DIFFERS from");
    if not same then List.iter (say "  traced: %s\n") t.t_rounds;
    print_accounting t;
    Option.iter (Spans.write t.spans) spans_out;
    {
      correct = p.failed = 0 && t.t_failed = 0 && same;
      attempted = p.attempted;
      failed = p.failed;
      metrics = ungated p @ per_layer w p t;
      info = [];
    }
  end

(* The benchmark's own test. The same seed gives identical count
   metrics; a second seed still passes every correctness check. The
   81-op churn run crosses a round boundary and a journal compaction;
   a leave+rejoin journals exactly 4 records and a relay op none. *)
let count_metrics =
  [ "leader.calls_per_op"; "member.calls_per_op"; "sym_crypto.sealed_frames_per_op";
    "sym_crypto.sealed_bytes_per_op"; "wire.frames_per_op"; "wire.bytes_per_op";
    "netsim.events_per_op"; "netsim.trace_entries"; "netsim.vtime_ms_per_op";
    "journal.records_per_op"; "delivery.queued_per_op"; "delivery.drained_per_op";
    "delivery.resealed_per_op"; "delivery.rejected_stale_per_op";
    "delivery.useful_ratio"; "delivery.queue_bytes_hwm"; "symbolic.states";
    "symbolic.edges"; "trace.ops" ]

let selftest () =
  verbose := false;
  let ops = [ ("churn-rekey", 81); ("steady-relay", 6); ("offline-drain", 4); ("verify-2join", 1) ] in
  let expected =
    [ ("churn-rekey", "journal.records_per_op", 4.0);
      ("steady-relay", "journal.records_per_op", 0.0);
      ("verify-2join", "symbolic.states", float_of_int W.fixture_states);
      ("verify-2join", "symbolic.edges", float_of_int W.fixture_edges) ]
  in
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> ok := false; print_endline ("FAIL " ^ s)) fmt in
  List.iter
    (fun (w : W.t) ->
      let k = List.assoc w.W.name ops in
      let run seed = bench w ~seed ~trace:true (Ops k) in
      let a = run 1L and b = run 1L and c = run 2L in
      List.iter
        (fun (o, s) -> if not o.correct then fail "%s seed %s: incorrect" w.W.name s)
        [ (a, "1"); (b, "1 (repeat)"); (c, "2") ];
      let value o name =
        let _, v, _ = List.find (fun (n, _, _) -> n = name) o.metrics in
        v
      in
      List.iter
        (fun name ->
          let x = value a name and y = value b name in
          if x <> y then fail "%s: %s differs on one seed (%g vs %g)" w.W.name name x y)
        count_metrics;
      List.iter
        (fun (wn, name, v) ->
          if wn = w.W.name && value a name <> v then
            fail "%s: %s is %g, expected %g" wn name (value a name) v)
        expected)
    W.all;
  if !ok then print_endline "perfbench selftest: ok" else exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 in
  let spans_out = ref "" and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans-out", Arg.Set_string spans_out, "FILE write the traced run's spans");
      ("--selftest", Arg.Set self, " determinism and correctness check");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then selftest ()
  else
    match W.find !workload with
    | None ->
        Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.W.name) W.all));
        exit 2
    | Some _ when !seconds <= 0.0 ->
        prerr_endline "give --seconds S (run_seconds in BENCHMARK.json)";
        exit 2
    | Some w ->
        let spans_out = if !spans_out = "" then None else Some !spans_out in
        let o = bench w ~seed:(Int64.of_int !seed) ~trace:(!trace = 1) ?spans_out (Seconds !seconds) in
        print_metrics o.metrics;
        List.iter
          (fun (name, v, unit) -> Printf.printf "%-40s %14.4f %s (not gated)\n" name v unit)
          o.info;
        print_endline
          (result_json ~correct:o.correct ~attempted:o.attempted ~failed:o.failed o.metrics);
        if not o.correct then exit 1
