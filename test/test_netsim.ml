(* Tests for the discrete-event simulator and the insecure network. *)

open Netsim

let test_vtime () =
  Alcotest.(check int64) "ms" 5_000L (Vtime.of_ms 5);
  Alcotest.(check int64) "s" 2_000_000L (Vtime.of_s 2);
  Alcotest.(check bool) "lt" true Vtime.(of_ms 1 < of_ms 2);
  Alcotest.(check bool) "le refl" true Vtime.(of_ms 1 <= of_ms 1);
  Alcotest.(check int64) "add" (Vtime.of_ms 3) (Vtime.add (Vtime.of_ms 1) (Vtime.of_ms 2))

let test_heap_order () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h ~time:(Vtime.of_ms 3) "c";
  Heap.push h ~time:(Vtime.of_ms 1) "a";
  Heap.push h ~time:(Vtime.of_ms 2) "b";
  let pop () = match Heap.pop h with Some (_, v) -> v | None -> "?" in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:Vtime.zero (string_of_int i)
  done;
  let order = List.init 10 (fun _ ->
      match Heap.pop h with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "insertion order on ties"
    (List.init 10 string_of_int) order

let test_heap_random_sorted () =
  let h = Heap.create () in
  let g = Prng.Splitmix.create 4L in
  for _ = 1 to 500 do
    Heap.push h ~time:(Vtime.of_us (Prng.Splitmix.next_int g 10_000)) ()
  done;
  let rec drain last n =
    match Heap.pop h with
    | None -> n
    | Some (time, ()) ->
        Alcotest.(check bool) "non-decreasing" true Vtime.(last <= time);
        drain time (n + 1)
  in
  Alcotest.(check int) "all popped" 500 (drain Vtime.zero 0)

(* qcheck: pops come out sorted by time whatever the push order, and
   equal timestamps preserve insertion order (FIFO stability), also
   across the internal array-growth boundary (capacity starts at 16). *)

let qcheck_heap_sorted =
  QCheck.Test.make ~count:200 ~name:"heap pops time-sorted"
    QCheck.(list_of_size Gen.(int_range 0 100) (int_bound 10_000))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~time:(Vtime.of_us t) ()) times;
      let rec drain last n =
        match Heap.pop h with
        | None -> n = List.length times
        | Some (time, ()) -> Vtime.(last <= time) && drain time (n + 1)
      in
      drain Vtime.zero 0)

let qcheck_heap_fifo_stable =
  (* Few distinct timestamps over many entries forces long runs of
     ties; 20-80 entries straddles the initial capacity of 16. *)
  QCheck.Test.make ~count:200 ~name:"heap FIFO-stable on equal times"
    QCheck.(list_of_size Gen.(int_range 20 80) (int_bound 3))
    (fun times ->
      let h = Heap.create () in
      List.iteri (fun i t -> Heap.push h ~time:(Vtime.of_ms t) i) times;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (time, i) -> drain ((time, i) :: acc)
      in
      let popped = drain [] in
      (* Expected: stable sort of the pushes by time keeps insertion
         order among ties. *)
      let expected =
        List.stable_sort
          (fun (t1, _) (t2, _) -> Int64.compare t1 t2)
          (List.mapi (fun i t -> (Vtime.of_ms t, i)) times)
      in
      popped = expected)

let test_sim_order_and_clock () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:(Vtime.of_ms 10) (fun () ->
      log := ("b", Sim.now sim) :: !log);
  Sim.schedule sim ~delay:(Vtime.of_ms 5) (fun () ->
      log := ("a", Sim.now sim) :: !log);
  let n = Sim.run sim in
  Alcotest.(check int) "two events" 2 n;
  match List.rev !log with
  | [ ("a", ta); ("b", tb) ] ->
      Alcotest.(check int64) "a at 5ms" (Vtime.of_ms 5) ta;
      Alcotest.(check int64) "b at 10ms" (Vtime.of_ms 10) tb
  | _ -> Alcotest.fail "wrong order"

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then begin
      incr count;
      Sim.schedule sim ~delay:(Vtime.of_ms 1) (fun () -> chain (n - 1))
    end
  in
  Sim.schedule sim ~delay:Vtime.zero (fun () -> chain 10);
  let _ = Sim.run sim in
  Alcotest.(check int) "chain ran" 10 !count

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(Vtime.of_ms i) (fun () -> incr fired)
  done;
  let _ = Sim.run ~until:(Vtime.of_ms 5) sim in
  Alcotest.(check int) "only first five" 5 !fired;
  Alcotest.(check int) "rest pending" 5 (Sim.pending sim)

let test_sim_max_events () =
  let sim = Sim.create () in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(Vtime.of_ms i) (fun () -> ())
  done;
  let n = Sim.run ~max_events:3 sim in
  Alcotest.(check int) "stopped at 3" 3 n

let test_sim_every () =
  let sim = Sim.create () in
  let ticks = ref 0 in
  Sim.every sim ~period:(Vtime.of_ms 10) ~until:(Vtime.of_ms 55) (fun () ->
      incr ticks);
  let _ = Sim.run ~until:(Vtime.of_ms 100) sim in
  Alcotest.(check int) "five ticks in 55ms" 5 !ticks

let test_network_delivery () =
  let sim = Sim.create () in
  let net = Network.create ~sim () in
  let inbox = ref [] in
  Network.register net "bob" (fun bytes -> inbox := bytes :: !inbox);
  Network.send net ~src:"alice" ~dst:"bob" "hello";
  Network.send net ~src:"alice" ~dst:"bob" "world";
  let _ = Sim.run sim in
  Alcotest.(check (list string)) "fifo delivery" [ "hello"; "world" ]
    (List.rev !inbox)

let test_network_fifo_pairwise () =
  (* Many frames between one pair must arrive in send order despite
     randomized latencies. *)
  let sim = Sim.create ~seed:9L () in
  let net = Network.create ~sim ~latency_us:(100, 5000) () in
  let inbox = ref [] in
  Network.register net "dst" (fun b -> inbox := b :: !inbox);
  for i = 0 to 49 do
    Network.send net ~src:"src" ~dst:"dst" (string_of_int i)
  done;
  let _ = Sim.run sim in
  Alcotest.(check (list string)) "in order"
    (List.init 50 string_of_int)
    (List.rev !inbox)

let test_network_unregistered_dropped () =
  let sim = Sim.create () in
  let net = Network.create ~sim () in
  Network.send net ~src:"a" ~dst:"ghost" "x";
  let _ = Sim.run sim in
  let dropped =
    List.exists
      (function Trace.Dropped _ -> true | _ -> false)
      (Trace.entries (Network.trace net))
  in
  Alcotest.(check bool) "recorded as dropped" true dropped

let test_network_adversary_drop_replace () =
  let sim = Sim.create () in
  let net = Network.create ~sim () in
  let inbox = ref [] in
  Network.register net "bob" (fun b -> inbox := b :: !inbox);
  Network.set_adversary net
    (Some
       (fun ~src:_ ~dst:_ ~payload ->
         match payload with
         | "drop-me" -> Network.Drop
         | "mangle-me" -> Network.Replace "mangled"
         | _ -> Network.Deliver));
  Network.send net ~src:"alice" ~dst:"bob" "drop-me";
  Network.send net ~src:"alice" ~dst:"bob" "mangle-me";
  Network.send net ~src:"alice" ~dst:"bob" "fine";
  let _ = Sim.run sim in
  Alcotest.(check (list string)) "adversary applied" [ "mangled"; "fine" ]
    (List.rev !inbox)

let test_network_adversary_inject () =
  let sim = Sim.create () in
  let net = Network.create ~sim () in
  let inbox = ref [] in
  Network.register net "bob" (fun b -> inbox := b :: !inbox);
  Network.inject net ~dst:"bob" "evil";
  let _ = Sim.run sim in
  Alcotest.(check (list string)) "injected frame arrives" [ "evil" ] !inbox;
  let injected =
    List.exists
      (function Trace.Injected _ -> true | _ -> false)
      (Trace.entries (Network.trace net))
  in
  Alcotest.(check bool) "recorded" true injected

let test_network_trace_payloads () =
  let sim = Sim.create () in
  let net = Network.create ~sim () in
  Network.register net "bob" (fun _ -> ());
  Network.send net ~src:"alice" ~dst:"bob" "one";
  Network.inject net ~dst:"bob" "two";
  let _ = Sim.run sim in
  Alcotest.(check (list string)) "observation set" [ "one"; "two" ]
    (Trace.payloads (Network.trace net))

let test_network_deterministic () =
  let run seed =
    let sim = Sim.create ~seed () in
    let net = Network.create ~sim ~latency_us:(10, 1000) () in
    let log = ref [] in
    Network.register net "bob" (fun b ->
        log := (b, Sim.now sim) :: !log);
    for i = 0 to 9 do
      Network.send net ~src:"alice" ~dst:"bob" (string_of_int i)
    done;
    let _ = Sim.run sim in
    !log
  in
  Alcotest.(check bool) "same seed, same trace" true (run 5L = run 5L);
  Alcotest.(check bool) "different seed, different timing" true
    (run 5L <> run 6L)

let test_stats_basic () =
  let sim = Sim.create () in
  let net = Network.create ~sim ~latency_us:(1000, 1000) () in
  Network.register net "bob" (fun _ -> ());
  Network.send net ~src:"alice" ~dst:"bob" "hello";
  Network.send net ~src:"alice" ~dst:"bob" "world";
  Network.inject net ~dst:"bob" "evil";
  let _ = Sim.run sim in
  let st = Stats.compute (Network.trace net) in
  Alcotest.(check int) "sent" 2 st.Stats.sent;
  Alcotest.(check int) "delivered" 3 st.Stats.delivered;
  Alcotest.(check int) "injected" 1 st.Stats.injected;
  (* the injected frame has no matching Sent *)
  Alcotest.(check int) "unmatched" 1 st.Stats.unmatched_deliveries;
  Alcotest.(check int) "bytes" 14 st.Stats.bytes_on_wire;
  (* fixed 1ms latency *)
  Alcotest.(check (float 0.001)) "latency min" 1.0 st.Stats.latency_min_ms;
  Alcotest.(check (float 0.001)) "latency max" 1.0 st.Stats.latency_max_ms

let test_stats_unmatched_rewrite () =
  (* An adversary Replace delivers a payload that was never Sent: it
     must show up in unmatched_deliveries, not vanish silently. *)
  let sim = Sim.create () in
  let net = Network.create ~sim () in
  Network.register net "bob" (fun _ -> ());
  Network.set_adversary net
    (Some
       (fun ~src:_ ~dst:_ ~payload ->
         if payload = "orig" then Network.Replace "evil" else Network.Deliver));
  Network.send net ~src:"alice" ~dst:"bob" "orig";
  Network.send net ~src:"alice" ~dst:"bob" "fine";
  let _ = Sim.run sim in
  let st = Stats.compute (Network.trace net) in
  Alcotest.(check int) "sent" 2 st.Stats.sent;
  Alcotest.(check int) "delivered" 2 st.Stats.delivered;
  Alcotest.(check int) "injected" 0 st.Stats.injected;
  Alcotest.(check int) "unmatched" 1 st.Stats.unmatched_deliveries

let test_stats_dropped () =
  let sim = Sim.create () in
  let net = Network.create ~sim () in
  Network.register net "bob" (fun _ -> ());
  Network.set_adversary net (Some (fun ~src:_ ~dst:_ ~payload:_ -> Network.Drop));
  Network.send net ~src:"a" ~dst:"bob" "x";
  let _ = Sim.run sim in
  let st = Stats.compute (Network.trace net) in
  Alcotest.(check int) "dropped" 1 st.Stats.dropped;
  Alcotest.(check int) "delivered" 0 st.Stats.delivered

let test_stats_by_label () =
  let sim = Sim.create () in
  let net = Network.create ~sim () in
  Network.register net "bob" (fun _ -> ());
  Network.send net ~src:"a" ~dst:"bob" "not-a-frame";
  Network.send net ~src:"a" ~dst:"bob"
    (Wire.Frame.encode
       (Wire.Frame.make ~label:Wire.Frame.App_data ~sender:"a" ~recipient:"bob"
          ~body:""));
  let _ = Sim.run sim in
  let labels =
    Stats.by_label
      ~decode_label:(fun payload ->
        match Wire.Frame.decode payload with
        | Ok f -> Some (Wire.Frame.label_to_string f.Wire.Frame.label)
        | Error _ -> None)
      (Network.trace net)
  in
  Alcotest.(check (list (pair string int))) "labels"
    [ ("<garbage>", 1); ("AppData", 1) ]
    labels

(* --- cancellation handles --- *)

let test_handle_cancel_schedule () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule_handle sim ~delay:(Vtime.of_ms 10) (fun () -> fired := true) in
  Sim.schedule sim ~delay:(Vtime.of_ms 5) (fun () -> Sim.cancel h);
  let _ = Sim.run sim in
  Alcotest.(check bool) "cancelled callback never fires" false !fired;
  Alcotest.(check bool) "reports cancelled" true (Sim.is_cancelled h)

let test_handle_cancel_every () =
  let sim = Sim.create () in
  let ticks = ref 0 in
  let h = Sim.every_handle sim ~period:(Vtime.of_ms 10) (fun () -> incr ticks) in
  Sim.schedule sim ~delay:(Vtime.of_ms 35) (fun () -> Sim.cancel h);
  (* An until-less periodic task would never quiesce; cancellation
     must end it. *)
  let _ = Sim.run ~until:(Vtime.of_ms 500) sim in
  Alcotest.(check int) "three ticks then silence" 3 !ticks

(* --- fault plan --- *)

let test_faultplan_total_loss () =
  let sim = Sim.create () in
  let net = Network.create ~sim () in
  Network.register net "bob" (fun _ -> ());
  Network.set_faultplan net (Some (Faultplan.uniform_loss 1.0));
  Network.send net ~src:"a" ~dst:"bob" "x";
  Network.send net ~src:"a" ~dst:"bob" "y";
  let _ = Sim.run sim in
  let c = Network.fault_counters net in
  Alcotest.(check int) "both lost" 2 (Metrics.get c Faultplan.Counter.lost);
  let st = Stats.compute (Network.trace net) in
  Alcotest.(check int) "attributed to the fault plan" 2 st.Stats.dropped_by_fault;
  Alcotest.(check int) "aggregate matches" 2 st.Stats.dropped;
  Alcotest.(check int) "nothing delivered" 0 st.Stats.delivered

let test_faultplan_duplication () =
  let sim = Sim.create () in
  let net = Network.create ~sim () in
  let inbox = ref 0 in
  Network.register net "bob" (fun _ -> incr inbox);
  Network.set_faultplan net
    (Some
       (Faultplan.make
          ~default_link:(Faultplan.lossy_link ~duplicate:1.0 0.0)
          ()));
  Network.send net ~src:"a" ~dst:"bob" "x";
  let _ = Sim.run sim in
  Alcotest.(check int) "two copies" 2 !inbox;
  Alcotest.(check int) "counted" 1
    (Metrics.get (Network.fault_counters net) Faultplan.Counter.duplicated)

let test_faultplan_partition_window () =
  let sim = Sim.create () in
  let net = Network.create ~sim ~latency_us:(10, 10) () in
  let inbox = ref [] in
  Network.register net "bob" (fun b -> inbox := b :: !inbox);
  Network.set_faultplan net
    (Some
       (Faultplan.make
          ~partitions:
            [
              {
                Faultplan.west = [ "a" ];
                east = [ "bob" ];
                from_ = Vtime.of_ms 10;
                heal = Vtime.of_ms 20;
              };
            ]
          ()));
  (* Send at t=0 (before), t=15ms (inside), t=25ms (after). The cut is
     evaluated at delivery time. *)
  Network.send net ~src:"a" ~dst:"bob" "before";
  Sim.schedule sim ~delay:(Vtime.of_ms 15) (fun () ->
      Network.send net ~src:"a" ~dst:"bob" "inside");
  Sim.schedule sim ~delay:(Vtime.of_ms 25) (fun () ->
      Network.send net ~src:"a" ~dst:"bob" "after");
  let _ = Sim.run sim in
  Alcotest.(check (list string)) "only the cut frame is lost"
    [ "before"; "after" ] (List.rev !inbox);
  Alcotest.(check int) "cut counted" 1
    (Metrics.get (Network.fault_counters net) Faultplan.Counter.cut)

let test_faultplan_outage () =
  let sim = Sim.create () in
  let net = Network.create ~sim ~latency_us:(10, 10) () in
  let inbox = ref [] in
  Network.register net "bob" (fun b -> inbox := b :: !inbox);
  Network.set_faultplan net
    (Some
       (Faultplan.make
          ~outages:
            [
              {
                Faultplan.node = "bob";
                down = Vtime.of_ms 10;
                up = Some (Vtime.of_ms 20);
              };
            ]
          ()));
  Network.send net ~src:"a" ~dst:"bob" "before";
  Sim.schedule sim ~delay:(Vtime.of_ms 12) (fun () ->
      Network.send net ~src:"a" ~dst:"bob" "while-down");
  Sim.schedule sim ~delay:(Vtime.of_ms 22) (fun () ->
      Network.send net ~src:"a" ~dst:"bob" "restarted");
  let _ = Sim.run sim in
  Alcotest.(check (list string)) "down window swallows the frame"
    [ "before"; "restarted" ] (List.rev !inbox);
  Alcotest.(check int) "down counted" 1
    (Metrics.get (Network.fault_counters net) Faultplan.Counter.down)

let test_faultplan_deterministic_replay () =
  let run () =
    let sim = Sim.create ~seed:123L () in
    let net = Network.create ~sim ~latency_us:(100, 5000) () in
    Network.register net "bob" (fun _ -> ());
    Network.set_faultplan net
      (Some
         (Faultplan.make
            ~default_link:
              (Faultplan.lossy_link ~corrupt:0.2 ~duplicate:0.2 ~spike_prob:0.2
                 0.2)
            ()));
    for i = 1 to 50 do
      Network.send net ~src:"a" ~dst:"bob" (string_of_int i)
    done;
    let _ = Sim.run sim in
    let c = Network.fault_counters net in
    ( Trace.length (Network.trace net),
      Faultplan.Counter.
        ( Metrics.get c lost,
          Metrics.get c corrupted,
          Metrics.get c duplicated,
          Metrics.get c spiked ) )
  in
  let (len1, c1) = run () and (len2, c2) = run () in
  Alcotest.(check int) "same trace length" len1 len2;
  Alcotest.(check bool) "same fault counters" true (c1 = c2);
  (* And the plan did something on every axis. *)
  let lost, corrupted, duplicated, spiked = c1 in
  Alcotest.(check bool) "all four fault kinds fired" true
    (lost > 0 && corrupted > 0 && duplicated > 0 && spiked > 0)

let test_faultplan_injection_bypasses () =
  (* Adversary injections model the attacker's own transmissions —
     the fault plan must not eat them. *)
  let sim = Sim.create () in
  let net = Network.create ~sim () in
  let inbox = ref 0 in
  Network.register net "bob" (fun _ -> incr inbox);
  Network.set_faultplan net (Some (Faultplan.uniform_loss 1.0));
  Network.inject net ~dst:"bob" "evil";
  let _ = Sim.run sim in
  Alcotest.(check int) "injected frame delivered" 1 !inbox

let suite =
  [
    ( "netsim",
      [
        Alcotest.test_case "vtime" `Quick test_vtime;
        Alcotest.test_case "heap order" `Quick test_heap_order;
        Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "heap random sorted" `Quick test_heap_random_sorted;
        QCheck_alcotest.to_alcotest qcheck_heap_sorted;
        QCheck_alcotest.to_alcotest qcheck_heap_fifo_stable;
        Alcotest.test_case "sim order and clock" `Quick test_sim_order_and_clock;
        Alcotest.test_case "sim nested scheduling" `Quick
          test_sim_nested_scheduling;
        Alcotest.test_case "sim until" `Quick test_sim_until;
        Alcotest.test_case "sim max events" `Quick test_sim_max_events;
        Alcotest.test_case "sim every" `Quick test_sim_every;
        Alcotest.test_case "network delivery" `Quick test_network_delivery;
        Alcotest.test_case "network pairwise fifo" `Quick
          test_network_fifo_pairwise;
        Alcotest.test_case "network unregistered dropped" `Quick
          test_network_unregistered_dropped;
        Alcotest.test_case "network adversary drop/replace" `Quick
          test_network_adversary_drop_replace;
        Alcotest.test_case "network adversary inject" `Quick
          test_network_adversary_inject;
        Alcotest.test_case "network trace payloads" `Quick
          test_network_trace_payloads;
        Alcotest.test_case "network deterministic" `Quick
          test_network_deterministic;
        Alcotest.test_case "stats basic" `Quick test_stats_basic;
        Alcotest.test_case "stats unmatched rewrite" `Quick
          test_stats_unmatched_rewrite;
        Alcotest.test_case "stats dropped" `Quick test_stats_dropped;
        Alcotest.test_case "stats by label" `Quick test_stats_by_label;
        Alcotest.test_case "handle cancels schedule" `Quick
          test_handle_cancel_schedule;
        Alcotest.test_case "handle cancels every" `Quick
          test_handle_cancel_every;
        Alcotest.test_case "faultplan total loss" `Quick
          test_faultplan_total_loss;
        Alcotest.test_case "faultplan duplication" `Quick
          test_faultplan_duplication;
        Alcotest.test_case "faultplan partition window" `Quick
          test_faultplan_partition_window;
        Alcotest.test_case "faultplan outage" `Quick test_faultplan_outage;
        Alcotest.test_case "faultplan deterministic replay" `Quick
          test_faultplan_deterministic_replay;
        Alcotest.test_case "faultplan injection bypasses" `Quick
          test_faultplan_injection_bypasses;
      ] );
  ]
