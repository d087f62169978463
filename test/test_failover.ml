(* Tests for the multi-manager extension (paper §7 future work):
   heartbeats, fail-stop of the primary, warm promotion from the
   replicated journal, member failover to the successor, and
   preservation of the per-session guarantees. *)

open Enclaves

let directory =
  [ ("alice", "pw-a"); ("bob", "pw-b"); ("carol", "pw-c") ]

let managers = [ "m0"; "m1"; "m2" ]

let quick_config =
  {
    Failover.heartbeat_period = Netsim.Vtime.of_ms 100;
    failure_timeout = Netsim.Vtime.of_ms 400;
    check_period = Netsim.Vtime.of_ms 100;
    retry_budget = 2;
    failback_after = Netsim.Vtime.of_ms 800;
    repl_heartbeat_period = Netsim.Vtime.of_ms 100;
    warm_failover = true;
  }

(* The pre-replication baseline: a promoting backup always cold
   restarts, so members fail over through their own detector. *)
let cold_config = { quick_config with Failover.warm_failover = false }

let make () =
  Failover.create ~seed:5L ~config:quick_config ~managers ~directory ()

let make_cold () =
  Failover.create ~seed:5L ~config:cold_config ~managers ~directory ()

let run_for t ms =
  ignore
    (Failover.run
       ~until:(Netsim.Vtime.add (Netsim.Sim.now (Failover.sim t))
                 (Netsim.Vtime.of_ms ms))
       t)

let test_all_join_primary () =
  let t = make () in
  Failover.start t;
  run_for t 500;
  Alcotest.(check (option string)) "primary is m0" (Some "m0")
    (Failover.primary t);
  Alcotest.(check (list string)) "all connected" [ "alice"; "bob"; "carol" ]
    (Failover.connected_members t);
  List.iter
    (fun (name, _) ->
      Alcotest.(check (option string)) (name ^ " on m0") (Some "m0")
        (Failover.manager_of t name))
    directory;
  Alcotest.(check int) "no failovers" 0 (Failover.failovers t)

let test_heartbeats_keep_sessions_alive () =
  let t = make () in
  Failover.start t;
  (* Long quiet period: only heartbeats flow; nobody must fail over and
     no backup may mistake replication quiet for a dead primary. *)
  run_for t 5000;
  Alcotest.(check int) "no spurious failovers" 0 (Failover.failovers t);
  let stats = Failover.replication t in
  Alcotest.(check int) "no spurious promotions" 0
    ((Metrics.get stats Replication.Counter.warm_promotions) + (Metrics.get stats Replication.Counter.cold_promotions));
  Alcotest.(check (list string)) "everyone still in" [ "alice"; "bob"; "carol" ]
    (Failover.connected_members t)

let test_cold_primary_crash_failover () =
  let t = make_cold () in
  Failover.start t;
  run_for t 500;
  Failover.crash_primary t;
  Alcotest.(check (option string)) "succession advances" (Some "m1")
    (Failover.primary t);
  run_for t 3000;
  Alcotest.(check (list string)) "all reconnected" [ "alice"; "bob"; "carol" ]
    (Failover.connected_members t);
  List.iter
    (fun (name, _) ->
      Alcotest.(check (option string)) (name ^ " on m1") (Some "m1")
        (Failover.manager_of t name))
    directory;
  Alcotest.(check bool) "failovers counted" true (Failover.failovers t >= 3);
  let stats = Failover.replication t in
  Alcotest.(check int) "promotion was cold" 1 (Metrics.get stats Replication.Counter.cold_promotions);
  (* The successor's group is coherent: all members share its view. *)
  let views =
    List.map (fun (n, _) -> Member.group_view (Failover.member t n)) directory
  in
  List.iter
    (fun v ->
      Alcotest.(check (list string)) "full view" [ "alice"; "bob"; "carol" ] v)
    views

let test_warm_failover_retains_sessions () =
  let t = make () in
  Failover.start t;
  run_for t 500;
  let session_before name =
    match Member.session_key (Failover.member t name) with
    | Some k -> k
    | None -> Alcotest.fail (name ^ " has no session key before crash")
  in
  let keys_before = List.map (fun (n, _) -> (n, session_before n)) directory in
  let group_before =
    match Member.group_key (Failover.member t "alice") with
    | Some gk -> gk
    | None -> Alcotest.fail "no group key before crash"
  in
  Failover.crash_primary t;
  run_for t 2000;
  Alcotest.(check (list string)) "all still in" [ "alice"; "bob"; "carol" ]
    (Failover.connected_members t);
  List.iter
    (fun (name, _) ->
      Alcotest.(check (option string)) (name ^ " redirected to m1") (Some "m1")
        (Failover.manager_of t name))
    directory;
  (* Warm handoff: nobody's failure detector ever fired. *)
  Alcotest.(check int) "no member-driven failovers" 0 (Failover.failovers t);
  let stats = Failover.replication t in
  Alcotest.(check int) "exactly one warm promotion" 1
    (Metrics.get stats Replication.Counter.warm_promotions);
  Alcotest.(check int) "no cold promotion" 0 (Metrics.get stats Replication.Counter.cold_promotions);
  (* Session keys survive the handoff — the whole point of shipping the
     journal: members answered a RecoveryChallenge under their K_a. *)
  List.iter
    (fun (name, before) ->
      match Member.session_key (Failover.member t name) with
      | Some after ->
          Alcotest.(check bool) (name ^ " session key retained") true
            (Sym_crypto.Key.equal before after)
      | None -> Alcotest.fail (name ^ " lost its session"))
    keys_before;
  (* And the group key epoch is the one m0 granted, not a fresh group. *)
  match Member.group_key (Failover.member t "bob") with
  | Some gk ->
      Alcotest.(check int) "group epoch preserved" group_before.Types.epoch
        gk.Types.epoch;
      Alcotest.(check bool) "group key preserved" true
        (Sym_crypto.Key.equal group_before.Types.key gk.Types.key)
  | None -> Alcotest.fail "no group key after warm failover"

(* Virtual time from the crash until every member is connected to a
   live manager again, stepping the simulation in 50 ms slices. The
   cursor is absolute: [Sim.run ~until] leaves the clock at the last
   executed event, so stepping from [now] could stall between events. *)
let reconverge_time t =
  let crash_at = Netsim.Sim.now (Failover.sim t) in
  Failover.crash_primary t;
  let deadline = Netsim.Vtime.add crash_at (Netsim.Vtime.of_s 30) in
  let rec step cursor =
    let cursor = Netsim.Vtime.add cursor (Netsim.Vtime.of_ms 50) in
    ignore (Failover.run ~until:cursor t);
    if List.length (Failover.connected_members t) = List.length directory then
      Int64.sub cursor crash_at
    else if Netsim.Vtime.(cursor <= deadline) then step cursor
    else Alcotest.fail "never reconverged"
  in
  step crash_at

let test_warm_beats_cold_latency () =
  let warm = make () in
  Failover.start warm;
  run_for warm 500;
  let warm_lat = reconverge_time warm in
  let cold = make_cold () in
  Failover.start cold;
  run_for cold 500;
  let cold_lat = reconverge_time cold in
  Alcotest.(check bool)
    (Printf.sprintf "warm (%Ld µs) reconverges faster than cold (%Ld µs)"
       warm_lat cold_lat)
    true
    (Int64.compare warm_lat cold_lat < 0)

let test_double_crash () =
  let t = make () in
  Failover.start t;
  run_for t 500;
  Failover.crash_primary t;
  run_for t 3000;
  Failover.crash_primary t;
  Alcotest.(check (option string)) "on to m2" (Some "m2")
    (Failover.primary t);
  run_for t 3000;
  Alcotest.(check (list string)) "all on the last manager"
    [ "alice"; "bob"; "carol" ]
    (Failover.connected_members t);
  List.iter
    (fun (name, _) ->
      Alcotest.(check (option string)) (name ^ " on m2") (Some "m2")
        (Failover.manager_of t name))
    directory

let test_no_primary_when_all_crashed () =
  let t = make () in
  Failover.start t;
  run_for t 500;
  Failover.crash_primary t;
  run_for t 3000;
  Failover.crash_primary t;
  run_for t 3000;
  Failover.crash_primary t;
  Alcotest.(check (option string)) "no live manager" None (Failover.primary t);
  (* And the harness reports it instead of pretending m0 is alive. *)
  run_for t 2000;
  Alcotest.(check (list string)) "nobody connected" []
    (Failover.connected_members t)

let test_app_traffic_resumes_after_failover () =
  let t = make () in
  Failover.start t;
  run_for t 500;
  Failover.crash_primary t;
  run_for t 3000;
  Failover.send_app t "alice" "back in business";
  run_for t 500;
  let bob = Failover.member t "bob" in
  Alcotest.(check bool) "bob hears alice via m1" true
    (List.mem ("alice", "back in business") (Member.app_log bob))

let test_fresh_keys_after_cold_failover () =
  let t = make_cold () in
  Failover.start t;
  run_for t 500;
  let key_before =
    match Member.group_key (Failover.member t "alice") with
    | Some { Types.key; _ } -> key
    | None -> Alcotest.fail "no key before crash"
  in
  Failover.crash_primary t;
  run_for t 3000;
  match Member.group_key (Failover.member t "alice") with
  | Some { Types.key; _ } ->
      Alcotest.(check bool) "group key changed across managers" false
        (Sym_crypto.Key.equal key key_before)
  | None -> Alcotest.fail "no key after failover"

let test_late_join_goes_to_successor () =
  let t = make () in
  (* Only alice joins initially. *)
  Failover.join t "alice";
  run_for t 500;
  Failover.crash_primary t;
  run_for t 2000;
  (* Bob joins after the crash: straight to the new primary. *)
  Failover.join t "bob";
  run_for t 1000;
  Alcotest.(check (option string)) "bob on m1" (Some "m1")
    (Failover.manager_of t "bob")

let test_ordering_guarantee_per_manager () =
  (* The §5.4 prefix property holds between each member and whichever
     manager it is connected to. Cold config: after a full re-handshake
     both sides' admin logs restart from the session boundary. *)
  let t = make_cold () in
  Failover.start t;
  run_for t 500;
  Failover.crash_primary t;
  run_for t 3000;
  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs', y :: ys' -> Wire.Admin.equal x y && is_prefix xs' ys'
  in
  List.iter
    (fun (name, _) ->
      match Failover.manager_of t name with
      | Some mgr ->
          let l = Failover.leader t mgr in
          let m = Failover.member t name in
          Alcotest.(check bool)
            (name ^ ": rcv prefix of snd at " ^ mgr)
            true
            (is_prefix (Member.accepted_admin m) (Leader.sent_admin l name))
      | None -> Alcotest.fail (name ^ " not connected"))
    directory

let test_self_heal_after_spurious_timeout () =
  (* The adversary blackholes admin traffic to alice long enough to
     trigger a spurious failover to the SAME (live) manager; the
     close-then-rejoin dance must eventually restore her session. *)
  let t = make () in
  let net = Failover.net t in
  let blackhole = ref false in
  Netsim.Network.set_adversary net
    (Some
       (fun ~src:_ ~dst ~payload ->
         match Wire.Frame.decode payload with
         | Ok { Wire.Frame.label = Wire.Frame.Admin_msg; _ }
           when !blackhole && dst = "alice" ->
             Netsim.Network.Drop
         | Ok _ | Error _ -> Netsim.Network.Deliver));
  Failover.start t;
  run_for t 500;
  blackhole := true;
  run_for t 1500;
  blackhole := false;
  run_for t 5000;
  Alcotest.(check bool) "spurious failover happened" true
    (Failover.failovers t >= 1);
  Alcotest.(check (option string)) "alice back on a live manager"
    (Failover.primary t)
    (Failover.manager_of t "alice");
  Alcotest.(check bool) "alice reconnected" true
    (List.mem "alice" (Failover.connected_members t))

let suite =
  [
    ( "failover (§7 extension)",
      [
        Alcotest.test_case "all join primary" `Quick test_all_join_primary;
        Alcotest.test_case "heartbeats keep sessions" `Quick
          test_heartbeats_keep_sessions_alive;
        Alcotest.test_case "cold primary crash failover" `Quick
          test_cold_primary_crash_failover;
        Alcotest.test_case "warm failover retains sessions" `Quick
          test_warm_failover_retains_sessions;
        Alcotest.test_case "warm beats cold latency" `Quick
          test_warm_beats_cold_latency;
        Alcotest.test_case "double crash" `Quick test_double_crash;
        Alcotest.test_case "no primary when all crashed" `Quick
          test_no_primary_when_all_crashed;
        Alcotest.test_case "app traffic resumes" `Quick
          test_app_traffic_resumes_after_failover;
        Alcotest.test_case "fresh keys after cold failover" `Quick
          test_fresh_keys_after_cold_failover;
        Alcotest.test_case "late join goes to successor" `Quick
          test_late_join_goes_to_successor;
        Alcotest.test_case "ordering per manager" `Quick
          test_ordering_guarantee_per_manager;
        Alcotest.test_case "self-heal after spurious timeout" `Quick
          test_self_heal_after_spurious_timeout;
      ] );
  ]
