(* Chaos suite: seeded fault plans (loss, corruption, duplication,
   latency spikes, partitions, outages) against the recovery layer.
   Each scenario asserts eventual convergence — every member Connected,
   all on the same group-key epoch, §5.4 prefix intact — within a
   bounded amount of virtual time, for every seed in a sweep. A control
   test shows the same misfortune with retries disabled wedges, so the
   tolerance demonstrably comes from the recovery layer and not from
   luck. *)

open Enclaves
module D = Driver.Improved
module Key = Sym_crypto.Key

let directory =
  [
    ("alice", "pw-a");
    ("bob", "pw-b");
    ("carol", "pw-c");
    ("dave", "pw-d");
    ("erin", "pw-e");
  ]

let seeds = List.init 20 (fun i -> Int64.of_int (i + 1))
let bound = Netsim.Vtime.of_s 30

(* Build a cluster with a fault plan installed, join everyone, run to
   the bound, and report convergence. *)
let run_once ?(bound = bound) ~seed ~plan ~retry () =
  let d = D.create ~seed ~retry ~leader:"leader" ~directory () in
  Netsim.Network.set_faultplan (D.net d) (Some plan);
  List.iter (fun (n, _) -> D.join d n) directory;
  ignore (D.run ~until:bound d);
  d

let check_converged ~what ~seed d =
  Alcotest.(check bool)
    (Printf.sprintf "%s converges (seed %Ld)" what seed)
    true (D.converged d)

let test_join_under_loss () =
  (* The ISSUE's acceptance bar: 5-member join at 20% uniform loss
     converges within the bound for every seed 1..20. *)
  List.iter
    (fun seed ->
      let d = run_once ~seed ~plan:(Netsim.Faultplan.uniform_loss 0.20) ~retry:true () in
      check_converged ~what:"20% loss" ~seed d;
      (* The run was genuinely lossy — the plan did fire. *)
      let c = Netsim.Network.fault_counters (D.net d) in
      Alcotest.(check bool)
        (Printf.sprintf "faults occurred (seed %Ld)" seed)
        true
        (Netsim.Faultplan.total_dropped c > 0))
    seeds

let test_join_without_retries_wedges () =
  (* Control: the very same scenario with the recovery layer off. At
     20% loss a 5-member join needs ~30 frames to all survive, so
     nearly every seed must wedge; if most converged anyway, the chaos
     tests above would prove nothing. *)
  let wedged =
    List.filter
      (fun seed ->
        let d =
          run_once ~seed ~plan:(Netsim.Faultplan.uniform_loss 0.20) ~retry:false ()
        in
        not (D.converged d))
      seeds
  in
  Alcotest.(check bool)
    (Printf.sprintf "most seeds wedge without retries (%d/20)"
       (List.length wedged))
    true
    (List.length wedged >= 15)

let test_join_under_corruption_and_duplication () =
  (* Bit flips must be rejected by the seals and absorbed like losses;
     duplicates must be absorbed by the nonce chain. *)
  let plan =
    Netsim.Faultplan.make
      ~default_link:
        (Netsim.Faultplan.lossy_link ~corrupt:0.10 ~duplicate:0.15
           ~spike_prob:0.05 0.10)
      ()
  in
  List.iter
    (fun seed ->
      let d = run_once ~seed ~plan ~retry:true () in
      check_converged ~what:"corrupt+dup+spike" ~seed d;
      (* Wire duplication must not duplicate admin deliveries. The
         same payload can legitimately recur after churn (a member
         resets, rejoins, and a Mem_joined fires again), but never
         back-to-back — the leader emits each event once per session
         and the nonce chain absorbs wire copies. *)
      let rec no_adjacent_dup = function
        | a :: b :: _ when Wire.Admin.equal a b -> false
        | _ :: rest -> no_adjacent_dup rest
        | [] -> true
      in
      List.iter
        (fun (n, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: no adjacent dup admin (seed %Ld)" n seed)
            true
            (no_adjacent_dup (Member.accepted_admin (D.member d n))))
        directory)
    (List.filteri (fun i _ -> i < 10) seeds)

let test_heavy_loss () =
  (* 50% loss is brutal: each admin exchange needs ~4 tries and the
     backoff cap stretches the tail, so the bound is generous. Sweep
     fewer seeds to keep the suite quick. *)
  List.iter
    (fun seed ->
      let d =
        run_once ~bound:(Netsim.Vtime.of_s 120) ~seed
          ~plan:(Netsim.Faultplan.uniform_loss 0.50) ~retry:true ()
      in
      check_converged ~what:"50% loss" ~seed d)
    (List.filteri (fun i _ -> i < 5) seeds)

let test_partition_heals () =
  (* Two members are cut off from the leader mid-join; after the heal,
     the recovery layer must complete their sessions. *)
  let plan =
    Netsim.Faultplan.make
      ~default_link:(Netsim.Faultplan.lossy_link 0.05)
      ~partitions:
        [
          {
            Netsim.Faultplan.west = [ "leader" ];
            east = [ "dave"; "erin" ];
            from_ = Netsim.Vtime.of_ms 2;
            heal = Netsim.Vtime.of_s 3;
          };
        ]
      ()
  in
  List.iter
    (fun seed ->
      let d = run_once ~seed ~plan ~retry:true () in
      check_converged ~what:"partition heal" ~seed d;
      let c = Netsim.Network.fault_counters (D.net d) in
      Alcotest.(check bool)
        (Printf.sprintf "partition cut frames (seed %Ld)" seed)
        true (Metrics.get c Netsim.Faultplan.Counter.cut > 0))
    (List.filteri (fun i _ -> i < 10) seeds)

let test_member_outage_and_restart () =
  (* A member's node goes dark mid-handshake and comes back: frames
     toward it vanish meanwhile. The watchdog (session reset if it
     authenticated without a key, plain retransmission otherwise) must
     finish the join after the restart. *)
  let plan =
    Netsim.Faultplan.make
      ~default_link:(Netsim.Faultplan.lossy_link 0.05)
      ~outages:
        [
          {
            Netsim.Faultplan.node = "carol";
            down = Netsim.Vtime.of_ms 3;
            up = Some (Netsim.Vtime.of_s 4);
          };
        ]
      ()
  in
  List.iter
    (fun seed ->
      let d = run_once ~seed ~plan ~retry:true () in
      check_converged ~what:"outage+restart" ~seed d;
      let c = Netsim.Network.fault_counters (D.net d) in
      Alcotest.(check bool)
        (Printf.sprintf "outage dropped frames (seed %Ld)" seed)
        true
        (Metrics.get c Netsim.Faultplan.Counter.down > 0))
    (List.filteri (fun i _ -> i < 10) seeds)

let test_replay_determinism () =
  (* A chaos run is a pure function of (seed, plan): identical traces,
     identical fault counters, identical retry stats. *)
  let snapshot seed =
    let d = run_once ~seed ~plan:(Netsim.Faultplan.uniform_loss 0.20) ~retry:true () in
    let c = Netsim.Network.fault_counters (D.net d) in
    let r = Metrics.find (D.counters d) in
    ( Netsim.Trace.length (Netsim.Network.trace (D.net d)),
      ( Metrics.get c Netsim.Faultplan.Counter.lost,
        Metrics.get c Netsim.Faultplan.Counter.corrupted,
        Metrics.get c Netsim.Faultplan.Counter.duplicated,
        Metrics.get c Netsim.Faultplan.Counter.spiked ),
      ( r D.Counter.handshake_retransmits,
        r D.Counter.keydist_retransmits,
        r D.Counter.admin_retransmits,
        r D.Counter.half_open_gcs,
        r D.Counter.session_resets ) )
  in
  List.iter
    (fun seed ->
      let a = snapshot seed and b = snapshot seed in
      Alcotest.(check bool)
        (Printf.sprintf "bit-for-bit replay (seed %Ld)" seed)
        true (a = b))
    (List.filteri (fun i _ -> i < 5) seeds)

let test_drop_causes_split () =
  (* The stats layer attributes every drop to its cause; under a pure
     fault plan all drops are By_fault and the aggregate matches. *)
  let d = run_once ~seed:7L ~plan:(Netsim.Faultplan.uniform_loss 0.30) ~retry:true () in
  let stats = Netsim.Stats.compute (Netsim.Network.trace (D.net d)) in
  Alcotest.(check bool) "some drops" true (stats.Netsim.Stats.dropped > 0);
  Alcotest.(check int) "all drops are fault drops" stats.Netsim.Stats.dropped
    stats.Netsim.Stats.dropped_by_fault;
  Alcotest.(check int) "no adversary drops" 0
    stats.Netsim.Stats.dropped_by_adversary

(* --- Failover under partitions (the ISSUE's satellite) --- *)

let fo_directory = [ ("alice", "pw-a"); ("bob", "pw-b"); ("carol", "pw-c") ]
let fo_managers = [ "m0"; "m1"; "m2" ]

let fo_config =
  {
    Failover.heartbeat_period = Netsim.Vtime.of_ms 100;
    failure_timeout = Netsim.Vtime.of_ms 400;
    check_period = Netsim.Vtime.of_ms 100;
    retry_budget = 2;
    failback_after = Netsim.Vtime.of_ms 800;
    repl_heartbeat_period = Netsim.Vtime.of_ms 100;
    warm_failover = true;
  }

let test_failover_partitioned_primary_no_split () =
  (* The primary is partitioned from everyone for a while, then healed.
     The successor warm-promotes and the group follows it keeping its
     session keys. When the partition heals, the old primary meets the
     higher-term stream, DEMOTES — stands down, discards its divergent
     journal suffix and rejoins as a catching-up backup — and the group
     stays on the successor: the heal costs zero member
     re-handshakes. *)
  List.iter
    (fun seed ->
      let t =
        Failover.create ~seed ~config:fo_config ~managers:fo_managers
          ~directory:fo_directory ()
      in
      let plan =
        Netsim.Faultplan.make
          ~partitions:
            [
              {
                Netsim.Faultplan.west = [ "m0" ];
                east = [ "m1"; "m2"; "alice"; "bob"; "carol" ];
                from_ = Netsim.Vtime.of_ms 600;
                heal = Netsim.Vtime.of_s 3;
              };
            ]
          ()
      in
      Netsim.Network.set_faultplan (Failover.net t) (Some plan);
      Failover.start t;
      (* Everyone in session with m0 before the partition hits. *)
      ignore (Failover.run ~until:(Netsim.Vtime.of_ms 550) t);
      let keys_before =
        List.filter_map
          (fun (n, _) ->
            Option.map (fun k -> (n, k))
              (Member.session_key (Failover.member t n)))
          fo_directory
      in
      Alcotest.(check int)
        (Printf.sprintf "all in session pre-partition (seed %Ld)" seed)
        3 (List.length keys_before);
      (* Mid-partition: everyone together on the warm-promoted
         successor — the group moved, it did not split, and nobody
         paid a cold re-handshake. *)
      ignore (Failover.run ~until:(Netsim.Vtime.of_ms 2800) t);
      List.iter
        (fun (n, _) ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s mid-partition manager (seed %Ld)" n seed)
            (Some "m1") (Failover.manager_of t n))
        fo_directory;
      Alcotest.(check (option string))
        (Printf.sprintf "primary is the live term (seed %Ld)" seed)
        (Some "m1") (Failover.primary t);
      (* After the heal: m0 met the higher term and stood down; the
         group did NOT churn back. *)
      ignore (Failover.run ~until:(Netsim.Vtime.of_s 10) t);
      Alcotest.(check (option string))
        (Printf.sprintf "primary is still m1 (seed %Ld)" seed)
        (Some "m1") (Failover.primary t);
      Alcotest.(check (list string))
        (Printf.sprintf "all connected (seed %Ld)" seed)
        [ "alice"; "bob"; "carol" ]
        (Failover.connected_members t);
      let stats = Failover.replication t in
      Alcotest.(check int)
        (Printf.sprintf "one warm promotion (seed %Ld)" seed)
        1 (Metrics.get stats Replication.Counter.warm_promotions);
      Alcotest.(check int)
        (Printf.sprintf "one demotion (seed %Ld)" seed)
        1 (Failover.demotions t);
      Alcotest.(check int)
        (Printf.sprintf "no cold member failover (seed %Ld)" seed)
        0 (Failover.failovers t);
      (* The demoted zombie is a backup again, reconverged onto the new
         term's stream: its replica is a prefix of m1's live journal. *)
      (match Failover.role t "m0" with
      | Failover.Backup { catching_up; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "m0 caught up (seed %Ld)" seed)
            false catching_up
      | _ -> Alcotest.fail (Printf.sprintf "m0 is not a backup (seed %Ld)" seed));
      (match (Failover.replica_bytes t "m0", Failover.journal_bytes t "m1") with
      | Some replica, Some journal ->
          Alcotest.(check bool)
            (Printf.sprintf "m0 replica is a prefix of m1 (seed %Ld)" seed)
            true
            (String.length replica <= String.length journal
            && String.sub journal 0 (String.length replica) = replica)
      | _ -> Alcotest.fail "missing replica/journal bytes");
      (* Zero re-handshakes across the whole partition + heal: every
         member still holds its original session key. *)
      List.iter
        (fun (n, before) ->
          match Member.session_key (Failover.member t n) with
          | Some after ->
              Alcotest.(check bool)
                (Printf.sprintf "%s kept its session key (seed %Ld)" n seed)
                true (Key.equal before after)
          | None ->
              Alcotest.fail
                (Printf.sprintf "%s lost its session (seed %Ld)" n seed))
        keys_before)
    (List.filteri (fun i _ -> i < 5) seeds)

let test_failover_lossy_crash () =
  (* Crash the primary under 15% uniform loss: members must still end
     up together on the successor. *)
  List.iter
    (fun seed ->
      let t =
        Failover.create ~seed ~config:fo_config ~managers:fo_managers
          ~directory:fo_directory ()
      in
      Netsim.Network.set_faultplan (Failover.net t)
        (Some (Netsim.Faultplan.uniform_loss 0.15));
      Failover.start t;
      ignore (Failover.run ~until:(Netsim.Vtime.of_ms 800) t);
      Failover.crash_primary t;
      ignore (Failover.run ~until:(Netsim.Vtime.of_s 12) t);
      Alcotest.(check (list string))
        (Printf.sprintf "all on successor (seed %Ld)" seed)
        [ "alice"; "bob"; "carol" ]
        (Failover.connected_members t);
      List.iter
        (fun (n, _) ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s on m1 (seed %Ld)" n seed)
            (Some "m1") (Failover.manager_of t n))
        fo_directory)
    (List.filteri (fun i _ -> i < 5) seeds)

let suite =
  [
    ( "chaos (fault injection)",
      [
        Alcotest.test_case "join converges at 20% loss, seeds 1-20" `Quick
          test_join_under_loss;
        Alcotest.test_case "same scenario wedges without retries" `Quick
          test_join_without_retries_wedges;
        Alcotest.test_case "corruption + duplication + spikes" `Quick
          test_join_under_corruption_and_duplication;
        Alcotest.test_case "50% loss" `Quick test_heavy_loss;
        Alcotest.test_case "partition heals" `Quick test_partition_heals;
        Alcotest.test_case "member outage and restart" `Quick
          test_member_outage_and_restart;
        Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
        Alcotest.test_case "drop causes split" `Quick test_drop_causes_split;
        Alcotest.test_case "failover: partitioned primary, no split" `Quick
          test_failover_partitioned_primary_no_split;
        Alcotest.test_case "failover: crash under loss" `Quick
          test_failover_lossy_crash;
      ] );
  ]
