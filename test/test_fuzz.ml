(* Fuzz / robustness tests: all four protocol automata must survive
   arbitrary attacker bytes — random garbage, bit-flipped genuine
   frames, truncations, and label rewrites — without raising and
   without any observable state change other than a recorded
   rejection. *)

open Enclaves
module F = Wire.Frame

let directory = [ ("alice", "pw-a"); ("bob", "pw-b") ]

let connected_pair () =
  let rng = Prng.Splitmix.create 31L in
  let leader = Leader.create ~self:"leader" ~rng ~directory () in
  let members =
    List.map
      (fun (n, p) -> (n, Member.create ~self:n ~leader:"leader" ~password:p ~rng))
      directory
  in
  let router = Test_util.improved_router leader members in
  List.iter
    (fun (_, m) -> Test_util.route router (Member.join m))
    members;
  (leader, members)

let legacy_pair () =
  let rng = Prng.Splitmix.create 32L in
  let leader = Legacy_leader.create ~self:"leader" ~rng ~directory () in
  let members =
    List.map
      (fun (n, p) ->
        (n, Legacy_member.create ~self:n ~leader:"leader" ~password:p ~rng))
      directory
  in
  let router = Test_util.legacy_router leader members in
  List.iter (fun (_, m) -> Test_util.route router (Legacy_member.join m)) members;
  (leader, members)

let member_snapshot m =
  ( Member.is_connected m,
    Member.group_view m,
    List.length (Member.accepted_admin m),
    Option.map (fun gk -> gk.Types.epoch) (Member.group_key m) )

(* Mutators producing attacker bytes from a genuine frame. *)
let bitflip rng bytes =
  if String.length bytes = 0 then bytes
  else begin
    let b = Bytes.of_string bytes in
    let i = Prng.Splitmix.next_int rng (Bytes.length b) in
    let bit = 1 lsl Prng.Splitmix.next_int rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
    Bytes.to_string b
  end

let truncate rng bytes =
  if String.length bytes <= 1 then bytes
  else String.sub bytes 0 (Prng.Splitmix.next_int rng (String.length bytes))

let relabel rng bytes =
  match F.decode bytes with
  | Error _ -> bytes
  | Ok frame ->
      let labels = Array.of_list F.all_labels in
      let label = labels.(Prng.Splitmix.next_int rng (Array.length labels)) in
      F.encode { frame with F.label }

(* A genuine admin frame to mutate. *)
let genuine_admin_frame leader =
  match Leader.enqueue_admin leader "alice" (Wire.Admin.Notice "target") with
  | [ f ] -> F.encode f
  | _ -> Alcotest.fail "expected one admin frame"

let no_crash_and_no_state_change ~make_input ~count =
  let leader, members = connected_pair () in
  let alice = List.assoc "alice" members in
  let genuine = genuine_admin_frame leader in
  (* Deliver the genuine frame first so alice is in a steady state. *)
  let router = Test_util.improved_router leader members in
  Test_util.route router
    (match F.decode genuine with
    | Ok f -> [ f ]
    | Error _ -> Alcotest.fail "genuine frame invalid");
  let rng = Prng.Splitmix.create 404L in
  let before = member_snapshot alice in
  for _ = 1 to count do
    let bytes = make_input rng genuine in
    (* Must not raise; replies to mutated bytes must be empty. The one
       exception is a byte-identical copy of the genuine frame (a
       mutator can be the identity): that is the retransmission path,
       which re-elicits the stored ack — still no state change. *)
    let replies = Member.receive alice bytes in
    if bytes <> genuine then
      Alcotest.(check int) "no reply to attacker bytes" 0
        (List.length replies);
    let _ = Leader.receive leader bytes in
    ()
  done;
  Alcotest.(check bool) "member state unchanged" true
    (member_snapshot alice = before)

let test_random_garbage () =
  no_crash_and_no_state_change ~count:500 ~make_input:(fun rng _ ->
      Bytes.unsafe_to_string
        (Prng.Splitmix.next_bytes rng (1 + Prng.Splitmix.next_int rng 200)))

let test_bitflipped_frames () =
  no_crash_and_no_state_change ~count:500 ~make_input:(fun rng genuine ->
      bitflip rng genuine)

let test_truncated_frames () =
  no_crash_and_no_state_change ~count:300 ~make_input:(fun rng genuine ->
      truncate rng genuine)

let test_relabelled_frames () =
  no_crash_and_no_state_change ~count:300 ~make_input:(fun rng genuine ->
      relabel rng genuine)

let test_empty_input () =
  let leader, members = connected_pair () in
  let alice = List.assoc "alice" members in
  Alcotest.(check int) "member ignores empty" 0
    (List.length (Member.receive alice ""));
  Alcotest.(check int) "leader ignores empty" 0
    (List.length (Leader.receive leader ""))

let test_legacy_garbage () =
  let leader, members = legacy_pair () in
  let alice = List.assoc "alice" members in
  let rng = Prng.Splitmix.create 405L in
  let before =
    ( Legacy_member.is_connected alice,
      Legacy_member.group_view alice,
      Option.map (fun gk -> gk.Types.epoch) (Legacy_member.group_key alice) )
  in
  for _ = 1 to 500 do
    let bytes =
      Bytes.unsafe_to_string
        (Prng.Splitmix.next_bytes rng (1 + Prng.Splitmix.next_int rng 120))
    in
    let _ = Legacy_member.receive alice bytes in
    let _ = Legacy_leader.receive leader bytes in
    ()
  done;
  Alcotest.(check bool) "legacy member survives garbage" true
    (( Legacy_member.is_connected alice,
       Legacy_member.group_view alice,
       Option.map (fun gk -> gk.Types.epoch) (Legacy_member.group_key alice) )
    = before)

let test_legacy_expel () =
  let leader, members = legacy_pair () in
  let router = Test_util.legacy_router leader members in
  let bob = List.assoc "bob" members in
  Test_util.route router (Legacy_leader.expel leader "alice");
  Alcotest.(check (list string)) "alice expelled" [ "bob" ]
    (Legacy_leader.members leader);
  Alcotest.(check (list string)) "bob's view updated" []
    (Legacy_member.group_view bob);
  let alice = List.assoc "alice" members in
  Alcotest.(check bool) "alice closed" false (Legacy_member.is_connected alice)

(* Live-run mutation properties: a whole cluster runs over the
   simulated network while an in-path adversary mangles genuine frames
   in flight — bit flips, truncations, duplications. Whatever the
   mutation stream, no handler may raise, mutated frames must be
   silently dropped (never accepted into a session), and the §5.4
   prefix discipline must survive. *)

module D = Driver.Improved

let live_run ~seed ~mutate =
  let dir3 = [ ("alice", "pw-a"); ("bob", "pw-b"); ("carol", "pw-c") ] in
  let d =
    D.create ~seed ~retry:true ~leader:"leader" ~directory:dir3 ()
  in
  let arng = Prng.Splitmix.create (Int64.add seed 7919L) in
  Netsim.Network.set_adversary (D.net d)
    (Some (fun ~src:_ ~dst ~payload -> mutate (D.net d) arng ~dst payload));
  List.iter (fun (n, _) -> D.join d n) dir3;
  D.rekey d;
  ignore (D.run ~until:(Netsim.Vtime.of_s 30) d);
  (d, dir3)

(* Coherence after a mangled run: ordering intact, and every member
   view is internally consistent (a key implies a live session, epochs
   never exceed the leader's). *)
let coherent (d, dir3) =
  D.all_prefix_ok d
  && List.for_all
       (fun (n, _) ->
         let m = D.member d n in
         match Member.group_key m with
         | Some gk -> (
             Member.is_connected m
             &&
             match Leader.group_key (D.leader d) with
             | Some lk -> gk.Types.epoch <= lk.Types.epoch
             | None -> false)
         | None -> true)
       dir3

let qcheck_tests =
  [
    QCheck.Test.make ~name:"member survives arbitrary bytes" ~count:500
      QCheck.string (fun s ->
        let _, members = connected_pair () in
        let alice = List.assoc "alice" members in
        let replies = Member.receive alice s in
        (* Deterministic automaton: arbitrary bytes never produce
           output frames unless they happen to be a validly sealed
           frame — probability ~2^-128. *)
        replies = []);
    QCheck.Test.make ~name:"leader survives arbitrary bytes" ~count:500
      QCheck.string (fun s ->
        let leader, _ = connected_pair () in
        let replies = Leader.receive leader s in
        replies = []);
    QCheck.Test.make ~name:"live run survives in-flight bit flips" ~count:20
      ~long_factor:5
      QCheck.(int_range 1 10_000)
      (fun seed ->
        let r =
          live_run ~seed:(Int64.of_int seed)
            ~mutate:(fun _net rng ~dst:_ payload ->
              if Prng.Splitmix.next_int rng 100 < 25 then
                Netsim.Network.Replace (bitflip rng payload)
              else Netsim.Network.Deliver)
        in
        coherent r);
    QCheck.Test.make ~name:"live run survives in-flight truncation" ~count:20
      ~long_factor:5
      QCheck.(int_range 1 10_000)
      (fun seed ->
        let r =
          live_run ~seed:(Int64.of_int seed)
            ~mutate:(fun _net rng ~dst:_ payload ->
              if Prng.Splitmix.next_int rng 100 < 25 then
                Netsim.Network.Replace (truncate rng payload)
              else Netsim.Network.Deliver)
        in
        coherent r);
    QCheck.Test.make ~name:"live run survives in-flight duplication" ~count:20
      ~long_factor:5
      QCheck.(int_range 1 10_000)
      (fun seed ->
        let r =
          live_run ~seed:(Int64.of_int seed)
            ~mutate:(fun net rng ~dst payload ->
              if Prng.Splitmix.next_int rng 100 < 30 then
                Netsim.Network.inject net ~dst payload;
              Netsim.Network.Deliver)
        in
        (* Duplication is not loss: with the recovery layer on, the run
           must fully converge, not merely stay coherent. *)
        coherent r && D.converged (fst r));
    QCheck.Test.make ~name:"sentinel verdicts deterministic per seed" ~count:15
      ~long_factor:5
      QCheck.(int_range 1 10_000)
      (fun seed ->
        (* An insider campaign is a pure function of the seed: the same
           seed twice yields bit-identical suspicion — same suspects at
           the same levels, same sentinel counters, same injected
           frame counts. *)
        let campaign_run () =
          let dir =
            [ ("alice", "pw-a"); ("bob", "pw-b"); ("mallory", "pw-m") ]
          in
          let d =
            D.create ~seed:(Int64.of_int seed) ~retry:true
              ~preauth:true
              ~intrusion:Enclaves.Sentinel.default_config ~leader:"leader"
              ~directory:dir ()
          in
          List.iter (fun (n, _) -> D.join d n) dir;
          ignore (D.run ~until:(Netsim.Vtime.of_s 2) d);
          let insider =
            Adversary.Insider.create ~driver:d ~insider:"mallory"
              ~password:"pw-m" ()
          in
          ignore (Adversary.Insider.harvest insider);
          let campaign =
            Netsim.Intruder.campaign ~arm:Netsim.Intruder.Forge_burst
              ~start:(Netsim.Vtime.of_s 3) ~stop:(Netsim.Vtime.of_s 5)
              ~period:(Netsim.Vtime.of_ms 200) ~burst:4 ()
          in
          ignore (Adversary.Insider.launch insider campaign);
          ignore (D.run ~until:(Netsim.Vtime.of_s 8) d);
          let sn = Option.get (D.sentinel d) in
          let suspects =
            List.map
              (fun (p, l) -> (p, Enclaves.Sentinel.level_name l))
              (Enclaves.Sentinel.suspects sn)
          in
          (suspects, D.sentinel_counters d, Adversary.Insider.counters insider)
        in
        campaign_run () = campaign_run ());
  ]

let suite =
  [
    ( "fuzz (robustness)",
      [
        Alcotest.test_case "random garbage" `Quick test_random_garbage;
        Alcotest.test_case "bit-flipped frames" `Quick test_bitflipped_frames;
        Alcotest.test_case "truncated frames" `Quick test_truncated_frames;
        Alcotest.test_case "relabelled frames" `Quick test_relabelled_frames;
        Alcotest.test_case "empty input" `Quick test_empty_input;
        Alcotest.test_case "legacy garbage" `Quick test_legacy_garbage;
        Alcotest.test_case "legacy expel" `Quick test_legacy_expel;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_tests );
  ]
