(* Tests for the framing defenses: injection-path attribution, the
   corroboration gate, the liveness-challenge relief path, v1 snapshot
   compatibility, qcheck properties of the suspicion merge (the
   slotwise join must be a semilattice: commutative, associative,
   idempotent), and the seeded end-to-end regression — a wire attacker
   replaying or flooding under an honest victim's name must get the
   WIRE contained, never the victim. *)

open Enclaves
module D = Driver.Improved
module S = Sentinel

let cfg = S.default_config

let on_clock () =
  let now = ref 0L in
  let sn = S.create ~config:cfg ~clock:(fun () -> !now) () in
  (sn, now)

let rank l = S.level_rank l
let quarantined l = rank l >= rank S.Quarantined

(* --- attribution and the corroboration gate --- *)

let test_wire_framing_cannot_quarantine_victim () =
  let sn, _now = on_clock () in
  (* A hundred replay observations claiming "victim", all off the raw
     wire: full weight lands on the wire pseudo-peer, only the
     discounted remainder on the claimed name — and single-source
     off-path evidence is never corroborated, so the gate clamps the
     victim at rate-limited however high the raw score climbs. *)
  for _ = 1 to 100 do
    ignore (S.observe_via sn ~claimed:"victim" ~via:Netsim.Trace.Via_wire S.Replay)
  done;
  Alcotest.(check bool) "victim below quarantine" true
    (rank (S.level sn "victim") < rank S.Quarantined);
  Alcotest.(check bool) "wire pseudo-peer quarantined" true
    (quarantined (S.level sn S.wire_peer));
  let c = S.counters sn in
  Alcotest.(check bool) "wire observations counted" true
    (Metrics.get c S.Counter.wire_observations >= 100);
  Alcotest.(check bool) "the gate held at least once" true
    (Metrics.get c S.Counter.framing_holds >= 1)

let test_foreign_socket_charges_the_owner () =
  let sn, _now = on_clock () in
  (* Frames claiming "victim" but arriving over eve's own socket: the
     transport vouches for eve, so eve eats the full weight. *)
  for _ = 1 to 50 do
    ignore
      (S.observe_via sn ~claimed:"victim"
         ~via:(Netsim.Trace.Via_socket "eve") S.Mac_failure)
  done;
  Alcotest.(check bool) "socket owner quarantined" true
    (quarantined (S.level sn "eve"));
  Alcotest.(check bool) "claimed victim spared" true
    (rank (S.level sn "victim") < rank S.Quarantined)

let test_attribution_off_reproduces_claimed_sender_scoring () =
  let now = ref 0L in
  let sn =
    S.create
      ~config:{ cfg with S.attribution = false }
      ~clock:(fun () -> !now)
      ()
  in
  (* The pre-attribution sentinel scores every frame at full weight
     against its claimed sender — the framing vector this PR closes.
     With the switch off, the old behaviour (and the old
     vulnerability) is reproduced bit-for-bit. *)
  for _ = 1 to 100 do
    ignore (S.observe_via sn ~claimed:"victim" ~via:Netsim.Trace.Via_wire S.Replay)
  done;
  Alcotest.(check bool) "victim framed under the old scorer" true
    (quarantined (S.level sn "victim"));
  Alcotest.(check (float 0.0)) "nothing scored against the wire peer" 0.0
    (S.score sn S.wire_peer)

let test_on_path_evidence_self_corroborates () =
  let sn, _now = on_clock () in
  (* A genuinely misbehaving insider (on-path MAC failures alone)
     still quarantines: on-path volume past the threshold needs no
     second evidence class. *)
  let lvl = ref S.Clear in
  for _ = 1 to 20 do
    lvl := S.observe sn ~peer:"mallory" S.Mac_failure
  done;
  Alcotest.(check bool) "insider quarantined on one class" true
    (quarantined !lvl)

(* --- challenge / attestation --- *)

let test_challenge_then_attestation_relieves () =
  let sn, now = on_clock () in
  for _ = 1 to 100 do
    ignore (S.observe_via sn ~claimed:"victim" ~via:Netsim.Trace.Via_wire S.Replay)
  done;
  Alcotest.(check bool) "challenge due for the clamped victim" true
    (S.challenge_due sn "victim");
  S.note_challenged sn "victim";
  Alcotest.(check bool) "no duplicate challenge while one is open" false
    (S.challenge_due sn "victim");
  let before = S.score sn "victim" in
  Alcotest.(check bool) "victim carries discounted off-path score" true
    (before > 0.0);
  Alcotest.(check bool) "attestation accepted" true
    (S.note_attested sn "victim");
  Alcotest.(check (float 1e-9)) "off-path score wiped by attestation" 0.0
    (S.score sn "victim");
  Alcotest.(check bool) "level never exceeded rate-limited" true
    (rank (S.level sn "victim") < rank S.Quarantined);
  let c = S.counters sn in
  Alcotest.(check int) "attestation counted" 1
    (Metrics.get c S.Counter.attestations);
  (* Cooldown: a fresh burst re-arms the challenge only after the
     configured spacing. *)
  for _ = 1 to 100 do
    ignore (S.observe_via sn ~claimed:"victim" ~via:Netsim.Trace.Via_wire S.Replay)
  done;
  Alcotest.(check bool) "cooldown suppresses an immediate re-challenge" false
    (S.challenge_due sn "victim");
  now := Int64.add !now (Int64.mul 2L cfg.S.challenge_cooldown);
  for _ = 1 to 100 do
    ignore (S.observe_via sn ~claimed:"victim" ~via:Netsim.Trace.Via_wire S.Replay)
  done;
  Alcotest.(check bool) "re-challenge after the cooldown" true
    (S.challenge_due sn "victim")

let test_unattested_member_is_not_relieved () =
  let sn, _now = on_clock () in
  for _ = 1 to 100 do
    ignore (S.observe_via sn ~claimed:"ghost" ~via:Netsim.Trace.Via_wire S.Replay)
  done;
  Alcotest.(check bool) "attestation without a challenge is refused" false
    (S.note_attested sn "ghost");
  Alcotest.(check bool) "score stays on the books" true
    (S.score sn "ghost" > 0.0)

(* --- v1 snapshot compatibility --- *)

let test_import_v1_blob () =
  let sn, _now = on_clock () in
  let blob =
    Printf.sprintf "suspicion/1\n%d\t%Lx\t%Ld\t%s\n" 2
      (Int64.bits_of_float 30.0)
      0L "eve"
  in
  Alcotest.(check int) "v1 row escalates the peer" 1 (S.import sn blob);
  Alcotest.(check bool) "v1 level lands" true (quarantined (S.level sn "eve"));
  Alcotest.(check (float 1e-6)) "v1 aggregate score folds in" 30.0
    (S.score sn "eve")

(* --- qcheck: the suspicion merge is a join-semilattice --- *)

let peers = [| "alice"; "bob"; "carol" |]

let evidence_of i =
  match i mod 7 with
  | 0 -> S.Mac_failure
  | 1 -> S.Replay
  | 2 -> S.Stale_rekey
  | 3 -> S.Half_open
  | 4 -> S.Preauth_pressure
  | 5 -> S.Malformed
  | _ -> S.Contained

(* Build a sentinel by replaying a random op list on a hand clock;
   returns the sentinel and its (mutable) clock so merges can be
   performed at a common reference time. *)
let build ops =
  let now = ref 0L in
  let sn = S.create ~config:cfg ~clock:(fun () -> !now) () in
  List.iter
    (fun (p, e, v, dt_ms) ->
      now := Int64.add !now (Int64.of_int (dt_ms * 1000));
      let claimed = peers.(p mod Array.length peers) in
      let via =
        match v mod 3 with
        | 0 -> Netsim.Trace.Via_socket claimed
        | 1 -> Netsim.Trace.Via_socket peers.((p + 1) mod Array.length peers)
        | _ -> Netsim.Trace.Via_wire
      in
      ignore (S.observe_via sn ~claimed ~via (evidence_of e)))
    ops;
  (sn, now)

(* Observable state: per tracked peer, the containment level and the
   decayed total score. Scores are compared approximately — decay
   factors compose in different orders across different merge
   bracketings, so bit-exactness is not available (nor required: the
   ladder quantizes). *)
let state sn =
  List.map (fun p -> (p, rank (S.level sn p), S.score sn p)) (S.peers sn)

let approx_state_eq s1 s2 =
  List.length s1 = List.length s2
  && List.for_all2
       (fun (p1, l1, x1) (p2, l2, x2) ->
         p1 = p2 && l1 = l2
         &&
         let scale = Float.max 1.0 (Float.max (Float.abs x1) (Float.abs x2)) in
         Float.abs (x1 -. x2) <= 1e-6 *. scale)
       s1 s2

let ops_gen =
  QCheck.(
    list_of_size
      Gen.(int_range 0 25)
      (quad (int_range 0 2) (int_range 0 6) (int_range 0 2) (int_range 0 500)))

let align clocks =
  let t = List.fold_left (fun a c -> Int64.max a !c) 0L clocks in
  List.iter (fun c -> c := t) clocks

let qcheck_tests =
  [
    QCheck.Test.make ~name:"merge commutative" ~count:100
      QCheck.(pair ops_gen ops_gen)
      (fun (a, b) ->
        let sa, ca = build a and sb, cb = build b in
        let sa', ca' = build a and sb', cb' = build b in
        align [ ca; cb; ca'; cb' ];
        ignore (S.import sa (S.export sb));
        ignore (S.import sb' (S.export sa'));
        approx_state_eq (state sa) (state sb'));
    QCheck.Test.make ~name:"merge associative" ~count:100
      QCheck.(triple ops_gen ops_gen ops_gen)
      (fun (a, b, c) ->
        (* (A + B) + C versus A + (B + C), at a common clock. *)
        let sa, ta = build a and sb, tb = build b and sc, tc = build c in
        let sa', ta' = build a and sb', tb' = build b and sc', tc' = build c in
        align [ ta; tb; tc; ta'; tb'; tc' ];
        ignore (S.import sa (S.export sb));
        ignore (S.import sa (S.export sc));
        ignore (S.import sb' (S.export sc'));
        ignore (S.import sa' (S.export sb'));
        approx_state_eq (state sa) (state sa'));
    QCheck.Test.make ~name:"merge idempotent" ~count:100 ops_gen (fun a ->
        let sa, _ = build a in
        let before = state sa in
        let escalations = S.import sa (S.export sa) in
        escalations = 0 && approx_state_eq before (state sa));
  ]

(* --- end-to-end: seeded framing regression through the driver --- *)

let framing_run arm seed =
  let directory =
    List.init 3 (fun i ->
        let n = Printf.sprintf "user%d" i in
        (n, n ^ "-pw"))
  in
  let d =
    D.create ~seed ~retry:true ~preauth:true
      ~intrusion:S.default_config ~leader:"leader" ~directory ()
  in
  List.iter (fun (n, _) -> D.join d n) directory;
  ignore (D.run ~until:(Netsim.Vtime.of_s 2) d);
  D.send_app d "user0" "victim chatter";
  ignore (D.run ~until:(Netsim.Vtime.of_ms 2200) d);
  let o = Adversary.Outsider.create ~driver:d ~victim:"user0" () in
  ignore
    (Adversary.Outsider.launch o
       (Netsim.Intruder.campaign ~arm ~start:(Netsim.Vtime.of_s 3)
          ~stop:(Netsim.Vtime.of_s 5)
          ~period:(Netsim.Vtime.of_ms 20)
          ~burst:8 ()));
  ignore (D.run ~until:(Netsim.Vtime.of_s 6) d);
  let sn = Option.get (D.sentinel d) in
  (S.level sn "user0", S.level sn S.wire_peer,
   Metrics.find (D.counters d) D.Counter.injections_blocked)

let check_framing_arm arm () =
  List.iter
    (fun seed ->
      let victim, wire, blocked = framing_run arm (Int64.of_int seed) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: honest victim below quarantine" seed)
        true
        (rank victim < rank S.Quarantined);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: wire contained" seed)
        true
        (quarantined wire || blocked > 0))
    [ 1; 2; 3; 4; 5 ]

let test_frame_replay_regression () =
  check_framing_arm Netsim.Intruder.Frame_replay ()

let test_frame_flood_regression () =
  check_framing_arm Netsim.Intruder.Frame_flood ()

let suite =
  [
    ( "framing",
      [
        Alcotest.test_case "wire framing cannot quarantine victim" `Quick
          test_wire_framing_cannot_quarantine_victim;
        Alcotest.test_case "foreign socket charges the owner" `Quick
          test_foreign_socket_charges_the_owner;
        Alcotest.test_case "attribution off = claimed-sender scoring" `Quick
          test_attribution_off_reproduces_claimed_sender_scoring;
        Alcotest.test_case "on-path evidence self-corroborates" `Quick
          test_on_path_evidence_self_corroborates;
        Alcotest.test_case "challenge then attestation relieves" `Quick
          test_challenge_then_attestation_relieves;
        Alcotest.test_case "no relief without a challenge" `Quick
          test_unattested_member_is_not_relieved;
        Alcotest.test_case "import v1 snapshot" `Quick test_import_v1_blob;
        Alcotest.test_case "frame-replay regression (5 seeds)" `Slow
          test_frame_replay_regression;
        Alcotest.test_case "frame-flood regression (5 seeds)" `Slow
          test_frame_flood_regression;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_tests );
  ]
