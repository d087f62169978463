(* Tests for the online intrusion sentinel: scoring and decay, the
   monotone containment ladder, pre-auth admission verdicts, suspicion
   snapshot merge, end-to-end quarantine through the driver, failover
   survival of suspicion, and the chaos false-positive guard (a clean
   member under link faults must never be quarantined). *)

open Enclaves
module D = Driver.Improved
module S = Sentinel

let cfg = S.default_config

(* A sentinel on a hand-cranked clock. *)
let on_clock () =
  let now = ref 0L in
  let sn = S.create ~config:cfg ~clock:(fun () -> !now) () in
  (sn, now)

(* --- scoring and decay --- *)

let test_score_decay () =
  let sn, now = on_clock () in
  ignore (S.observe sn ~peer:"eve" S.Mac_failure);
  ignore (S.observe sn ~peer:"eve" S.Mac_failure);
  let full = S.score sn "eve" in
  Alcotest.(check (float 1e-6)) "two MAC failures" (2.0 *. cfg.S.w_mac_failure)
    full;
  now := cfg.S.half_life;
  Alcotest.(check (float 1e-6)) "one half-life halves the score" (full /. 2.0)
    (S.score sn "eve");
  now := Int64.mul 10L cfg.S.half_life;
  Alcotest.(check bool) "long quiet decays toward zero" true
    (S.score sn "eve" < 0.1);
  Alcotest.(check (float 0.0)) "unknown peer scores zero" 0.0
    (S.score sn "nobody")

let test_evidence_weights_ordered () =
  (* The weights encode severity: a MAC failure is worth more than
     pre-auth pressure, which can only escalate by volume. *)
  Alcotest.(check bool) "mac > preauth" true
    (cfg.S.w_mac_failure > cfg.S.w_preauth);
  Alcotest.(check bool) "malformed > preauth" true
    (cfg.S.w_malformed > cfg.S.w_preauth)

(* --- the ladder ratchets --- *)

let test_ladder_ratchets_up_never_down () =
  let sn, now = on_clock () in
  let escalate_until target =
    let level = ref (S.level sn "eve") in
    while S.level_rank !level < S.level_rank target do
      level := S.observe sn ~peer:"eve" S.Mac_failure
    done
  in
  escalate_until S.Rate_limited;
  Alcotest.(check string) "rate-limited first" "rate-limited"
    (S.level_name (S.level sn "eve"));
  escalate_until S.Quarantined;
  Alcotest.(check string) "then quarantined" "quarantined"
    (S.level_name (S.level sn "eve"));
  (* Quiet time decays the score, never the level. *)
  now := Int64.mul 100L cfg.S.half_life;
  Alcotest.(check bool) "score decayed away" true (S.score sn "eve" < 0.01);
  Alcotest.(check string) "level survives the quiet" "quarantined"
    (S.level_name (S.level sn "eve"));
  escalate_until S.Expelled;
  Alcotest.(check string) "expelled is terminal" "expelled"
    (S.level_name (S.level sn "eve"));
  Alcotest.(check bool) "contained lists the suspect" true
    (List.mem "eve" (S.contained sn))

(* --- pre-auth admission --- *)

let test_admission_token_bucket () =
  let sn, _now = on_clock () in
  let admit peer known =
    S.admit_preauth sn ~peer ~known ~resuming:false ~half_open:0 ()
  in
  (* A known name owns its bucket: the burst admits, then throttles
     (the hand-cranked clock never refills). *)
  let burst = int_of_float cfg.S.preauth_burst in
  for i = 1 to burst do
    Alcotest.(check string)
      (Printf.sprintf "alice admit %d" i)
      "admit"
      (S.verdict_name (admit "alice" true))
  done;
  Alcotest.(check string) "alice throttled past the burst" "throttled"
    (S.verdict_name (admit "alice" true));
  (* Unknown names share one bucket: ghosts starve each other... *)
  for _ = 1 to burst do
    ignore (admit (Printf.sprintf "ghost-%d" (Random.int 1000)) false)
  done;
  Alcotest.(check string) "fresh ghost finds the shared bucket dry"
    "throttled"
    (S.verdict_name (admit "ghost-new" false));
  (* ...but not a different known name's private bucket. *)
  Alcotest.(check string) "bob's own bucket unaffected" "admit"
    (S.verdict_name (admit "bob" true))

let test_admission_cap_and_resume () =
  let sn, _now = on_clock () in
  Alcotest.(check string) "half-open table full: capped" "capped"
    (S.verdict_name
       (S.admit_preauth sn ~peer:"carol" ~known:true ~resuming:false
          ~half_open:cfg.S.half_open_cap ()));
  (* A retransmission of an in-progress handshake bypasses bucket and
     cap — throttling it would fail the very join it belongs to. *)
  Alcotest.(check string) "resuming bypasses the cap" "admit"
    (S.verdict_name
       (S.admit_preauth sn ~peer:"carol" ~known:true ~resuming:true
          ~half_open:cfg.S.half_open_cap ()))

let test_admission_denies_quarantined () =
  let sn, _now = on_clock () in
  let rec escalate () =
    if
      S.level_rank (S.observe sn ~peer:"eve" S.Mac_failure)
      < S.level_rank S.Quarantined
    then escalate ()
  in
  escalate ();
  Alcotest.(check string) "quarantined peer denied outright"
    "denied-quarantined"
    (S.verdict_name
       (S.admit_preauth sn ~peer:"eve" ~known:true ~resuming:true
          ~half_open:0 ()))

(* --- suspicion snapshots --- *)

let test_export_import_ratchets () =
  let sn1, _ = on_clock () in
  let sn2, _ = on_clock () in
  let rec escalate () =
    if
      S.level_rank (S.observe sn1 ~peer:"mallory" S.Mac_failure)
      < S.level_rank S.Quarantined
    then escalate ()
  in
  escalate ();
  ignore (S.observe sn1 ~peer:"dave" S.Replay);
  let blob = S.export sn1 in
  Alcotest.(check bool) "import escalates at least one peer" true
    (S.import sn2 blob > 0);
  Alcotest.(check string) "quarantine crossed the snapshot" "quarantined"
    (S.level_name (S.level sn2 "mallory"));
  Alcotest.(check int) "re-import is idempotent" 0 (S.import sn2 blob);
  (* Merge never de-escalates: a locally expelled peer stays expelled
     when an older, milder snapshot arrives. *)
  let rec expel () =
    if
      S.level_rank (S.observe sn2 ~peer:"mallory" S.Contained)
      < S.level_rank S.Expelled
    then expel ()
  in
  expel ();
  ignore (S.import sn2 blob);
  Alcotest.(check string) "import never de-escalates" "expelled"
    (S.level_name (S.level sn2 "mallory"));
  Alcotest.(check int) "malformed snapshot ignored" 0
    (S.import sn2 "not a snapshot\nat all")

(* --- quarantine through the driver --- *)

let directory = [ ("alice", "pw-a"); ("bob", "pw-b"); ("mallory", "pw-m") ]

let test_driver_quarantines_forging_insider () =
  let d =
    D.create ~seed:41L ~retry:true ~preauth:true
      ~intrusion:cfg ~leader:"leader" ~directory ()
  in
  List.iter (fun (n, _) -> D.join d n) directory;
  ignore (D.run ~until:(Netsim.Vtime.of_s 2) d);
  let insider =
    Adversary.Insider.create ~driver:d ~insider:"mallory" ~password:"pw-m" ()
  in
  Alcotest.(check bool) "session key harvested" true
    (Adversary.Insider.harvest insider);
  let campaign =
    Netsim.Intruder.campaign ~arm:Netsim.Intruder.Forge_burst
      ~start:(Netsim.Vtime.of_s 3) ~stop:(Netsim.Vtime.of_s 5)
      ~period:(Netsim.Vtime.of_ms 100) ~burst:6 ()
  in
  ignore (Adversary.Insider.launch insider campaign);
  ignore (D.run ~until:(Netsim.Vtime.of_s 10) d);
  let sn = Option.get (D.sentinel d) in
  Alcotest.(check bool) "forging insider contained" true
    (S.level_rank (S.level sn "mallory") >= S.level_rank S.Quarantined);
  Alcotest.(check bool) "containment forced an emergency rekey" true
    (Metrics.find (D.counters d) S.Counter.emergency_rekeys >= 1);
  (* The group survives its insider: honest members still talk. *)
  D.send_app d "alice" "after the purge";
  ignore (D.run ~until:(Netsim.Vtime.of_s 12) d);
  Alcotest.(check bool) "honest member still keyed" true
    (Member.session_key (D.member d "alice") <> None)

let test_post_rekey_unreadable_under_harvested_keys () =
  (* The emergency rekey must actually retire the insider's key
     material: an eavesdropper holding every key mallory ever
     harvested reads nothing sent after containment. *)
  let d =
    D.create ~seed:43L ~retry:true ~preauth:true
      ~intrusion:cfg ~leader:"leader" ~directory ()
  in
  List.iter (fun (n, _) -> D.join d n) directory;
  ignore (D.run ~until:(Netsim.Vtime.of_s 2) d);
  let insider =
    Adversary.Insider.create ~driver:d ~insider:"mallory" ~password:"pw-m" ()
  in
  ignore (Adversary.Insider.harvest insider);
  let campaign =
    Netsim.Intruder.campaign ~arm:Netsim.Intruder.Forge_burst
      ~start:(Netsim.Vtime.of_s 3) ~stop:(Netsim.Vtime.of_s 5)
      ~period:(Netsim.Vtime.of_ms 100) ~burst:6 ()
  in
  ignore (Adversary.Insider.launch insider campaign);
  ignore (D.run ~until:(Netsim.Vtime.of_s 10) d);
  let sn = Option.get (D.sentinel d) in
  Alcotest.(check bool) "insider contained first" true
    (S.level_rank (S.level sn "mallory") >= S.level_rank S.Quarantined);
  (* Mark the trace length at containment, then generate fresh
     traffic. *)
  let before = List.length (Netsim.Trace.entries (Netsim.Network.trace (D.net d))) in
  D.send_app d "alice" "post-containment secret";
  D.send_app d "bob" "another one";
  ignore (D.run ~until:(Netsim.Vtime.of_s 12) d);
  let entries = Netsim.Trace.entries (Netsim.Network.trace (D.net d)) in
  let fresh = List.filteri (fun i _ -> i >= before) entries in
  Alcotest.(check bool) "post-containment traffic exists" true
    (fresh <> []);
  let know = Adversary.Knowledge.create () in
  List.iter (Adversary.Knowledge.add_key know)
    (Adversary.Insider.retired_keys insider);
  List.iter
    (function
      | Netsim.Trace.Delivered { payload; _ } ->
          Adversary.Knowledge.observe know payload
      | _ -> ())
    fresh;
  Adversary.Knowledge.saturate know;
  Alcotest.(check bool) "harvested keys read no post-rekey secrets" false
    (List.exists
       (fun p ->
         p = "post-containment secret" || p = "another one")
       (Adversary.Knowledge.plaintexts know))

(* --- suspicion survives failover --- *)

let test_quarantine_survives_failover () =
  let t =
    Failover.create ~seed:47L ~intrusion:cfg ~managers:[ "m0"; "m1" ]
      ~directory ()
  in
  Failover.start t;
  ignore (Failover.run ~until:(Netsim.Vtime.of_s 2) t);
  let p0 = Option.get (Failover.primary t) in
  let sn0 = Option.get (Failover.sentinel t p0) in
  let rec escalate () =
    if
      S.level_rank (S.observe sn0 ~peer:"mallory" S.Mac_failure)
      < S.level_rank S.Quarantined
    then escalate ()
  in
  escalate ();
  (* Let the suspicion snapshot replicate, then kill the primary. *)
  ignore (Failover.run ~until:(Netsim.Vtime.of_s 4) t);
  Failover.crash_primary t;
  ignore (Failover.run ~until:(Netsim.Vtime.of_s 12) t);
  let p1 = Option.get (Failover.primary t) in
  Alcotest.(check bool) "a successor took over" true (p1 <> p0);
  let sn1 = Option.get (Failover.sentinel t p1) in
  Alcotest.(check bool) "successor keeps the quarantine" true
    (S.level_rank (S.level sn1 "mallory") >= S.level_rank S.Quarantined);
  Alcotest.(check bool) "replicated snapshot was present" true
    (Failover.replica_suspicion t p1 <> None
    || S.level_rank (S.level sn1 "mallory") >= S.level_rank S.Quarantined)

(* --- chaos false-positive guard --- *)

let test_no_false_positive_quarantine_under_chaos () =
  (* A clean member under 10% link loss with latency spikes produces
     duplicate handshake legs and occasional stale nonces — evidence
     the sentinel sees. It must never reach Quarantined. *)
  List.iter
    (fun seed ->
      let d =
        D.create ~seed ~retry:true ~preauth:true
          ~intrusion:cfg ~leader:"leader" ~directory ()
      in
      let plan =
        Netsim.Faultplan.make
          ~default_link:
            (Netsim.Faultplan.lossy_link ~spike_prob:0.05 ~duplicate:0.05 0.1)
          ()
      in
      Netsim.Network.set_faultplan (D.net d) (Some plan);
      List.iter (fun (n, _) -> D.join d n) directory;
      ignore (D.run ~until:(Netsim.Vtime.of_s 5) d);
      D.rekey d;
      List.iter (fun (n, _) -> D.send_app d n "hello") directory;
      ignore (D.run ~until:(Netsim.Vtime.of_s 15) d);
      let sn = Option.get (D.sentinel d) in
      List.iter
        (fun (n, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %Ld: %s not quarantined" seed n)
            true
            (S.level_rank (S.level sn n) < S.level_rank S.Quarantined))
        directory)
    [ 101L; 102L; 103L; 104L; 105L ]

let suite =
  [
    ( "sentinel (online containment)",
      [
        Alcotest.test_case "score decay" `Quick test_score_decay;
        Alcotest.test_case "evidence weights ordered" `Quick
          test_evidence_weights_ordered;
        Alcotest.test_case "ladder ratchets up, never down" `Quick
          test_ladder_ratchets_up_never_down;
        Alcotest.test_case "admission token bucket" `Quick
          test_admission_token_bucket;
        Alcotest.test_case "admission cap and resume bypass" `Quick
          test_admission_cap_and_resume;
        Alcotest.test_case "admission denies quarantined" `Quick
          test_admission_denies_quarantined;
        Alcotest.test_case "export/import ratchets" `Quick
          test_export_import_ratchets;
        Alcotest.test_case "driver quarantines forging insider" `Quick
          test_driver_quarantines_forging_insider;
        Alcotest.test_case "post-rekey traffic unreadable under harvested keys"
          `Quick test_post_rekey_unreadable_under_harvested_keys;
        Alcotest.test_case "quarantine survives failover" `Quick
          test_quarantine_survives_failover;
        Alcotest.test_case "no false-positive quarantine under chaos" `Quick
          test_no_false_positive_quarantine_under_chaos;
      ] );
  ]
