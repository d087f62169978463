(* Tests for the offline trace auditor: a clean scenario audits clean;
   replays and forgeries injected on the wire are detected from the
   recorded trace alone. *)

open Enclaves
module D = Driver.Improved
module F = Wire.Frame

let directory = [ ("alice", "pw-a"); ("bob", "pw-b") ]

let scenario ?adversary ?(inject = fun _ -> ()) () =
  let d = D.create ~seed:91L ~leader:"leader" ~directory () in
  (match adversary with
  | Some adv -> Netsim.Network.set_adversary (D.net d) (Some (adv (D.net d)))
  | None -> ());
  List.iter
    (fun (n, _) ->
      D.join d n;
      ignore (D.run d))
    directory;
  D.rekey d;
  ignore (D.run d);
  inject d;
  ignore (D.run d);
  D.leave d "alice";
  ignore (D.run d);
  Netsim.Network.trace (D.net d)

let audit trace = Audit.run ~directory ~leader:"leader" trace

let test_clean_scenario () =
  let report = audit (scenario ()) in
  Alcotest.(check bool) "clean" true (Audit.clean report);
  Alcotest.(check int) "two handshakes" 2 report.Audit.handshakes_completed;
  Alcotest.(check bool) "admin traffic seen" true
    (report.Audit.admin_delivered > 4);
  Alcotest.(check int) "one close" 1 report.Audit.closes

let test_detects_replay () =
  (* Duplicate every admin frame on the wire: the members reject the
     duplicates silently; the auditor makes them visible. *)
  let adversary net ~src:_ ~dst ~payload =
    (match F.decode payload with
    | Ok { F.label = F.Admin_msg; _ } -> Netsim.Network.inject net ~dst payload
    | Ok _ | Error _ -> ());
    Netsim.Network.Deliver
  in
  let report = audit (scenario ~adversary ()) in
  let replays =
    List.exists
      (function Audit.Replayed_admin _ -> true | _ -> false)
      report.Audit.anomalies
  in
  Alcotest.(check bool) "replays detected" true replays;
  (* No forgeries: everything on the wire was once genuine. *)
  Alcotest.(check bool) "no forgeries flagged" false
    (List.exists
       (function Audit.Forged_frame _ -> true | _ -> false)
       report.Audit.anomalies)

let test_detects_forgery () =
  (* An insider forges an AdminMsg under the group key (attack A2
     shape): the member rejects it; the auditor flags it. *)
  let inject d =
    let eve_rng = Prng.Splitmix.create 5L in
    let bogus = Sym_crypto.Key.fresh Sym_crypto.Key.Session eve_rng in
    let forged =
      Sealed_channel.seal ~rng:eve_rng ~key:bogus ~label:F.Admin_msg
        ~sender:"leader" ~recipient:"bob"
        (Wire.Payload.encode_admin_body
           {
             Wire.Payload.l = "leader";
             a = "bob";
             expected = Wire.Nonce.fresh eve_rng;
             next = Wire.Nonce.fresh eve_rng;
             x = Wire.Admin.Member_left "alice";
           })
    in
    Netsim.Network.inject (D.net d) ~dst:"bob" (F.encode forged)
  in
  let report = audit (scenario ~inject ()) in
  let forged_to_bob =
    List.exists
      (function
        | Audit.Forged_frame { recipient = "bob"; label = F.Admin_msg } -> true
        | _ -> false)
      report.Audit.anomalies
  in
  Alcotest.(check bool) "forgery detected" true forged_to_bob

let test_detects_stale_close_replay () =
  (* Replay alice's genuine ReqClose after she has rejoined: the live
     leader rejects it (new session key); the auditor flags it. *)
  let d = D.create ~seed:92L ~leader:"leader" ~directory () in
  D.join d "alice";
  ignore (D.run d);
  D.leave d "alice";
  ignore (D.run d);
  let old_close =
    List.filter_map
      (fun payload ->
        match F.decode payload with
        | Ok { F.label = F.Req_close; _ } -> Some payload
        | Ok _ | Error _ -> None)
      (Netsim.Trace.payloads (Netsim.Network.trace (D.net d)))
  in
  Alcotest.(check int) "one close captured" 1 (List.length old_close);
  D.join d "alice";
  ignore (D.run d);
  List.iter
    (fun payload -> Netsim.Network.inject (D.net d) ~dst:"leader" payload)
    old_close;
  ignore (D.run d);
  let report = audit (Netsim.Network.trace (D.net d)) in
  let stale_close =
    List.exists
      (function
        | Audit.Forged_frame { label = F.Req_close; _ } -> true | _ -> false)
      report.Audit.anomalies
  in
  Alcotest.(check bool) "stale close flagged" true stale_close

let test_detects_stale_rekey () =
  (* The leader (e.g. one restarted from a truncated journal) serves a
     rekey whose epoch does not exceed what the member already holds.
     It is authentic and first-seen — not a wire replay — so only the
     epoch check can catch it. *)
  let d = D.create ~seed:93L ~leader:"leader" ~directory () in
  List.iter
    (fun (n, _) ->
      D.join d n;
      ignore (D.run d))
    directory;
  D.rekey d;
  ignore (D.run d);
  let l = D.leader d in
  let current =
    match Leader.group_key l with
    | Some gk -> gk.Types.epoch
    | None -> Alcotest.fail "no group key after rekey"
  in
  let old_key =
    Sym_crypto.Key.raw
      (Sym_crypto.Key.fresh Sym_crypto.Key.Group (Prng.Splitmix.create 9L))
  in
  D.dispatch_leader d
    (Leader.enqueue_admin l "bob"
       (Wire.Admin.New_group_key { key = old_key; epoch = current - 1 }));
  ignore (D.run d);
  let report = audit (Netsim.Network.trace (D.net d)) in
  let stale =
    List.exists
      (function
        | Audit.Stale_rekey { recipient = "bob"; epoch; current = c } ->
            epoch = current - 1 && c = current
        | _ -> false)
      report.Audit.anomalies
  in
  Alcotest.(check bool) "stale rekey flagged" true stale;
  Alcotest.(check bool) "not misreported as replay" false
    (List.exists
       (function Audit.Replayed_admin _ -> true | _ -> false)
       report.Audit.anomalies)

(* --- the auditor over Faultplan-mutated traces --- *)

let faultplan_run ~seed ~plan =
  let d =
    D.create ~seed ~retry:true ~leader:"leader" ~directory ()
  in
  Netsim.Network.set_faultplan (D.net d) (Some plan);
  List.iter (fun (n, _) -> D.join d n) directory;
  ignore (D.run ~until:(Netsim.Vtime.of_s 20) d);
  audit (Netsim.Network.trace (D.net d))

let seeds = List.init 10 (fun i -> Int64.of_int (i + 1))

let test_corrupted_traces_audit_as_forgeries () =
  (* Bit-flipped deliveries fail authentication under the session key:
     the auditor reports them as forged and never crashes. (Replays
     may ALSO appear: the retry layer's retransmissions are
     byte-identical redeliveries, indistinguishable from wire replays
     by design.) *)
  let forged = ref 0 in
  List.iter
    (fun seed ->
      let plan =
        Netsim.Faultplan.make
          ~default_link:(Netsim.Faultplan.lossy_link ~corrupt:0.25 0.0)
          ()
      in
      let report = faultplan_run ~seed ~plan in
      List.iter
        (function
          | Audit.Forged_frame _ -> incr forged
          | Audit.Replayed_admin _ | Audit.Stale_rekey _
          | Audit.Stale_delivery _ | Audit.Handshake_flood _
          | Audit.Framing_suspected _ | Audit.Quarantine _
          | Audit.Degraded_mode _ -> ())
        report.Audit.anomalies)
    seeds;
  Alcotest.(check bool)
    (Printf.sprintf "corrupted frames audited as forgeries (%d)" !forged)
    true (!forged > 0)

let test_duplicated_traces_audit_as_replays () =
  (* Duplicated deliveries are byte-identical repeats: replays, never
     forgeries. *)
  let replays = ref 0 in
  List.iter
    (fun seed ->
      let plan =
        Netsim.Faultplan.make
          ~default_link:(Netsim.Faultplan.lossy_link ~duplicate:0.5 0.0)
          ()
      in
      let report = faultplan_run ~seed ~plan in
      List.iter
        (function
          | Audit.Replayed_admin { occurrences; _ } ->
              Alcotest.(check bool) "counted at least twice" true
                (occurrences > 1);
              incr replays
          | Audit.Forged_frame _ ->
              Alcotest.fail "duplication misread as forgery"
          | Audit.Stale_rekey _ -> Alcotest.fail "duplication misread as stale"
          | Audit.Stale_delivery _ ->
              Alcotest.fail "duplication misread as stale delivery"
          | Audit.Handshake_flood _ ->
              Alcotest.fail "duplication misread as handshake flood"
          | Audit.Framing_suspected _ ->
              Alcotest.fail "duplication misread as framing"
          | Audit.Quarantine _ ->
              Alcotest.fail "duplication misread as quarantine"
          | Audit.Degraded_mode _ ->
              Alcotest.fail "duplication misread as degraded mode")
        report.Audit.anomalies)
    seeds;
  Alcotest.(check bool)
    (Printf.sprintf "duplicated frames audited as replays (%d)" !replays)
    true (!replays > 0)

let test_full_chaos_never_crashes_auditor () =
  (* Loss + corruption + duplication together: the auditor is total
     over whatever the fault plan leaves in the trace. *)
  List.iter
    (fun seed ->
      let plan =
        Netsim.Faultplan.make
          ~default_link:
            (Netsim.Faultplan.lossy_link ~corrupt:0.1 ~duplicate:0.2
               ~spike_prob:0.05 0.15)
          ()
      in
      let report = faultplan_run ~seed ~plan in
      ignore (Audit.clean report);
      List.iter
        (fun a -> ignore (Format.asprintf "%a" Audit.pp_anomaly a))
        report.Audit.anomalies)
    seeds;
  Alcotest.(check pass) "auditor total over chaos traces" () ()

(* --- the auditor over an insider-campaign trace --- *)

let test_campaign_trace_audits_flood_and_quarantine () =
  (* Run a real A1 pre-auth flood against a sentinel-protected cluster
     and audit the recorded trace offline: the auditor must surface
     BOTH the flood pressure (volume of AuthInitReq under the
     insider's claimed name) and the containment outcome (the leader's
     quarantine notice), from the trace alone. *)
  let directory =
    [ ("alice", "pw-a"); ("bob", "pw-b"); ("mallory", "pw-m") ]
  in
  let d =
    D.create ~seed:23L ~retry:true ~preauth:true
      ~intrusion:Sentinel.default_config ~leader:"leader" ~directory ()
  in
  List.iter (fun (n, _) -> D.join d n) directory;
  ignore (D.run ~until:(Netsim.Vtime.of_s 2) d);
  let insider =
    Adversary.Insider.create ~driver:d ~insider:"mallory" ~password:"pw-m" ()
  in
  let campaign =
    Netsim.Intruder.campaign ~arm:Netsim.Intruder.Preauth_flood
      ~start:(Netsim.Vtime.of_s 3) ~stop:(Netsim.Vtime.of_s 6)
      ~period:(Netsim.Vtime.of_ms 100) ~burst:8 ()
  in
  ignore (Adversary.Insider.launch insider campaign);
  ignore (D.run ~until:(Netsim.Vtime.of_s 12) d);
  let report =
    Audit.run ~directory ~leader:"leader"
      (Netsim.Network.trace (D.net d))
  in
  Alcotest.(check bool) "insider's flood pressure surfaced" true
    (List.exists
       (function
         | Audit.Handshake_flood { claimed; _ } -> claimed = "mallory"
         | _ -> false)
       report.Audit.anomalies);
  Alcotest.(check bool) "containment notice surfaced" true
    (List.exists
       (function
         | Audit.Quarantine { suspect } -> suspect = "mallory"
         | _ -> false)
       report.Audit.anomalies)

let test_report_printing () =
  let report = audit (scenario ()) in
  List.iter
    (fun a -> ignore (Format.asprintf "%a" Audit.pp_anomaly a))
    report.Audit.anomalies;
  Alcotest.(check pass) "printing does not raise" () ()

let suite =
  [
    ( "audit (offline forensics)",
      [
        Alcotest.test_case "clean scenario" `Quick test_clean_scenario;
        Alcotest.test_case "detects replay" `Quick test_detects_replay;
        Alcotest.test_case "detects forgery" `Quick test_detects_forgery;
        Alcotest.test_case "detects stale close replay" `Quick
          test_detects_stale_close_replay;
        Alcotest.test_case "detects stale rekey" `Quick test_detects_stale_rekey;
        Alcotest.test_case "faultplan corruption audits as forgeries" `Quick
          test_corrupted_traces_audit_as_forgeries;
        Alcotest.test_case "faultplan duplication audits as replays" `Quick
          test_duplicated_traces_audit_as_replays;
        Alcotest.test_case "full chaos never crashes the auditor" `Quick
          test_full_chaos_never_crashes_auditor;
        Alcotest.test_case "insider campaign trace audits flood + quarantine"
          `Quick test_campaign_trace_audits_flood_and_quarantine;
        Alcotest.test_case "report printing" `Quick test_report_printing;
      ] );
  ]
