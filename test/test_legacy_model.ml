(* Tests for the legacy-protocol symbolic model: the model checker
   must rediscover every §2.3 attack as a reachable violation with a
   replayable counterexample trace, while long-term-key secrecy still
   holds (the weaknesses are group-management ones). *)

open Symbolic

let explored = lazy (Legacy_model.explore ())

let find_weakness w =
  let r = Lazy.force explored in
  List.find (fun f -> f.Legacy_model.weakness = w) (Legacy_model.findings r)

let test_explores () =
  let r = Lazy.force explored in
  Alcotest.(check bool) "nontrivial state space" true
    (Legacy_model.state_count r > 100)

(* Exact counts at the three bounds this file explores: default, no
   insider group key, and a single epoch. *)
let test_pinned_counts () =
  let counts bounds =
    let r = Legacy_model.explore ~bounds () in
    (Legacy_model.state_count r, Legacy_model.edge_count r)
  in
  let check name expected got =
    Alcotest.(check (pair int int)) name expected got
  in
  let b = Legacy_model.default_bounds in
  check "default" (319, 691) (counts b);
  check "insider_epochs = 0" (75, 131) (counts { b with insider_epochs = 0 });
  check "max_epoch = 1" (49, 73) (counts { b with max_epoch = 1 })

let check_attack_found w =
  let f = find_weakness w in
  Alcotest.(check bool) (w ^ " reachable") true f.Legacy_model.violated;
  Alcotest.(check bool) (w ^ " has a trace") true (f.Legacy_model.trace <> [])

let test_w1 () = check_attack_found "W1"
let test_w2 () = check_attack_found "W2"
let test_w3 () = check_attack_found "W3"
let test_w4 () = check_attack_found "W4"

let test_pa_secrecy_holds () =
  let f = find_weakness "Pa-secrecy" in
  Alcotest.(check bool) "Pa never learned" false f.Legacy_model.violated

let contains_substring sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_w1_trace_shows_injection () =
  (* The denial counterexample must involve an intruder injection —
     the leader never sends ConnectionDenied in this model. *)
  let f = find_weakness "W1" in
  Alcotest.(check bool) "trace contains the forged denial" true
    (List.exists
       (contains_substring "E:inject-ConnectionDenied")
       f.Legacy_model.trace)

let test_insiderless_intruder_cannot_forge_removal () =
  (* With insider_epochs = 0 the intruder holds no group key: W2
     becomes unreachable — confirming the attack really rides on
     insider knowledge, as §2.3 says ("trivial for any group
     member"). *)
  let bounds = { Legacy_model.default_bounds with insider_epochs = 0 } in
  let r = Legacy_model.explore ~bounds () in
  let f =
    List.find
      (fun f -> f.Legacy_model.weakness = "W2")
      (Legacy_model.findings ~bounds r)
  in
  Alcotest.(check bool) "no group key, no forgery" false f.Legacy_model.violated

let test_no_rekey_no_epoch_regression () =
  (* With a single epoch there is no old NewKey to replay: W3 must be
     unreachable. *)
  let bounds = { Legacy_model.default_bounds with max_epoch = 1 } in
  let r = Legacy_model.explore ~bounds () in
  let f =
    List.find
      (fun f -> f.Legacy_model.weakness = "W3")
      (Legacy_model.findings ~bounds r)
  in
  Alcotest.(check bool) "single epoch: no regression" false
    f.Legacy_model.violated

let suite =
  [
    ( "legacy symbolic model (§2.3)",
      [
        Alcotest.test_case "explores" `Quick test_explores;
        Alcotest.test_case "pinned counts" `Quick test_pinned_counts;
        Alcotest.test_case "W1 forged denial found" `Quick test_w1;
        Alcotest.test_case "W2 forged removal found" `Quick test_w2;
        Alcotest.test_case "W3 epoch regression found" `Quick test_w3;
        Alcotest.test_case "W4 forged close found" `Quick test_w4;
        Alcotest.test_case "Pa secrecy still holds" `Quick test_pa_secrecy_holds;
        Alcotest.test_case "W1 trace shows injection" `Quick
          test_w1_trace_shows_injection;
        Alcotest.test_case "outsider cannot forge removal" `Quick
          test_insiderless_intruder_cannot_forge_removal;
        Alcotest.test_case "no rekey, no regression" `Quick
          test_no_rekey_no_epoch_regression;
      ] );
  ]
