(* Tests for the store-and-forward delivery plane: the durable
   per-member queue ({!Store.Queue}), the epoch-window re-seal policy
   ({!Enclaves.Delivery}), the leader/member exactly-once choreography
   under churn (driver), crash survival of the queue files, queue-image
   replication through warm failover, and the bounded symbolic model. *)

open Enclaves
module Q = Store.Queue
module A = Wire.Admin

let gk epoch = A.New_group_key { key = String.make 32 'k'; epoch }

(* --- the durable queue itself --- *)

let test_queue_roundtrip () =
  let q = Q.create () in
  let e0 = Q.push q ~epoch:1 "alpha" in
  let e1 = Q.push q ~epoch:1 "beta" in
  let e2 = Q.push q ~epoch:2 "gamma" in
  Alcotest.(check (list int))
    "seqs assigned in order" [ 0; 1; 2 ]
    (List.map (fun e -> e.Q.seq) [ e0; e1; e2 ]);
  Alcotest.(check int) "depth" 3 (Q.depth q);
  Q.ack q ~upto:1;
  Alcotest.(check int) "floor advanced" 1 (Q.floor q);
  Alcotest.(check (list string))
    "acked entry gone" [ "beta"; "gamma" ]
    (List.map (fun e -> e.Q.payload) (Q.pending q));
  Q.ack q ~upto:0;
  Alcotest.(check int) "floor never regresses" 1 (Q.floor q);
  Q.drop q ~seq:1;
  Alcotest.(check (list string))
    "dropped entry gone" [ "gamma" ]
    (List.map (fun e -> e.Q.payload) (Q.pending q));
  Alcotest.(check int) "next_seq unaffected" 3 (Q.next_seq q)

let test_queue_recover_roundtrip () =
  let q = Q.create () in
  for i = 0 to 9 do
    ignore (Q.push q ~epoch:(i / 3) (Printf.sprintf "m%d" i))
  done;
  Q.ack q ~upto:4;
  Q.drop q ~seq:7;
  let _, state, status = Q.recover (Q.contents q) in
  Alcotest.(check bool) "clean" true (status = Q.Clean);
  Alcotest.(check bool) "same state" true (state = Q.state q)

let test_queue_torn_tail () =
  (* Cutting the image mid-record costs at most the torn record: the
     replay is total, recovers the longest valid prefix, and never
     resurrects an acknowledged delivery. *)
  let q = Q.create () in
  for i = 0 to 5 do
    ignore (Q.push q ~epoch:0 (Printf.sprintf "payload-%d" i))
  done;
  Q.ack q ~upto:3;
  let image = Q.contents q in
  let full_state = Q.state q in
  for cut = 0 to String.length image - 1 do
    let torn = String.sub image 0 cut in
    let _, state, _ = Q.recover torn in
    Alcotest.(check bool)
      (Printf.sprintf "cut at %d: floor is a prefix" cut)
      true
      (state.Q.floor <= full_state.Q.floor);
    List.iter
      (fun (e : Q.entry) ->
        Alcotest.(check bool)
          (Printf.sprintf "cut at %d: seq %d not below floor" cut e.Q.seq)
          true
          (e.Q.seq >= state.Q.floor))
      state.Q.pending
  done

let test_queue_compaction_preserves_state () =
  let mem = Store.Mem.create () in
  let q = Q.create ~compact_every:4 ~disk:(Store.Mem.handle mem) ~file:"q" () in
  for i = 0 to 19 do
    ignore (Q.push q ~epoch:i (Printf.sprintf "m%d" i));
    if i mod 5 = 4 then Q.ack q ~upto:(i - 2)
  done;
  let t', state, status = Q.load ~disk:(Store.Mem.handle mem) ~file:"q" () in
  Alcotest.(check bool) "durable image clean" true (status = Q.Clean);
  Alcotest.(check bool) "state survives compaction" true (state = Q.state q);
  Alcotest.(check int) "depth agrees" (Q.depth q) (Q.depth t')

let test_queue_replay_never_resurrects () =
  (* A replayed Push below the floor, or duplicating a pending seq, is
     ignored by the fold — acknowledged deliveries stay dead. *)
  let records =
    [
      Q.Push { Q.seq = 0; epoch = 1; payload = "a" };
      Q.Push { Q.seq = 1; epoch = 1; payload = "b" };
      Q.Ack { upto = 1 };
      Q.Push { Q.seq = 0; epoch = 1; payload = "a" };
      (* replayed *)
      Q.Push { Q.seq = 1; epoch = 1; payload = "b" };
      (* duplicate *)
    ]
  in
  let state = Q.state_of_records records in
  Alcotest.(check (list int))
    "only the unacked original survives" [ 1 ]
    (List.map (fun e -> e.Q.seq) state.Q.pending)

(* --- the epoch-window policy --- *)

let test_window_boundary_inclusive () =
  let d = Delivery.create ~policy:{ Delivery.width = 2; on_stale = Reject } () in
  Delivery.enqueue d ~member:"a" ~epoch:5 (gk 5);
  (* age = width exactly: still fresh *)
  (match Delivery.drain d ~member:"a" ~current_epoch:7 with
  | [ A.Queued { seq = 0; stale = false; _ } ] -> ()
  | _ -> Alcotest.fail "age = width must drain fresh");
  (* not acked: the same record re-drains, one past the window it is
     rejected durably *)
  (match Delivery.drain d ~member:"a" ~current_epoch:8 with
  | [] -> ()
  | _ -> Alcotest.fail "age = width + 1 must not deliver under Reject");
  Alcotest.(check int) "rejected durably" 0 (Delivery.depth d ~member:"a");
  Alcotest.(check int) "counted" 1 (Metrics.get (Delivery.counters d) Delivery.Counter.rejected_stale)

let test_window_stale_arm () =
  let d =
    Delivery.create ~policy:{ Delivery.width = 0; on_stale = Deliver_stale } ()
  in
  Delivery.enqueue d ~member:"a" ~epoch:3 (gk 3);
  (match Delivery.drain d ~member:"a" ~current_epoch:4 with
  | [ A.Queued { seq = 0; stale = true; x = A.New_group_key { epoch = 3; _ } } ]
    -> ()
  | _ -> Alcotest.fail "beyond-window must arrive flagged stale");
  Alcotest.(check int)
    "counted" 1
    (Metrics.get (Delivery.counters d) Delivery.Counter.delivered_stale);
  (* stale delivery leaves the entry pending until the member acks it *)
  Alcotest.(check int) "still pending" 1 (Delivery.depth d ~member:"a");
  Delivery.ack d ~member:"a" ~upto:1;
  Alcotest.(check int) "acked away" 0 (Delivery.depth d ~member:"a")

let test_drain_is_at_least_once () =
  (* Un-acked records re-drain with the SAME delivery seq — the
     member-side floor is what turns at-least-once into exactly-once. *)
  let d = Delivery.create () in
  Delivery.enqueue d ~member:"a" ~epoch:1 (gk 1);
  let seq_of = function
    | [ A.Queued { seq; _ } ] -> seq
    | _ -> Alcotest.fail "expected one wrapper"
  in
  let s1 = seq_of (Delivery.drain d ~member:"a" ~current_epoch:1) in
  let s2 = seq_of (Delivery.drain d ~member:"a" ~current_epoch:1) in
  Alcotest.(check int) "same seq on re-drain" s1 s2;
  Delivery.ack d ~member:"a" ~upto:(s1 + 1);
  Alcotest.(check (list Alcotest.reject))
    "acked records never re-drain" []
    (List.map (fun _ -> ()) (Delivery.drain d ~member:"a" ~current_epoch:1))

(* --- leader/member choreography through the driver --- *)

module D = Driver.Improved

let directory n =
  List.init n (fun i ->
      let name = Printf.sprintf "user%d" i in
      (name, name ^ "-pw"))

let quick_recovery =
  {
    D.default_recovery with
    D.digest_period = Netsim.Vtime.of_ms 500;
    probe_after = Netsim.Vtime.of_ms 1500;
    reset_after = Netsim.Vtime.of_s 3;
  }

let churn_driver ?(seed = 7L) ?(members = 4) ?(policy = Delivery.default_policy)
    () =
  let dir = directory members in
  let d =
    D.create ~seed ~retry:true ~recovery:quick_recovery
      ~delivery:policy ~leader:"leader" ~directory:dir ()
  in
  List.iter (fun (n, _) -> D.join d n) dir;
  ignore (D.run ~until:(Netsim.Vtime.of_s 5) d);
  (d, dir)

let strictly_increasing l =
  let rec go last = function
    | [] -> true
    | s :: rest -> s > last && go s rest
  in
  go (-1) l

let test_offline_member_drains_exactly_once () =
  let d, _ =
    churn_driver ~policy:{ Delivery.width = 10; on_stale = Reject } ()
  in
  D.expel d "user1";
  ignore (D.run ~until:(Netsim.Vtime.of_s 6) d);
  D.rekey d;
  ignore (D.run ~until:(Netsim.Vtime.of_s 7) d);
  D.rekey d;
  ignore (D.run ~until:(Netsim.Vtime.of_s 8) d);
  Alcotest.(check bool) "backlog queued" true (D.queue_depth d "user1" > 0);
  (* the member's own watchdog gives up on the dead session, re-joins,
     and the backlog drains behind the welcome *)
  ignore (D.run ~until:(Netsim.Vtime.of_s 30) d);
  let m = D.member d "user1" in
  Alcotest.(check int) "queue drained" 0 (D.queue_depth d "user1");
  Alcotest.(check bool)
    "something applied" true
    (Member.queued_applied m <> []);
  Alcotest.(check bool)
    "each delivery applied exactly once" true
    (strictly_increasing (Member.queued_applied m));
  Alcotest.(check bool) "group reconverged" true (D.view_converged d);
  Alcotest.(check bool)
    "floor past everything applied" true
    (Member.delivery_floor m
    > List.fold_left max (-1) (Member.queued_applied m))

let test_drained_rekey_is_freshened () =
  (* A rekey queued at epoch e and drained after further rotations
     must install the CURRENT key at the member — the wrapper keeps
     its seq, the key material is re-sealed at fire time. *)
  let d, _ =
    churn_driver ~policy:{ Delivery.width = 10; on_stale = Reject } ()
  in
  D.expel d "user1";
  ignore (D.run ~until:(Netsim.Vtime.of_s 6) d);
  D.rekey d;
  D.rekey d;
  D.rekey d;
  ignore (D.run ~until:(Netsim.Vtime.of_s 30) d);
  let m = D.member d "user1" in
  let leader_epoch =
    match Leader.group_key (D.leader d) with
    | Some g -> g.Types.epoch
    | None -> Alcotest.fail "leader has no group key"
  in
  (match Member.group_key m with
  | Some g ->
      Alcotest.(check int) "member holds the live epoch" leader_epoch
        g.Types.epoch
  | None -> Alcotest.fail "member has no group key");
  Alcotest.(check bool)
    "reseal counted" true
    (Metrics.find (D.counters d) Delivery.Counter.resealed > 0)

let test_stale_delivery_has_no_effect () =
  let d, _ =
    churn_driver ~policy:{ Delivery.width = 0; on_stale = Deliver_stale } ()
  in
  D.expel d "user1";
  ignore (D.run ~until:(Netsim.Vtime.of_s 6) d);
  D.rekey d;
  ignore (D.run ~until:(Netsim.Vtime.of_s 7) d);
  D.rekey d;
  ignore (D.run ~until:(Netsim.Vtime.of_s 30) d);
  let m = D.member d "user1" in
  Alcotest.(check bool)
    "stale records reached the member" true
    (Member.stale_deliveries m > 0);
  (* ...and applied nothing: the member still converged to the live
     epoch through the ordinary welcome, not the stale records *)
  Alcotest.(check bool) "group reconverged" true (D.view_converged d);
  Alcotest.(check int) "queues empty" 0 (D.total_queue_depth d)

let test_queue_survives_leader_crash () =
  let d, _ =
    churn_driver ~policy:{ Delivery.width = 10; on_stale = Reject } ()
  in
  D.expel d "user1";
  ignore (D.run ~until:(Netsim.Vtime.of_s 6) d);
  D.rekey d;
  ignore (D.run ~until:(Netsim.Vtime.of_s 7) d);
  let depth_before = D.queue_depth d "user1" in
  Alcotest.(check bool) "backlog parked" true (depth_before > 0);
  D.crash_leader d;
  ignore (D.restart_leader ~warm:true d);
  Alcotest.(check int)
    "durable backlog survives the crash" depth_before
    (D.queue_depth d "user1");
  Alcotest.(check bool)
    "member still marked offline after recovery" true
    (List.mem "user1" (D.offline_members d));
  ignore (D.run ~until:(Netsim.Vtime.of_s 30) d);
  let m = D.member d "user1" in
  Alcotest.(check int) "drained after restart" 0 (D.queue_depth d "user1");
  Alcotest.(check bool)
    "exactly-once across the crash" true
    (strictly_increasing (Member.queued_applied m));
  Alcotest.(check bool) "group reconverged" true (D.view_converged d)

(* --- queue images ride the replication stream; failover drains --- *)

let test_failover_successor_drains () =
  let module FO = Failover in
  let dir = directory 4 in
  let t =
    FO.create ~seed:11L
      ~delivery:{ Delivery.width = 10; on_stale = Reject }
      ~managers:[ "m0"; "m1"; "m2" ] ~directory:dir ()
  in
  FO.start t;
  ignore (FO.run ~until:(Netsim.Vtime.of_s 2) t);
  FO.expel t "user1";
  ignore (FO.run ~until:(Netsim.Vtime.of_s 3) t);
  FO.rekey t;
  ignore (FO.run ~until:(Netsim.Vtime.of_s 4) t);
  let primary_depth =
    match FO.primary t with
    | Some p -> (
        match Leader.delivery (FO.leader t p) with
        | Some d -> Delivery.depth d ~member:"user1"
        | None -> 0)
    | None -> 0
  in
  Alcotest.(check bool) "backlog parked on primary" true (primary_depth > 0);
  (* the queue images rode the replication stream to the backups *)
  Alcotest.(check bool)
    "backup holds the queue image" true
    (List.mem_assoc (Delivery.file_of_member "user1")
       (FO.replica_queue_images t "m1"));
  FO.crash_primary t;
  ignore (FO.run ~until:(Netsim.Vtime.of_s 20) t);
  Alcotest.(check bool) "a successor promoted" true (FO.failovers t >= 1);
  Alcotest.(check int)
    "every member back in session" (List.length dir)
    (List.length (FO.connected_members t));
  (* the promoted successor rebuilt the queue from its replica and the
     reconnecting member drained it *)
  Alcotest.(check int)
    "successor's queues fully drained" 0
    (match FO.primary t with
    | Some p -> (
        match Leader.delivery (FO.leader t p) with
        | Some d -> Delivery.total_depth d
        | None -> 0)
    | None -> -1);
  let m = FO.member t "user1" in
  Alcotest.(check bool)
    "member applied deliveries exactly once" true
    (strictly_increasing (Member.queued_applied m))

(* --- crash matrix and symbolic model --- *)

let test_crash_matrix_queue () =
  let r = Crash_matrix.run_queue () in
  Alcotest.(check int) "no violations" 0 (List.length r.Crash_matrix.violations);
  Alcotest.(check bool) "images enumerated" true (r.Crash_matrix.images > 100);
  Alcotest.(check bool)
    "durability checkpoints verified" true
    (r.Crash_matrix.checkpoints > 10)

let test_symbolic_delivery_model () =
  let r = Symbolic.Delivery_model.explore () in
  Alcotest.(check bool)
    "non-trivial state space" true
    (Symbolic.Delivery_model.state_count r > 1000);
  List.iter
    (fun rep ->
      Alcotest.(check bool)
        (Printf.sprintf "%S holds" rep.Symbolic.Invariants.name)
        true rep.Symbolic.Invariants.holds)
    (Symbolic.Delivery_model.reports r)

(* --- property: exactly-once under seeded churn --- *)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"churned members apply each delivery exactly once"
      ~count:8 ~long_factor:5
      QCheck.(int_range 1 10_000)
      (fun seed ->
        let members = 4 in
        let dir = directory members in
        let d =
          D.create ~seed:(Int64.of_int seed) ~retry:true
            ~recovery:quick_recovery
            ~delivery:{ Delivery.width = 1; on_stale = Delivery.Reject }
            ~leader:"leader" ~directory:dir ()
        in
        let plan =
          Netsim.Faultplan.make
            ~default_link:(Netsim.Faultplan.lossy_link ~duplicate:0.05 0.05)
            ()
        in
        Netsim.Network.set_faultplan (D.net d) (Some plan);
        List.iter (fun (n, _) -> D.join d n) dir;
        ignore (D.run ~until:(Netsim.Vtime.of_s 5) d);
        ignore
          (D.start_periodic_rekey d
             ~period:(Netsim.Vtime.of_s 2)
             ~until:(Netsim.Vtime.of_s 17) ());
        let rng = Prng.Splitmix.create (Int64.of_int seed) in
        for round = 0 to 2 do
          List.iter
            (fun (n, _) ->
              if Prng.Splitmix.next_float rng < 0.5 then D.expel d n)
            dir;
          ignore (D.run ~until:(Netsim.Vtime.of_s (9 + (4 * round))) d)
        done;
        ignore (D.run ~until:(Netsim.Vtime.of_s 45) d);
        List.for_all
          (fun (n, _) -> strictly_increasing (Member.queued_applied (D.member d n)))
          dir
        && D.total_queue_depth d = 0
        && D.view_converged d);
  ]

let suite =
  [
    ( "delivery (store-and-forward)",
      [
        Alcotest.test_case "queue push/ack/drop roundtrip" `Quick
          test_queue_roundtrip;
        Alcotest.test_case "queue recover roundtrip" `Quick
          test_queue_recover_roundtrip;
        Alcotest.test_case "queue torn-tail replay" `Quick test_queue_torn_tail;
        Alcotest.test_case "queue compaction preserves state" `Quick
          test_queue_compaction_preserves_state;
        Alcotest.test_case "queue replay never resurrects" `Quick
          test_queue_replay_never_resurrects;
        Alcotest.test_case "epoch-window boundary is inclusive" `Quick
          test_window_boundary_inclusive;
        Alcotest.test_case "beyond-window stale arm" `Quick test_window_stale_arm;
        Alcotest.test_case "drain is at-least-once below the ack" `Quick
          test_drain_is_at_least_once;
        Alcotest.test_case "offline member drains exactly once" `Quick
          test_offline_member_drains_exactly_once;
        Alcotest.test_case "drained rekey freshened to live epoch" `Quick
          test_drained_rekey_is_freshened;
        Alcotest.test_case "stale delivery has no state effect" `Quick
          test_stale_delivery_has_no_effect;
        Alcotest.test_case "queue survives leader crash" `Quick
          test_queue_survives_leader_crash;
        Alcotest.test_case "failover successor drains the backlog" `Quick
          test_failover_successor_drains;
        Alcotest.test_case "queue crash matrix passes" `Quick
          test_crash_matrix_queue;
        Alcotest.test_case "symbolic delivery model holds" `Quick
          test_symbolic_delivery_model;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_tests );
  ]
