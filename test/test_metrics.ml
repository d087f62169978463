(* Tests for the counter registry ({!Metrics}): rendering order, how
   banking folds Sum and Max counters, rejection of a key used with
   another layer's instance, and a manager's counters across a warm
   restart. *)

open Enclaves

let test_declaration_order () =
  let layer = Metrics.layer "order" in
  let zeta = Metrics.counter layer "zeta" in
  let alpha = Metrics.counter layer "alpha" in
  let mid = Metrics.high_water layer "mid" in
  let c = Metrics.create layer in
  Metrics.incr c alpha;
  Metrics.add c zeta 5;
  Metrics.set_max c mid 7;
  Metrics.set_max c mid 3;
  Alcotest.(check (list (pair string int)))
    "named in declaration order"
    [ ("zeta", 5); ("alpha", 1); ("mid", 7) ]
    (Metrics.named c);
  Alcotest.(check (list (pair string int)))
    "row in key-list order"
    [ ("mid", 7); ("zeta", 5) ]
    (Metrics.row [ c ] [ mid; zeta ]);
  Alcotest.check_raises "no declaration after an instance"
    (Invalid_argument "Metrics: order.late declared after an instance")
    (fun () -> ignore (Metrics.counter layer "late"))

let test_sum_and_max_banking () =
  let delivery ~queued ~hwm =
    let c = Metrics.create Delivery.Counter.layer in
    Metrics.add c Delivery.Counter.queued queued;
    Metrics.set_max c Delivery.Counter.queue_bytes_hwm hwm;
    c
  in
  let total =
    Metrics.sum Delivery.Counter.layer
      [ delivery ~queued:3 ~hwm:900; delivery ~queued:4 ~hwm:400 ]
  in
  Alcotest.(check int) "queued sums" 7
    (Metrics.get total Delivery.Counter.queued);
  Alcotest.(check int) "queue_bytes_hwm keeps the max" 900
    (Metrics.get total Delivery.Counter.queue_bytes_hwm);
  let stall ms =
    let c = Metrics.create Store.Fault.Counter.layer in
    Metrics.incr c Store.Fault.Counter.enospc_hits;
    Metrics.set_max c Store.Fault.Counter.fsync_stall_ms_max ms;
    c
  in
  let into = stall 25 in
  Metrics.bank ~into (stall 40);
  Metrics.bank ~into (stall 10);
  Alcotest.(check int) "enospc_hits sums" 3
    (Metrics.get into Store.Fault.Counter.enospc_hits);
  Alcotest.(check int) "fsync_stall_ms_max keeps the max" 40
    (Metrics.get into Store.Fault.Counter.fsync_stall_ms_max)

let test_foreign_key_rejected () =
  let sentinel = Metrics.create Sentinel.Counter.layer in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: a foreign key was accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "incr" (fun () -> Metrics.incr sentinel Replication.Counter.demotions);
  raises "get" (fun () ->
      ignore (Metrics.get sentinel Delivery.Counter.rejected_stale));
  raises "bank" (fun () ->
      Metrics.bank ~into:sentinel (Metrics.create Journal.Counter.layer));
  raises "find" (fun () ->
      ignore (Metrics.find [ sentinel ] Journal.Counter.eio_retries))

let test_manager_warm_restart () =
  let sim = Netsim.Sim.create ~seed:7L () in
  let net = Netsim.Network.create ~sim () in
  let m =
    Manager.create ~sim ~net ~name:"leader"
      ~directory:[ ("alice", "pw-alice") ]
      ~disk:true ~delivery:Delivery.default_policy ~primary:true ()
  in
  let enqueue n =
    let d = Option.get (Manager.delivery m) in
    for i = 1 to n do
      Delivery.enqueue d ~member:"alice" ~epoch:1
        (Wire.Admin.Notice (Printf.sprintf "notice %d" i))
    done
  in
  let total key = Metrics.find (Manager.counters m) key in
  enqueue 3;
  let hwm = total Delivery.Counter.queue_bytes_hwm in
  Alcotest.(check bool) "queue grew" true (hwm > 0);
  Manager.crash m;
  let r = Manager.restart ~warm:(fun _ -> true) m in
  Alcotest.(check bool) "warm path" true (r.Manager.path = Manager.Warm);
  Alcotest.(check int) "the rebuilt layer counts from zero" 0
    (Metrics.get
       (Delivery.counters (Option.get (Manager.delivery m)))
       Delivery.Counter.queued);
  Alcotest.(check int) "queued survives the restart" 3
    (total Delivery.Counter.queued);
  Alcotest.(check int) "high-water mark survives" hwm
    (total Delivery.Counter.queue_bytes_hwm);
  Alcotest.(check int) "crash image replayed" 1
    (total Manager.Counter.crash_images_replayed);
  enqueue 1;
  Alcotest.(check int) "new incarnation adds on" 4
    (total Delivery.Counter.queued);
  Alcotest.(check bool) "high-water mark is a max, not a sum" true
    (total Delivery.Counter.queue_bytes_hwm < 2 * hwm)

let suite =
  [
    ( "metrics",
      [
        Alcotest.test_case "declaration-order named" `Quick
          test_declaration_order;
        Alcotest.test_case "sum vs max banking" `Quick test_sum_and_max_banking;
        Alcotest.test_case "foreign key rejected" `Quick
          test_foreign_key_rejected;
        Alcotest.test_case "counters survive a manager warm restart" `Quick
          test_manager_warm_restart;
      ] );
  ]
