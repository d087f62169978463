(* E18 + E19: the crash-restart sweeps behind EXPERIMENTS.md.

   E18 — kill the leader mid-session under background loss, restart it
   warm (journal replay + RecoveryChallenge) or cold (full re-auth),
   and measure per seed:

   - recovery latency: virtual time from the crash until views have
     reconverged (every member Connected, epochs agree, §5.4 prefixes
     intact, member views = leader view), found by stepping the
     simulation in 100 ms increments;
   - re-handshake economy: completed password handshakes in the whole
     trace, counted by the offline auditor (warm recovery answers a
     challenge under the journalled K_a instead of re-running the
     handshake, so warm = n members, cold = 2n).

   E18's cold arm disables the ColdRestart beacon so it keeps
   measuring the watchdog-only baseline.

   E19 — the beacon experiment: the same cold restart with
   authenticated ColdRestart beacons on vs off, plus an arm where the
   journal's disk injects torn writes, dropped fsyncs and transient
   EIO and the restart replays the durable crash image. Members that
   verify the beacon (and its liveness ack) skip the 10 s anti-entropy
   watchdog entirely, so the beacon arm reconverges several times
   faster while still paying the full re-authentication handshakes.

   Fully deterministic per seed; run with no arguments. *)

open Enclaves
module D = Driver.Improved

let members = 5
let seeds = List.init 10 (fun i -> Int64.of_int (i + 1))
let crash_at = Netsim.Vtime.of_s 2
let restart_after = Netsim.Vtime.of_s 1
let bound = Netsim.Vtime.of_s 60
let step = Netsim.Vtime.of_ms 100

let directory =
  List.init members (fun i ->
      let name = Printf.sprintf "user%d" i in
      (name, name ^ "-pw"))

let converged_at d =
  (* Step the clock from just after the restart until views converge
     (or the bound passes). Checking before the restart would see the
     stale pre-crash convergence. *)
  let rec go t =
    if Netsim.Vtime.(bound < t) then None
    else begin
      ignore (D.run ~until:t d);
      if (not (D.leader_down d)) && D.view_converged d then Some t
      else go (Netsim.Vtime.add t step)
    end
  in
  go (Netsim.Vtime.add (Netsim.Vtime.add crash_at restart_after) step)

let one ?(recovery = D.default_recovery) ?storage_faults ~warm ~loss seed =
  let d =
    D.create ~seed ~retry:true ~recovery ?storage_faults
      ~leader:"leader" ~directory ()
  in
  Netsim.Network.set_faultplan (D.net d)
    (Some
       (Netsim.Faultplan.make
          ~default_link:(Netsim.Faultplan.lossy_link loss)
          ()));
  List.iter (fun (n, _) -> D.join d n) directory;
  D.schedule_leader_crash d ~at:crash_at ~restart_after ~warm ();
  let latency =
    match converged_at d with
    | Some t -> Int64.sub t crash_at
    | None -> Int64.minus_one
  in
  let report =
    Audit.run ~directory ~leader:"leader"
      (Netsim.Network.trace (D.net d))
  in
  let get = Metrics.find (D.counters d) in
  Printf.printf
    "  seed=%-2Ld latency=%6.2fs handshakes=%2d recovered=%d cold_reauths=%d \
     beacon_reauths=%d challenge_rtx=%d\n"
    seed
    (Int64.to_float latency /. 1e6)
    report.Audit.handshakes_completed
    (get Leader.Counter.sessions_recovered)
    (get D.Counter.cold_reauths) (get D.Counter.beacon_reauths)
    (get D.Counter.challenge_retransmits);
  (match storage_faults with
  | Some _ ->
      Format.printf "           storage: %a@." Metrics.pp
        (Metrics.row (D.counters d) D.storage_row)
  | None -> ());
  (latency, report.Audit.handshakes_completed)

let sweep ?recovery ?storage_faults ?label ~warm ~loss () =
  Printf.printf "%s restart, %.0f%% loss:\n"
    (match label with
    | Some l -> l
    | None -> if warm then "warm" else "cold")
    (100. *. loss);
  let results = List.map (one ?recovery ?storage_faults ~warm ~loss) seeds in
  let lats = List.map (fun (l, _) -> Int64.to_float l /. 1e6) results in
  let sorted = List.sort compare lats in
  let nth k = List.nth sorted k in
  let hs = List.map snd results in
  Printf.printf
    "  => latency min/median/max = %.2f / %.2f / %.2f s; handshakes %d..%d\n"
    (nth 0)
    (nth (List.length sorted / 2))
    (nth (List.length sorted - 1))
    (List.fold_left min max_int hs)
    (List.fold_left max 0 hs)

let watchdog_only = { D.default_recovery with D.beacon_on_cold = false }

let faulty_disk =
  {
    Store.Fault.none with
    Store.Fault.torn_write = 0.05;
    drop_fsync = 0.10;
    eio = 0.05;
  }

let () =
  Printf.printf
    "E18: leader crash at t=2s, restart +1s, %d members, 10 seeds\n\n" members;
  List.iter
    (fun loss ->
      sweep ~warm:true ~loss ();
      (* The pre-beacon baseline: a cold leader sits silent and every
         member waits out the anti-entropy watchdog. *)
      sweep ~recovery:watchdog_only ~warm:false ~loss ();
      print_newline ())
    [ 0.0; 0.05; 0.20 ];
  Printf.printf
    "E19: cold restart, authenticated ColdRestart beacon vs watchdog\n\n";
  List.iter
    (fun loss ->
      sweep ~label:"cold+beacon" ~warm:false ~loss ();
      sweep ~recovery:watchdog_only ~label:"cold+watchdog" ~warm:false ~loss ();
      print_newline ())
    [ 0.0; 0.05 ];
  Printf.printf
    "E19b: same cold+beacon crash with a faulty disk (torn=5%% \
     drop-fsync=10%% eio=5%%); restart replays the durable image\n\n";
  sweep ~storage_faults:faulty_disk ~label:"cold+beacon+faulty-disk" ~warm:false
    ~loss:0.05 ()
