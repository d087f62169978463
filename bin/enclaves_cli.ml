(* Command-line interface to the Enclaves reproduction.

   Subcommands:
   - [session]   run a scripted group session and print the trace
   - [attack]    run the §2.3 attack matrix (optionally one attack)
   - [verify]    run the model checker (§4-§5)
   - [chaos]     sweep seeded fault plans against the recovery layer
   - [churn]     soak the store-and-forward delivery queues under member churn
   - [failover]  kill the primary of a multi-manager group and report
                 warm/cold promotion, replication counters and lag
   - [intrude]   run a seeded insider or wire-level framing campaign
                 against the sentinel
   - [calibrate] sweep the named sentinel configurations over every
                 attack arm and a clean control (detection vs false
                 positives)
   - [nemesis]   run the omni-fault soak (network + disk + insider + crash)
                 against the degraded-mode ladder
   - [crash-matrix] enumerate every journal crash point and check recovery
   - [keys]      derive and fingerprint a long-term key (debug helper)

   The six seeded soaks (chaos, churn, failover, intrude, calibrate,
   nemesis) are presets over [Scenario]'s sweep runner, phases and
   end-state checks.

   Run with: dune exec bin/enclaves_cli.exe -- <subcommand> --help *)

open Cmdliner
module D = Enclaves.Driver.Improved
module DC = D.Counter
module S = Enclaves.Sentinel
module Json = Scenario.Json

(* The soaks' options: a named value with a default, or a flag. *)
let opt_arg c default name doc =
  Arg.(value & opt c default & info [ name ] ~doc)

let flag_arg name doc = Arg.(value & flag & info [ name ] ~doc)

let json_arg =
  flag_arg "json"
    "Emit one machine-readable JSON document on stdout instead of the \
     human-readable per-seed report"

(* [Printf.bprintf] for a run's text buffer, with Format's
   pretty-printers. *)
let ff b fmt = Format.kasprintf (Buffer.add_string b) fmt

(* --- session --- *)

let run_session members seed verbose audit protocol =
  let directory = Scenario.directory members in
  let spacer () = print_endline "" in
  (match protocol with
  | `Improved ->
      let d = D.create ~seed ~leader:"leader" ~directory () in
      List.iter
        (fun (name, _) ->
          D.join d name;
          ignore (D.run d))
        directory;
      D.send_app d "user0" "hello from the CLI";
      ignore (D.run d);
      D.rekey d;
      ignore (D.run d);
      Printf.printf "leader members: [%s]\n"
        (String.concat ", " (Enclaves.Leader.members (D.leader d)));
      List.iter
        (fun (name, _) ->
          let m = D.member d name in
          Printf.printf "  %-8s connected=%b admin-log=%d app-log=%d\n" name
            (Enclaves.Member.is_connected m)
            (List.length (Enclaves.Member.accepted_admin m))
            (List.length (Enclaves.Member.app_log m)))
        directory;
      Printf.printf "ordering guarantee holds: %b\n" (D.all_prefix_ok d);
      if audit then begin
        let report =
          Enclaves.Audit.run ~directory ~leader:"leader"
            (Netsim.Network.trace (D.net d))
        in
        Printf.printf
          "audit: %d handshakes, %d admin deliveries, %d closes, %d anomalies\n"
          report.Enclaves.Audit.handshakes_completed
          report.Enclaves.Audit.admin_delivered report.Enclaves.Audit.closes
          (List.length report.Enclaves.Audit.anomalies);
        List.iter
          (fun a -> Format.printf "  anomaly: %a@." Enclaves.Audit.pp_anomaly a)
          report.Enclaves.Audit.anomalies
      end;
      if verbose then begin
        spacer ();
        List.iter
          (fun e -> Format.printf "%a@." Netsim.Trace.pp_entry e)
          (Netsim.Trace.entries (Netsim.Network.trace (D.net d)))
      end
  | `Legacy ->
      let module D = Enclaves.Driver.Legacy in
      let d = D.create ~seed ~leader:"leader" ~directory () in
      List.iter
        (fun (name, _) ->
          D.join d name;
          ignore (D.run d))
        directory;
      D.send_app d "user0" "hello from the CLI";
      ignore (D.run d);
      Printf.printf "leader members: [%s]\n"
        (String.concat ", " (Enclaves.Legacy_leader.members (D.leader d)));
      if verbose then begin
        spacer ();
        List.iter
          (fun e -> Format.printf "%a@." Netsim.Trace.pp_entry e)
          (Netsim.Trace.entries (Netsim.Network.trace (D.net d)))
      end);
  0

let protocol_conv = Arg.enum [ ("improved", `Improved); ("legacy", `Legacy) ]

let protocol_arg =
  Arg.(
    value & opt protocol_conv `Improved
    & info [ "protocol" ] ~doc:"improved or legacy")

let members_arg =
  Arg.(value & opt int 3 & info [ "members"; "n" ] ~doc:"Number of members")

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Simulation seed")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the network trace")

let audit_arg =
  Arg.(value & flag & info [ "audit" ] ~doc:"Audit the trace afterwards")

let session_cmd =
  let doc = "run a scripted group session over the simulated network" in
  Cmd.v
    (Cmd.info "session" ~doc)
    Term.(
      const run_session $ members_arg $ seed_arg $ verbose_arg $ audit_arg
      $ protocol_arg)

(* --- attack --- *)

let run_attack which seed =
  let open Adversary.Attacks in
  let runs =
    match which with
    | "all" -> all ~seed ()
    | "a1" -> [ denial_of_service ~seed Legacy; denial_of_service ~seed Improved ]
    | "a2" -> [ forge_mem_removed ~seed Legacy; forge_mem_removed ~seed Improved ]
    | "a3" -> [ rekey_replay ~seed Legacy; rekey_replay ~seed Improved ]
    | "a4" ->
        [ forced_disconnect ~seed Legacy; forced_disconnect ~seed Improved ]
    | other ->
        Printf.eprintf "unknown attack %S (use a1..a4 or all)\n" other;
        exit 2
  in
  List.iter (fun o -> Format.printf "%a@." pp_outcome o) runs;
  let expected =
    List.for_all
      (fun o ->
        match o.protocol with
        | Legacy -> o.succeeded
        | Improved -> not o.succeeded)
      runs
  in
  Printf.printf "\nmatches the paper's matrix: %b\n" expected;
  if expected then 0 else 1

let which_arg =
  Arg.(value & pos 0 string "all" & info [] ~docv:"ATTACK" ~doc:"a1|a2|a3|a4|all")

let attack_cmd =
  let doc = "run the insider attacks of paper §2.3 against both protocols" in
  Cmd.v (Cmd.info "attack" ~doc) Term.(const run_attack $ which_arg $ seed_arg)

(* --- verify --- *)

(* Print a section's reports; true iff every one holds. *)
let print_reports reports =
  List.iter
    (fun rep -> Format.printf "%a@." Symbolic.Invariants.pp_report rep)
    reports;
  List.for_all (fun rep -> rep.Symbolic.Invariants.holds) reports

(* A plane model for the verify loop: explore, then the counts and the
   deferred reports, so the timing covers the exploration alone. *)
let plane explore state_count edge_count reports () =
  let r = explore () in
  ((state_count r, edge_count r), fun () -> reports r)

let planes =
  let open Symbolic in
  [
    ( "recovery plane (replication / demotion)",
      plane Recovery.explore Recovery.state_count Recovery.edge_count
        Recovery.reports );
    ( "delivery plane (store-and-forward / epoch window)",
      plane Delivery_model.explore Delivery_model.state_count
        Delivery_model.edge_count Delivery_model.reports );
    ( "sentinel plane (attribution / containment ladder)",
      plane Sentinel_model.explore Sentinel_model.state_count
        Sentinel_model.edge_count Sentinel_model.reports );
  ]

let run_verify joins admin nonces keys legacy jobs stream max_states =
  if max_states < 1 then begin
    prerr_endline "verify: --max-states must be at least 1";
    exit 2
  end;
  let config =
    {
      Symbolic.Model.default_config with
      Symbolic.Model.max_joins = joins;
      max_admin = admin;
      max_nonces = nonces;
      max_keys = keys;
    }
  in
  let t0 = Unix.gettimeofday () in
  let reports, (states, edges, truncated, dropped) =
    let open Symbolic in
    if stream then begin
      let checker =
        Invariants.combine
          [ Invariants.stream ~config (); Properties.stream ();
            Diagram.stream ~config () ]
      in
      let st =
        Explore.run_stream ~config ~jobs ~max_states
          ~on_state:checker.Invariants.on_state
          ~on_edge:checker.Invariants.on_edge ()
      in
      ( checker.Invariants.finish,
        ( st.Explore.stream_states,
          st.stream_edges,
          st.stream_truncated,
          st.stream_dropped ) )
    end
    else begin
      let r = Explore.run ~config ~jobs ~max_states () in
      ( (fun () ->
          Invariants.all ~config r @ Properties.all r @ Diagram.all ~config r),
        Explore.(state_count r, edge_count r, r.truncated, r.frontier_dropped)
      )
    end
  in
  Printf.printf "explored %d states / %d transitions in %.2fs%s\n\n" states
    edges
    (Unix.gettimeofday () -. t0)
    (if truncated then Printf.sprintf " (TRUNCATED, %d dropped)" dropped
     else "");
  let improved_ok = print_reports (reports ()) in
  let planes_ok =
    List.map
      (fun (title, run) ->
        Printf.printf "\n-- %s --\n" title;
        let t = Unix.gettimeofday () in
        let (states, edges), reports = run () in
        Printf.printf "explored %d states / %d transitions in %.2fs\n" states
          edges
          (Unix.gettimeofday () -. t);
        print_reports (reports ()))
      planes
  in
  let legacy_ok =
    (not legacy)
    ||
    let open Symbolic.Legacy_model in
    print_endline "\n-- legacy protocol (§2.2): attack finding --";
    let found = findings (explore ()) in
    List.iter
      (fun f ->
        Printf.printf "%-10s %-14s %s\n" f.weakness
          (if f.violated then "ATTACK FOUND" else "holds")
          f.description;
        List.iter (Printf.printf "    %s\n") f.trace)
      found;
    (* Every weakness is an attack found; P_a secrecy must hold. *)
    List.for_all (fun f -> f.violated = (f.weakness <> "Pa-secrecy")) found
  in
  let ok = improved_ok && List.for_all Fun.id planes_ok && legacy_ok in
  if not ok then print_endline "\nUNEXPECTED OUTCOME"
  else if truncated then
    Printf.printf
      "\nNOT VERIFIED: the §4 exploration stopped at --max-states %d\n"
      max_states
  else print_endline "\nall §5 results verified";
  if ok && not truncated then 0 else 1

let joins_arg = Arg.(value & opt int 2 & info [ "joins" ] ~doc:"Max joins by A")
let admin_arg = Arg.(value & opt int 2 & info [ "admin" ] ~doc:"Max admin msgs/session")
let nonces_arg = Arg.(value & opt int 10 & info [ "nonces" ] ~doc:"Nonce pool size")
let keys_arg = Arg.(value & opt int 2 & info [ "keys" ] ~doc:"Session-key pool size")

let legacy_arg =
  Arg.(
    value & flag
    & info [ "legacy" ]
        ~doc:"Also explore the legacy protocol and print the attacks found")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ]
        ~doc:"Domains used to expand the frontier (results are identical \
              for any value)")

let stream_arg =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:"Check invariants on the fly without retaining the state set \
              (lower memory; no counterexample paths)")

let max_states_arg =
  Arg.(
    value & opt int 200_000
    & info [ "max-states" ]
        ~doc:"State cap; runs that hit it are reported as truncated")

let verify_cmd =
  let doc = "exhaustively verify the improved protocol (paper §4-§5)" in
  Cmd.v
    (Cmd.info "verify" ~doc)
    Term.(
      const run_verify $ joins_arg $ admin_arg $ nonces_arg $ keys_arg
      $ legacy_arg $ jobs_arg $ stream_arg $ max_states_arg)

(* --- chaos --- *)

let run_chaos members seeds loss corrupt duplicate spike_prob until_s no_retry
    crash_at restart_after cold torn short_write drop_fsync eio json verbose =
  let crashing = crash_at > 0.0 in
  (* Flag validation: a crash with no restart would leave the leader
     down for the rest of the run and every seed would "wedge" for a
     trivial reason — reject the combination loudly instead. *)
  if crashing && restart_after = None then begin
    prerr_endline
      "chaos: --crash-at requires --restart-after (a crashed leader that \
       never restarts cannot converge; give --restart-after SECONDS)";
    exit 2
  end;
  let restart_after = Option.value ~default:2.0 restart_after in
  let faulty_disk =
    torn > 0.0 || short_write > 0.0 || drop_fsync > 0.0 || eio > 0.0
  in
  if faulty_disk && not crashing then begin
    prerr_endline
      "chaos: storage faults (--torn/--short-write/--drop-fsync/--eio) only \
       bite the journal's disk; enable journalling with --crash-at SECONDS";
    exit 2
  end;
  let plan =
    Netsim.Faultplan.make
      ~default_link:
        (Netsim.Faultplan.lossy_link ~corrupt ~duplicate ~spike_prob loss)
      ()
  in
  let bound = Netsim.Vtime.of_s until_s in
  let one b seed =
    let d =
      Scenario.chaos_run
        ~retry:(not no_retry)
        ?recovery:(if crashing then Some D.default_recovery else None)
        ?storage_faults:
          (if faulty_disk then
             Some
               {
                 Store.Fault.none with
                 Store.Fault.torn_write = torn;
                 short_write;
                 drop_fsync;
                 eio;
               }
           else None)
        ?crash:
          (if crashing then
             Some
               ( Int64.of_float (crash_at *. 1e6),
                 Int64.of_float (restart_after *. 1e6),
                 not cold )
           else None)
        ~plan ~directory:(Scenario.directory members) ~until:bound seed
    in
    (* With anti-entropy on, convergence additionally requires view
       agreement — that is what the digests are for. *)
    let converged = if crashing then D.view_converged d else D.converged d in
    let join_time =
      (* Virtual time by which every member held the current epoch —
         read off the trace as the last delivery before quiescence
         when converged; the bound otherwise. *)
      if converged then
        List.fold_left
          (fun acc e ->
            match e with
            | Netsim.Trace.Delivered { time; _ } when time > acc -> time
            | _ -> acc)
          Netsim.Vtime.zero
          (Netsim.Trace.entries (Netsim.Network.trace (D.net d)))
      else bound
    in
    let counters = D.counters d in
    let row = Metrics.row counters and rtx = Metrics.find counters in
    Printf.bprintf b
      "seed=%-3Ld %-9s t=%8.3fs  rtx: hs=%-3d keydist=%-3d admin=%-3d gc=%d \
       resets=%d\n"
      seed
      (if converged then "CONVERGED" else "WEDGED")
      (Int64.to_float join_time /. 1e6)
      (rtx DC.handshake_retransmits) (rtx DC.keydist_retransmits)
      (rtx DC.admin_retransmits) (rtx DC.half_open_gcs)
      (rtx DC.session_resets);
    if crashing then begin
      ff b "         recovery: %a@." Metrics.pp (row D.recovery_row);
      ff b "         storage:  %a@." Metrics.pp (row D.storage_row)
    end;
    if verbose then begin
      let stats = Netsim.Stats.compute (Netsim.Network.trace (D.net d)) in
      ff b "         retry: %a@." Metrics.pp (row D.retry_row);
      ff b "         faults: %a@." Metrics.pp
        (Metrics.named (Netsim.Network.fault_counters (D.net d)));
      Printf.bprintf b "         drops: total=%d adv=%d unreg=%d fault=%d\n"
        stats.Netsim.Stats.dropped stats.Netsim.Stats.dropped_by_adversary
        stats.Netsim.Stats.dropped_unregistered
        stats.Netsim.Stats.dropped_by_fault;
      ff b "         wire: %a@." Netsim.Stats.pp stats
    end;
    ( converged,
      Json.Obj
        ([
           ("seed", Json.Int (Int64.to_int seed));
           ("converged", Json.Bool converged);
           ("t_s", Json.Float (Int64.to_float join_time /. 1e6));
           ("retry", Json.counters (row D.retry_row));
         ]
        @
        if crashing then
          [
            ("recovery", Json.counters (row D.recovery_row));
            ("storage", Json.counters (row D.storage_row));
          ]
        else []) )
  in
  Scenario.sweep ~command:"chaos" ~json
    ~params:
      [
        ("members", Json.Int members);
        ("loss", Json.Float loss);
        ("corrupt", Json.Float corrupt);
        ("duplicate", Json.Float duplicate);
        ("spikes", Json.Float spike_prob);
        ("retry", Json.Bool (not no_retry));
      ]
    ~header:
      (Printf.sprintf
         "chaos: %d members, loss=%.0f%% corrupt=%.0f%% dup=%.0f%% \
          spikes=%.0f%% retry=%b bound=%ds%s\n"
         members (100. *. loss) (100. *. corrupt) (100. *. duplicate)
         (100. *. spike_prob) (not no_retry) until_s
         (if crashing then
            Printf.sprintf " crash@%.1fs restart+%.1fs (%s)" crash_at
              restart_after
              (if cold then "cold" else "warm")
          else ""))
    ~summary:Scenario.converged
    one (Scenario.seeds_from 1L seeds)

let chaos_members_arg =
  Arg.(value & opt int 5 & info [ "members"; "n" ] ~doc:"Number of members")

let seeds_arg n = opt_arg Arg.int n "seeds" "Sweep seeds 1..N"

let loss_arg = opt_arg Arg.float 0.20 "loss" "Per-frame loss probability"

let corrupt_arg =
  opt_arg Arg.float 0.0 "corrupt" "Per-frame bit-flip probability"

let duplicate_arg =
  opt_arg Arg.float 0.0 "duplicate" "Per-frame duplication probability"

let spike_arg =
  opt_arg Arg.float 0.0 "spikes" "Per-frame latency-spike probability"

let until_arg n =
  opt_arg Arg.int n "until" "Virtual-time bound in seconds per run"

let no_retry_arg =
  flag_arg "no-retry" "Disable the recovery layer (control runs; expect wedges)"

let crash_at_arg =
  opt_arg Arg.float 0.0 "crash-at"
    "Crash the leader at this virtual time (seconds); 0 disables. Enables \
     journalling and view anti-entropy."

let restart_after_arg =
  opt_arg Arg.(some float) None "restart-after"
    "Restart the leader this long after the crash (seconds). Required \
     whenever --crash-at is given."

let cold_arg =
  flag_arg "cold"
    "Restart cold (discard the journal) instead of warm — the control arm \
     for recovery experiments. The restarted leader still broadcasts \
     authenticated ColdRestart beacons so members rejoin without waiting out \
     the anti-entropy watchdog."

let torn_fault_arg =
  opt_arg Arg.float 0.0 "torn"
    "Per-write probability that only a byte-prefix of a journal write \
     silently lands on disk (requires --crash-at)"

let short_write_arg =
  opt_arg Arg.float 0.0 "short-write"
    "Per-write probability of a short write: a prefix lands and the write \
     raises a transient EIO (requires --crash-at)"

let drop_fsync_arg =
  opt_arg Arg.float 0.0 "drop-fsync"
    "Per-fsync probability the fsync is silently skipped, so the bytes die \
     with a later crash (requires --crash-at)"

let eio_fault_arg =
  opt_arg Arg.float 0.0 "eio"
    "Per-operation probability of a transient EIO with no effect; absorbed by \
     the journal's bounded retry (requires --crash-at)"

let chaos_cmd =
  let doc =
    "sweep seeded fault plans against the protocol's recovery layer"
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run_chaos $ chaos_members_arg $ seeds_arg 20 $ loss_arg
      $ corrupt_arg $ duplicate_arg $ spike_arg $ until_arg 30 $ no_retry_arg
      $ crash_at_arg $ restart_after_arg $ cold_arg $ torn_fault_arg
      $ short_write_arg $ drop_fsync_arg $ eio_fault_arg $ json_arg
      $ verbose_arg)

(* --- failover --- *)

let run_failover members n_managers seeds loss kill_at partition_at heal_after
    repl_lag_ms until_s cold json verbose =
  let module FO = Enclaves.Failover in
  let directory = Scenario.directory members in
  let manager_names = List.init n_managers (fun i -> Printf.sprintf "m%d" i) in
  let config = { FO.default_config with FO.warm_failover = not cold } in
  (* --repl-lag delays only the manager↔manager links (a guaranteed
     latency spike per frame), so the replication stream runs behind
     the member-facing traffic — the lagging-backup scenario. *)
  let links =
    if repl_lag_ms <= 0 then []
    else
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b ->
              if a = b then None
              else
                Some
                  ( (a, b),
                    Netsim.Faultplan.lossy_link ~spike_prob:1.0
                      ~spike:(Netsim.Vtime.of_ms repl_lag_ms) loss ))
            manager_names)
        manager_names
  in
  (* --partition-primary-at cuts the initial primary (m0) off from every
     other node; --heal-after reconnects it.  The successor promotes
     during the cut, and at the heal the stale primary must demote and
     rejoin as a catching-up backup — the post-heal split-brain arm. *)
  let partitions =
    if partition_at <= 0.0 then []
    else
      let east =
        List.filter (fun m -> m <> "m0") manager_names
        @ List.map fst directory
      in
      [
        {
          Netsim.Faultplan.west = [ "m0" ];
          east;
          from_ = Int64.of_float (partition_at *. 1e6);
          heal = Int64.of_float ((partition_at +. heal_after) *. 1e6);
        };
      ]
  in
  let plan =
    Netsim.Faultplan.make ~default_link:(Netsim.Faultplan.lossy_link loss)
      ~links ~partitions ()
  in
  let one b seed =
    let t = FO.create ~seed ~config ~managers:manager_names ~directory () in
    Netsim.Network.set_faultplan (FO.net t) (Some plan);
    FO.start t;
    if kill_at > 0.0 then
      FO.crash_primary_at t (Int64.of_float (kill_at *. 1e6));
    ignore (FO.run ~until:(Netsim.Vtime.of_s until_s) t);
    let connected = List.length (FO.connected_members t) in
    let ok = connected = members in
    let primary = match FO.primary t with Some p -> p | None -> "" in
    let replication = Metrics.named (FO.replication t) in
    Printf.bprintf b
      "seed=%-3Ld %-9s connected=%d/%d primary=%s failovers=%d failbacks=%d \
       demotions=%d\n"
      seed
      (if ok then "CONVERGED" else "WEDGED")
      connected members
      (if primary = "" then "(none)" else primary)
      (FO.failovers t) (FO.failbacks t) (FO.demotions t);
    ff b "         replication: %a@." Metrics.pp replication;
    if verbose then begin
      let pp_pairs fmt l =
        List.iter (fun (b, v) -> Format.fprintf fmt " %s=%Ld" b v) l
      in
      ff b "         lag (records):%a@." pp_pairs
        (List.map (fun (b, l) -> (b, Int64.of_int l)) (FO.replication_lag t));
      ff b "         silence (µs): %a@." pp_pairs (FO.replication_silence t)
    end;
    ( ok,
      Json.Obj
        [
          ("seed", Json.Int (Int64.to_int seed));
          ("converged", Json.Bool ok);
          ("connected", Json.Int connected);
          ("primary", Json.Str primary);
          ("failovers", Json.Int (FO.failovers t));
          ("failbacks", Json.Int (FO.failbacks t));
          ("demotions", Json.Int (FO.demotions t));
          ("replication", Json.counters replication);
        ] )
  in
  Scenario.sweep ~command:"failover" ~json
    ~params:
      [
        ("members", Json.Int members);
        ("managers", Json.Int n_managers);
        ("loss", Json.Float loss);
        ("kill_primary_at_s", Json.Float kill_at);
        ("warm", Json.Bool (not cold));
      ]
    ~header:
      (Printf.sprintf
         "failover: %d members, %d managers, loss=%.0f%%%s%s repl-lag=%dms \
          bound=%ds (%s)\n"
         members n_managers (100. *. loss)
         (if kill_at > 0.0 then Printf.sprintf " kill-primary@%.1fs" kill_at
          else "")
         (if partition_at > 0.0 then
            Printf.sprintf " partition-primary@%.1fs heal-after=%.1fs"
              partition_at heal_after
          else "")
         repl_lag_ms until_s
         (if cold then "cold baseline" else "warm"))
    ~summary:Scenario.converged
    one (Scenario.seeds_from 1L seeds)

let fo_managers_arg =
  opt_arg Arg.int 3 "managers" "Number of managers in the succession"

let kill_primary_arg =
  opt_arg Arg.float 1.0 "kill-primary-at"
    "Fail-stop the current primary at this virtual time (seconds); 0 disables \
     the kill (liveness-only run)"

let partition_primary_arg =
  opt_arg Arg.float 0.0 "partition-primary-at"
    "Cut the initial primary off from every other node at this virtual time \
     (seconds); 0 disables the partition. Combine with $(b,--heal-after) to \
     exercise the post-heal demotion path"

let heal_after_arg =
  opt_arg Arg.float 2.5 "heal-after"
    "Heal the $(b,--partition-primary-at) cut after this many (virtual) \
     seconds, forcing the stale primary to meet its successor's higher term \
     and demote"

let repl_lag_arg =
  opt_arg Arg.int 0 "repl-lag"
    "Extra latency (milliseconds) on every manager-to-manager link, so \
     backups replicate behind the member-facing traffic"

let fo_cold_arg =
  flag_arg "cold"
    "Disable warm promotion: the successor always cold-restarts and members \
     re-handshake — the baseline warm failover is measured against"

let failover_cmd =
  let doc =
    "kill the primary of a multi-manager group under seeded faults and \
     report promotion mode, replication counters and per-backup lag"
  in
  Cmd.v (Cmd.info "failover" ~doc)
    Term.(
      const run_failover $ chaos_members_arg $ fo_managers_arg
      $ seeds_arg 20 $ loss_arg $ kill_primary_arg $ partition_primary_arg
      $ heal_after_arg $ repl_lag_arg $ until_arg 15 $ fo_cold_arg $ json_arg
      $ verbose_arg)

(* --- crash-matrix --- *)

let run_crash_matrix members appends compact_every seed no_torn verbose =
  let show label report =
    Printf.printf "%s:\n" label;
    Format.printf "%a@." Enclaves.Crash_matrix.pp_report report;
    if verbose || report.Enclaves.Crash_matrix.violations <> [] then
      List.iter
        (fun v -> Format.printf "  %a@." Enclaves.Crash_matrix.pp_violation v)
        report.Enclaves.Crash_matrix.violations;
    report.Enclaves.Crash_matrix.violations = []
  in
  let journal_ok =
    show "journal"
      (Enclaves.Crash_matrix.run ~members ~appends ~compact_every ~seed
         ~torn:(not no_torn) ())
  in
  let queue_ok =
    show "delivery queue"
      (Enclaves.Crash_matrix.run_queue ~seed ~torn:(not no_torn) ())
  in
  let degraded_ok =
    show "degraded-mode queue"
      (Enclaves.Crash_matrix.run_degraded ~seed ~torn:(not no_torn) ())
  in
  if journal_ok && queue_ok && degraded_ok then begin
    print_endline
      "every crash image recovers: no exception, no resurrected session, no \
       epoch regression, no acknowledged write lost, no delivery duplicated \
       after replay, no shed record resurrected from a degraded-mode image";
    0
  end
  else 1

let cm_members_arg =
  Arg.(value & opt int 4 & info [ "members"; "n" ] ~doc:"Sessions in the workload")

let cm_appends_arg =
  Arg.(
    value & opt int 24
    & info [ "appends" ]
        ~doc:"Extra epoch bumps appended (drives repeated compaction)")

let cm_compact_arg =
  Arg.(
    value & opt int 8
    & info [ "compact-every" ] ~doc:"Journal auto-compaction threshold")

let cm_seed_arg =
  Arg.(value & opt int64 11L & info [ "seed" ] ~doc:"Workload key/nonce seed")

let cm_no_torn_arg =
  Arg.(
    value & flag
    & info [ "no-torn" ]
        ~doc:"Skip torn-write variants (boundary images only; faster)")

let crash_matrix_cmd =
  let doc =
    "enumerate every crash point of the journal's disk protocol and check \
     that recovery survives each one"
  in
  Cmd.v
    (Cmd.info "crash-matrix" ~doc)
    Term.(
      const run_crash_matrix $ cm_members_arg $ cm_appends_arg $ cm_compact_arg
      $ cm_seed_arg $ cm_no_torn_arg $ verbose_arg)

(* --- churn --- *)

let run_churn members churn_rate epoch_window rounds seeds seed loss duplicate
    stale json verbose =
  (* Flag validation: reject configurations whose failure mode would be
     trivial (nothing churns, or everything wedges) loudly instead. *)
  if members < 2 then begin
    prerr_endline
      "churn: --members must be at least 2 (one member to churn and one to \
       stay)";
    exit 2
  end;
  if churn_rate <= 0.0 || churn_rate > 1.0 then begin
    prerr_endline
      "churn: --churn-rate must be in (0,1] — the per-round probability an \
       in-session member is evicted as silent";
    exit 2
  end;
  if epoch_window < 0 then begin
    prerr_endline
      "churn: --epoch-window must be non-negative (0 delivers only \
       same-epoch records fresh)";
    exit 2
  end;
  if rounds < 1 || seeds < 1 then begin
    prerr_endline "churn: --rounds and --seeds must be positive";
    exit 2
  end;
  let directory = Scenario.directory members in
  let policy =
    {
      Enclaves.Delivery.width = epoch_window;
      on_stale =
        (if stale then Enclaves.Delivery.Deliver_stale
         else Enclaves.Delivery.Reject);
    }
  in
  (* Tight anti-entropy watchdogs so an evicted member gives up on its
     dead session and re-joins within a churn round or two. *)
  let recovery =
    {
      D.default_recovery with
      D.digest_period = Netsim.Vtime.of_ms 500;
      probe_after = Netsim.Vtime.of_ms 1500;
      reset_after = Netsim.Vtime.of_s 3;
    }
  in
  let round_s = 4 in
  let churn_end = 5 + (rounds * round_s) in
  (* Rekeys every 2s age the queued entries against the window. *)
  let rekeys_total = (churn_end - 5) / 2 in
  let one b seed =
    let rng = Prng.Splitmix.create seed in
    let d =
      D.create ~seed ~retry:true ~recovery ~delivery:policy
        ~leader:"leader" ~directory ()
    in
    let plan =
      Netsim.Faultplan.make
        ~default_link:(Netsim.Faultplan.lossy_link ~duplicate loss)
        ()
    in
    Netsim.Network.set_faultplan (D.net d) (Some plan);
    List.iter (fun (n, _) -> D.join d n) directory;
    Scenario.run_until d 5;
    ignore
      (D.start_periodic_rekey d
         ~period:(Netsim.Vtime.of_s 2)
         ~until:(Netsim.Vtime.of_s churn_end) ());
    let hwm = ref 0 and evictions = ref 0 in
    for r = 1 to rounds do
      List.iter
        (fun (n, _) ->
          let offline = List.mem n (D.offline_members d) in
          if (not offline) && Prng.Splitmix.next_float rng < churn_rate then begin
            incr evictions;
            D.expel d n
          end)
        directory;
      let t0 = 5 + ((r - 1) * round_s) in
      for s = 1 to round_s do
        Scenario.run_until d (t0 + s);
        hwm := max !hwm (D.total_queue_depth d)
      done
    done;
    (* Heal: stop churning, let the watchdogs re-admit everyone and the
       queues drain. *)
    Scenario.run_until d (churn_end + 25);
    let member_rows =
      List.map (fun (n, _) -> (n, D.member d n)) directory
    in
    let no_dup =
      (* Zero duplicate deliveries: every member applied a strictly
         increasing run of delivery seqs, no seq twice. *)
      List.for_all
        (fun (_, m) ->
          let rec mono last = function
            | [] -> true
            | s :: rest -> s > last && mono s rest
          in
          mono (-1) (Enclaves.Member.queued_applied m))
        member_rows
    in
    let no_leak =
      (* Zero cross-epoch leaks: with the reject policy no stale record
         reaches any member at all; with --deliver-stale they arrive
         flagged but [converged] below separately proves no member's
         installed epoch moved off the leader's. *)
      stale
      || List.for_all
           (fun (_, m) -> Enclaves.Member.stale_deliveries m = 0)
           member_rows
    in
    (* Bounded depth: each eviction parks at most the notices plus one
       record per rekey fired while it was away. *)
    let depth_bound = members * (rekeys_total + 4) in
    let bounded = !hwm <= depth_bound in
    let drained =
      D.total_queue_depth d = 0 && D.offline_members d = []
    in
    let converged = D.view_converged d in
    let ok = no_dup && no_leak && bounded && drained && converged in
    Printf.bprintf b
      "seed=%-3Ld %-9s evictions=%-3d hwm=%-3d dup=%b leak=%b drained=%b \
       bounded=%b\n"
      seed
      (if ok then "CONVERGED" else "WEDGED")
      !evictions !hwm (not no_dup) (not no_leak) drained bounded;
    let row = Metrics.row (D.counters d) in
    ff b "         delivery: %a@." Metrics.pp (row D.delivery_row);
    if verbose then
      ff b "         recovery: %a@." Metrics.pp (row D.recovery_row);
    ( ok,
      Json.Obj
        [
          ("seed", Json.Int (Int64.to_int seed));
          ("converged", Json.Bool ok);
          ("evictions", Json.Int !evictions);
          ("queue_hwm", Json.Int !hwm);
          ("duplicates", Json.Bool (not no_dup));
          ("leaks", Json.Bool (not no_leak));
          ("drained", Json.Bool drained);
          ("bounded", Json.Bool bounded);
          ("delivery", Json.counters (row D.delivery_row));
        ] )
  in
  let stale_policy = if stale then "deliver" else "reject" in
  Scenario.sweep ~command:"churn" ~json
    ~params:
      [
        ("members", Json.Int members);
        ("churn_rate", Json.Float churn_rate);
        ("epoch_window", Json.Int epoch_window);
        ("rounds", Json.Int rounds);
        ("loss", Json.Float loss);
        ("duplicate", Json.Float duplicate);
        ("stale_policy", Json.Str stale_policy);
      ]
    ~header:
      (Printf.sprintf
         "churn: %d members, rate=%.0f%%/round, window=%d, %d rounds, \
          loss=%.0f%% dup=%.0f%% stale=%s\n"
         members (100. *. churn_rate) epoch_window rounds (100. *. loss)
         (100. *. duplicate) stale_policy)
    ~summary:(Scenario.converged ~what:"converged with clean delivery")
    one (Scenario.seeds_from seed seeds)

let churn_rate_arg =
  opt_arg Arg.float 0.4 "churn-rate"
    "Per-round probability that each in-session member is evicted as silent \
     (its traffic then queues durably until it re-joins)"

let epoch_window_arg =
  opt_arg Arg.int 1 "epoch-window"
    "Inclusive epoch-window width of the re-seal policy: queued records at \
     most this many rekeys old still drain fresh"

let churn_rounds_arg = opt_arg Arg.int 6 "rounds" "Churn rounds per seed"

let churn_seeds_arg = opt_arg Arg.int 5 "seeds" "Seeds swept from --seed up"

let churn_duplicate_arg =
  opt_arg Arg.float 0.05 "duplicate"
    "Per-frame duplication probability (exercises the member-side delivery \
     floor)"

let churn_loss_arg =
  opt_arg Arg.float 0.05 "loss" "Per-frame loss probability during the soak"

let churn_stale_arg =
  flag_arg "deliver-stale"
    "Use the deliver-stale policy arm instead of reject for beyond-window \
     records"

let churn_cmd =
  let doc =
    "soak the store-and-forward delivery queues under seeded member churn \
     and verify exactly-once, in-window delivery"
  in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      const run_churn $ chaos_members_arg $ churn_rate_arg $ epoch_window_arg
      $ churn_rounds_arg $ churn_seeds_arg $ seed_arg $ churn_loss_arg
      $ churn_duplicate_arg $ churn_stale_arg $ json_arg $ verbose_arg)

(* --- intrude --- *)

let level_name = function Some l -> S.level_name l | None -> ""

let run_intrude arm_str members seeds until_s no_admission profile json
    verbose =
  let sn_config =
    match List.assoc_opt profile Scenario.sentinel_profiles with
    | Some c -> c
    | None ->
        prerr_endline
          ("unknown --sentinel-profile '" ^ profile ^ "' ("
          ^ String.concat "|" (List.map fst Scenario.sentinel_profiles)
          ^ ")");
        exit 2
  in
  let arm =
    match arm_str with
    | "a1-flood" -> Netsim.Intruder.Preauth_flood
    | "storm" -> Netsim.Intruder.Handshake_storm
    | "a2-forge" -> Netsim.Intruder.Forge_burst
    | "a3-replay" -> Netsim.Intruder.Replay_burst
    | other -> (
        match Netsim.Intruder.arm_of_name other with
        | Some a -> a
        | None ->
            prerr_endline
              ("intrude: unknown arm '" ^ other
             ^ "' (a1-flood|storm|a2-forge|a3-replay|frame-replay|frame-flood)");
            exit 2)
  in
  let framing = Scenario.framing arm in
  if members < 2 then begin
    prerr_endline
      "intrude: --members must be at least 2 (one early member and one \
       joining during the attack)";
    exit 2
  end;
  if until_s < 10 then begin
    prerr_endline
      "intrude: --until must be at least 10 (the campaign runs 3s-6s and \
       the post-containment probe needs the tail)";
    exit 2
  end;
  let honest = Scenario.directory members in
  (* The last half of the honest users (at least one) join in the
     middle of the attack window — the join-success probes the
     admission-control comparison is measured on. *)
  let n_late = max 1 (members / 2) in
  let victim = Scenario.victim in
  let one b seed =
    let d, actor, joins_ok =
      Scenario.attack_run
        ?intrusion:(if no_admission then None else Some sn_config)
        ~honest ~n_late arm seed
    in
    (* Read before the post-containment probe below runs the clock on. *)
    let blocked = Metrics.find (D.counters d) DC.injections_blocked in
    let rekeys = Metrics.find (D.counters d) S.Counter.emergency_rekeys in
    let suspect = if framing then victim else fst Scenario.insider in
    let level = Option.map (fun sn -> S.level sn suspect) (D.sentinel d) in
    let wire_level =
      Option.map (fun sn -> S.level sn S.wire_peer) (D.sentinel d)
    in
    (* Framing containment is dual: the WIRE pseudo-peer must be
       contained while the framed honest victim must NOT be. *)
    let contained =
      if framing then
        Scenario.wire_contained d && not (Scenario.quarantined d victim)
      else Scenario.quarantined d suspect
    in
    let secret = Printf.sprintf "post-containment secret %Ld" seed in
    D.send_app d victim secret;
    Scenario.run_until d until_s;
    let unreadable = Scenario.secret_unreadable d actor secret in
    let injected =
      Metrics.named
        (Netsim.Intruder.counters
           (match actor with
           | Scenario.Insider i -> Adversary.Insider.intruder i
           | Scenario.Outsider o -> Adversary.Outsider.intruder o))
    in
    let shown = match level with None -> "(no sentinel)" | l -> level_name l in
    if framing then
      Printf.bprintf b
        "seed=%-3Ld victim=%-11s wire=%-11s blocked=%-4d joins=%d/%d \
         sealed=%b\n"
        seed shown
        (match wire_level with None -> "-" | l -> level_name l)
        blocked joins_ok n_late unreadable
    else
      Printf.bprintf b "seed=%-3Ld %-11s joins=%d/%d rekeys=%d sealed=%b\n"
        seed shown joins_ok n_late rekeys unreadable;
    ff b "         injected: %a@." Metrics.pp injected;
    let sentinel = Metrics.row (D.counters d) D.sentinel_row in
    if verbose then ff b "         sentinel: %a@." Metrics.pp sentinel;
    ( (contained, joins_ok, unreadable),
      Json.Obj
        ([
           ("seed", Json.Int (Int64.to_int seed));
           ("contained", Json.Bool contained);
           ("level", Json.Str (level_name level));
           ("joins_ok", Json.Int joins_ok);
           ("joins_total", Json.Int n_late);
           ("post_rekey_unreadable", Json.Bool unreadable);
           ("injected", Json.counters injected);
           ("sentinel", Json.counters sentinel);
         ]
        @
        if framing then
          [
            ("victim", Json.Str victim);
            ("wire_level", Json.Str (level_name wire_level));
            ("injections_blocked", Json.Int blocked);
          ]
        else []) )
  in
  let summary verdicts =
    let contained_n = Scenario.count (fun (c, _, _) -> c) verdicts in
    let joins_ok = List.fold_left (fun a (_, j, _) -> a + j) 0 verdicts in
    let joins_total = seeds * n_late in
    let sealed_n = Scenario.count (fun (_, _, u) -> u) verdicts in
    let join_ratio = float_of_int joins_ok /. float_of_int joins_total in
    let ok =
      (* the baseline arm is informational: it documents the damage
         admission control is measured against *)
      no_admission
      || (contained_n = seeds && sealed_n = seeds && join_ratio >= 0.95)
    in
    {
      Scenario.ok;
      fields =
        [
          ( "summary",
            Json.Obj
              [
                ("seeds", Json.Int seeds);
                ("contained", Json.Int contained_n);
                ("join_success", Json.Float join_ratio);
                ("post_rekey_sealed", Json.Int sealed_n);
                ("ok", Json.Bool ok);
              ] );
        ];
      text =
        Printf.sprintf
          "\n%d/%d seeds %s; join success %d/%d (%.0f%%); post-rekey sealed \
           %d/%d%s\n"
          contained_n seeds
          (if framing then "contained the wire (victim spared)"
           else "contained the insider")
          joins_ok joins_total (100.0 *. join_ratio) sealed_n seeds
          (if no_admission then "  [baseline: admission off]" else "");
    }
  in
  Scenario.sweep ~command:"intrude" ~json
    ~params:
      [
        ("arm", Json.Str (Netsim.Intruder.arm_name arm));
        ("members", Json.Int members);
        ("admission", Json.Bool (not no_admission));
      ]
    ~header:
      (Printf.sprintf
         "intrude: arm=%s %d members (%s), %d late joiners, admission=%s \
          bound=%ds\n"
         (Netsim.Intruder.arm_name arm)
         members
         (if framing then "wire attacker framing " ^ victim else "+insider")
         n_late
         (if no_admission then "OFF (baseline)" else "on")
         until_s)
    ~summary one
    (Scenario.seeds_from 1L seeds)

let intrude_arm_arg =
  Arg.(
    value
    & pos 0 string "a1-flood"
    & info [] ~docv:"ARM"
        ~doc:"a1-flood|storm|a2-forge|a3-replay|frame-replay|frame-flood")

let no_admission_arg =
  flag_arg "no-admission"
    "Disable the sentinel (baseline arm): the pre-auth queue still runs, but \
     nothing scores evidence or denies admission, so the flood's damage to \
     legitimate joins is measured raw"

let sentinel_profile_arg =
  Arg.(
    value & opt string "shipped"
    & info [ "sentinel-profile" ] ~docv:"PROFILE"
        ~doc:
          ("Sentinel configuration, by its calibrate label: "
          ^ String.concat ", " (List.map fst Scenario.sentinel_profiles)
          ^ ". $(b,no-attribution) is the pre-attribution sentinel that \
             scores every frame at full weight against its claimed sender."))

let intrude_cmd =
  let doc =
    "run a seeded intrusion campaign — compromised insider (pre-auth flood, \
     handshake storm, expired-key forgery, replay) or wire-level framing \
     (frame-replay, frame-flood) — against the online sentinel and report \
     containment, join success and post-rekey secrecy"
  in
  Cmd.v (Cmd.info "intrude" ~doc)
    Term.(
      const run_intrude $ intrude_arm_arg $ chaos_members_arg
      $ seeds_arg 5 $ until_arg 12 $ no_admission_arg
      $ sentinel_profile_arg $ json_arg $ verbose_arg)

(* --- calibrate --- *)

let calibrate_arms =
  Netsim.Intruder.
    [
      Preauth_flood; Handshake_storm; Forge_burst; Replay_burst; Frame_replay;
      Frame_flood;
    ]

let run_calibrate seeds clean_seeds quick out json =
  let honest = Scenario.directory 5 in
  let seeds = if quick then min seeds 1 else seeds in
  let clean_seeds = if quick then min clean_seeds 2 else clean_seeds in
  let points =
    if quick then List.filteri (fun i _ -> i < 2) Scenario.sentinel_profiles
    else Scenario.sentinel_profiles
  in
  (* One seeded attack run under [cfg]: the intrude scenario without
     the secrecy probe. Was the attacker contained, was any honest
     member falsely quarantined, did the late joins all come up? *)
  let attack_run cfg arm seed =
    let d, _, joins_ok =
      Scenario.attack_run ~intrusion:cfg ~honest ~n_late:2 arm seed
    in
    let detected =
      if Scenario.framing arm then Scenario.wire_contained d
      else Scenario.quarantined d (fst Scenario.insider)
    in
    (detected, Scenario.honest_quarantined d honest, joins_ok = 2)
  in
  (* One clean-chaos run: no attacker, a lossy fault plan. Any honest
     quarantine is a false positive. *)
  let plan =
    Netsim.Faultplan.make
      ~default_link:
        (Netsim.Faultplan.lossy_link ~corrupt:0.02 ~duplicate:0.02
           ~spike_prob:0.0 0.15)
      ()
  in
  let clean_run cfg seed =
    let d =
      Scenario.chaos_run ~retry:true ~preauth:true
        ~intrusion:cfg ~plan ~directory:honest ~until:(Netsim.Vtime.of_s 8)
        seed
    in
    Scenario.honest_quarantined d honest
  in
  let eval b (label, cfg) =
    let atk =
      List.concat_map
        (fun arm ->
          List.map (attack_run cfg arm) (Scenario.seeds_from 1L seeds))
        calibrate_arms
    in
    let clean =
      List.map (clean_run cfg) (Scenario.seeds_from 101L clean_seeds)
    in
    let n_atk = List.length atk in
    let ratio n d = float_of_int n /. float_of_int d in
    let detection = ratio (Scenario.count (fun (d, _, _) -> d) atk) n_atk in
    let fp =
      ratio
        (Scenario.count (fun (_, f, _) -> f) atk + Scenario.count Fun.id clean)
        (n_atk + List.length clean)
    in
    let joins = ratio (Scenario.count (fun (_, _, j) -> j) atk) n_atk in
    Printf.bprintf b "%-18s %10.2f %6.2f %6.2f\n" label detection fp joins;
    ( (label, detection, fp, joins),
      Json.Obj
        [
          ("point", Json.Str label);
          ("detection", Json.Float detection);
          ("false_positives", Json.Float fp);
          ("join_success", Json.Float joins);
        ] )
  in
  let summary frontier =
    let metric name =
      match List.find_opt (fun (l, _, _, _) -> l = name) frontier with
      | Some (_, d, f, _) -> (d, f)
      | None -> (0.0, 1.0)
    in
    let sd, sf = metric "shipped" in
    let bd, bf = metric "no-attribution" in
    let dominates = sd >= bd && sf <= bf in
    Scenario.merge_bench_group ~path:out ~group:"sentinel-frontier"
      (List.map
         (fun (label, d, f, j) ->
           Printf.sprintf
             "{ \"group\": \"sentinel-frontier\", \"name\": \
              \"sentinel-frontier/%s\", \"ns_per_op\": null, \"detection\": \
              %.4f, \"false_positives\": %.4f, \"join_success\": %.4f }"
             label d f j)
         frontier);
    {
      Scenario.ok = dominates;
      fields = [ ("shipped_dominates_baseline", Json.Bool dominates) ];
      text =
        Printf.sprintf
          "\nshipped defaults vs no-attribution baseline: detection %.2f vs \
           %.2f, fp %.2f vs %.2f -> %s\nfrontier written to %s\n"
          sd bd sf bf
          (if dominates then "DOMINATES" else "DOMINATED (regression)")
          out;
    }
  in
  Scenario.sweep ~command:"calibrate" ~json ~runs:"frontier" ~params:[]
    ~header:
      (Printf.sprintf
         "calibrate: %d points x (%d arms x %d seeds + %d clean seeds)\n\n\
          %-18s %10s %6s %6s %6s\n"
         (List.length points)
         (List.length calibrate_arms)
         seeds clean_seeds "point" "detection" "fp" "joins" "note")
    ~summary eval points

let calibrate_seeds_arg =
  opt_arg Arg.int 2 "seeds" "Seeds per (point, attack arm) pair"

let clean_seeds_arg =
  opt_arg Arg.int 3 "clean-seeds"
    "Clean-chaos seeds per point (false-positive control)"

let calibrate_quick_arg =
  flag_arg "quick"
    "Sweep only the shipped point and the no-attribution baseline with one \
     seed per arm (CI smoke)"

let out_arg group =
  Arg.(
    value
    & opt string "BENCH_results.json"
    & info [ "out" ]
        ~doc:
          ("Bench trajectory file to merge the " ^ group
         ^ " group into (timing rows are preserved)"))

let calibrate_cmd =
  let doc =
    "sweep the named sentinel configurations, running every intruder arm \
     and a clean-chaos control per point, and emit the \
     detection-vs-false-positive frontier (fails unless the shipped \
     defaults dominate the no-attribution baseline)"
  in
  Cmd.v (Cmd.info "calibrate" ~doc)
    Term.(
      const run_calibrate $ calibrate_seeds_arg $ clean_seeds_arg
      $ calibrate_quick_arg $ out_arg "sentinel-frontier" $ json_arg)

(* --- nemesis --- *)

(* The omni-fault soak: one seeded run composes every adversarial arm
   the suite knows — lossy links, torn/short/EIO writes, fsync-latency
   spikes, a persistent write stall, an ENOSPC window, an insider
   pre-auth flood, a member outage with store-and-forward backlog, and
   a leader crash+restart — then checks the generic end state: the
   view reconverged, every legitimate join landed, no honest member
   was quarantined, the leader re-armed durability, every shed record
   left a durable Drop marker, and queue bytes stayed bounded. The
   [--no-degrade] arm runs the same schedule with the degraded-mode
   ladder disabled and is expected to wedge on the first refused
   journal write — the damage the ladder is measured against. *)
let run_nemesis members seeds until_s no_degrade expect_wedge out json verbose
    =
  let module L = Enclaves.Leader in
  if members < 4 then begin
    prerr_endline
      "nemesis: --members must be at least 4 (early members, an offline \
       victim and late joiners)";
    exit 2
  end;
  if until_s < 12 then begin
    prerr_endline
      "nemesis: --until must be at least 12 (the fault schedule runs to 8s \
       and recovery needs the tail)";
    exit 2
  end;
  let honest = Scenario.directory members in
  let early, late = Scenario.split_late honest 2 in
  let offline_victim = "user1" in
  let global_budget = 2500 in
  let one b seed =
    let d =
      D.create ~seed
        ?policy:
          (if no_degrade then Some { L.default_policy with L.degrade = false }
           else None)
        ~retry:true ~recovery:D.default_recovery
        ~storage_faults:
          {
            Store.Fault.none with
            Store.Fault.torn_write = 0.02;
            short_write = 0.02;
            eio = 0.02;
            drop_fsync = 0.05;
            fsync_spike = 0.3;
            fsync_spike_ms = 40;
          }
        ~delivery:Enclaves.Delivery.default_policy
        ~delivery_budgets:
          {
            Enclaves.Delivery.per_member_bytes = Some 300;
            global_bytes = Some global_budget;
          }
        ~preauth:true ~intrusion:S.default_config
        ~leader:"leader"
        ~directory:(honest @ [ Scenario.insider ])
        ()
    in
    let plan =
      Netsim.Faultplan.make
        ~default_link:(Netsim.Faultplan.lossy_link ~duplicate:0.02 0.05)
        ()
    in
    Netsim.Network.set_faultplan (D.net d) (Some plan);
    (* Leader crash at 2.5s, warm restart 400ms later — before the
       storage-pressure window opens, so recovery itself runs against
       a disk that still accepts writes (the degraded crash matrix
       covers the crash-while-degraded composition offline). *)
    D.schedule_leader_crash d
      ~at:(Netsim.Vtime.of_ms 2500)
      ~restart_after:(Netsim.Vtime.of_ms 400)
      ~warm:true ();
    let wedge = ref None in
    let seg f = if !wedge = None then try f () with e -> wedge := Some e in
    (* The insider's prelude, then its pre-auth flood from 3s to 6s —
       five times the service rate. *)
    seg (fun () ->
        let arm = Netsim.Intruder.Preauth_flood in
        Scenario.launch (Scenario.prelude d ~early arm) arm);
    seg (fun () ->
        Scenario.run_until d 3;
        (* Open the backlog phase — after the 2.5s crash, because the
           offline set is leader-instance state, not journaled: one
           member goes dark while periodic rekeys keep minting sealed
           records for it, the byte budgets' pressure source. *)
        D.mark_offline d offline_victim;
        ignore
          (D.start_periodic_rekey d
             ~period:(Netsim.Vtime.of_ms 300)
             ~until:(Netsim.Vtime.of_s 8) ());
        Scenario.run_until_ms d 3500);
    (* Dying disk: every mutation refused until the stall heals. The
       offline mark is re-asserted first: a post-restart re-handshake
       from the victim drains its queue and clears the mark (that is
       the reconnect contract), but this victim is still dark — the
       operator marks it again. *)
    let disk = Option.get (D.fault d) (* created with storage faults *) in
    seg (fun () ->
        D.mark_offline d offline_victim;
        Store.Fault.trigger_stall disk;
        Scenario.run_until_ms d 4300;
        Store.Fault.heal_stall disk;
        Scenario.run_until_ms d 4500);
    (* Disk full: clamp the byte budget to a sliver above current
       usage; the journal and queue mirrors exhaust it within a few
       rekeys. Space returns at 6.5s. *)
    seg (fun () ->
        Store.Fault.set_space_budget disk
          (Some (Store.Fault.bytes_used disk + 150));
        Scenario.run_until_ms d 6500;
        Store.Fault.set_space_budget disk None;
        Scenario.run_until d 8);
    (* Heal phase: the dark member returns, the late joiners arrive,
       and the run settles to the end-state check. *)
    seg (fun () ->
        D.mark_online d offline_victim;
        List.iter (fun (n, _) -> D.join d n) late;
        Scenario.run_until d until_s);
    let wedged = !wedge <> None in
    let counters = D.counters d in
    let row = Metrics.row counters and get = Metrics.find counters in
    let degraded = get Enclaves.Leader.Counter.degraded_entries
    and rearms = get Enclaves.Leader.Counter.rearms
    and shed = get Enclaves.Delivery.Counter.records_shed
    and enospc = get Store.Fault.Counter.enospc_hits in
    let honest_quarantined = Scenario.honest_quarantined d honest in
    let joins_ok = Scenario.connected d honest in
    let reconverged =
      (not wedged) && Scenario.honest_view_reconverged d honest
    in
    let healthy_end =
      (not wedged)
      && L.mode (D.leader d) = L.Healthy
      && L.durability_armed (D.leader d)
    in
    let markers_durable, bytes_bounded =
      match D.delivery d with
      | None -> (true, true)
      | Some dl ->
          ( not (Enclaves.Delivery.dirty dl),
            Enclaves.Delivery.total_bytes dl <= global_budget )
    in
    let survived =
      (not wedged) && reconverged
      && joins_ok = members
      && (not honest_quarantined)
      && healthy_end && markers_durable && bytes_bounded
    in
    (* The run only counts if the nemesis actually bit: the ladder was
       entered and re-armed, records were shed, and the disk refused
       writes. (Trivially true for the baseline arm, which wedges
       before re-arming.) *)
    let engaged =
      no_degrade
      || degraded > 0 && rearms > 0 && shed > 0 && enospc > 0
    in
    let ok =
      if no_degrade then (not expect_wedge) || wedged
      else survived && engaged
    in
    Printf.bprintf b
      "seed=%-3Ld %-8s joins=%d/%d reconverged=%b healthy=%b shed=%d \
       enospc=%d degraded=%d rearms=%d%s\n"
      seed
      (if wedged then "WEDGED" else if survived then "SURVIVED" else "DAMAGED")
      joins_ok members reconverged healthy_end shed enospc degraded rearms
      (match !wedge with
      | Some e -> "  [" ^ Printexc.to_string e ^ "]"
      | None -> "");
    if verbose then begin
      ff b "         resource: %a@." Metrics.pp (row D.resource_row);
      ff b "         storage:  %a@." Metrics.pp (row D.storage_row);
      ff b "         sentinel: %a@." Metrics.pp (row D.sentinel_row)
    end;
    ( (seed, ok, wedged, survived),
      Json.Obj
        [
          ("seed", Json.Int (Int64.to_int seed));
          ("wedged", Json.Bool wedged);
          ("survived", Json.Bool survived);
          ("reconverged", Json.Bool reconverged);
          ("joins_ok", Json.Int joins_ok);
          ("joins_total", Json.Int members);
          ("honest_quarantined", Json.Bool honest_quarantined);
          ("healthy_end", Json.Bool healthy_end);
          ("shed_markers_durable", Json.Bool markers_durable);
          ("bytes_bounded", Json.Bool bytes_bounded);
          ("resource", Json.counters (row D.resource_row));
          ("storage", Json.counters (row D.storage_row));
        ] )
  in
  let summary verdicts =
    let ok_n = Scenario.count (fun (_, o, _, _) -> o) verdicts in
    let wedged_n = Scenario.count (fun (_, _, w, _) -> w) verdicts in
    let survived_n = Scenario.count (fun (_, _, _, s) -> s) verdicts in
    let ok = ok_n = seeds in
    (* The degrade arm's per-seed outcomes feed the bench trajectory so
       a regression (a seed that stops surviving, or pressure that stops
       engaging) shows up in bench-diff's history. *)
    if not no_degrade then
      Scenario.merge_bench_group ~path:out ~group:"nemesis"
        (List.map
           (fun (seed, _, _, s) ->
             Printf.sprintf
               "{ \"group\": \"nemesis\", \"name\": \"nemesis/seed-%Ld\", \
                \"ns_per_op\": null, \"survived\": %b }"
               seed s)
           verdicts);
    {
      Scenario.ok;
      fields =
        [
          ( "summary",
            Json.Obj
              [
                ("seeds", Json.Int seeds);
                ("survived", Json.Int survived_n);
                ("wedged", Json.Int wedged_n);
                ("ok", Json.Bool ok);
              ] );
        ];
      text =
        (if no_degrade then
           Printf.sprintf "\n%d/%d seeds wedged without the ladder%s\n"
             wedged_n seeds
             (if not expect_wedge then "  [baseline: informational]"
              else if ok then "  [expected: baseline wedges]"
              else "  [FAIL: expected every seed to wedge]")
         else
           Printf.sprintf "\n%d/%d seeds survived the omni-fault schedule\n"
             survived_n seeds);
    }
  in
  Scenario.sweep ~command:"nemesis" ~json
    ~params:
      [ ("members", Json.Int members); ("degrade", Json.Bool (not no_degrade)) ]
    ~header:
      (Printf.sprintf
         "nemesis: %d members + insider, %d seeds, ladder=%s, bound=%ds\n"
         members seeds
         (if no_degrade then "OFF (baseline)" else "on")
         until_s)
    ~summary one
    (Scenario.seeds_from 1L seeds)

let no_degrade_arg =
  flag_arg "no-degrade"
    "Disable the degraded-mode ladder (baseline arm): the first journal write \
     the exhausted disk refuses propagates out of the leader instead of \
     entering the ladder, wedging the run"

let expect_wedge_arg =
  flag_arg "expect-wedge"
    "With --no-degrade: fail unless every seed wedges — keeps the baseline \
     demonstrably load-bearing in CI"

let nemesis_cmd =
  let doc =
    "run the omni-fault soak — lossy links, torn writes, fsync spikes, a \
     write stall, an ENOSPC window, an insider pre-auth flood, a member \
     outage and a leader crash in one seeded schedule — and check the \
     generic end state (view reconverged, all legitimate joins landed, no \
     honest quarantine, durability re-armed, shed records left durable Drop \
     markers, queue bytes bounded)"
  in
  Cmd.v (Cmd.info "nemesis" ~doc)
    Term.(
      const run_nemesis $ chaos_members_arg $ seeds_arg 5
      $ until_arg 20 $ no_degrade_arg $ expect_wedge_arg
      $ out_arg "nemesis" $ json_arg $ verbose_arg)

(* --- keys --- *)

let run_keys user password =
  let key = Sym_crypto.Key.long_term ~user ~password in
  Printf.printf "user=%s kind=%s fingerprint=%s\n" user
    (Format.asprintf "%a" Sym_crypto.Key.pp_kind (Sym_crypto.Key.kind key))
    (Sym_crypto.Key.fingerprint key);
  0

let user_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"USER")

let password_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"PASSWORD")

let keys_cmd =
  let doc = "derive and fingerprint a long-term key P_a" in
  Cmd.v (Cmd.info "keys" ~doc) Term.(const run_keys $ user_arg $ password_arg)

(* --- main --- *)

let () =
  let doc = "intrusion-tolerant group management in Enclaves (DSN 2001)" in
  let info = Cmd.info "enclaves" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            session_cmd; attack_cmd; verify_cmd; chaos_cmd; churn_cmd;
            failover_cmd; intrude_cmd; calibrate_cmd; nemesis_cmd;
            crash_matrix_cmd; keys_cmd;
          ]))

