module F = Wire.Frame
module Key = Sym_crypto.Key

type config = {
  heartbeat_period : Netsim.Vtime.t;
  failure_timeout : Netsim.Vtime.t;
  check_period : Netsim.Vtime.t;
  retry_budget : int;
  failback_after : Netsim.Vtime.t;
  repl_heartbeat_period : Netsim.Vtime.t;
  warm_failover : bool;
}

let default_config =
  {
    heartbeat_period = Netsim.Vtime.of_ms 300;
    failure_timeout = Netsim.Vtime.of_ms 1000;
    check_period = Netsim.Vtime.of_ms 200;
    retry_budget = 2;
    failback_after = Netsim.Vtime.of_ms 1500;
    repl_heartbeat_period = Netsim.Vtime.of_ms 300;
    warm_failover = true;
  }

(* One leader-side watch entry: the nonce of an outstanding frame and
   when this nonce was first observed by the scan. A frame is only
   retransmitted once the same nonce survives into a second scan, so a
   reply in flight gets one scan period to land first. *)
type mwatch = { w_nonce : Wire.Nonce.t; first_seen : Netsim.Vtime.t }

(* One manager: a {!Manager} process (its own disk, vault, sentinel and
   leader incarnation, journalling iff primary) plus its place in the
   replication plane. The process owns the sentinel, not the leader
   automaton, so suspicion survives promotion and demotion; the
   primary's instance ships snapshots down the replication stream, a
   promoting backup merges the replicated snapshot into its own. *)
type manager = {
  proc : Manager.t;
  idx : int;  (* position in the fixed succession *)
  mutable source : Replication.Source.t option;  (* Some iff primary *)
  mutable replica : Replication.Replica.t option;  (* Some iff backup *)
  mutable repl_last : Netsim.Vtime.t;
      (* last liveness-proving replication frame from the primary *)
  mutable catching_up : bool;
      (* freshly demoted: not promotable until the new source's
         term-opening snapshot has landed in the replica *)
  watches : (Types.agent, mwatch) Hashtbl.t;
}

let name mgr = Manager.name mgr.proc
let leader_of mgr = Manager.leader mgr.proc
let crashed mgr = Manager.down mgr.proc

type member_slot = {
  m_name : Types.agent;
  password : string;
  mutable automaton : Member.t;
  mutable target : Types.agent;
  mutable active : bool;  (** has been asked to join at least once *)
  mutable last_admin : Netsim.Vtime.t;
  mutable retries : int;
      (** consecutive silent timeout windows on the current target *)
  mutable failback_at : Netsim.Vtime.t option;
      (** when to abandon a non-preferred manager for the primary *)
}

type t = {
  sim : Netsim.Sim.t;
  net : Netsim.Network.t;
  config : config;
  directory : (Types.agent * string) list;
  repl_key : Key.t;
  counters : Metrics.t;  (* the {!Replication.Counter}s of the run *)
  managers : manager array;
  members : (Types.agent, member_slot) Hashtbl.t;
  mutable failovers : int;
  mutable failbacks : int;
  mutable handles : Netsim.Sim.handle list;
}

let sim t = t.sim
let net t = t.net

(* Replication terms are generation-encoded so that no two promotions
   can ever mint the same term: [term = g*n + (n-1-idx)] where [n] is
   the manager count, [g] a promotion generation, and [idx] the
   manager's succession position. A promoting manager observes term
   [T] (its replica's last adopted term) and claims the next
   generation at its own rank — so two successors promoting
   concurrently across a partition get distinct terms, and within one
   generation the {e earlier} manager in the succession mints the
   {e higher} term and wins the tie. The naive [T + 1] this replaces
   collided exactly there. *)
let term_of ~n ~generation ~idx = (generation * n) + (n - 1 - idx)

let promotion_term ~n ~idx ~seen = term_of ~n ~generation:((seen / n) + 1) ~idx

(* The manager currently sourcing the replication stream at the
   highest term — during the window between a crash and the successor's
   promotion (when no source is live), the first non-crashed manager
   in the succession, and [None] when every manager is down: callers
   must treat that as "no service", not silently target a corpse. A
   partitioned old primary still sourcing its dead term loses this
   comparison the moment the successor promotes, so members fail back
   to the real group, never to a zombie. *)
let primary t =
  let best = ref None in
  Array.iter
    (fun mgr ->
      if not (crashed mgr) then
        match mgr.source with
        | Some s -> (
            let term = Replication.Source.term s in
            match !best with
            | Some (bt, _) when bt >= term -> ()
            | _ -> best := Some (term, name mgr))
        | None -> ())
    t.managers;
  match !best with
  | Some (_, name) -> Some name
  | None ->
      Option.map name (Array.find_opt (fun mgr -> not (crashed mgr)) t.managers)

(* Next non-crashed manager strictly after [after] in the fixed
   succession, wrapping all the way around — back to [after] itself
   when it is the only live manager, [None] when none are live. *)
let succession_next t after =
  let n = Array.length t.managers in
  let idx = ref 0 in
  Array.iteri (fun i mgr -> if name mgr = after then idx := i) t.managers;
  let rec find k =
    if k > n then None
    else
      let mgr = t.managers.((!idx + k) mod n) in
      if not (crashed mgr) then Some (name mgr) else find (k + 1)
  in
  find 1

let send t ~src frames = Manager.send t.net ~src frames

(* Wire a member automaton onto the network; called again after every
   failover because the automaton is replaced. *)
let attach_member t slot =
  Netsim.Network.register t.net slot.m_name (fun bytes ->
      let replies = Member.receive slot.automaton bytes in
      send t ~src:slot.m_name replies;
      List.iter
        (function
          | Member.Recovery_challenged { from } ->
              (* Warm handoff: whoever proved possession of our [K_a]
                 is the manager we now follow — keep the detector quiet
                 and move the slot's allegiance with the automaton's. *)
              slot.target <- from;
              slot.failback_at <- None;
              slot.last_admin <- Netsim.Sim.now t.sim;
              slot.retries <- 0
          | Member.Admin_accepted _ | Member.Joined _
          | Member.Cold_beacon_challenged _ | Member.Beacon_reset _ ->
              slot.last_admin <- Netsim.Sim.now t.sim;
              slot.retries <- 0
          | Member.App_received _ | Member.Left | Member.Rejected _
          | Member.View_diverged _ -> ())
        (Member.drain_events slot.automaton))

(* Manager frame routing: replication frames go to the replication
   plane, everything else to the leader automaton. Undecodable bytes
   also go to the leader so its reject accounting stays authoritative. *)
let attach_manager t mgr =
  Manager.attach mgr.proc (fun bytes ->
      let to_leader () =
        Manager.deliver mgr.proc ?via:(Netsim.Network.delivering_via t.net)
          bytes
      in
      match F.decode bytes with
      | Error _ -> to_leader ()
      | Ok frame -> (
          match frame.F.label with
          | F.Repl_record -> (
              match mgr.replica with
              | Some r ->
                  Manager.dispatch mgr.proc
                    (Replication.Replica.handle_frame r frame)
              | None -> (
                  match mgr.source with
                  | Some s ->
                      (* A record reaching a sourcing manager is the
                         reconciliation plane at work: either a zombie
                         peer's dead stream (answered with a demotion
                         signal) or a successor's higher-term stream
                         reaching us after a heal — in which case
                         [on_superseded] just demoted us, and the frame
                         that proved it seeds the fresh replica
                         below. *)
                      Replication.Source.handle_peer_record s frame;
                      (match mgr.replica with
                      | Some r ->
                          Manager.dispatch mgr.proc
                            (Replication.Replica.handle_frame r frame)
                      | None -> ())
                  | None -> ()))
          | F.Repl_ack | F.Repl_fetch | F.Repl_stale -> (
              match mgr.source with
              | Some s -> Replication.Source.handle_frame s frame
              | None ->
                  (* A backup has nothing to demote; stray signals are
                     just dropped. *)
                  ())
          | _ -> to_leader ()))

(* Run the handshake against [target], on a fresh member automaton
   when [fresh]. *)
let handshake t slot ~target ~fresh =
  if fresh then begin
    slot.target <- target;
    slot.automaton <-
      Member.create ~self:slot.m_name ~leader:target ~password:slot.password
        ~rng:(Netsim.Sim.rng t.sim);
    attach_member t slot
  end;
  slot.active <- true;
  slot.retries <- 0;
  slot.failback_at <- None;
  slot.last_admin <- Netsim.Sim.now t.sim;
  send t ~src:slot.m_name (Member.join slot.automaton)

(* Tear down the current session (politely, so a live manager frees
   its slot) and run a fresh handshake against [target]. *)
let switch_to t slot ~target =
  send t ~src:slot.m_name (Member.leave slot.automaton);
  handshake t slot ~target ~fresh:true

let join_slot t slot =
  match primary t with
  | None -> ()
  | Some target ->
      handshake t slot ~target
        ~fresh:
          (slot.target <> target || not (Member.is_connected slot.automaton))

let fail_over t slot =
  match succession_next t slot.target with
  | None -> ()  (* nobody left to fail over to; keep waiting *)
  | Some target ->
      t.failovers <- t.failovers + 1;
      switch_to t slot ~target

let fail_back t slot ~preferred =
  t.failbacks <- t.failbacks + 1;
  switch_to t slot ~target:preferred

(* Member-side failure detector. A timeout no longer means "dead":
   the first [retry_budget] silent windows are treated as "slow" — the
   member re-arms the window and, if its handshake is still pending,
   retransmits the stored AuthInitReq as a probe. Only when the budget
   is exhausted does it fail over to the next manager in succession.
   Separately, a member that is connected and stable on a manager
   other than the current primary drifts back to the preferred primary
   after [failback_after] — so a partition that pushed it sideways
   heals into the canonical configuration instead of splitting the
   group forever. The budgeted patience is what gives a warm-promoted
   successor its window: its recovery challenge lands (and resets the
   silence clock) well before the cold failover would trigger. *)
let start_failure_detector t slot =
  let h =
    Netsim.Sim.every_handle t.sim ~period:t.config.check_period (fun () ->
        if slot.active then begin
          let now = Netsim.Sim.now t.sim in
          let silence = Int64.sub now slot.last_admin in
          (* Fail-back only from a demonstrably live session — a
             silent non-preferred target is the detector's business,
             not a candidate for a polite migration. *)
          (match primary t with
          | Some preferred
            when Member.is_connected slot.automaton
                 && slot.target <> preferred
                 && Netsim.Vtime.(silence < t.config.failure_timeout) -> (
              match slot.failback_at with
              | None ->
                  slot.failback_at <-
                    Some (Netsim.Vtime.add now t.config.failback_after)
              | Some at when Netsim.Vtime.(at <= now) ->
                  fail_back t slot ~preferred
              | Some _ -> ())
          | Some _ | None -> slot.failback_at <- None);
          if Netsim.Vtime.(t.config.failure_timeout <= silence) then
            if slot.retries < t.config.retry_budget then begin
              slot.retries <- slot.retries + 1;
              send t ~src:slot.m_name (Member.retransmit_join slot.automaton);
              slot.last_admin <- Netsim.Sim.now t.sim
            end
            else fail_over t slot
        end)
  in
  t.handles <- h :: t.handles

let start_heartbeat t mgr =
  let h =
    Netsim.Sim.every_handle t.sim ~period:t.config.heartbeat_period (fun () ->
        if not (crashed mgr) then
          Manager.dispatch mgr.proc
            (Leader.broadcast_admin (leader_of mgr) (Wire.Admin.Notice "hb")))
  in
  t.handles <- h :: t.handles

let watch_nonce = function
  | Leader.Waiting_for_key_ack (n, _)
  | Leader.Waiting_for_ack (n, _)
  | Leader.Recovering (n, _) ->
      Some n
  | Leader.Not_connected | Leader.Connected _ -> None

type outstanding = Half_open | Awaiting | Recovering

(* Manager-side scan: re-send outstanding AuthKeyDist/AdminMsg/
   RecoveryChallenge frames whose nonce survived a previous scan
   unchanged (so lost replies don't wedge a session), and
   garbage-collect exchanges that stay open past twice the failure
   timeout — by then the member has either probed again (fresh nonce)
   or failed over elsewhere. An unanswered recovery challenge is
   aborted, which discards the journalled key: the cold fallback for
   that one member. *)
let start_manager_scan t mgr =
  let gc_after = Int64.mul 2L t.config.failure_timeout in
  let h =
    Netsim.Sim.every_handle t.sim ~period:t.config.check_period (fun () ->
        if not (crashed mgr) then begin
          let l = leader_of mgr in
          let now = Netsim.Sim.now t.sim in
          let outstanding =
            List.map (fun who -> (who, Half_open)) (Leader.half_open l)
            @ List.map (fun who -> (who, Awaiting)) (Leader.awaiting_ack l)
            @ List.map (fun who -> (who, Recovering)) (Leader.recovering l)
          in
          let live = List.map fst outstanding in
          Hashtbl.iter
            (fun who _ ->
              if not (List.mem who live) then Hashtbl.remove mgr.watches who)
            (Hashtbl.copy mgr.watches);
          List.iter
            (fun (who, kind) ->
              match watch_nonce (Leader.session l who) with
              | None -> Hashtbl.remove mgr.watches who
              | Some n -> (
                  match Hashtbl.find_opt mgr.watches who with
                  | Some w when Wire.Nonce.equal w.w_nonce n ->
                      if Netsim.Vtime.(gc_after <= Int64.sub now w.first_seen)
                      then begin
                        (* Stalled past the deadline. A half-open
                           handshake is silently reset; a member that
                           never acks an AdminMsg is presumed dead and
                           expelled — freeing the session so a later
                           re-handshake (e.g. after a partition heals)
                           is accepted instead of rejected as
                           "in session". *)
                        (match kind with
                        | Half_open -> ignore (Leader.abort_half_open l who)
                        | Awaiting ->
                            Manager.dispatch mgr.proc (Leader.expel l who)
                        | Recovering -> ignore (Leader.abort_recovery l who));
                        Hashtbl.remove mgr.watches who
                      end
                      else Manager.dispatch mgr.proc (Leader.retransmit l who)
                  | Some _ | None ->
                      Hashtbl.replace mgr.watches who
                        { w_nonce = n; first_seen = now }))
            outstanding
        end)
  in
  t.handles <- h :: t.handles

(* --- the replication plane --- *)

let live_backups t mgr =
  Array.to_list t.managers
  |> List.filter_map (fun m ->
         if name m <> name mgr && not (crashed m) then Some (name m) else None)

let make_replica ?(term = 0) t mgr ~primary_name =
  mgr.replica <-
    Some
      (Replication.Replica.create ~self:(name mgr) ~primary:primary_name
         ~key:t.repl_key ~rng:(Netsim.Sim.rng t.sim)
         ?disk:(Manager.backend mgr.proc) ~term ~counters:t.counters ());
  mgr.repl_last <- Netsim.Sim.now t.sim

(* Demotion: authentic evidence of a strictly higher term arrived at a
   sourcing manager (the [on_superseded] callback). Stop sourcing,
   discard the journal's divergent suffix — everything past the last
   byte some backup acknowledged under our common term; those
   unwitnessed records (typically partition-side expulsions and epoch
   bumps) never reached the group that moved on — and rejoin the live
   source as an empty catching-up backup. The replica is seeded at the
   superseding term so replays of our own dead stream cannot re-adopt,
   and [catching_up] keeps the promotion watchdog quiet until the new
   term's snapshot has landed. Members need not be told: anyone we
   still believed in was challenged over to the successor long ago,
   and our sessions die with the demoted leader automaton. *)
let demote t mgr ~term ~primary_name =
  match mgr.source with
  | None -> ()
  | Some s ->
      Metrics.incr t.counters Replication.Counter.demotions;
      Replication.Source.detach s;
      (match Manager.journal mgr.proc with
      | Some j ->
          let keep =
            min (Replication.Source.acked_prefix s)
              (String.length (Journal.contents j))
          in
          ignore
            (Journal.recover ?disk:(Manager.backend mgr.proc)
               (String.sub (Journal.contents j) 0 keep))
      | None -> ());
      mgr.source <- None;
      (* Stop shipping suspicion: a demoted manager has no stream. *)
      (match Manager.sentinel mgr.proc with
      | Some sn -> Sentinel.set_ship sn (fun _ -> ())
      | None -> ());
      Manager.reopen mgr.proc ~primary:false;
      make_replica t mgr ~primary_name ~term;
      mgr.catching_up <- true

(* Start sourcing the stream at [term] from the manager's journal —
   a primary incarnation always journals. *)
let make_source t mgr ~term =
  match Manager.journal mgr.proc with
  | None -> invalid_arg "Failover.make_source: the primary has no journal"
  | Some journal ->
      mgr.replica <- None;
      mgr.catching_up <- false;
      mgr.source <-
        Some
          (Replication.Source.create ~self:(name mgr)
             ~backups:(live_backups t mgr) ~term ~key:t.repl_key
             ~rng:(Netsim.Sim.rng t.sim)
             ~send:(fun f -> Manager.dispatch mgr.proc [ f ])
             ~journal
             ~on_superseded:(fun ~term ~primary ->
               demote t mgr ~term ~primary_name:primary)
             ~counters:t.counters ())

(* Hook the primary's delivery layer into its replication source, so
   every durable queue mutation ships to the backups — and ship the
   current images once so the new term's stream covers backlogs that
   predate it. *)
let wire_delivery mgr =
  match (Manager.delivery mgr.proc, mgr.source) with
  | Some d, Some s ->
      Delivery.set_ship d
        (Some
           (fun ~file image ->
             Replication.Source.ship_queue_image s ~file image));
      List.iter
        (fun (file, image) -> Replication.Source.ship_queue_image s ~file image)
        (Delivery.files d)
  | _ -> ()

(* Hook the primary's sentinel into its replication source, so every
   suspicion escalation ships to the backups — and ship the current
   snapshot once so the new term's stream covers suspicion accrued
   before this manager started sourcing. *)
let wire_sentinel mgr =
  match (Manager.sentinel mgr.proc, mgr.source) with
  | Some sn, Some s ->
      Sentinel.set_ship sn (fun blob ->
          Replication.Source.ship_suspicion s blob);
      Replication.Source.ship_suspicion s (Sentinel.export sn)
  | _ -> ()

let start_repl_heartbeat t mgr =
  let h =
    Netsim.Sim.every_handle t.sim ~period:t.config.repl_heartbeat_period
      (fun () ->
        if not (crashed mgr) then
          match mgr.source with
          | Some s -> Replication.Source.heartbeat s
          | None -> ())
  in
  t.handles <- h :: t.handles

(* Promote a backup whose replication channel has gone silent. The
   replica bytes are replayed exactly like a local journal surviving a
   crash ({!Manager.restart}): a usable prefix yields a warm leader
   that challenges every replicated session under its [K_a] (members
   keep their keys and redirect to us), an unusable one yields a cold
   leader that distrusts the replica's sessions, keeps only the epoch
   floor (journal belief plus vault) and beacons. The replicated queue
   images carry the offline members' backlogs across the promotion;
   they hold plaintext payloads re-sealed at fire time, so they are
   safe to keep even on a cold promotion. Either way this manager
   becomes the stream's source at the next generation's term at its
   own rank (see {!term_of} — unique even under concurrent
   promotions), so the remaining backups adopt the succession from one
   frame. *)
let promote t mgr =
  match mgr.replica with
  | None -> ()
  | Some r ->
      let term =
        promotion_term ~n:(Array.length t.managers) ~idx:mgr.idx
          ~seen:(Replication.Replica.term r)
      in
      (* Merge the replicated suspicion snapshot before the successor
         serves anyone: levels ratchet, so a suspect the dead primary
         quarantined stays quarantined — it cannot launder its record
         by crashing the leader. The successor's first containment
         sweep re-announces and re-rekeys, which is what a group under
         new management should do anyway. *)
      (match (Manager.sentinel mgr.proc, Replication.Replica.suspicion r) with
      | Some sn, Some blob -> ignore (Sentinel.import sn blob)
      | _ -> ());
      let restart =
        Manager.restart mgr.proc
          ~journal_image:(Replication.Replica.contents r)
          ~queue_images:(Replication.Replica.queue_images r)
          ~warm:(fun state ->
            t.config.warm_failover && state.Journal.sessions <> [])
      in
      (match restart.Manager.path with
      | Manager.Warm -> Metrics.incr t.counters Replication.Counter.warm_promotions
      | Manager.Cold | Manager.Fresh ->
          Metrics.incr t.counters Replication.Counter.cold_promotions);
      make_source t mgr ~term;
      wire_delivery mgr;
      wire_sentinel mgr;
      Manager.dispatch mgr.proc restart.Manager.frames

(* Backup-side promotion watchdog. Silence thresholds are staggered by
   succession position — the first backup waits one failure timeout,
   the second two, and so on — so at most one backup promotes per
   failure: the survivor's term+1 snapshot resets everyone else's
   silence clock before their own (longer) threshold expires. *)
let start_promotion_watchdog t mgr =
  let threshold =
    Int64.mul (Int64.of_int (max 1 mgr.idx)) t.config.failure_timeout
  in
  let h =
    Netsim.Sim.every_handle t.sim ~period:t.config.check_period (fun () ->
        if not (crashed mgr) then
          match mgr.replica with
          | None -> ()
          | Some r ->
              let now = Netsim.Sim.now t.sim in
              if Replication.Replica.take_activity r then begin
                mgr.repl_last <- now;
                (* A freshly demoted manager becomes promotable again
                   only once the live term's opening snapshot has
                   landed — promoting an empty replica would
                   cold-restart the very group it just rejoined. *)
                if mgr.catching_up && Replication.Replica.expected r > 0 then
                  mgr.catching_up <- false
              end
              else if
                (not mgr.catching_up)
                && Netsim.Vtime.(threshold <= Int64.sub now mgr.repl_last)
              then promote t mgr)
  in
  t.handles <- h :: t.handles

let create ?(seed = 77L) ?(config = default_config) ?delivery ?intrusion
    ~managers ~directory () =
  if managers = [] then invalid_arg "Failover.create: no managers";
  let sim = Netsim.Sim.create ~seed () in
  let net = Netsim.Network.create ~sim () in
  let rng = Netsim.Sim.rng sim in
  let counters = Metrics.create Replication.Counter.layer in
  let repl_key = Key.fresh Key.Long_term rng in
  let mk_manager idx name =
    {
      proc =
        Manager.create ~sim ~net ~name ~directory ~disk:true ?delivery
          ?intrusion ~primary:false ();
      idx;
      source = None;
      replica = None;
      repl_last = Netsim.Vtime.zero;
      catching_up = false;
      watches = Hashtbl.create 8;
    }
  in
  let managers = Array.of_list (List.mapi mk_manager managers) in
  let members = Hashtbl.create 8 in
  let t =
    {
      sim;
      net;
      config;
      directory;
      repl_key;
      counters;
      managers;
      members;
      failovers = 0;
      failbacks = 0;
      handles = [];
    }
  in
  Array.iter (attach_manager t) t.managers;
  Array.iter (start_heartbeat t) t.managers;
  Array.iter (start_manager_scan t) t.managers;
  Array.iter (start_repl_heartbeat t) t.managers;
  Array.iter (start_promotion_watchdog t) t.managers;
  (* The initial primary journals through its own disk and ships the
     stream; every other manager follows as a replica. *)
  let m0 = t.managers.(0) in
  Manager.reopen m0.proc ~primary:true;
  let n = Array.length t.managers in
  let term0 = term_of ~n ~generation:1 ~idx:0 in
  make_source t m0 ~term:term0;
  wire_delivery m0;
  wire_sentinel m0;
  (* Backups start with the initial term as their stale floor, so
     every term any manager ever mints is generation-consistent. *)
  Array.iter
    (fun mgr ->
      if mgr.idx > 0 then
        make_replica t mgr ~primary_name:(name m0) ~term:term0)
    t.managers;
  List.iter
    (fun (m_name, password) ->
      let slot =
        {
          m_name;
          password;
          automaton =
            Member.create ~self:m_name ~leader:(name m0) ~password ~rng;
          target = name m0;
          active = false;
          last_admin = Netsim.Vtime.zero;
          retries = 0;
          failback_at = None;
        }
      in
      Hashtbl.replace members m_name slot;
      attach_member t slot;
      start_failure_detector t slot)
    directory;
  t

let start t = Hashtbl.iter (fun _ slot -> join_slot t slot) t.members

let stop t =
  List.iter Netsim.Sim.cancel t.handles;
  t.handles <- []

let join t who = join_slot t (Hashtbl.find t.members who)
let member t who = (Hashtbl.find t.members who).automaton

let find_manager t who =
  match Array.find_opt (fun mgr -> name mgr = who) t.managers with
  | Some mgr -> mgr
  | None -> raise Not_found

let leader t who = leader_of (find_manager t who)

let send_app t who body =
  send t ~src:who (Member.send_app (member t who) body)

let crash_primary t =
  match primary t with
  | None -> ()
  | Some who ->
      let mgr = find_manager t who in
      Manager.crash mgr.proc;
      Option.iter Replication.Source.detach mgr.source;
      mgr.source <- None

let crash_primary_at t time =
  Netsim.Sim.schedule_at t.sim ~time (fun () -> crash_primary t)

let manager_of t who =
  match Hashtbl.find_opt t.members who with
  | Some slot when Member.is_connected slot.automaton -> Some slot.target
  | Some _ | None -> None

let connected_members t =
  Hashtbl.fold
    (fun who slot acc ->
      let target_live =
        Array.exists
          (fun mgr -> name mgr = slot.target && not (crashed mgr))
          t.managers
      in
      if Member.is_connected slot.automaton && target_live then who :: acc
      else acc)
    t.members []
  |> List.sort String.compare

let failovers t = t.failovers
let failbacks t = t.failbacks
let demotions t = Metrics.get t.counters Replication.Counter.demotions

type role =
  | Primary of { term : int }
  | Backup of { term : int; catching_up : bool }
  | Down

let role t who =
  let mgr = find_manager t who in
  if crashed mgr then Down
  else
    match (mgr.source, mgr.replica) with
    | Some s, _ -> Primary { term = Replication.Source.term s }
    | None, Some r ->
        Backup
          {
            term = Replication.Replica.term r;
            catching_up = mgr.catching_up;
          }
    | None, None -> Down

(* Drive the current primary's group-management plane from the
   harness: used by the churn/failover scenarios to park traffic in a
   member's store-and-forward queue (expel-as-silent) and to age it
   (rekey) while the member is away. *)
let with_primary t f =
  match primary t with
  | None -> ()
  | Some who ->
      let mgr = find_manager t who in
      Manager.dispatch mgr.proc (f (leader_of mgr))

let expel t who = with_primary t (fun l -> Leader.expel l who)
let rekey t = with_primary t (fun l -> Leader.rekey l)

let replica_bytes t who =
  Option.map Replication.Replica.contents (find_manager t who).replica

let journal_bytes t who =
  Option.map Journal.contents (Manager.journal (find_manager t who).proc)

let sentinel t who = Manager.sentinel (find_manager t who).proc

let replica_suspicion t who =
  Option.bind (find_manager t who).replica Replication.Replica.suspicion

let replication t = t.counters

let replica_queue_images t who =
  match (find_manager t who).replica with
  | Some r -> Replication.Replica.queue_images r
  | None -> []

let replication_lag t =
  Array.fold_left
    (fun lag mgr ->
      match mgr.source with Some s -> Replication.Source.lag s | None -> lag)
    [] t.managers

let replication_silence t =
  Array.to_list t.managers
  |> List.filter_map (fun mgr ->
         match mgr.replica with
         | Some _ when not (crashed mgr) ->
             Some (name mgr, Int64.sub (Netsim.Sim.now t.sim) mgr.repl_last)
         | Some _ | None -> None)

let run ?until t = Netsim.Sim.run ?until t.sim
