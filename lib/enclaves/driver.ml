module F = Wire.Frame

module Improved = struct
  (* Retry layer: the member's handshake retransmission starts at 250 ms
     and backs off ×2 up to 4 s, each delay jittered by ±20% from a
     PRNG split off the simulation seed (so retry schedules replay
     deterministically); the leader scans for outstanding frames every
     200 ms and garbage-collects handshakes half-open for 3 s. *)
  let handshake_initial = Netsim.Vtime.of_ms 250
  let handshake_max = Netsim.Vtime.of_s 4
  let backoff = 2.0
  let jitter = 0.2
  let scan_period = Netsim.Vtime.of_ms 200
  let half_open_gc = Netsim.Vtime.of_s 3

  (* Pre-auth flood control: the unauthenticated handshake path is the
     one surface a peer can hit without any key material, so it gets
     its own bounded service queue. [AuthInitReq] frames are not
     handed to the leader on arrival: they wait in a FIFO of at most
     [preauth_capacity] frames (tail drop beyond that) and are served
     [preauth_burst] at a time every [preauth_period] (±25% jitter), so
     a flood pays in queueing delay and overflow instead of leader work
     — and cannot phase-lock onto the service clock. With an intrusion
     sentinel configured, {!Sentinel.admit_preauth} runs at the queue
     door: throttled, capped and quarantined claimants never occupy a
     slot. *)
  let preauth_capacity = 32
  let preauth_period = Netsim.Vtime.of_ms 50
  let preauth_burst = 4

  module Counter = struct
    let retry = Metrics.layer "retry"
    let r = Metrics.counter retry
    let handshake_retransmits = r "handshake_retransmits"
    let keydist_retransmits = r "keydist_retransmits"
    let admin_retransmits = r "admin_retransmits"
    let half_open_gcs = r "half_open_gcs"
    let session_resets = r "session_resets"
    let layer = Metrics.layer "driver"
    let c = Metrics.counter layer
    let leader_crashes = c "leader_crashes"
    let warm_restarts = c "warm_restarts"
    let cold_restarts = c "cold_restarts"
    let challenges_sent = c "challenges_sent"
    let challenge_retransmits = c "challenge_retransmits"
    let challenges_failed = c "challenges_failed"
    let digests_broadcast = c "digests_broadcast"
    let probes_sent = c "probes_sent"
    let cold_reauths = c "cold_reauths"
    let cold_beacons_sent = c "cold_beacons_sent"
    let beacon_reauths = c "beacon_reauths"
    let preauth_queue_dropped = c "preauth_queue_dropped"
    let injections_blocked = c "injections_blocked"
    let repl_lag_snapshots = c "repl_lag_snapshots"
  end

  (* Leader-side watch entry for one outstanding frame (identified by
     its nonce): when the nonce survives a whole scan interval the
     frame is re-sent, with per-entry exponential backoff. *)
  type lwatch = {
    mutable w_nonce : Wire.Nonce.t;
    mutable first_seen : Netsim.Vtime.t;
    mutable last_rtx : Netsim.Vtime.t;
    mutable interval : Netsim.Vtime.t;
  }

  type recovery_config = {
    digest_period : Netsim.Vtime.t;
    challenge_timeout : Netsim.Vtime.t;
    probe_after : Netsim.Vtime.t;
    reset_after : Netsim.Vtime.t;
    beacon_on_cold : bool;
  }

  let default_recovery =
    {
      digest_period = Netsim.Vtime.of_s 1;
      challenge_timeout = Netsim.Vtime.of_s 3;
      probe_after = Netsim.Vtime.of_s 4;
      reset_after = Netsim.Vtime.of_s 10;
      beacon_on_cold = true;
    }

  type t = {
    sim : Netsim.Sim.t;
    net : Netsim.Network.t;
    mgr : Manager.t;  (* the leader process, across its incarnations *)
    members : (Types.agent, Member.t) Hashtbl.t;
    directory : (Types.agent * string) list;
    retry : bool;
    retries : Metrics.t;  (* the {!Counter.retry} layer *)
    recovery : recovery_config option;
    counts : Metrics.t;  (* the driver's own {!Counter.layer} *)
    jrng : Prng.Splitmix.t;  (* jitter; split off the root stream *)
    preauth : bool;
    preauth_q : (string * Netsim.Trace.via option) Queue.t;
        (* Encoded [AuthInitReq] frames awaiting pre-auth service,
           with the injection path each arrived over — the path is
           only observable during the synchronous delivery, so it is
           captured at enqueue time. *)
    mutable pump_scheduled : bool;
    prng_pump : Prng.Splitmix.t;
        (* Service jitter. Seeded independently of the root stream so
           enabling the pump perturbs no other consumer's draws. *)
    mutable retry_stopped : bool;
    mutable scan_handle : Netsim.Sim.handle option;
    mutable recovery_handles : Netsim.Sim.handle list;
    watches : (Types.agent, lwatch) Hashtbl.t;
    pending_close : (Types.agent, Wire.Frame.t list) Hashtbl.t;
        (* Close frames from a session reset, re-sent alongside the
           handshake retransmit until the new session is accepted: if
           the close is lost the leader still holds the old session
           and rejects every AuthInitReq as "in session" — a permanent
           wedge otherwise. *)
  }

  let leader t = Manager.leader t.mgr
  let leader_down t = Manager.down t.mgr
  let sentinel t = Manager.sentinel t.mgr
  let dispatch_leader t frames = Manager.dispatch t.mgr frames
  let send t ~src frames = Manager.send t.net ~src frames

  (* Serve the pre-auth queue: at most [preauth_burst] queued
     handshakes per jittered [preauth_period] tick. Demand-driven — a
     tick is scheduled only while frames wait — so the pump never
     blocks quiescence. Each tick ends with a containment sweep: a
     flood that just pushed its author over the quarantine threshold
     is acted on before the next batch is served. *)
  let rec schedule_pump t =
    if not t.pump_scheduled then begin
      t.pump_scheduled <- true;
      let period_f = Int64.to_float preauth_period in
      let displace =
        Int64.of_float
          (period_f *. 0.25
          *. ((Prng.Splitmix.next_float t.prng_pump *. 2.0) -. 1.0))
      in
      let delay = Int64.max 1L (Int64.add preauth_period displace) in
      ignore
        (Netsim.Sim.schedule_handle t.sim ~delay (fun () ->
             t.pump_scheduled <- false;
             if not (leader_down t) then begin
               let served = ref 0 in
               while
                 !served < preauth_burst && not (Queue.is_empty t.preauth_q)
               do
                 incr served;
                 let bytes, via = Queue.pop t.preauth_q in
                 Manager.deliver t.mgr ?via bytes
               done;
               dispatch_leader t (Leader.containment_sweep (leader t));
               if not (Queue.is_empty t.preauth_q) then schedule_pump t
             end))
    end

  (* Admission check for one decoded [AuthInitReq]. Without a sentinel
     everything is admitted (the bounded queue alone is the baseline
     flood behaviour — it fills, and joins starve in FIFO order). *)
  let admit_preauth t ?via (frame : F.t) =
    match sentinel t with
    | None -> true
    | Some sn -> (
        let who = frame.F.sender in
        let known = List.mem_assoc who t.directory in
        let resuming =
          match Leader.session (leader t) who with
          | Leader.Waiting_for_key_ack _ -> true
          | Leader.Not_connected | Leader.Connected _ | Leader.Waiting_for_ack _
          | Leader.Recovering _ ->
              false
        in
        let half_open = List.length (Leader.half_open (leader t)) in
        match
          Sentinel.admit_preauth sn ?via ~peer:who ~known ~resuming ~half_open ()
        with
        | Sentinel.Admit -> true
        | Sentinel.Throttled | Sentinel.Capped | Sentinel.Denied_quarantined ->
            false)

  (* Storage pressure tightens the unauthenticated door. While the
     leader sits below Healthy on the degraded-mode ladder, claimants
     absent from the directory are refused outright — an unknown peer
     cannot become a member anyway, and every queued handshake costs
     work the degraded leader should spend recovering — and the
     pre-auth queue runs at a quarter of its bound, so a flood pays in
     tail drops sooner. Directory members still join: their
     retransmission watchdog covers any tail drop. *)
  let effective_capacity t =
    if Leader.mode (leader t) = Leader.Healthy then preauth_capacity
    else max 1 (preauth_capacity / 4)

  let gate_preauth t ?via bytes frame =
    if
      Leader.mode (leader t) <> Leader.Healthy
      && not (List.mem_assoc frame.F.sender t.directory)
    then Metrics.incr t.counts Counter.preauth_queue_dropped
    else if admit_preauth t ?via frame then
      if not t.preauth then Manager.deliver t.mgr ?via bytes
      else if Queue.length t.preauth_q >= effective_capacity t then
        Metrics.incr t.counts Counter.preauth_queue_dropped
      else begin
        Queue.push (bytes, via) t.preauth_q;
        schedule_pump t
      end
    else
      (* The denial itself scored evidence; contain synchronously so a
         flood is cut on the frame that crossed the threshold. *)
      dispatch_leader t (Leader.containment_sweep (leader t))

  (* The handler reads the current incarnation at delivery time, so it
     serves every restarted automaton. The unauthenticated handshake
     path additionally passes the pre-auth gate when flood control or
     a sentinel is configured. *)
  let attach_leader t =
    Manager.attach t.mgr (fun bytes ->
        let via = Netsim.Network.delivering_via t.net in
        (* Door check for raw wire injections: once the wire
           pseudo-peer itself is quarantined (a sustained pathless
           campaign), further [Via_wire] frames are dropped before any
           protocol or admission processing — the injector is
           contained without any member being blamed. *)
        let wire_blocked =
          match (via, sentinel t) with
          | Some Netsim.Trace.Via_wire, Some sn ->
              Sentinel.level_rank (Sentinel.level sn Sentinel.wire_peer)
              >= Sentinel.level_rank Sentinel.Quarantined
          | _ -> false
        in
        if wire_blocked then Metrics.incr t.counts Counter.injections_blocked
        else if (not t.preauth) && Option.is_none (sentinel t) then
          Manager.deliver t.mgr ?via bytes
        else
          match F.decode bytes with
          | Ok ({ F.label = F.Auth_init_req; _ } as frame) ->
              gate_preauth t ?via bytes frame
          | Ok _ | Error _ -> Manager.deliver t.mgr ?via bytes)

  let scale time f = Int64.of_float (Int64.to_float time *. f)

  let jittered t delay =
    let factor =
      1.0 -. jitter +. (Prng.Splitmix.next_float t.jrng *. 2.0 *. jitter)
    in
    scale delay factor

  let next_delay delay =
    let d = scale delay backoff in
    if Netsim.Vtime.(handshake_max < d) then handshake_max else d

  (* One periodic leader-side pass: retransmit outstanding AuthKeyDist
     and AdminMsg frames whose nonce has not moved since the previous
     scan, and garbage-collect handshakes half-open past the GC age. *)
  let leader_scan t () =
    if leader_down t then ()
    else begin
    let now = Netsim.Sim.now t.sim in
    let l = leader t in
    let half_open = Leader.half_open l in
    let awaiting = Leader.awaiting_ack l in
    let live = half_open @ awaiting in
    Hashtbl.iter
      (fun who _ ->
        if not (List.mem who live) then Hashtbl.remove t.watches who)
      (Hashtbl.copy t.watches);
    let nonce_of who =
      match Leader.session l who with
      | Leader.Waiting_for_key_ack (nl, _) | Leader.Waiting_for_ack (nl, _) ->
          Some nl
      | Leader.Not_connected | Leader.Connected _ | Leader.Recovering _ ->
          (* Recovery challenges have their own retransmission scan. *)
          None
    in
    let visit ~is_half_open who =
      match nonce_of who with
      | None -> ()
      | Some nl -> (
          match Hashtbl.find_opt t.watches who with
          | Some w when Wire.Nonce.equal w.w_nonce nl ->
              if
                is_half_open
                && Netsim.Vtime.(half_open_gc <= Int64.sub now w.first_seen)
              then begin
                if Leader.abort_half_open l who then
                  Metrics.incr t.retries Counter.half_open_gcs;
                Hashtbl.remove t.watches who
              end
              else if Netsim.Vtime.(w.interval <= Int64.sub now w.last_rtx)
              then begin
                dispatch_leader t (Leader.retransmit l who);
                if is_half_open then
                  Metrics.incr t.retries Counter.keydist_retransmits
                else Metrics.incr t.retries Counter.admin_retransmits;
                w.last_rtx <- now;
                w.interval <- next_delay w.interval
              end
          | Some w ->
              (* Progress: a different frame is outstanding now. *)
              w.w_nonce <- nl;
              w.first_seen <- now;
              w.last_rtx <- now;
              w.interval <- scan_period
          | None ->
              Hashtbl.replace t.watches who
                {
                  w_nonce = nl;
                  first_seen = now;
                  last_rtx = now;
                  interval = scan_period;
                })
    in
    List.iter (visit ~is_half_open:true) half_open;
    List.iter (visit ~is_half_open:false) awaiting;
    (* Half-open GC just scored [Half_open] evidence; act on any
       escalation now rather than waiting for the suspect's next
       frame. *)
    dispatch_leader t (Leader.containment_sweep l);
    (* Re-arm probe: while the leader sits below Healthy on the
       degraded-mode ladder, each scan tick retries the all-or-nothing
       re-arm — it succeeds exactly when the storage pressure has
       lifted, and fails without side effects while it has not. The
       sweep then flushes any pending mode notice (a rung entered
       outside [Leader.receive], or the "healthy" all-clear the
       re-arm just queued) to the membership. *)
    if Leader.mode l <> Leader.Healthy then ignore (Leader.try_rearm l);
    dispatch_leader t (Leader.mode_sweep l)
    end

  let member t who = Hashtbl.find t.members who

  (* Member-side watchdog: retransmit the handshake with capped
     exponential backoff and jitter while it is outstanding; tear down
     and restart a session that authenticated but never received its
     first admin message (the leader's half of the handshake was lost
     and then GC'd). Stops by itself once this member has the group
     key — from then on liveness is the leader scan's job. *)
  let rec watch_member t who ~delay ~keyless_ticks =
    ignore
      (Netsim.Sim.schedule_handle t.sim ~delay:(jittered t delay) (fun () ->
           if not t.retry_stopped then begin
             let m = member t who in
             match Member.state m with
             | Member.Waiting_for_key _ ->
                 (* If a session reset's close never reached the
                    leader, it still holds the old session and rejects
                    our AuthInitReq — re-send the close first. *)
                 (match Hashtbl.find_opt t.pending_close who with
                 | Some close -> send t ~src:who close
                 | None -> ());
                 send t ~src:who (Member.retransmit_join m);
                 Metrics.incr t.retries Counter.handshake_retransmits;
                 watch_member t who ~delay:(next_delay delay) ~keyless_ticks:0
             | Member.Connected _ when Member.group_key m = None ->
                 Hashtbl.remove t.pending_close who;
                 if keyless_ticks >= 1 then begin
                   (* Two consecutive keyless observations: the leader
                      no longer runs our session. Close and start
                      over. *)
                   Metrics.incr t.retries Counter.session_resets;
                   let close = Member.leave m in
                   send t ~src:who close;
                   Hashtbl.replace t.pending_close who close;
                   send t ~src:who (Member.join m);
                   watch_member t who ~delay:handshake_initial ~keyless_ticks:0
                 end
                 else
                   watch_member t who ~delay:(next_delay delay)
                     ~keyless_ticks:(keyless_ticks + 1)
             | Member.Connected _ | Member.Not_connected ->
                 Hashtbl.remove t.pending_close who
           end))

  let rewatch t who =
    if t.retry then watch_member t who ~delay:handshake_initial ~keyless_ticks:0

  (* --- view anti-entropy --- *)

  (* Periodic beacon: enqueue the current [View_digest] for every
     member whose admin channel is idle. Members with an outstanding
     AdminMsg are skipped (not queued behind it) — the next beacon
     will catch them, and the queue cannot fill with stale digests. *)
  let broadcast_digests t =
    if not (leader_down t) then begin
      let l = leader t in
      let digest = Leader.view_digest l in
      let epoch =
        match Leader.group_key l with
        | Some gk -> gk.Types.epoch
        | None -> 0
      in
      List.iter
        (fun who ->
          match Leader.session l who with
          | Leader.Connected _ ->
              Metrics.incr t.counts Counter.digests_broadcast;
              dispatch_leader t
                (Leader.enqueue_admin l who
                   (Wire.Admin.View_digest { digest; epoch }))
          | Leader.Not_connected | Leader.Waiting_for_key_ack _
          | Leader.Waiting_for_ack _ | Leader.Recovering _ ->
              ())
        (Leader.members l)
    end

  (* Member-side anti-entropy watchdog: a keyed member that stops
     seeing beacons first probes the leader with its own digest
     ([probe_after] of silence), then — if the probe also goes
     unanswered — tears the session down and cold re-authenticates
     ([reset_after]). This is the member's escape hatch when a leader
     restart dropped it (failed challenge, damaged journal): the
     member cannot distinguish that from a dead leader, so it probes,
     then rejoins from scratch. *)
  let rec ae_watch t rc who ~last_seen ~silent_for =
    ignore
      (Netsim.Sim.schedule_handle t.sim ~delay:rc.digest_period (fun () ->
           if not t.retry_stopped then begin
             let m = member t who in
             let seen = Member.digests_seen m in
             if
               (not (Member.is_connected m))
               || Member.group_key m = None
               || seen > last_seen
             then ae_watch t rc who ~last_seen:seen ~silent_for:0L
             else begin
               let silent = Int64.add silent_for rc.digest_period in
               if Netsim.Vtime.(rc.reset_after <= silent) then begin
                 Metrics.incr t.counts Counter.cold_reauths;
                 let close = Member.leave m in
                 send t ~src:who close;
                 Hashtbl.replace t.pending_close who close;
                 send t ~src:who (Member.join m);
                 rewatch t who;
                 ae_watch t rc who ~last_seen:(Member.digests_seen m)
                   ~silent_for:0L
               end
               else begin
                 if Netsim.Vtime.(rc.probe_after <= silent) then begin
                   Metrics.incr t.counts Counter.probes_sent;
                   send t ~src:who (Member.resync_request m)
                 end;
                 ae_watch t rc who ~last_seen ~silent_for:silent
               end
             end
           end))

  (* The member handler also watches for a completed cold-restart
     beacon handshake: the member has already reset and sent its
     AuthInitReq (inside [Member.receive]); the driver's job is to
     count the shortcut and re-arm the handshake watchdog so a lost
     reply still heals. *)
  let attach_member t m =
    let who = Member.self m in
    Netsim.Network.register t.net who (fun bytes ->
        let replies = Member.receive m bytes in
        send t ~src:who replies;
        if Member.consume_beacon_reset m then begin
          Metrics.incr t.counts Counter.beacon_reauths;
          Hashtbl.remove t.pending_close who;
          rewatch t who
        end)

  let create ?(seed = 42L) ?latency_us ?policy ?(retry = false) ?recovery
      ?storage_faults ?delivery ?delivery_budgets ?(preauth = false)
      ?intrusion ~leader ~directory () =
    let sim = Netsim.Sim.create ~seed () in
    let net = Netsim.Network.create ~sim ?latency_us () in
    let rng = Netsim.Sim.rng sim in
    (* With recovery on, the journal writes through a simulated disk —
       optionally wrapped in the seeded fault layer — so a crash can
       capture the durable image instead of trusting the live buffer. *)
    let mgr =
      Manager.create ~sim ~net ~name:leader ~directory ?policy
        ~disk:(Option.is_some recovery) ?faults:storage_faults ?delivery
        ?delivery_budgets ?intrusion ~primary:true ()
    in
    let members = Hashtbl.create 8 in
    let t =
      {
        sim;
        net;
        mgr;
        members;
        directory;
        retry;
        retries = Metrics.create Counter.retry;
        recovery;
        counts = Metrics.create Counter.layer;
        jrng = Prng.Splitmix.split rng;
        preauth;
        preauth_q = Queue.create ();
        pump_scheduled = false;
        prng_pump = Prng.Splitmix.create (Int64.logxor seed 0x70726561757468L);
        retry_stopped = false;
        scan_handle = None;
        recovery_handles = [];
        watches = Hashtbl.create 8;
        pending_close = Hashtbl.create 8;
      }
    in
    attach_leader t;
    List.iter
      (fun (name, password) ->
        let m = Member.create ~self:name ~leader ~password ~rng in
        Hashtbl.replace members name m;
        attach_member t m)
      directory;
    if retry then
      t.scan_handle <-
        Some (Netsim.Sim.every_handle sim ~period:scan_period (leader_scan t));
    (match recovery with
    | Some rc ->
        t.recovery_handles <-
          [
            Netsim.Sim.every_handle sim ~period:rc.digest_period (fun () ->
                broadcast_digests t);
          ];
        List.iter
          (fun (name, _) -> ae_watch t rc name ~last_seen:0 ~silent_for:0L)
          directory
    | None -> ());
    t

  let sim t = t.sim
  let net t = t.net
  let journal_bytes t = Option.map Journal.contents (Manager.journal t.mgr)
  let epoch_vault t = Manager.vault t.mgr

  let join t who =
    send t ~src:who (Member.join (member t who));
    rewatch t who

  let stop_retry t =
    t.retry_stopped <- true;
    (match t.scan_handle with
    | Some h -> Netsim.Sim.cancel h
    | None -> ());
    t.scan_handle <- None;
    List.iter Netsim.Sim.cancel t.recovery_handles;
    t.recovery_handles <- []

  let leave t who = send t ~src:who (Member.leave (member t who))

  let send_app t who body =
    send t ~src:who (Member.send_app (member t who) body)

  let rekey t = dispatch_leader t (Leader.rekey (leader t))
  let expel t who = dispatch_leader t (Leader.expel (leader t) who)

  (* --- store-and-forward --- *)

  let mark_offline t who = Leader.mark_offline (leader t) who
  let mark_online t who = dispatch_leader t (Leader.mark_online (leader t) who)
  let offline_members t = Leader.offline_members (leader t)
  let delivery t = Manager.delivery t.mgr

  let queue_depth t who =
    match delivery t with Some d -> Delivery.depth d ~member:who | None -> 0

  let total_queue_depth t =
    match delivery t with Some d -> Delivery.total_depth d | None -> 0

  (* --- leader crash and restart --- *)

  let crash_leader t =
    if not (leader_down t) then begin
      Metrics.incr t.counts Counter.leader_crashes;
      (* The pre-auth queue is process memory; a crash loses it. *)
      Queue.clear t.preauth_q;
      Manager.crash t.mgr
    end

  (* Run [tick] every [period] on behalf of one leader incarnation for
     as long as it returns [true]. The loop ends once that incarnation
     is down or replaced, so a second restart within one period leaves
     one scan, not two. *)
  let rec incarnation_scan t ~incarnation ~period tick =
    ignore
      (Netsim.Sim.schedule_handle t.sim ~delay:period (fun () ->
           if
             (not (leader_down t)) && (not t.retry_stopped)
             && leader t == incarnation && tick ()
           then incarnation_scan t ~incarnation ~period tick))

  (* Retransmit the outstanding recovery challenges every scan until
     they are answered or [challenge_timeout] has passed, then give up
     on the stragglers — the cold path. *)
  let recovery_scan t rc ~incarnation ~started =
    incarnation_scan t ~incarnation ~period:scan_period (fun () ->
        let pending = Leader.recovering incarnation in
        let expired =
          Netsim.Vtime.(
            rc.challenge_timeout <= Int64.sub (Netsim.Sim.now t.sim) started)
        in
        List.iter
          (fun who ->
            if expired then begin
              if Leader.abort_recovery incarnation who then
                Metrics.incr t.counts Counter.challenges_failed
            end
            else begin
              Metrics.incr t.counts Counter.challenge_retransmits;
              dispatch_leader t (Leader.retransmit incarnation who)
            end)
          pending;
        pending <> [] && not expired)

  (* Re-broadcast the cold-restart beacons to members that have not
     rejoined yet, every [digest_period], until [challenge_timeout] has
     passed. A member that already challenged re-sends its stored
     challenge on the duplicate (same nonce), and the leader re-acks a
     matching challenge, so every lost frame in the 3-message exchange
     is covered. *)
  let beacon_scan t rc ~incarnation ~beacons ~started =
    incarnation_scan t ~incarnation ~period:rc.digest_period (fun () ->
        let missing =
          List.filter
            (fun (f : Wire.Frame.t) ->
              match Leader.session incarnation f.Wire.Frame.recipient with
              | Leader.Not_connected -> true
              | _ -> false)
            beacons
        in
        if
          Netsim.Vtime.(
            rc.challenge_timeout <= Int64.sub (Netsim.Sim.now t.sim) started)
          || missing = []
        then false
        else begin
          Metrics.add t.counts Counter.cold_beacons_sent (List.length missing);
          dispatch_leader t missing;
          true
        end)

  let restart_leader ?(warm = true) ?journal_bytes t =
    let r =
      Manager.restart ?journal_image:journal_bytes ~warm:(fun _ -> warm) t.mgr
    in
    let rc = Option.value t.recovery ~default:default_recovery in
    let incarnation = leader t in
    let started = Netsim.Sim.now t.sim in
    (match r.Manager.path with
    | Manager.Warm ->
        Metrics.incr t.counts Counter.warm_restarts;
        Metrics.add t.counts Counter.challenges_sent (List.length r.Manager.frames);
        dispatch_leader t r.Manager.frames;
        recovery_scan t rc ~incarnation ~started
    | Manager.Cold ->
        Metrics.incr t.counts Counter.cold_restarts;
        if rc.beacon_on_cold then begin
          Metrics.add t.counts Counter.cold_beacons_sent (List.length r.Manager.frames);
          dispatch_leader t r.Manager.frames;
          beacon_scan t rc ~incarnation ~beacons:r.Manager.frames ~started
        end
    | Manager.Fresh ->
        Metrics.incr t.counts Counter.cold_restarts);
    r.Manager.status

  let schedule_leader_crash ?restart_after ?(warm = true) ?journal_bytes t ~at
      () =
    let delay =
      let now = Netsim.Sim.now t.sim in
      if Netsim.Vtime.(now < at) then Int64.sub at now else 0L
    in
    ignore
      (Netsim.Sim.schedule_handle t.sim ~delay (fun () ->
           crash_leader t;
           match restart_after with
           | Some d ->
               ignore
                 (Netsim.Sim.schedule_handle t.sim ~delay:d (fun () ->
                      ignore (restart_leader ~warm ?journal_bytes t)))
           | None -> ()))

  let start_periodic_rekey t ~period ?until () =
    Netsim.Sim.every_handle t.sim ~period ?until (fun () -> rekey t)

  let run ?until t = Netsim.Sim.run ?until t.sim

  let prefix_ok t who =
    (* §5.4 is a per-session property: [snd_A] is reset when the leader
       closes the session, so the comparison is only meaningful while
       the leader still runs a session for [who]. An expelled member
       keeps its old [rcv_A] but the session it belonged to is gone. *)
    match Leader.session (leader t) who with
    | Leader.Not_connected | Leader.Waiting_for_key_ack _
    | Leader.Recovering _ ->
        (* A recovering session's [snd_A] died with the crashed leader;
           the ledger restarts on both sides once the challenge is
           answered. *)
        true
    | Leader.Connected _ | Leader.Waiting_for_ack _ ->
        let m = member t who in
        let rcv = Member.accepted_admin m in
        let snd = Leader.sent_admin (leader t) who in
        let rec is_prefix xs ys =
          match (xs, ys) with
          | [], _ -> true
          | _, [] -> false
          | x :: xs', y :: ys' -> Wire.Admin.equal x y && is_prefix xs' ys'
        in
        is_prefix rcv snd

  let all_prefix_ok t =
    Hashtbl.fold (fun who _ acc -> acc && prefix_ok t who) t.members true

  (* The chaos suite's convergence predicate: every member is in
     session, everyone (leader included) agrees on the group-key
     epoch, and §5.4 ordering holds for every live session. *)
  let converged t =
    match Leader.group_key (leader t) with
    | None -> false
    | Some gk ->
        Hashtbl.fold
          (fun _ m acc ->
            acc
            && Member.is_connected m
            &&
            match Member.group_key m with
            | Some gk' -> gk'.Types.epoch = gk.Types.epoch
            | None -> false)
          t.members true
        && all_prefix_ok t

  (* Anti-entropy's goal state: converged AND every member's
     membership view equals the leader's. *)
  let view_converged t =
    converged t
    &&
    let lview = Leader.members (leader t) in
    Hashtbl.fold
      (fun _ m acc -> acc && Member.group_view m = lview)
      t.members true

  let fault t = Manager.fault t.mgr

  (* --- counters --- *)

  let counters t =
    Metrics.sum Counter.retry [ t.retries ]
    :: Metrics.sum Counter.layer [ t.counts ]
    :: Metrics.sum Sentinel.Counter.layer
         (Option.to_list (Option.map Sentinel.counters (sentinel t)))
    :: Metrics.sum Store.Fault.Counter.layer
         (Option.to_list (Option.map Store.Fault.counters (fault t)))
    :: Metrics.sum Member.Counter.layer
         (Hashtbl.fold (fun _ m acc -> Member.counters m :: acc) t.members [])
    :: Manager.counters t.mgr

  let retry_row = Metrics.keys Counter.retry

  let recovery_row =
    Counter.
      [
        leader_crashes;
        warm_restarts;
        cold_restarts;
        challenges_sent;
        challenge_retransmits;
        challenges_failed;
        Leader.Counter.sessions_recovered;
        digests_broadcast;
        Member.Counter.divergences_detected;
        Leader.Counter.resyncs_served;
        probes_sent;
        cold_reauths;
        cold_beacons_sent;
        beacon_reauths;
      ]

  let storage_row =
    Store.Fault.Counter.
      [
        torn_writes;
        short_writes;
        dropped_fsyncs;
        eio_injected;
        Journal.Counter.eio_retries;
        Manager.Counter.crash_images_replayed;
      ]

  let resource_row =
    [
      Leader.Counter.degraded_entries;
      Delivery.Counter.records_shed;
      Store.Fault.Counter.enospc_hits;
      Store.Fault.Counter.fsync_stall_ms_max;
      Counter.repl_lag_snapshots;
    ]

  let sentinel_row =
    Sentinel.Counter.
      [
        observations;
        rate_limits;
        quarantines;
        expulsions;
        emergency_rekeys;
        quarantined_dropped;
        preauth_admitted;
        preauth_throttled;
        preauth_capped;
        Counter.preauth_queue_dropped;
        queues_purged;
        suspicion_shipped;
        suspicion_imported;
        wire_observations;
        off_path_observations;
        framing_holds;
        challenges_issued;
        attestations;
        Counter.injections_blocked;
      ]

  let delivery_row =
    Delivery.Counter.
      [
        queued;
        drained;
        Member.Counter.deduped;
        resealed;
        rejected_stale;
        delivered_stale;
        queue_bytes_hwm;
      ]

  let delivery_stats t =
    let get = Metrics.find (counters t) in
    Delivery.Counter.
      {
        Netsim.Stats.queued = get queued;
        drained = get drained;
        deduped = get Member.Counter.deduped;
        resealed = get resealed;
        rejected_stale = get rejected_stale;
        delivered_stale = get delivered_stale;
        queue_bytes_hwm = get queue_bytes_hwm;
      }
end

module Legacy = struct
  type t = {
    sim : Netsim.Sim.t;
    net : Netsim.Network.t;
    leader : Legacy_leader.t;
    members : (Types.agent, Legacy_member.t) Hashtbl.t;
  }

  let create ?(seed = 42L) ?latency_us ?policy ~leader ~directory () =
    let sim = Netsim.Sim.create ~seed () in
    let net = Netsim.Network.create ~sim ?latency_us () in
    let rng = Netsim.Sim.rng sim in
    let l = Legacy_leader.create ~self:leader ~rng ~directory ?policy () in
    let members = Hashtbl.create 8 in
    Netsim.Network.register net leader (fun bytes ->
        Manager.send net ~src:leader (Legacy_leader.receive l bytes));
    List.iter
      (fun (name, password) ->
        let m = Legacy_member.create ~self:name ~leader ~password ~rng in
        Hashtbl.replace members name m;
        Netsim.Network.register net name (fun bytes ->
            Manager.send net ~src:name (Legacy_member.receive m bytes)))
      directory;
    { sim; net; leader = l; members }

  let sim t = t.sim
  let net t = t.net
  let leader t = t.leader

  let member t who = Hashtbl.find t.members who

  let join t who =
    Manager.send t.net ~src:who (Legacy_member.join (member t who))

  let leave t who =
    Manager.send t.net ~src:who (Legacy_member.leave (member t who))

  let send_app t who body =
    Manager.send t.net ~src:who (Legacy_member.send_app (member t who) body)

  let rekey t =
    Manager.send t.net ~src:(Legacy_leader.self t.leader)
      (Legacy_leader.rekey t.leader)

  let run ?until t = Netsim.Sim.run ?until t.sim
end
