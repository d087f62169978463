(** Scenario driver: wires leaders and members onto the {!Netsim}
    network and dispatches the frames the state machines emit.

    The driver is how examples, tests, benches and attacks run whole
    protocols: build a cluster, schedule joins/leaves/messages at
    virtual times, [run] the simulation, then inspect member views,
    leader state, events and the network trace.

    {!Improved} drives the §3.2 protocol: its leader is one
    {!Manager} process (disk, journal, vault, queues, sentinel and the
    crash/restart rebuild), around which the driver runs the liveness
    policies — handshake retry, leader scans, view anti-entropy and
    the pre-auth door. {!Legacy} drives the §2.2 baseline. Both expose
    {!Improved.prefix_ok}-style checks used to validate §5.4's
    ordering property at runtime.

    Each counter is declared once, in the {!Metrics} layer of the
    module that counts it (the driver's own in {!Improved.Counter});
    {!Improved.counters} snapshots every layer of a deployment, and the
    report rows are key lists over that snapshot. *)

module Improved : sig
  type t

  (** Tuning for the durability/anti-entropy layer. All delays are
      virtual time. *)
  type recovery_config = {
    digest_period : Netsim.Vtime.t;
        (** Period of the leader's [View_digest] beacon broadcast, and
            the tick of the member-side anti-entropy watchdog. *)
    challenge_timeout : Netsim.Vtime.t;
        (** How long a restarted leader retransmits an unanswered
            [RecoveryChallenge] before dropping the journalled session
            (cold fallback). *)
    probe_after : Netsim.Vtime.t;
        (** Beacon silence after which a keyed member probes the
            leader with its own digest ([ViewResyncReq]). *)
    reset_after : Netsim.Vtime.t;
        (** Beacon silence after which the member gives up on the
            session entirely and cold re-authenticates. Must exceed
            [probe_after]. *)
    beacon_on_cold : bool;
        (** Broadcast authenticated [ColdRestart] beacons on a cold
            restart ({!Leader.cold_recover}), letting members rejoin
            immediately instead of waiting out [reset_after]. Disable
            to measure the watchdog-only baseline. *)
  }

  val default_recovery : recovery_config
  (** 1 s beacons, 3 s challenge timeout, probe at 4 s of silence,
      cold reset at 10 s, beacons on cold restart enabled. *)

  val create :
    ?seed:int64 ->
    ?latency_us:int * int ->
    ?policy:Leader.policy ->
    ?retry:bool ->
    ?recovery:recovery_config ->
    ?storage_faults:Store.Fault.config ->
    ?delivery:Delivery.policy ->
    ?delivery_budgets:Delivery.budgets ->
    ?preauth:bool ->
    ?intrusion:Sentinel.config ->
    leader:Types.agent ->
    directory:(Types.agent * string) list ->
    unit ->
    t
  (** Build a cluster: one leader process ({!Manager}) plus a member
      automaton for every directory entry, all attached to a fresh
      simulated network.

      With [retry] (default [false]) the driver runs the recovery
      layer: member handshakes are retransmitted with capped
      exponential backoff and jitter (250 ms first delay, ×2 up to 4 s,
      ±20% jitter from a PRNG split off the seed, so retry schedules
      replay deterministically), the leader re-sends outstanding
      [AuthKeyDist]/[AdminMsg] frames every 200 ms scan and
      garbage-collects handshakes half-open for 3 s, and
      authenticated-but-keyless sessions are reset.

      With [recovery] the leader journals its trust-critical state and
      its epoch vault through a simulated disk ([storage_faults] wraps
      it in the seeded {!Store.Fault} layer), the driver broadcasts
      periodic [View_digest] beacons and runs a member-side
      anti-entropy watchdog (probe, then cold reset, on beacon
      silence), and {!crash_leader}/{!restart_leader} work on durable
      disk images ({!Manager.crash}, {!Manager.restart}), so unsynced
      bytes really die in the crash.

      The retry scan and the recovery beacons are [until]-less
      periodic tasks: bound runs with {!run}[ ~until] or call
      {!stop_retry}.

      With [delivery] the leader runs a store-and-forward {!Delivery}
      layer under the given epoch-window policy, on the same disk when
      recovery is on: traffic for members marked offline
      ({!mark_offline}, or expelled-as-silent) is durably queued,
      drained at reconnect, and survives a crash as the journal does
      (the member's delivery floor absorbs re-drained duplicates).
      [delivery_budgets] bounds the queues' memory: past a per-member
      or global byte budget the layer sheds oldest-first behind
      durable [Drop] markers, and the leader notes the pressure on its
      degraded-mode ladder.

      With [preauth] (default [false]), [AuthInitReq] frames wait in a
      32-slot FIFO served 4 per 50 ms tick (±25% jitter) instead of
      reaching the leader on arrival — a pre-auth flood pays in
      queueing delay and tail drops, not leader work. With [intrusion]
      the leader process runs one {!Sentinel} that survives restarts;
      the driver applies {!Sentinel.admit_preauth} at the queue door
      and dispatches {!Leader.containment_sweep} from its scan and
      after every service tick. *)

  val sim : t -> Netsim.Sim.t
  val net : t -> Netsim.Network.t
  val leader : t -> Leader.t

  val member : t -> Types.agent -> Member.t
  (** @raise Not_found for agents outside the directory. *)

  val join : t -> Types.agent -> unit
  (** Emit the member's [AuthInitReq] now (at the current virtual
      time). With [retry] enabled, also start the member's handshake
      retransmission watchdog. *)

  val fault : t -> Store.Fault.t option
  (** The seeded fault layer under the leader's disk, when
      [storage_faults] was given: the harness's handle for turning disk
      pressure on and off mid-run ({!Store.Fault.set_space_budget},
      {!Store.Fault.trigger_stall}, {!Store.Fault.heal_stall}). One
      instance outlives every leader incarnation; lifting the pressure
      lets the leader's next scan tick re-arm durability. *)

  val crash_leader : t -> unit
  (** Kill the leader process ({!Manager.crash}): frames addressed to
      it are dropped and the pre-auth queue is lost. Idempotent while
      down. *)

  val restart_leader : ?warm:bool -> ?journal_bytes:string -> t -> Journal.status
  (** Bring the leader back through {!Manager.restart}: from
      [journal_bytes] when given, else the durable image the crash
      captured, else the live journal. With [warm] (default) every
      journalled session gets a [RecoveryChallenge], retransmitted each
      scan until [challenge_timeout]. [~warm:false] trusts no session
      but keeps the epoch floor and (unless [beacon_on_cold] is off)
      broadcasts [ColdRestart] beacons so members rejoin without
      waiting out their watchdog. Without a journal the restart is a
      fresh automaton that knows nothing. Returns the journal damage
      report. *)

  val schedule_leader_crash :
    ?restart_after:Netsim.Vtime.t ->
    ?warm:bool ->
    ?journal_bytes:string ->
    t ->
    at:Netsim.Vtime.t ->
    unit ->
    unit
  (** Schedule {!crash_leader} at virtual time [at] and, if
      [restart_after] is given, {!restart_leader} that much later. *)

  val leader_down : t -> bool

  val journal_bytes : t -> string option
  (** The leader journal's current on-"disk" bytes, when journalling
      is enabled. *)

  val epoch_vault : t -> Store.Vault.t option
  (** The durable epoch vault, when recovery is enabled: the leader
      floors its epoch counter (and stamps its cold-restart beacons) at
      the vault's value, so losing the journal's last [Epoch_bump]
      record no longer yields a stale beacon. *)

  val stop_retry : t -> unit
  (** Cancel the leader scan, the digest broadcast, and all member
      watchdogs so the event queue can drain; the protocol keeps
      working, single-shot. *)

  val leave : t -> Types.agent -> unit
  val send_app : t -> Types.agent -> string -> unit

  val dispatch_leader : t -> Wire.Frame.t list -> unit
  (** Put frames produced by direct {!Leader} API calls (e.g.
      {!Leader.rekey}) on the wire. *)

  val rekey : t -> unit
  val expel : t -> Types.agent -> unit

  (** {2 Store-and-forward} *)

  val mark_offline : t -> Types.agent -> unit
  (** {!Leader.mark_offline} on the current leader incarnation. *)

  val mark_online : t -> Types.agent -> unit
  (** {!Leader.mark_online}, putting the drain frames on the wire. *)

  val offline_members : t -> Types.agent list

  val delivery : t -> Delivery.t option
  (** The current incarnation's delivery layer, when [delivery] was
      given at {!create}. *)

  val queue_depth : t -> Types.agent -> int
  (** Pending (unacknowledged) deliveries queued for one member. *)

  val total_queue_depth : t -> int

  (** {2 Intrusion containment} *)

  val sentinel : t -> Sentinel.t option
  (** The cluster's intrusion sentinel, when [intrusion] was given at
      {!create}. One instance outlives every leader incarnation. *)

  val start_periodic_rekey :
    t -> period:Netsim.Vtime.t -> ?until:Netsim.Vtime.t -> unit ->
    Netsim.Sim.handle
  (** Schedule leader rekeys every [period] of virtual time — the
      paper's "on a periodic basis" policy. Without [until] the
      schedule runs until the returned handle is
      {!Netsim.Sim.cancel}led (previously it could never be torn down
      and prevented quiescence forever). *)

  val run : ?until:Netsim.Vtime.t -> t -> int
  (** Run the simulation to quiescence (or [until]); returns events
      executed. *)

  val prefix_ok : t -> Types.agent -> bool
  (** §5.4 check: the member's accepted-admin list is a prefix of the
      leader's sent list for that member. Meaningful while the session
      is live. *)

  val all_prefix_ok : t -> bool

  val converged : t -> bool
  (** The chaos suite's goal state: every directory member is
      [Connected], all members and the leader agree on the group-key
      epoch, and {!all_prefix_ok} holds. *)

  val view_converged : t -> bool
  (** {!converged} plus view agreement: every member's membership view
      equals the leader's member list — what the anti-entropy layer
      drives the system back to. *)

  (** {2 Counters}

      Each counter is declared once, in the {!Metrics} layer of the
      module that counts it. A report row mixing layers is a key list
      read from {!counters} with {!Metrics.row}. *)

  (** The driver's own counters: the retry layer's, and those of
      crash recovery, anti-entropy and the pre-auth door. *)
  module Counter : sig
    val retry : Metrics.layer

    val handshake_retransmits : Metrics.key
    (** Member re-sent [AuthInitReq]. *)

    val keydist_retransmits : Metrics.key  (** Leader re-sent [AuthKeyDist]. *)

    val admin_retransmits : Metrics.key  (** Leader re-sent an [AdminMsg]. *)

    val half_open_gcs : Metrics.key  (** Stalled handshakes collected. *)

    val session_resets : Metrics.key
    (** Member sessions torn down and restarted after authenticating
        without ever receiving the group key. *)

    val layer : Metrics.layer
    val leader_crashes : Metrics.key
    val warm_restarts : Metrics.key
    val cold_restarts : Metrics.key
    val challenges_sent : Metrics.key  (** Initial challenges at restart. *)

    val challenge_retransmits : Metrics.key

    val challenges_failed : Metrics.key
    (** Journalled sessions dropped after [challenge_timeout]. *)

    val digests_broadcast : Metrics.key  (** Beacons enqueued (per member). *)

    val probes_sent : Metrics.key  (** Member-initiated resync probes. *)

    val cold_reauths : Metrics.key
    (** Members that gave up on a silent session and rejoined from
        scratch. *)

    val cold_beacons_sent : Metrics.key
    (** [ColdRestart] beacons broadcast by cold-restarted leaders. *)

    val beacon_reauths : Metrics.key
    (** Members that rejoined via the beacon shortcut instead of waiting
        out the [reset_after] watchdog. *)

    val preauth_queue_dropped : Metrics.key
    (** Pre-auth frames lost to the bounded service queue's tail (or
        refused at a degraded leader's door) — the overload signal when
        admission control is off. *)

    val injections_blocked : Metrics.key
    (** Wire-injected frames dropped at the leader's door after the wire
        pseudo-peer itself reached quarantine. *)

    val repl_lag_snapshots : Metrics.key
    (** Snapshot escalations forced by a backup exceeding its lag
        budget. Always 0: a one-manager deployment has no backup. *)
  end

  val counters : t -> Metrics.t list
  (** A snapshot of every counter of the deployment: the driver's two
      layers, the
      {!Sentinel.Counter}s and {!Store.Fault.Counter}s (zeros without
      [intrusion] or [storage_faults]), the {!Member.Counter}s summed
      over members, and the leader process's {!Manager.counters},
      summed across incarnations. *)

  (** Report rows, in rendering order. *)

  val retry_row : Metrics.key list  (** The {!Counter.retry} layer. *)

  val recovery_row : Metrics.key list
  (** Crash recovery and anti-entropy, with the sessions recovered and
      resyncs served by the leader and the members' divergences. *)

  val storage_row : Metrics.key list
  (** What the storage-fault layer did: injections, EIO retries
      absorbed by the journals, and crash images replayed. *)

  val resource_row : Metrics.key list
  (** Degraded-mode ladder entries, records shed under byte budgets,
      ENOSPC refusals and the worst fsync stall. *)

  val sentinel_row : Metrics.key list
  (** The sentinel's counters with the pre-auth door's. *)

  val delivery_row : Metrics.key list
  (** Store-and-forward counters with the members' dedup count. *)

  val delivery_stats : t -> Netsim.Stats.delivery
  (** {!delivery_row}'s values as a record. *)
end

module Legacy : sig
  type t

  val create :
    ?seed:int64 ->
    ?latency_us:int * int ->
    ?policy:Legacy_leader.policy ->
    leader:Types.agent ->
    directory:(Types.agent * string) list ->
    unit ->
    t

  val sim : t -> Netsim.Sim.t
  val net : t -> Netsim.Network.t
  val leader : t -> Legacy_leader.t
  val member : t -> Types.agent -> Legacy_member.t
  val join : t -> Types.agent -> unit
  val leave : t -> Types.agent -> unit
  val send_app : t -> Types.agent -> string -> unit
  val rekey : t -> unit
  val run : ?until:Netsim.Vtime.t -> t -> int
end
