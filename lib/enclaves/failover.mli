(** Multi-manager groups — the paper's §7 future work, implemented.

    "The main limit of the current Enclaves architecture is its
    reliance on a central group leader. In future work, we intend to
    develop a more robust and scalable version of the system where the
    single leader is replaced by a distributed set of group managers."

    This module provides that replacement in the simplest shape that
    preserves the §3.2 security argument: a {e fixed succession} of
    group managers M0, M1, … — every prospective member shares its
    long-term key with all of them (the same assumption the paper
    makes for one leader). At any time exactly one manager is
    {e primary} and runs the ordinary improved-protocol leader; the
    others are passive successors.

    Failure handling is fail-stop (a crashed manager stops sending; it
    is not Byzantine — a malicious {e manager} is outside the paper's
    trust model, which requires the leader to be trustworthy):

    - the primary announces liveness by a periodic [Notice "hb"] over
      each member's nonce-chained admin channel, so heartbeats are
      authenticated and replay-protected like any admin message;
    - each member tracks the virtual time of the last accepted admin
      message; when silence exceeds [failure_timeout] the member first
      treats the manager as merely {e slow}: it re-arms the window up
      to [retry_budget] times, retransmitting its stored [AuthInitReq]
      if the handshake is still pending. Only when the budget is
      exhausted does it declare the manager {e dead}, abandon the
      session locally and re-run the §3.2 handshake with the next
      non-crashed manager after its current target in the succession
      (so a live-but-partitioned primary is skipped, not retried
      forever);
    - managers run the same [check_period] scan on their side:
      outstanding [AuthKeyDist]/[AdminMsg] frames whose nonce survives
      a scan unchanged are re-sent; handshakes half-open for more
      than twice [failure_timeout] are garbage-collected, and a member
      that never acks an [AdminMsg] for that long is presumed dead and
      expelled — freeing its session so a re-handshake after a healed
      partition is accepted;
    - a member connected to a manager other than the current primary
      fails {e back} to the primary after [failback_after] of
      stability, so partitions heal into a single group under the
      preferred manager rather than leaving the group split.

    {2 Warm standby}

    On top of the cold member-driven failover, managers run an
    {e authenticated journal-replication channel} ({!Replication}):
    the primary journals its trust-critical state through its own
    simulated disk and ships every durable change to each backup as a
    sealed, term- and sequence-tagged frame; backups persist the
    replica through their own store backend and watch the channel for
    silence. When the primary dies, the first backup in succession
    promotes itself (thresholds are staggered by succession position,
    so at most one backup promotes per failure): it replays its
    replica exactly like a locally surviving journal and, if the
    recovered prefix holds sessions, runs {!Leader.recover} — every
    member gets a [RecoveryChallenge] under its journalled [K_a],
    answers it, and {e redirects to the successor keeping its session
    key, group key and view} (the warm path; members' cold failover
    never fires because the challenge lands well inside their patience
    budget). Only when the replica is unusable — or a member's
    challenge goes unanswered past the garbage-collection deadline —
    does that member fall back to the cold re-join path above. The
    source and every replica count into one shared instance of the
    {!Replication.Counter} layer, which also counts promotions and
    demotions ({!replication}). Each
    manager also persists a durable {e epoch vault}
    ({!Store.Vault}), so a cold promotion (or cold restart) beacons an
    epoch at least as new as any member's even if the journal tail
    lost the last bump.

    {2 Demotion and reconciliation}

    A partition can leave {e two} sources alive: the promoted
    successor at the new term and the old primary still shipping its
    dead term on the far side. The stale stream always loses (backups
    reject stale terms), but without demotion the zombie would source
    forever. Reconciliation is term-based: every replication frame a
    zombie's traffic draws back — a sealed [Repl_stale] notice bound
    to its current term, or the successor's own higher-term stream
    arriving once the partition heals — is {e authentic} evidence that
    a strictly higher term was legitimately minted (only [K_r] holders
    mint frames, and honest managers mint unique terms by
    generation-and-rank encoding, see below). On that evidence the old
    primary stops sourcing, truncates its journal back to the longest
    prefix some backup acknowledged under the common term (discarding
    the divergent suffix of partition-side expulsions and epoch
    bumps), and re-attaches to the live source as an empty
    {e catching-up} backup whose promotion watchdog stays quiet until
    the new term's opening snapshot lands. Members never notice: the
    group follows the highest live term throughout, so the heal costs
    zero member re-handshakes. A forged "you are stale" cannot demote
    a live primary (no [K_r], no seal), and a replayed one is bound to
    a dead [stale_term] and dropped.

    Promotion terms are {e generation-encoded} — [g*n + (n-1-idx)] for
    generation [g] of [n] managers — so two successors promoting
    concurrently across a partition mint distinct terms and the
    earlier-ranked manager wins the generation tie; the naive
    [term + 1] this replaces could collide exactly there.

    Security is inherited rather than re-proven: every (member,
    manager) pair runs exactly the verified two-party protocol; the
    replication channel adds no new member-facing authority because
    managers are inside the paper's trust boundary (the leader is
    trusted), and possession of the replicated [K_a] is exactly the
    warm-restart credential {!Leader.recover} already demands. A
    member accepts a challenge only under its own live session key,
    sealed by the sender bound into the AEAD associated data — forged,
    replayed or stale-term replication traffic is counted and dropped
    without moving any replica (see {!Replication}).

    The whole mechanism lives above {!Member}/{!Leader}: each manager
    is one {!Manager} process (disk, vault, sentinel and its leader
    incarnation, which a promotion rebuilds through {!Manager.restart}
    exactly as a crashed single leader is restarted), and members are
    ordinary members plus a timeout policy driven by the simulation
    clock. *)

type t

type config = {
  heartbeat_period : Netsim.Vtime.t;  (** Primary's admin heartbeat. *)
  failure_timeout : Netsim.Vtime.t;
      (** Silence after which a member suspects its manager. Must
          comfortably exceed [heartbeat_period] plus round-trip
          jitter. *)
  check_period : Netsim.Vtime.t;
      (** How often members check, and how often managers scan for
          outstanding frames to retransmit. *)
  retry_budget : int;
      (** Silent windows a member tolerates (probing its stalled
          handshake each time) before declaring the manager dead —
          the "slow vs dead" distinction: total patience is
          [(retry_budget + 1) × failure_timeout]. *)
  failback_after : Netsim.Vtime.t;
      (** How long a member stays connected to a non-preferred manager
          before drifting back to the current primary, so a healed
          partition reconverges to one group instead of staying
          split. *)
  repl_heartbeat_period : Netsim.Vtime.t;
      (** How often the primary ships a replication heartbeat to every
          backup — the backups' liveness signal during journal-quiet
          periods. *)
  warm_failover : bool;
      (** When [false], a promoting backup always takes the cold path
          (fresh group, full re-handshakes) even if its replica is
          usable — the experimental baseline warm failover is measured
          against. *)
}

val default_config : config
(** 300 ms heartbeat, 1 s timeout, 200 ms check period, 2 retries,
    1.5 s fail-back, 300 ms replication heartbeat, warm failover
    on. *)

val create :
  ?seed:int64 ->
  ?config:config ->
  ?delivery:Delivery.policy ->
  ?intrusion:Sentinel.config ->
  managers:Types.agent list ->
  directory:(Types.agent * string) list ->
  unit ->
  t
(** [create ~managers ~directory ()] builds the simulation: every
    manager runs a {!Leader} over the shared [directory]; members are
    created but not joined. With [delivery], the primary runs a
    store-and-forward {!Delivery} layer on its own disk whose durable
    queue mutations are shipped to every backup as [Repl_queue] ops;
    a promoted successor rebuilds the layer from its replicated images
    and keeps draining offline members' backlogs without member
    re-handshakes. With [intrusion], every manager runs its own
    {!Sentinel} on the shared simulation clock: the primary's instance
    feeds on its leader's rejection stream and ships suspicion
    snapshots to the backups as [Repl_suspicion] ops; a promoting
    backup merges the replicated snapshot into its own sentinel before
    serving anyone, so quarantines survive the failover.
    @raise Invalid_argument if [managers] is empty. *)

val sim : t -> Netsim.Sim.t
val net : t -> Netsim.Network.t

val start : t -> unit
(** Join every member to the current primary and start heartbeats and
    failure detection. *)

val join : t -> Types.agent -> unit
(** Join one member to the current primary. *)

val send_app : t -> Types.agent -> string -> unit

val expel : t -> Types.agent -> unit
(** Evict a member as silent on the current primary. With a delivery
    policy installed, its unacknowledged traffic is salvaged into the
    durable store-and-forward queue (and replicated to the backups);
    the member's own failure detector later re-joins it, draining the
    backlog. No-op when no manager is up. *)

val rekey : t -> unit
(** Rotate the group key on the current primary — ages any queued
    store-and-forward records against the epoch-window policy. No-op
    when no manager is up. *)

val crash_primary : t -> unit
(** Fail-stop the current primary: it is detached from the network and
    its heartbeats (admin and replication) cease. The first surviving
    backup's promotion watchdog will fire; members follow it warm via
    recovery challenges, or cold via their own failure detector. No-op
    when every manager is already down. *)

val crash_primary_at : t -> Netsim.Vtime.t -> unit
(** Schedule {!crash_primary} at an absolute virtual time — the chaos
    CLI's [--kill-primary-at] hook. *)

val primary : t -> Types.agent option
(** The manager currently sourcing the replication stream at the
    highest term; during the window between a crash and the
    successor's promotion, the first non-crashed manager in the
    succession; [None] when every manager is down (previously this
    silently reported the first manager's corpse). A partitioned old
    primary still sourcing a dead term loses the term comparison, so
    members fail back to the live group, never to a zombie. *)

type role =
  | Primary of { term : int }  (** Sourcing the stream at [term]. *)
  | Backup of { term : int; catching_up : bool }
      (** Following the stream; [catching_up] while a freshly demoted
          manager awaits the live term's opening snapshot (it is not
          promotable until then). *)
  | Down

val role : t -> Types.agent -> role
(** The replication-plane role of a manager.
    @raise Not_found for an unknown manager name. *)

val demotions : t -> int
(** Sources that received authentic higher-term evidence, stood down,
    truncated their journal to the acked prefix and rejoined as a
    catching-up backup. *)

val replica_bytes : t -> Types.agent -> string option
(** A backup's current replica bytes ([None] for a source/crashed
    manager) — what the heal tests compare against the live source's
    journal. *)

val journal_bytes : t -> Types.agent -> string option
(** A source's current journal bytes ([None] for a backup). *)

val sentinel : t -> Types.agent -> Sentinel.t option
(** A manager's intrusion sentinel, when [intrusion] was given at
    {!create}. One instance per manager, surviving its promotions and
    demotions.
    @raise Not_found for an unknown manager name. *)

val replica_suspicion : t -> Types.agent -> string option
(** The latest suspicion snapshot a backup mirrored from the primary's
    stream ([None] for a source, a crashed manager, or before the
    first escalation) — what a promotion merges via {!Sentinel.import}.
    @raise Not_found for an unknown manager name. *)

val manager_of : t -> Types.agent -> Types.agent option
(** Which manager a member is currently connected to (after its last
    completed handshake), if any. *)

val member : t -> Types.agent -> Member.t
val leader : t -> Types.agent -> Leader.t
(** The leader automaton of a given manager. *)

val run : ?until:Netsim.Vtime.t -> t -> int

val connected_members : t -> Types.agent list
(** Members currently in session with a live manager (sorted). *)

val failovers : t -> int
(** Total member failover events so far. *)

val failbacks : t -> int
(** Members that returned to the preferred primary after riding out a
    partition on a successor. *)

val replication : t -> Metrics.t
(** The run's {!Replication.Counter}s, aggregated over every source and
    replica: records and snapshots shipped, acks, gap fetches, rejected
    forged/replayed/stale frames, demotions and warm vs cold
    promotions. *)

val replica_queue_images : t -> Types.agent -> (string * string) list
(** A backup's mirrored delivery-queue images (empty for a source or a
    manager without a replica) — what a promotion would rebuild the
    successor's delivery layer from.
    @raise Not_found for an unknown manager name. *)

val replication_lag : t -> (Types.agent * int) list
(** Per-backup lag in records (current source's frontier minus that
    backup's cumulative ack); empty when no source is live. *)

val replication_silence : t -> (Types.agent * Netsim.Vtime.t) list
(** Per-backup virtual time since the last liveness-proving
    replication frame — the promotion watchdog's view of lag. *)

val stop : t -> unit
(** Cancel all heartbeat, detector and scan timers so the event queue
    can drain; existing sessions keep working, single-shot. *)
