(** Online intrusion sentinel: streaming per-peer evidence scores with
    time decay, injection-path attribution and a containment ladder.

    The paper's audit trail (§7) is offline; the sentinel moves the
    same signals — MAC failures, replays, stale rekeys, half-open
    handshake churn, pre-auth pressure — into the live leader. Each
    evidence event adds a weighted increment to the peer's score, and
    quiet time halves it every [half_life]; crossing a threshold
    ratchets the peer's containment level up (never down — a
    quarantined insider cannot talk its way back in by going quiet,
    only explicit operator re-admission via a fresh directory entry
    would).

    {b Attribution.} A frame's claimed sender is attacker-controlled;
    its injection path (see {!Netsim.Trace.via}) is vouched for by the
    transport. Evidence is therefore charged to the path first: a frame
    arriving over a peer's own socket scores that peer at full weight
    ("on-path"); a frame merely {e claiming} a peer while arriving
    elsewhere scores the claimed name only at the discounted
    [wire_discount] ("off-path"), with the full weight going to the
    actual path principal — the socket owner, or the {!wire_peer}
    pseudo-peer for raw wire injections. Off-path score alone — the
    only thing a key-less framer can manufacture — can never cross
    [Quarantined]: the {b corroboration gate} requires either enough
    on-path score to clear the quarantine threshold by itself or two
    independent on-path evidence classes, and clamps everything else at
    [Rate_limited]. A corroboration-blocked peer can additionally be
    {b challenged} (a sealed liveness notice only the genuine
    session-key holder can ack); a successful attestation wipes its
    off-path score, so a framed-but-honest member arrests its own
    escalation while an insider's on-path record is untouched.

    The ladder and what each rung means to the leader:
    - [Rate_limited] — pre-auth token refill cut to a quarter; the
      peer still operates normally once authenticated.
    - [Quarantined] — inbound frames dropped before protocol
      processing, session expelled with an emergency rekey (the
      suspect's key material retired group-wide), delivery queue
      purged instead of salvaged, pre-auth denied.
    - [Expelled] — permanent: survives leader failover via suspicion
      replication ({!export}/{!import} ride a [Repl_suspicion] op).

    Thresholds are calibrated against both the chaos suite and the
    intruder arms (see [enclaves_cli calibrate]): a clean member under
    10% link loss must never reach [Quarantined], and neither may an
    honest victim framed by a wire-level outsider.

    What the sentinel did is counted in its {!Counter} layer (a
    {!Metrics} instance that lives as long as the sentinel, i.e.
    across leader restarts); the driver's pre-auth door counts its own
    queue drops and blocked injections. *)

type level = Clear | Rate_limited | Quarantined | Expelled

val level_rank : level -> int
(** [Clear]=0 … [Expelled]=3; the ladder ratchets toward higher ranks. *)

val level_name : level -> string

type evidence =
  | Mac_failure  (** A seal failed to open under the expected key. *)
  | Replay  (** Stale nonce / already-seen admin sequence. *)
  | Stale_rekey  (** Rekey ack or traffic under a retired epoch. *)
  | Half_open  (** A handshake the leader GC'd without completion. *)
  | Preauth_pressure  (** One unauthenticated handshake attempt. *)
  | Malformed  (** Undecodable or wrong-state frame. *)
  | Contained  (** Traffic from an already-quarantined peer. *)

val evidence_name : evidence -> string

type config = {
  half_life : Netsim.Vtime.t;  (** Quiet time that halves a score. *)
  rate_limit_at : float;
  quarantine_at : float;
  expel_at : float;
  w_mac_failure : float;
  w_replay : float;
  w_stale_rekey : float;
  w_half_open : float;
  w_preauth : float;
  w_malformed : float;
  w_contained : float;
  preauth_rate : float;  (** Token-bucket refill, tokens per second. *)
  preauth_burst : float;  (** Token-bucket capacity. *)
  half_open_cap : int;  (** Max concurrent half-open handshakes. *)
  attribution : bool;
      (** Master switch for path attribution, the corroboration gate
          and challenges. [false] reproduces the pre-attribution
          sentinel exactly (every frame scored at full weight against
          its claimed sender) — the calibration sweep's baseline. *)
  wire_discount : float;
      (** Weight multiplier for off-path evidence against a claimed
          sender, in [0,1]. *)
  corroborate_floor : float;
      (** Decayed on-path class score at or above which that class
          counts as "live" for the two-class corroboration rule. *)
  challenge_cooldown : Netsim.Vtime.t;
      (** Minimum spacing between liveness challenges to one peer. *)
}

val default_config : config

val wire_peer : string
(** The pseudo-peer charged at full weight for every [Via_wire] frame.
    Not a legal member name; once {e it} reaches [Quarantined] the
    driver drops raw wire injections at the leader's door. *)

(** What the sentinel did during a run, one instance per sentinel. The
    driver's pre-auth door keeps its own counts
    ({!Driver.Improved.Counter}). *)
module Counter : sig
  val layer : Metrics.layer

  val observations : Metrics.key
  (** Evidence events scored, all peers summed. *)

  val rate_limits : Metrics.key  (** Escalations into [Rate_limited]. *)

  val quarantines : Metrics.key  (** Escalations into [Quarantined]. *)

  val expulsions : Metrics.key  (** Escalations into [Expelled]. *)

  val emergency_rekeys : Metrics.key
  (** Group rekeys forced by containment, retiring the suspect's key
      material group-wide. *)

  val quarantined_dropped : Metrics.key
  (** Inbound frames from quarantined peers dropped before protocol
      processing. *)

  val preauth_admitted : Metrics.key  (** Pre-auth frames passed to the handshake. *)

  val preauth_throttled : Metrics.key
  (** Pre-auth frames denied by the token bucket. *)

  val preauth_capped : Metrics.key
  (** Pre-auth frames denied by the half-open cap. *)

  val queues_purged : Metrics.key
  (** Quarantined members' delivery queues durably purged instead of
      salvaged. *)

  val suspicion_shipped : Metrics.key  (** Suspicion snapshots shipped to backups. *)

  val suspicion_imported : Metrics.key
  (** Suspicion snapshots adopted by a promoted successor. *)

  val wire_observations : Metrics.key
  (** Evidence events whose frame arrived [Via_wire] — charged at full
      weight to the wire pseudo-peer, not the claimed name. *)

  val off_path_observations : Metrics.key
  (** Evidence events charged to a claimed sender at the discounted
      weight because the frame did not arrive over its socket. *)

  val framing_holds : Metrics.key
  (** Times the corroboration gate clamped a raw quarantine-level score
      back to [Rate_limited] because the evidence lacked an on-path or
      two-class basis. *)

  val challenges_issued : Metrics.key
  (** Liveness challenges sent to corroboration-blocked peers ("prove
      liveness under your session key"). *)

  val attestations : Metrics.key
  (** Challenges answered by a live session-key ack, relieving the
      answering peer's off-path score. *)
end

type t

val create : ?config:config -> ?clock:(unit -> Netsim.Vtime.t) -> unit -> t
(** [clock] feeds decay and token refill; the driver passes the
    simulator clock. The default constant-zero clock makes the
    sentinel a pure accumulator (no decay, no refill) — convenient for
    direct unit tests. *)

val config : t -> config
val counters : t -> Metrics.t

val observe : t -> peer:string -> evidence -> level
(** Score one on-path evidence event against [peer] and return the
    peer's (possibly escalated) level. Equivalent to {!observe_via}
    with [~via:(Via_socket peer)] — the caller asserts the frame
    arrived over [peer]'s own connection. Escalations ship a suspicion
    snapshot through the {!set_ship} hook. *)

val observe_via :
  t -> claimed:string -> via:Netsim.Trace.via -> evidence -> level
(** Score one evidence event for a frame claiming [claimed] that
    arrived over [via], splitting the weight per the attribution rules
    above, and return [claimed]'s (possibly escalated) level. With
    [attribution = false] this degrades to full weight against
    [claimed] regardless of path. *)

val score : t -> string -> float
(** The peer's total score (on-path + off-path) decayed to now; 0 for
    unknown peers. *)

val level : t -> string -> level

val peers : t -> string list
(** Every peer the sentinel holds state for (including [Clear] ones
    and {!wire_peer} if charged), sorted by name. *)

val suspects : t -> (string * level) list
(** Every peer above [Clear], sorted by name. *)

val contained : t -> string list
(** Peers at [Quarantined] or above — the set the leader must not
    serve, sorted by name. *)

val challenge_due : t -> string -> bool
(** Whether the leader should issue a liveness challenge to this peer
    now: its raw score sits at [Quarantined] or above but the
    corroboration gate is holding it down, no challenge is
    outstanding, and the per-peer cooldown has passed. Always [false]
    with [attribution = false]. *)

val note_challenged : t -> string -> unit
(** Record that the leader issued a liveness challenge to this peer;
    opens the outstanding-challenge window {!note_attested} closes. *)

val note_attested : t -> string -> bool
(** The peer answered an outstanding challenge under its live session
    key: wipe its off-path score (its own on-path record is kept) and
    return [true]. [false] — and no relief — when no challenge was
    outstanding, so unsolicited acks prove nothing. *)

type verdict = Admit | Throttled | Capped | Denied_quarantined

val verdict_name : verdict -> string

val admit_preauth :
  t ->
  ?via:Netsim.Trace.via ->
  peer:string ->
  known:bool ->
  resuming:bool ->
  half_open:int ->
  unit ->
  verdict
(** Admission check for one unauthenticated handshake frame claiming
    identity [peer]. [known] is whether the name is in the directory —
    known names each get their own token bucket, unknown names share
    one (so a fake-name flood starves itself, not real users).
    [resuming] (the peer already has a half-open handshake in
    progress) bypasses the bucket and cap: retransmissions of a
    legitimate join must not be throttled into that join's own
    failure. [half_open] is the leader's current half-open count for
    the cap. Every call scores [Preauth_pressure] evidence, so a flood
    of individually valid frames still escalates.

    When [via] is given (and attribution is on) the token bucket is
    charged to the {e path principal} — the socket owner, or
    {!wire_peer} for wire injections — so a flood under a victim's
    name drains the flooder's budget, never the victim's; admission is
    denied if either the claimed name or the path principal is
    quarantined. Omitting [via] preserves the claimed-name behavior. *)

val note_quarantined_drop : t -> ?via:Netsim.Trace.via -> string -> unit
(** Record an inbound frame dropped because the named peer is
    quarantined; also scores [Contained] evidence (attributed per
    [via], claimed-sender by default) so a persistent attacker
    escalates to [Expelled]. *)

val note_emergency_rekey : t -> unit
val note_queue_purged : t -> unit

val set_ship : t -> (string -> unit) -> unit
(** Hook fired with {!export}'s blob on every level escalation; the
    failover plane wires it to [Replication.Source.ship_suspicion]. *)

val export : t -> string
(** Deterministic ["suspicion/2"] snapshot (peers sorted, scores
    bit-exact) of every peer's per-class on-path scores, off-path
    score, level and last-update time. *)

val import : t -> string -> int
(** Merge a snapshot: both sides' score slots are decayed to the later
    timestamp and joined slot-wise by max, and levels ratchet to the
    higher of local and imported — a join-semilattice merge, so
    replicated suspicion converges under any delivery order. v1 lines
    (aggregate-score snapshots from pre-attribution leaders) fold into
    the off-path slot: they ratchet levels and keep scores warm but
    never manufacture corroboration. Malformed lines are ignored.
    Returns the number of peers whose level escalated. Used at
    failover promotion so the successor keeps quarantines. *)

val pp_suspects : Format.formatter -> t -> unit
