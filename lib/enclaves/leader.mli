(** Improved-protocol group leader — the per-member state machines of
    Figure 3 plus group-level management.

    For each known user the leader runs one session automaton:
    - [NotConnected] — the user is out;
    - [WaitingForKeyAck (Nl, Ka)] — the leader answered an
      [AuthInitReq] with a fresh session key [Ka] and nonce [Nl], and
      waits for the [AuthAckKey] echoing [Nl];
    - [Connected (Na, Ka)] — the user is a member; [Na] is the most
      recent nonce received from the user, to be embedded in the next
      [AdminMsg];
    - [WaitingForAck (Nl, Ka)] — an [AdminMsg] carrying fresh [Nl] is
      outstanding; nothing more is sent to this member until the [Ack]
      echoing [Nl] arrives.

    The nonce chain serialises the admin channel per member, so the
    leader keeps a per-member queue of pending group-management
    payloads and drains it one acknowledgment at a time — this is what
    yields §5.4's "accepted in order, no duplication" property.

    Group-level duties: group-key generation and rekeying (epoch
    counter), membership bookkeeping, join/leave notifications,
    expulsion, and relay of application traffic.

    On session close the leader discards [K_a] and reports it in a
    [Member_closed] event — the paper's [Oops(K_a)]: scenarios hand the
    dead key to the adversary to model compromise of expired session
    keys. *)

type t

type policy = {
  rekey_on_join : bool;  (** Fresh [K_g] whenever a member joins. *)
  rekey_on_leave : bool;  (** Fresh [K_g] whenever a member leaves. *)
  degrade : bool;
      (** Arm the degraded-mode ladder: storage pressure
          ([No_space]/[Stalled] from the backend) triggers compaction,
          then memory-only operation, instead of escaping as an
          exception. Off is the crash-on-pressure baseline the nemesis
          harness measures the ladder against. *)
}

val default_policy : policy
(** Rekey on join and on leave, degraded-mode ladder armed — the
    conservative setting. *)

type mode = Healthy | Durability_degraded | Memory_only | Shedding
(** The degraded-mode ladder, ordered by severity. One-way down inside
    a pressure episode ({!mode} reports the worst rung reached);
    {!try_rearm} recovers to [Healthy] in a single step once the
    store accepts writes again.

    - [Durability_degraded]: a disk mirror was refused; compaction
      freed space (or is about to be retried) and writes are still
      attempted.
    - [Memory_only]: the disk refused even compaction; auth/rekey keep
      being served entirely from memory and nothing touches the
      backend until re-arm.
    - [Shedding]: the delivery byte budgets are actively dropping
      queued records oldest-first (with durable [Drop] markers). *)

val mode : t -> mode
val mode_name : mode -> string
val mode_rank : mode -> int
(** [Healthy] is 0; higher is worse. *)

val degraded_entries : t -> int
(** Ladder transitions taken downward, lifetime. *)

val rearms : t -> int
(** Successful recoveries to [Healthy], lifetime. *)

val durability_armed : t -> bool
(** Whether the journal and delivery mirrors are currently writing
    through ([false] exactly in memory-only operation). *)

val try_rearm : t -> bool
(** Probe the store: re-arm the mirrors and republish journal, queues
    and vault. Any refusal disarms again and returns [false]; success
    returns to [Healthy] and queues the all-clear notice. [true] when
    already healthy. The driver calls this from its periodic scan. *)

val mode_sweep : t -> Wire.Frame.t list
(** The pending "degraded:<mode>" sealed notice, if a ladder
    transition happened since the last sweep. Called at the end of
    {!receive}; exposed for harness-driven transitions (re-arm from a
    scan). *)

type event =
  | Member_authenticated of Types.agent
  | Member_closed of { member : Types.agent; session_key : Sym_crypto.Key.t }
  | Member_expelled of { member : Types.agent; session_key : Sym_crypto.Key.t }
  | Ack_received of Types.agent
  | App_relayed of { author : Types.agent }
  | Member_recovered of Types.agent
      (** A recovery challenge was answered: the journalled session is
          trusted again without a full re-handshake. *)
  | Cold_restart_acked of Types.agent
      (** A member answered this cold incarnation's beacon with a
          liveness challenge and was acked; its rejoin should follow. *)
  | Resync_served of Types.agent
      (** A member reported a divergent view digest and was repaired. *)
  | Rejected of {
      label : Wire.Frame.label option;
      claimed : Types.agent option;
      reason : Types.reject_reason;
    }

val pp_event : Format.formatter -> event -> unit

type session_view =
  | Not_connected
  | Waiting_for_key_ack of Wire.Nonce.t * Sym_crypto.Key.t
  | Connected of Wire.Nonce.t * Sym_crypto.Key.t
  | Waiting_for_ack of Wire.Nonce.t * Sym_crypto.Key.t
  | Recovering of Wire.Nonce.t * Sym_crypto.Key.t
      (** A [RecoveryChallenge] under the journalled [K_a] is
          outstanding; the member is not counted as a member until it
          answers. *)

val create :
  self:Types.agent ->
  rng:Prng.Splitmix.t ->
  directory:(Types.agent * string) list ->
  ?policy:policy ->
  ?journal:Journal.t ->
  ?vault:Store.Vault.t ->
  ?delivery:Delivery.t ->
  ?sentinel:Sentinel.t ->
  unit ->
  t
(** [create ~self ~rng ~directory ()] builds a leader knowing the
    password of every prospective member in [directory]. When
    [journal] is given, session establishments and closes and
    group-key epoch bumps are appended to it as they happen. When
    [vault] is given, every granted epoch is also written to the
    durable epoch vault at grant time — a second, tail-independent
    write path that survives losing the journal's last record. *)

val create_with_keys :
  self:Types.agent ->
  rng:Prng.Splitmix.t ->
  directory:(Types.agent * Sym_crypto.Key.t) list ->
  ?policy:policy ->
  ?journal:Journal.t ->
  ?vault:Store.Vault.t ->
  ?delivery:Delivery.t ->
  ?sentinel:Sentinel.t ->
  unit ->
  t
(** Like {!create} but with explicit long-term keys per member — used
    by {!Pk_auth}.
    @raise Invalid_argument if any key kind is not [Long_term]. *)

val recover :
  self:Types.agent ->
  rng:Prng.Splitmix.t ->
  directory:(Types.agent * string) list ->
  ?policy:policy ->
  journal:Journal.t ->
  ?vault:Store.Vault.t ->
  ?delivery:Delivery.t ->
  ?sentinel:Sentinel.t ->
  state:Journal.state ->
  unit ->
  t * Wire.Frame.t list
(** Warm restart from a journal recovered with {!Journal.recover}: the
    group key and epoch counter are restored (the epoch floor also
    honours [vault] when given), and each journalled
    session enters [Recovering] with a [RecoveryChallenge] sealed
    under its [K_a] (the returned frames). No journalled session is
    trusted until its member echoes the challenge nonce
    ({!event.Member_recovered}); a member that never answers is
    dropped with {!abort_recovery} — the cold path. *)

val cold_recover :
  self:Types.agent ->
  rng:Prng.Splitmix.t ->
  directory:(Types.agent * string) list ->
  ?policy:policy ->
  ?journal:Journal.t ->
  ?vault:Store.Vault.t ->
  ?delivery:Delivery.t ->
  ?sentinel:Sentinel.t ->
  state:Journal.state ->
  unit ->
  t * Wire.Frame.t list
(** Cold restart that still announces itself. No journalled session is
    trusted — every member must re-run the full handshake — but the
    journal's surviving prefix supplies two things: the epoch counter
    floor (so the group-key epoch never regresses across a cold
    restart; the floor is re-journalled immediately) and the group
    epoch to stamp into an authenticated [ColdRestart] beacon per
    directory member (the returned frames), sealed under each member's
    long-term [P_a]. When [vault] is given the beacon epoch (and the
    floor) is the {e maximum} of the journal's belief and the vault's
    — this is what closes E19b's residue: a torn tail that loses the
    final [Epoch_bump] record no longer makes the beacon look stale to
    members who saw that bump, because the vault slot survived. Members that verify the beacon challenge this
    leader's liveness and, on the ack, rejoin immediately instead of
    waiting out their anti-entropy watchdog. Only the incarnation
    created by this call answers those challenges. *)

val self : t -> Types.agent
val receive : t -> ?via:Netsim.Trace.via -> string -> Wire.Frame.t list
(** Dispatch one raw inbound frame. [via] is the transport-vouched
    injection path of the frame, when the caller (the driver) has it:
    every rejection scored during the dispatch attributes its sentinel
    evidence to that path rather than to the frame's claimed sender.
    Omitting it degrades to claimed-sender attribution — the right
    default for direct unit-test calls. *)

val session : t -> Types.agent -> session_view
val members : t -> Types.agent list
(** Users currently in session (sorted). *)

val group_key : t -> Types.group_key option

val enqueue_admin : t -> Types.agent -> Wire.Admin.t -> Wire.Frame.t list
(** Queue a group-management payload for one member; returns the
    [AdminMsg] frame immediately if the member's channel is idle.
    Payloads for users not in session are discarded. *)

val broadcast_admin : t -> Wire.Admin.t -> Wire.Frame.t list
(** {!enqueue_admin} to every current member. *)

val rekey : t -> Wire.Frame.t list
(** Generate a fresh group key (next epoch) and distribute it to all
    members via the admin channel. *)

val expel : t -> Types.agent -> Wire.Frame.t list
(** Eject a member: discard its session key (reported via
    [Member_expelled] — an Oops), notify the remaining members, and
    rekey if the policy says so. With a delivery layer, the expelled
    member is additionally marked offline: its unfired channel backlog
    is salvaged into its durable queue, and subsequent broadcasts are
    journalled for it instead of dropped, to be drained when it
    reconnects warm (recovery challenge) or cold (re-join). *)

(** {2 Store-and-forward} *)

val mark_offline : t -> Types.agent -> unit
(** Flag a directory member as offline/partitioned: broadcast traffic
    addressed to it is journalled in the delivery layer (when present)
    instead of dropped. No-op for users not in the directory. *)

val mark_online : t -> Types.agent -> Wire.Frame.t list
(** The partition healed: clear the offline mark and, if the member is
    in session, drain its durable queue into the admin channel (the
    returned frames start the drain). Out of session the mark is kept
    until an actual reconnect drains the queue. *)

val offline_members : t -> Types.agent list
(** Members currently marked offline, sorted. *)

val is_offline : t -> Types.agent -> bool

val delivery : t -> Delivery.t option
(** The store-and-forward layer this leader journals offline traffic
    through, if any. *)

(** {2 Intrusion containment} *)

val sentinel : t -> Sentinel.t option
(** The online intrusion sentinel feeding on this leader's rejection
    stream, if any. Every {!event.Rejected} scores evidence against
    the claimed sender; half-open GCs ({!abort_half_open}) score
    [Half_open]. *)

val containment_sweep : t -> Wire.Frame.t list
(** Contain every directory member the sentinel holds at [Quarantined]
    or above and not yet acted on: tear down its session {e without}
    store-and-forward salvage, durably purge its delivery queue,
    broadcast a ["quarantined:<who>"] notice, and force an emergency
    rekey retiring every key the suspect held. Idempotent — already
    contained suspects are skipped; claimed names outside the
    directory are left to admission control. Runs automatically at the
    end of every {!receive}; the driver's periodic scan calls it too,
    to catch escalations fed by half-open GC between frames.

    The same pass issues {e liveness challenges}: an in-session
    directory member whose raw score is quarantine-level but
    corroboration-blocked (see {!Sentinel.challenge_due}) is sent a
    sealed ["liveness-challenge"] admin notice; the routine sealed ack
    that comes back attests the member is the genuine key holder and
    wipes its off-path (framed) score. *)

val retransmit : t -> Types.agent -> Wire.Frame.t list
(** The stored outstanding frame for this member, byte-identical to
    its first transmission: the [AuthKeyDist] when
    [WaitingForKeyAck], the [AdminMsg] when [WaitingForAck]; empty
    otherwise. Re-sending advances no state and re-appends nothing to
    [snd_A]. *)

val half_open : t -> Types.agent list
(** Members with an outstanding handshake ([WaitingForKeyAck]),
    sorted — candidates for timeout-driven retransmission or GC. *)

val awaiting_ack : t -> Types.agent list
(** Members with an outstanding [AdminMsg] ([WaitingForAck]),
    sorted. *)

val recovering : t -> Types.agent list
(** Sessions with an outstanding [RecoveryChallenge], sorted —
    candidates for retransmission or {!abort_recovery}. *)

val abort_recovery : t -> Types.agent -> bool
(** Give up on an unanswered recovery challenge: discard the
    journalled key (reported via [Member_closed] — an Oops) and reset
    the session to [NotConnected]. Returns whether a recovery was
    actually aborted. *)

val view_digest : t -> string
(** {!Wire.Admin.view_digest} of the current member list and key
    epoch. *)

val recoveries : t -> int
(** Sessions recovered warm (challenges answered) since creation. *)

val resyncs_served : t -> int
(** Divergent view digests repaired since creation. *)

val abort_half_open : t -> Types.agent -> bool
(** Garbage-collect a half-open handshake: reset the session to
    [NotConnected], discarding the provisional session key. The user
    was never a member, so no notices or rekeys are emitted. Returns
    whether a handshake was actually aborted. *)

val sent_admin : t -> Types.agent -> Wire.Admin.t list
(** The ordered list [snd_A]: admin payloads sent to this member in
    its current session (§5.4). Reset when the session closes. *)

val pending_admin : t -> Types.agent -> Wire.Admin.t list
(** Queued payloads not yet put on the wire. *)

val drain_events : t -> event list
