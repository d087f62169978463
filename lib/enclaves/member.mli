(** Improved-protocol group member — the user state machine of
    Figure 2.

    A member is in one of three protocol states:
    - [NotConnected] — out of the group;
    - [WaitingForKey N1] — sent [AuthInitReq] carrying fresh nonce
      [N1], awaiting the leader's [AuthKeyDist];
    - [Connected (Na, Ka)] — in session with key [Ka]; [Na] is the last
      nonce this member generated and is the freshness evidence the
      next [AdminMsg] from the leader must present.

    Beyond the Figure 2 skeleton the member tracks the application
    state an Enclaves user needs: the current group key (delivered in
    [New_group_key] admin messages), its view of the membership, the
    ordered log of accepted admin messages ([rcv_A] of §5.4), and
    decrypted application traffic.

    Any frame that fails authentication, parsing, an identity check, a
    nonce check, or arrives in the wrong state is {e rejected}: the
    member's protocol state does not change and a [Rejected] event is
    recorded. This silent-drop discipline is the intrusion tolerance —
    attacker bytes cannot make the automaton move.

    One carve-out makes the automaton retransmission-tolerant without
    weakening that discipline: an authenticated {e duplicate} of the
    last frame this member already answered (an [AuthKeyDist] whose
    [N2] it already acked, or an [AdminMsg] whose nonce it already
    acked) elicits a re-send of the stored answer — a frame that was
    already on the wire — with no state change and no fresh
    randomness. Lost acks therefore heal instead of wedging the peer,
    and a replaying attacker gains nothing. *)

type t

type event =
  | Joined of { session_key : Sym_crypto.Key.t }
  | Admin_accepted of Wire.Admin.t
  | App_received of { author : Types.agent; body : string }
  | Left
  | Recovery_challenged of { from : Types.agent }
      (** [from] proved possession of [K_a]; the admin nonce chain was
          re-seeded and the §5.4 log restarted. [from] is usually the
          leader that restarted, but may be a warm-promoted successor
          manager that recovered the session from the replicated
          journal — in that case this member retargeted its leader to
          [from] (the {e warm handoff}: session key, group key and
          view all survive). *)
  | Cold_beacon_challenged of { epoch : int }
      (** A [ColdRestart] beacon verified under [P_a]; a liveness
          challenge was sent back. The session is untouched. *)
  | Beacon_reset of { epoch : int }
      (** The leader answered the challenge: the dead session was
          dropped and a rejoin started — without waiting for the
          anti-entropy watchdog. *)
  | View_diverged of { leader_epoch : int }
      (** A [View_digest] beacon did not match this member's own view;
          a resync request was sent. *)
  | Rejected of { label : Wire.Frame.label option; reason : Types.reject_reason }

val pp_event : Format.formatter -> event -> unit

type state_view =
  | Not_connected
  | Waiting_for_key of Wire.Nonce.t
  | Connected of Wire.Nonce.t * Sym_crypto.Key.t

val create :
  self:Types.agent -> leader:Types.agent -> password:string ->
  rng:Prng.Splitmix.t -> t
(** [create ~self ~leader ~password ~rng] builds a member holding the
    long-term key [P_a] derived from [password]. *)

val create_with_key :
  self:Types.agent -> leader:Types.agent -> long_term:Sym_crypto.Key.t ->
  rng:Prng.Splitmix.t -> t
(** Like {!create} but with explicit long-term key material — used by
    {!Pk_auth} for the public-key authentication variant.
    @raise Invalid_argument if the key kind is not [Long_term]. *)

val self : t -> Types.agent

val leader : t -> Types.agent
(** The manager this member currently follows — the [leader] it was
    created with until a warm handoff retargets it (see
    [Recovery_challenged]). *)

val state : t -> state_view
val is_connected : t -> bool

val join : t -> Wire.Frame.t list
(** Start the §3.2 handshake: emits [AuthInitReq]. No-op (empty list)
    unless [NotConnected]. *)

val retransmit_join : t -> Wire.Frame.t list
(** The stored [AuthInitReq] of the outstanding handshake, for
    timeout-driven retransmission; empty unless [WaitingForKey]. The
    same frame (same [N1]) is re-sent, so the leader recognises the
    duplicate and answers with its stored [AuthKeyDist]. *)

val leave : t -> Wire.Frame.t list
(** Emit [ReqClose] sealed under [K_a] and drop to [NotConnected].
    No-op unless connected. *)

val receive : t -> string -> Wire.Frame.t list
(** Feed raw network bytes; returns frames to send in response. *)

val send_app : t -> string -> Wire.Frame.t list
(** Encrypt an application message under the current group key and
    address it to the leader for relay. Empty if no group key yet. *)

val group_key : t -> Types.group_key option
val group_view : t -> Types.agent list
(** This member's belief about current membership (sorted). *)

val accepted_admin : t -> Wire.Admin.t list
(** The ordered list [rcv_A]: every admin message accepted so far in
    the current session. Reset on leave. *)

val app_log : t -> (Types.agent * string) list
(** Decrypted application messages, oldest first. *)

val resync_request : t -> Wire.Frame.t list
(** A [ViewResyncReq] carrying this member's own view digest and key
    epoch, sealed under [K_a] — sent spontaneously as a liveness probe
    or automatically when a beacon mismatches. Empty unless
    connected. *)

val digests_seen : t -> int
(** [View_digest] beacons accepted (cumulative). *)

val delivery_floor : t -> int
(** Store-and-forward dedup floor: every [Queued] wrapper with a seq
    below this has been applied. Cumulative — survives session resets,
    so at-least-once redelivery after a reconnect is absorbed rather
    than applied twice. *)

(** Counters cumulative across sessions; a deployment sums them over
    its members. *)
module Counter : sig
  val layer : Metrics.layer

  val divergences_detected : Metrics.key
  (** Beacons that mismatched this member's own view. *)

  val deduped : Metrics.key
  (** Drained [Queued] records skipped as duplicates by the delivery
      floor. *)
end

val counters : t -> Metrics.t

val stale_deliveries : t -> int
(** Drained records marked stale by the leader's epoch-window policy —
    recorded but applied with no state effect (cumulative). *)

val queued_applied : t -> int list
(** Delivery seqs applied so far, in application order — the churn
    harness asserts these are duplicate-free. *)

val consume_beacon_reset : t -> bool
(** [true] exactly once after a completed cold-restart beacon
    handshake reset this member's session — the driver's hook for
    counting beacon re-authentications and re-arming watchdogs. *)

val drain_events : t -> event list
(** Events since the last drain, oldest first. *)

val session_key : t -> Sym_crypto.Key.t option
(** [K_a] when connected (exposed for tests and Oops modelling). *)
