(** Durable leader journal — an append-only, checksummed,
    truncation-tolerant binary log of the leader's trust-critical
    state: session establishments and closes, and group-key epoch
    bumps.

    The journal is what makes leader failover {e warm}: after a crash
    the replacement process replays the surviving bytes, recovers the
    last consistent prefix, and re-validates each recovered session
    with a live challenge over the journalled [K_a] before trusting it
    (see {!Leader.recover}). PR-2's failover was deliberately cold —
    "no state of the dead manager is trusted"; the journal upgrade is
    "no state of the dead manager is trusted {e until it answers a
    challenge under the key only that member and the leader hold}".

    {2 Format}

    {v
    header  := "EJNL" version:u8(=1)
    record  := len:u32 payload:len sum:8
    payload := seq:u32 tag:u8 fields...
    v}

    [sum] is SipHash-2-4 of the payload under the journal's MAC key.
    Records are framed independently, so any {e tail} damage — a torn
    final write, truncation at an arbitrary byte, a flipped bit — costs
    at most the records from the damage onward: {!replay} walks
    records in order and stops at the first length that overruns the
    buffer, checksum mismatch, malformed payload, or out-of-sequence
    record, returning the valid prefix. It never raises on any input.

    {2 Compaction}

    A [Snapshot] record captures the whole folded state; {!compact}
    rewrites the journal as a single snapshot, and {!append}
    auto-compacts once enough records accumulate since the last
    snapshot, so the journal's size is bounded by the live-session
    count, not the session churn. *)

type record =
  | Session_established of { member : Types.agent; key : string }
      (** A member completed the §3.2 handshake; [key] is the raw
          session key [K_a]. *)
  | Session_closed of { member : Types.agent }
      (** The session ended (leave, expulsion, or recovery
          fallback) — the journalled [K_a] is no longer trusted. *)
  | Epoch_bump of { key : string; epoch : int }
      (** A fresh group key [K_g] was generated for [epoch]. *)
  | Snapshot of state
      (** The folded state of everything before this record. *)

and state = {
  sessions : (Types.agent * string) list;
      (** Live sessions, sorted by member name; raw [K_a] bytes. *)
  group_key : (string * int) option;  (** Raw [K_g] bytes and epoch. *)
  next_epoch : int;
}

val empty_state : state

val pp_record : Format.formatter -> record -> unit
val record_equal : record -> record -> bool

type status =
  | Clean  (** Every byte of the buffer parsed and verified. *)
  | Damaged of { valid_records : int; valid_bytes : int }
      (** Replay stopped early; only the prefix described here was
          recovered. *)

val pp_status : Format.formatter -> status -> unit

type t

val create :
  ?mac_key:string ->
  ?compact_every:int ->
  ?disk:Store.Backend.t ->
  ?file:string ->
  unit ->
  t
(** An empty journal. [mac_key] (16 bytes, default a fixed public key)
    keys the per-record SipHash checksum; [compact_every] (default
    [256]) is the record count past which {!append} folds the log into
    a snapshot.

    With [disk], every mutation is mirrored through the store backend
    to [file] (default ["journal"]) before returning: appends are an
    incremental [pwrite] at the record's offset followed by [fsync];
    anything that replaces the image (creation, compaction)
    stages the full bytes in [file ^ ".tmp"], fsyncs, then atomically
    renames over [file]. Transient [Store.Backend.Eio] is retried a
    bounded number of times (see {!Counter.eio_retries});
    [Store.Backend.Crashed] propagates.
    @raise Invalid_argument if [mac_key] is not 16 bytes or
    [compact_every < 1]. *)

val append : t -> record -> unit
(** Append one checksummed record; may trigger auto-compaction. *)

val compact : t -> unit
(** Rewrite the journal as one [Snapshot] of the current folded
    state. *)

val state : t -> state
(** The folded state of every record appended so far (maintained
    incrementally; O(1)). *)

val records : t -> int
(** Records currently in the buffer (snapshot included). *)

val contents : t -> string
(** The raw journal bytes — with a [disk] backend, byte-identical to
    the file after every successful fault-free mutation. *)

module Counter : sig
  val layer : Metrics.layer

  val eio_retries : Metrics.key
  (** Transient-EIO retries absorbed by the write-through path. *)
end

val counters : t -> Metrics.t

val file : t -> string
(** The backing file name (meaningful only with a [disk] backend). *)

type event =
  | Appended of string
      (** One framed record (len + payload + checksum) was appended;
          the argument is exactly the bytes that extended the image. *)
  | Published of string
      (** The whole image was replaced (a compaction); the
          argument is the complete new journal bytes. *)

val set_observer : t -> (event -> unit) option -> unit
(** Mutation hook — the warm-standby replication source subscribes
    here to ship every durable change to the backup managers. Fired
    {e after} the disk write-through succeeds, so an observed event
    describes bytes that are already durable locally. At most one
    observer; [None] unsubscribes. *)

val set_durable : t -> bool -> unit
(** Degraded-mode switch. With durability off, appends keep evolving
    the in-memory log (and still fire the observer) but nothing
    touches the backend — the disk image goes stale. Re-arm with
    [set_durable t true] followed by {!compact}, which republishes the
    whole image atomically. *)

val durable : t -> bool

val replay : ?mac_key:string -> string -> record list * status
(** [replay bytes] decodes the longest valid prefix of [bytes]. Total:
    never raises, for arbitrary (truncated, bit-flipped, adversarial)
    input. *)

val state_of_records : record list -> state
(** Fold records into the state they describe. A [Snapshot] replaces
    the accumulated state; establishment/close/bump update it. *)

val of_state :
  ?mac_key:string ->
  ?compact_every:int ->
  ?disk:Store.Backend.t ->
  ?file:string ->
  state ->
  t
(** A fresh journal compacted to a snapshot of [state] — {!recover}
    once the state is known. *)

val recover :
  ?mac_key:string ->
  ?compact_every:int ->
  ?disk:Store.Backend.t ->
  ?file:string ->
  string ->
  t * state * status
(** [recover bytes] is the crash-recovery entry point: {!replay} the
    surviving bytes, fold the valid prefix, and return a fresh journal
    already compacted to a snapshot of that state (plus the state and
    the damage report). With [disk], the fresh journal writes through
    to it. *)

val load :
  ?mac_key:string ->
  ?compact_every:int ->
  ?file:string ->
  disk:Store.Backend.t ->
  unit ->
  t * state * status
(** {!recover} from whatever bytes the backend holds for [file] — the
    restart-from-disk entry point. A missing file recovers the empty
    state. *)
