(** Durable per-member delivery queue — a {!Log} record log of
    store-and-forward records.

    The leader keeps one of these per offline member: traffic that
    would otherwise be dropped is [push]ed (durable on return); when
    the member reconnects and acknowledges drained records the [ack]
    floor advances and compaction reclaims everything below it. The
    framing, write-through, compaction and total replay are
    {!Log.Make}'s, under magic ["EDLQ"] and the queue's own public MAC
    key. The record log's [seq] (reset by compaction) is distinct from
    the delivery sequence numbers carried inside [Push] records. *)

type entry = { seq : int; epoch : int; payload : string }
(** One queued message: its delivery sequence number (assigned by
    {!push}, monotone per queue, never reused), the group epoch it was
    sealed under when queued, and the opaque payload bytes. *)

type state = { next_seq : int; floor : int; pending : entry list }
(** The folded queue state: the next delivery seq to assign, the ack
    floor (every seq below it has been delivered and acknowledged),
    and the pending entries in seq order. *)

val empty_state : state

type record =
  | Push of entry  (** A message entered the queue. *)
  | Ack of { upto : int }
      (** Every seq below [upto] was delivered and acknowledged — the
          compaction floor advances. *)
  | Drop of { seq : int }
      (** One pending record was rejected (stale-epoch policy) without
          being delivered. *)
  | Snapshot of state
      (** The folded state of everything before this record. *)

val pp_record : Format.formatter -> record -> unit
val record_equal : record -> record -> bool

type status = Log.status =
  | Clean
  | Damaged of { valid_records : int; valid_bytes : int }

val pp_status : Format.formatter -> status -> unit

type t

val create :
  ?compact_every:int ->
  ?disk:Backend.t ->
  ?file:string ->
  ?durable:bool ->
  unit ->
  t
(** An empty queue. [compact_every] (default [64]) is the record count
    past which mutations fold the log into a snapshot of the pending
    suffix. With [disk], every mutation is mirrored through the
    backend to [file] (default ["queue"]) before returning (see
    {!Log.Mirror}). [durable] (default true) is the initial state of
    the {!set_durable} switch — [false] lets a queue be created while
    the backend is refusing writes, to be re-armed later.
    @raise Invalid_argument if [compact_every < 1]. *)

val push : t -> epoch:int -> string -> entry
(** Append one message sealed under group [epoch]; returns the entry
    with its assigned delivery seq. Durable when it returns. *)

val ack : t -> upto:int -> unit
(** Advance the ack floor to [upto] (no-op if it would regress);
    pending entries below the floor are discarded and reclaimed by the
    next compaction. *)

val drop : t -> seq:int -> unit
(** Durably reject one pending record without delivering it (the
    stale-epoch policy's reject arm). No-op if [seq] is not pending. *)

val compact : t -> unit
(** Rewrite the log as one [Snapshot] of the current state. *)

val state : t -> state
val pending : t -> entry list
(** Pending entries in delivery-seq order (O(1); maintained
    incrementally). *)

val floor : t -> int
val next_seq : t -> int
val depth : t -> int
(** [List.length (pending t)]. *)

val records : t -> int

val resolved : t -> int
(** Records appended since the last snapshot that left bytes carrying
    no pending data: every [Ack] and [Drop], and any [Push] below the
    ack floor (which the fold ignores). An entry stops being pending
    only through such a record, so [resolved t > 0] is exactly when
    the log holds bytes {!compact} can fold away without losing a
    pending entry. *)

val size : t -> int
val contents : t -> string
val file : t -> string

type event = Log.event =
  | Appended of string  (** One framed record extended the image. *)
  | Published of string  (** The whole image was replaced. *)

val set_observer : t -> (event -> unit) option -> unit
(** Mutation hook, fired after the disk write-through succeeds — the
    delivery layer subscribes here to replicate queue images to the
    warm-standby managers. At most one observer; [None] unsubscribes. *)

val set_durable : t -> bool -> unit
(** Degraded-mode switch. With durability off, mutations keep evolving
    the in-memory image but nothing touches the backend — the disk
    image goes stale until {!rearm}. *)

val durable : t -> bool

val rearm : t -> bool
(** Durability back on and {!compact}, which republishes the whole
    image atomically; [false] (and durability back off) if the store
    still refuses it with [No_space] or [Stalled]. *)

val replay : string -> record list * status
(** Decode the longest valid prefix of arbitrary bytes. Total: never
    raises. *)

val state_of_records : record list -> state
(** Fold records into the state they describe. Replayed [Push]es below
    the floor or duplicating a pending seq are ignored, so replaying a
    damaged image can never resurrect an acknowledged delivery. *)

val recover :
  ?compact_every:int ->
  ?disk:Backend.t ->
  ?file:string ->
  string ->
  t * state * status
(** {!replay} the surviving bytes, fold the valid prefix, and return a
    fresh queue already compacted to a snapshot of that state. *)

val load :
  ?compact_every:int ->
  ?file:string ->
  disk:Backend.t ->
  unit ->
  t * state * status
(** {!recover} from whatever bytes the backend holds for [file]. A
    missing file recovers the empty state. *)
