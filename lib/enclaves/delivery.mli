(** Store-and-forward delivery queues for offline members.

    One durable {!Store.Queue} per member, holding the encoded admin
    payloads addressed to it while it was evicted-as-silent or
    partitioned, plus the {e epoch-window policy} governing queued
    traffic vs rekey: a record queued under an epoch the group has
    since rotated past is re-sealed under the member's live session
    key if it aged at most [width] epochs (inclusive), and otherwise
    either delivered flagged stale (applied with no state effect at
    the member, flagged as an {!Audit} anomaly) or durably rejected.

    Queues hold plaintext payloads; the seal happens at fire time
    under the live [K_a], so the re-seal arm never exposes or reuses
    rotated key material — see the trust argument in DESIGN.md §10. *)

type stale_action =
  | Deliver_stale
      (** Deliver beyond-window records marked [stale]; the member
          records them without applying any state effect. *)
  | Reject  (** Durably drop beyond-window records undelivered. *)

type policy = { width : int; on_stale : stale_action }
(** [width] is the inclusive epoch-window: a record whose queued epoch
    is at most [width] rotations behind the current one is still
    delivered fresh (re-sealed). *)

val default_policy : policy
(** [{ width = 1; on_stale = Reject }]. *)

val pp_policy : Format.formatter -> policy -> unit

(** Store-and-forward counters, one instance per delivery layer (a
    leader incarnation's); {!Manager} banks them across incarnations. *)
module Counter : sig
  val layer : Metrics.layer
  val queued : Metrics.key  (** Records pushed into any queue. *)

  val drained : Metrics.key  (** Records handed to the session channel. *)

  val resealed : Metrics.key
  (** Drained records re-sealed under the live session key because the
      group rotated past their queued epoch — counted at fire time, so
      a rekey racing a drain in flight counts too. *)

  val rejected_stale : Metrics.key  (** Records dropped beyond the window. *)

  val delivered_stale : Metrics.key
  (** Records delivered flagged stale (policy [Deliver_stale]). *)

  val queue_bytes_hwm : Metrics.key
  (** High-water mark of the summed queue image sizes; banked as a
      maximum. *)

  val records_shed : Metrics.key
  (** Pending records dropped oldest-first by the byte budgets, each
      covered by a durable [Drop] marker (deferred to the re-arm
      {!flush} if the disk refused it). *)
end

type budgets = { per_member_bytes : int option; global_bytes : int option }
(** Hard byte bounds on queue images: [per_member_bytes] caps each
    member's image, [global_bytes] the sum over all members. [None]
    disables a bound. When a bound is exceeded, pending records are
    shed oldest-first (per queue by delivery seq; globally by queued
    epoch, member name breaking ties) with durable [Drop] markers
    until the images fit — replacing the old unbounded
    high-water-mark-only tracking. *)

val no_budgets : budgets
(** Both bounds disabled. *)

type t

val create :
  ?policy:policy ->
  ?budgets:budgets ->
  ?compact_every:int ->
  ?disk:Store.Backend.t ->
  unit ->
  t
(** With [disk], each member's queue writes through to the backend as
    file ["queue-<member>"].
    @raise Invalid_argument if [policy.width < 0] or a budget is
    negative. *)

val policy : t -> policy
val budgets : t -> budgets
val counters : t -> Metrics.t

val enqueue : t -> member:Types.agent -> epoch:int -> Wire.Admin.t -> unit
(** Durably queue one payload for an offline member, tagged with the
    group epoch it was addressed under, then enforce the byte budgets
    (shedding oldest-first if the push overflowed them). A refused
    disk mirror is absorbed — memory stays authoritative and the
    member is marked {!dirty} for the re-arm {!flush}. *)

val enforce_budgets : t -> int
(** Shed until every byte budget holds again; returns how many records
    were shed. Called implicitly after every operation that appends to
    a queue ({!enqueue}, {!ack}, {!drain}, {!clear}, {!purge}); exposed
    for harnesses that tighten budgets mid-run. Constant time when no
    budget is set. *)

val total_bytes : t -> int
(** Summed size of all queue images — what the global budget bounds. *)

val drain : t -> member:Types.agent -> current_epoch:int -> Wire.Admin.t list
(** The member's pending records in delivery order, each wrapped as
    [Queued { seq; stale; x }] per the epoch-window policy; rejected
    and undecodable records are durably dropped and not returned.
    Entries stay pending until {!ack}, so a crash or re-disconnect
    before the member acknowledges re-drains them (at-least-once;
    the member's delivery floor dedups). *)

val ack : t -> member:Types.agent -> upto:int -> unit
(** Advance the member's durable ack floor: every delivery seq below
    [upto] is confirmed applied. *)

val clear : t -> member:Types.agent -> unit
(** Durably drop everything pending for a member (voluntary leave). *)

val purge : t -> member:Types.agent -> int
(** Quarantine policy: durably drop the member's entire backlog and
    return how many pending records were destroyed. Containment — a
    quarantined insider's queue is not salvaged for later drain, and
    the emptied image replicates to backups like any mutation. *)

val depth : t -> member:Types.agent -> int
val total_depth : t -> int
val members : t -> Types.agent list
(** Members with a queue (possibly empty), sorted. *)

val file_of_member : Types.agent -> string
val member_of_file : string -> Types.agent option

val files : t -> (string * string) list
(** Every queue's (file name, current image), sorted — what the driver
    captures at a crash and the replication stream ships to backups. *)

val restore : t -> file:string -> string -> unit
(** Replace one member's queue with the recovery of [image] (total on
    arbitrary bytes — torn tails cost at most the damaged suffix). *)

val of_images :
  ?policy:policy ->
  ?budgets:budgets ->
  ?compact_every:int ->
  ?disk:Store.Backend.t ->
  (string * string) list ->
  t
(** A delivery layer rebuilt from captured queue images — the restart
    and warm-promotion entry point. *)

val set_ship : t -> (file:string -> string -> unit) option -> unit
(** Replication hook: called with a queue's file name and full image
    after every durable mutation of that queue. *)

val set_durable : t -> bool -> unit
(** The leader ladder's memory-only switch, applied to every queue
    (present and future). Disarming marks every member dirty so the
    re-arm {!flush} republishes all images. *)

val durable : t -> bool

val dirty : t -> bool
(** Whether any member's durable image is behind its in-memory state
    (a refused mirror, or mutations made while durability was off). *)

val dirty_members : t -> Types.agent list

val flush : t -> bool
(** Republish every behind queue as a durable snapshot (carrying the
    effect of any deferred [Drop] markers). Returns [true] when
    everything is durable again; [false] if the disk is still
    refusing writes or durability is off. *)
