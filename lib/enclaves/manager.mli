(** One group-manager process: a {!Leader} incarnation plus everything
    that outlives it.

    A leader automaton dies with its process; what survives is the
    process's simulated disk ({!Store.Mem}, optionally under the seeded
    {!Store.Fault} layer), the journal and epoch vault written through
    it, the store-and-forward queues, and the intrusion {!Sentinel}.
    This module owns that split. {!crash} captures the {e durable}
    images a restarted process will find; {!restart} rebuilds the
    incarnation from durable bytes along one of three paths (warm,
    cold, or no journal at all); and the counters of dead incarnations
    are banked here, so every total is summed across incarnations.

    {!Driver.Improved} runs one manager (the single leader, crashed and
    restarted); {!Failover} runs a fixed succession of them (promoted
    and demoted). The liveness policies around a manager — retry scans,
    heartbeats, detectors, replication routing — stay in those
    harnesses. *)

type t

val send : Netsim.Network.t -> src:Types.agent -> Wire.Frame.t list -> unit
(** Encode each frame and send it from [src] to its recipient. *)

val create :
  sim:Netsim.Sim.t ->
  net:Netsim.Network.t ->
  name:Types.agent ->
  directory:(Types.agent * string) list ->
  ?policy:Leader.policy ->
  disk:bool ->
  ?faults:Store.Fault.config ->
  ?delivery:Delivery.policy ->
  ?delivery_budgets:Delivery.budgets ->
  ?intrusion:Sentinel.config ->
  primary:bool ->
  unit ->
  t
(** A manager process and its first incarnation. With [disk] the
    process owns a simulated disk (wrapped in the fault layer when
    [faults] is given, its PRNG split off the simulation's) and a
    durable epoch vault on it. With [intrusion] it runs a {!Sentinel}
    on the simulation clock. A [primary] incarnation also journals through the
    disk (when there is one) and runs a delivery layer under
    [delivery] (when given); a non-primary incarnation is a bare
    automaton, what a {!Failover} backup runs. The policies and the
    sentinel apply to every later incarnation too. *)

val attach : t -> (string -> unit) -> unit
(** Register the frame handler for this manager's name on the network.
    Frames are dropped while the manager is down; {!restart}
    re-registers the handler. *)

val name : t -> Types.agent
val leader : t -> Leader.t
val down : t -> bool

val dispatch : t -> Wire.Frame.t list -> unit
(** Put frames produced by the current incarnation on the wire. *)

val deliver : t -> ?via:Netsim.Trace.via -> string -> unit
(** {!Leader.receive} on the current incarnation, replies dispatched. *)

val crash : t -> unit
(** Kill the process: detach it from the network and capture the
    durable journal, vault and queue-file images its disk holds —
    unsynced bytes die here. Idempotent while down. *)

(** How {!restart} rebuilt the incarnation. *)
type path =
  | Warm
      (** {!Journal.recover} then {!Leader.recover}: the frames are
          [RecoveryChallenge]s to every journalled session. *)
  | Cold
      (** {!Leader.cold_recover} on the journal's epoch floor: the
          frames are [ColdRestart] beacons. *)
  | Fresh  (** No journal at all: {!Leader.create}, no frames. *)

type restart = {
  path : path;
  status : Journal.status;  (** The journal image's damage report. *)
  frames : Wire.Frame.t list;  (** Challenges or beacons, unsent. *)
}

val restart :
  ?journal_image:string ->
  ?queue_images:(string * string) list ->
  warm:(Journal.state -> bool) ->
  t ->
  restart
(** Replace the incarnation from durable bytes and bring the process
    up. The journal image is [journal_image] when given, else the one
    the last {!crash} captured, else the live journal's bytes; the
    queues are rebuilt likewise from [queue_images], the crash images
    or the live files; the vault from its crash image or live bytes.
    With a journal image the path is [Warm] when [warm] holds of the
    recovered state and [Cold] otherwise; with none it is [Fresh]. *)

val reopen : t -> primary:bool -> unit
(** Replace the incarnation with a fresh automaton on an empty journal
    and empty queues when [primary] (as in {!create}), or a bare one
    when not. The vault and sentinel carry over. *)

(** {2 Durable state} *)

val backend : t -> Store.Backend.t option
(** The (possibly fault-wrapped) disk handle, when the process has a
    disk. *)

val fault : t -> Store.Fault.t option
val journal : t -> Journal.t option
val vault : t -> Store.Vault.t option
val delivery : t -> Delivery.t option
val sentinel : t -> Sentinel.t option

(** Counters summed across incarnations. *)
type counters = {
  recoveries : int;  (** Sessions recovered warm. *)
  resyncs_served : int;  (** Divergent views repaired. *)
  degraded_entries : int;  (** Degraded-mode ladder rung entries. *)
  rearms : int;  (** Re-arms back to [Healthy]. *)
  records_shed : int;  (** Queue records shed under byte budgets. *)
  eio_retries : int;  (** EIO retries absorbed by the journals. *)
  crash_images : int;  (** Restarts recovered from a crash image. *)
  delivery : Netsim.Stats.delivery;
      (** Store-and-forward counters. The high-water mark is a max; the
          member-side [deduped] count is left at 0. *)
}

val counters : t -> counters
