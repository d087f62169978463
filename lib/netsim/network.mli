(** The insecure asynchronous network of the paper.

    Nodes register a byte-level frame handler under an agent name.
    Every frame an honest node sends passes through the adversary tap
    (if installed), which may deliver, drop, delay, or replace it; the
    adversary can also inject arbitrary bytes toward any node at any
    time. Nothing authenticates the physical source — the apparent
    sender lives inside the (forgeable) frame.

    Delivery on each (src, dst) pair is FIFO by default (latencies are
    non-decreasing per pair), matching Enclaves' use of point-to-point
    stream connections; the adversary is free to break any ordering by
    drop-and-reinject. *)

type t

type verdict =
  | Deliver  (** Pass the frame through unchanged. *)
  | Drop  (** Suppress it. *)
  | Replace of string  (** Substitute different bytes. *)
  | Delay of Vtime.t  (** Deliver after an extra delay. *)

type adversary = src:string -> dst:string -> payload:string -> verdict

val create :
  sim:Sim.t -> ?latency_us:int * int -> ?trace:Trace.t -> unit -> t
(** [create ~sim ()] builds a network on [sim]'s scheduler.
    [latency_us = (lo, hi)] draws per-frame latency uniformly from
    [lo..hi] microseconds (default [(500, 1500)]). *)

val trace : t -> Trace.t

val register : t -> string -> (string -> unit) -> unit
(** [register t name handler] attaches a node. Re-registering replaces
    the handler (used for node restart scenarios). *)

val unregister : t -> string -> unit
(** Detach a node; frames to it are silently lost (recorded as
    delivered to nobody — dropped). *)

val send : t -> src:string -> dst:string -> string -> unit
(** Hand a frame to the network for asynchronous delivery. *)

val set_adversary : t -> adversary option -> unit
(** Install or remove the man-in-the-middle tap. *)

val set_faultplan : t -> Faultplan.t option -> unit
(** Install or remove a deterministic {!Faultplan}. The plan applies
    after the adversary tap, to every honest frame the adversary lets
    through (adversary injections bypass it). Faults draw from a
    dedicated PRNG split off the network's stream the first time a
    plan is installed, so runs without a plan are unaffected and runs
    with one replay bit-for-bit from the simulation seed. *)

val faultplan : t -> Faultplan.t option
val fault_counters : t -> Metrics.t
(** Running tally of faults injected so far on this network. *)

val inject : t -> ?origin:string -> dst:string -> string -> unit
(** Adversary primitive: deliver arbitrary bytes to [dst] after normal
    latency, recorded as an injection. [origin] is the endpoint the
    bytes were pushed through: a compromised insider using its own
    connection passes [~origin:insider] and the frame arrives tagged
    [Via_socket insider]; omitting it models a raw wire write and the
    frame arrives [Via_wire]. *)

val delivering_via : t -> Trace.via option
(** The injection path of the frame whose handler is executing right
    now — [Some _] only for the duration of the synchronous handler
    call, [None] outside one. Receivers use it to attribute evidence
    to the transport path instead of the claimed sender. *)
