(** Exhaustive bounded state exploration. One engine, [Make], runs all
    five bounded models: the §4 {!Model} (this module's top level is
    [Make (Model)]), {!Legacy_model}, {!Recovery}, {!Delivery_model}
    and {!Sentinel_model}.

    Level-synchronized breadth-first search from the model's initial
    state, deduplicating states by the model's [hash] and [equal].
    Within the bounds of the configuration the exploration is
    exhaustive: every reachable state and every transition is visited,
    so checking an invariant over the states and an edge obligation
    over the edges discharges the corresponding proof obligation for
    the bounded instance.

    States are interned: an [Index] hash table over the states
    themselves gives each a dense integer id in discovery order, states
    live in an array indexed by id, and edges are stored as
    deduplicated [(src id, move, dst id)] triples. No state is
    serialized; the seed engine ({!Baseline}) keyed string tables by
    [Model.canon] and kept a cons-list of string triples.

    {2 Parallelism and determinism}

    With [~jobs:n] (n > 1) the successor computation of each BFS level
    is fanned out over [n] domains with a merge barrier per depth; the
    merge that assigns ids and records edges is sequential and runs in
    frontier order, so the result — state order, edge order, every
    count — is identical for every [jobs] value.

    {2 Truncation}

    When the [max_states] cap stops the search, edges leading to
    destinations that were not stored are {e not} recorded; they are
    counted in [frontier_dropped] instead, so [edge_count] always
    equals the number of edges {!iter_edges} visits. [truncated] is
    [frontier_dropped > 0]. *)

type stream_stats = {
  stream_states : int;  (** states stored (= what [run] would store) *)
  stream_edges : int;  (** deduplicated edges visited *)
  stream_truncated : bool;
  stream_dropped : int;
}

(** The verdict of one obligation over an explored state space;
    re-exported as {!Invariants.report}. *)
type report = {
  name : string;
  holds : bool;
  checked : int;  (** States or edges examined. *)
  violations : string list;  (** Rendered counterexamples (capped). *)
}

(** A model: states, moves, and the bounds ([config]) of an instance;
    states are deduplicated by [equal], bucketed by [hash]. [hash]
    must agree with [equal]. *)
module type MODEL = sig
  type state
  type move
  type config

  val default_config : config
  val initial : state
  val successors : config -> state -> (move * state) list
  val hash : state -> int
  val equal : state -> state -> bool
end

module Make (M : MODEL) : sig
  type state = M.state
  type move = M.move
  type config = M.config

  module Index : Hashtbl.S with type key = state
  (** The intern table: [M.hash]/[M.equal] over the states. *)

  type result = {
    states : state array;  (** id -> state, in discovery order *)
    index : int Index.t;  (** interned state -> id *)
    edges : (int * move * int) array;
        (** deduplicated [(src, move, dst)] id triples; both endpoints
            are always stored states *)
    parents : (int * move) option array;
        (** BFS tree: id -> (discovering predecessor, move); [None] for
            the initial state *)
    truncated : bool;  (** true iff [max_states] stopped the search *)
    frontier_dropped : int;
        (** successor occurrences not stored (and not recorded as
            edges) because the cap was reached; 0 on exhaustive runs *)
  }

  val run : ?config:config -> ?max_states:int -> ?jobs:int -> unit -> result
  (** [run ()] explores with the model's [default_config] and a
      200k-state safety limit. [~jobs] (default 1) parallelizes
      successor computation without changing any result. *)

  val run_stream :
    ?config:config ->
    ?max_states:int ->
    ?jobs:int ->
    ?on_state:(state -> unit) ->
    ?on_edge:(state -> move -> state -> unit) ->
    unit ->
    stream_stats
  (** Memory-compact exploration: same search as {!run}, but states,
      parents and edges are handed to the callbacks and dropped
      instead of retained — only the intern table, which holds each
      state once as its own key, is kept for deduplication. [on_state] fires once per stored state
      (including the initial state), [on_edge] once per deduplicated
      edge, in the same order {!iter_states} / {!iter_edges} would
      visit them. Counterexample reconstruction ({!path_to}) needs a
      retained {!run}. *)

  val state_count : result -> int
  val edge_count : result -> int
  val iter_states : result -> (state -> unit) -> unit
  val iter_edges : result -> (state -> move -> state -> unit) -> unit

  val find_state : result -> (state -> bool) -> state option
  (** First match in discovery (BFS) order — deterministic. *)

  val path_to : result -> state -> (move * state) list
  (** [path_to r q] reconstructs a shortest path (BFS tree) from the
      initial state to [q], as the list of (move, reached state) steps
      — a concrete counterexample trace when [q] violates a property. *)

  val state_report :
    result ->
    name:string ->
    render:(move -> state -> string) ->
    (state -> bool) ->
    report
  (** Check a predicate on every state. The first three violations
      each contribute their BFS path, [render]ed step by step and
      joined with [" ; "]. *)

  val edge_report :
    result ->
    name:string ->
    render:(move -> state -> string) ->
    (state -> move -> state -> bool) ->
    report
  (** {!state_report} over the edges; a counterexample is the path to
      the edge's source followed by the edge itself. *)
end

include module type of Make (Model)

val pp_path : Format.formatter -> (Model.move * Model.state) list -> unit

(** The seed engine (string-keyed hashtable, cons-list edge store,
    [List.length] counting), kept for differential benchmarking and as
    an independent oracle in the tests. Note its truncation bug is
    preserved: on truncated runs it records edges to unstored states. *)
module Baseline : sig
  type t

  val run : ?config:Model.config -> ?max_states:int -> unit -> t
  val state_count : t -> int
  val edge_count : t -> int
end
