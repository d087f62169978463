(** Named integer counters, each declared once.

    A {e layer} is the ordered set of counters one module keeps — the
    sentinel's, the replication channel's, the fault-injecting disk's.
    The module declares each counter exactly once, as a {!key} of its
    layer; the counter's name, its rendering position and how it is
    banked (summed, or kept as a maximum) all follow from that one
    declaration. An {e instance}
    ({!t}) holds one value per counter of its layer.

    Rows that mix layers (a storage row drawing on the disk's fault
    counters and the journal's retries, say) are built from key lists
    with {!row}, never by copying values into a second record. *)

type layer
type key

val layer : string -> layer
(** A new layer with no counters; the name is used in error messages. *)

val counter : layer -> string -> key
(** Declare the next counter of the layer: an event count, summed when
    banked.
    @raise Invalid_argument once an instance of the layer exists. *)

val high_water : layer -> string -> key
(** Like {!counter}, for a high-water mark: banking keeps the largest
    value, not the sum. *)

val keys : layer -> key list
(** The layer's counters in declaration order. *)

type t

val create : layer -> t
(** A fresh all-zero instance. *)

val incr : t -> key -> unit
val add : t -> key -> int -> unit

val set_max : t -> key -> int -> unit
(** Raise the counter to the given value if that is larger. *)

val get : t -> key -> int
(** @raise Invalid_argument when the key belongs to another layer (as
    do {!incr}, {!add} and {!set_max}). *)

val named : t -> (string * int) list
(** Every counter of the instance, in declaration order. *)

val bank : into:t -> t -> unit
(** Fold every counter of the second instance into [into] (add it, or
    keep the larger value of a {!high_water} mark): what a process does
    with the counters of an incarnation that is about to be replaced.
    @raise Invalid_argument on instances of different layers. *)

val sum : layer -> t list -> t
(** A fresh instance holding the banked total of the instances. *)

val find : t list -> key -> int
(** The counter's value in the first instance of its layer.
    @raise Invalid_argument when no instance of that layer is given. *)

val row : t list -> key list -> (string * int) list
(** The named values of the keys, in list order, each read with
    {!find}. *)

val pp : Format.formatter -> (string * int) list -> unit
(** Render labelled counters as ["name=value name=value ..."]. *)
