(** The durable log engine — the one place that knows how bytes reach
    a {!Backend} crash-consistently.

    Two layers:

    - {!Mirror}: an in-memory buffer that stays authoritative for
      reads, written through to an optional backend before every
      mutation returns. Appends are an incremental [pwrite] at the
      buffer offset followed by [fsync]; anything that replaces the
      image stages the full bytes in [file ^ ".tmp"] (removed first),
      fsyncs, then atomically renames over [file]. Transient
      {!Backend.Eio} is retried a bounded number of times (both shapes
      are idempotent); {!Backend.Crashed}, {!Backend.No_space} and
      {!Backend.Stalled} propagate.
    - {!Make}: an append-only, checksummed, truncation-tolerant record
      log on a mirror, given a record codec and its state fold.

    {2 Record-log format}

    {v
    header  := magic:4 version:u8(=1)
    record  := len:u32 payload:len sum:8
    payload := seq:u32 tag:u8 fields...
    v}

    [sum] is SipHash-2-4 of the payload under the codec's public MAC
    key (integrity against torn writes, not secrecy); [seq] counts
    records from the last snapshot. Records are framed independently,
    so any {e tail} damage — a torn final write, truncation at an
    arbitrary byte, a flipped bit — costs at most the records from the
    damage onward. A [Snapshot] record carries the whole folded state:
    compaction rewrites the log as one snapshot, and appends
    auto-compact once enough records accumulate since the last one. *)

val with_retry : (unit -> 'a) -> 'a
(** [with_retry f] runs one backend call, re-issuing it on
    {!Backend.Eio} up to 8 times. Only for idempotent calls. *)

type event =
  | Appended of string
      (** One chunk extended the image; the argument is exactly the
          bytes appended. *)
  | Published of string
      (** The whole image was replaced; the argument is the complete
          new image. *)

module Mirror : sig
  type t

  val create : ?disk:Backend.t -> string -> t
  (** An empty buffer mirroring to the named file of [disk]; no write
      happens until the first mutation. *)

  val append : t -> string -> unit
  (** Extend the buffer, then [pwrite] at the old end and [fsync]. *)

  val publish : t -> string -> unit
  (** Replace the buffer, then stage, fsync and rename over the file. *)

  val contents : t -> string
  val file : t -> string
end

type status =
  | Clean  (** Every byte of the buffer parsed and verified. *)
  | Damaged of { valid_records : int; valid_bytes : int }
      (** Replay stopped early; only the prefix described here was
          recovered. *)

val pp_status : Format.formatter -> status -> unit

(** What a record log is made of. *)
module type CODEC = sig
  type record
  type state

  val magic : string  (** 4 bytes opening the image. *)

  val mac_key : string
  (** 16 bytes keying the per-record checksum; public. *)

  val default_file : string
  val default_compact_every : int
  val empty : state

  val encode : Byteskit.Cursor.Writer.t -> record -> unit
  (** Tag and fields of one record. *)

  val decode :
    Byteskit.Cursor.Reader.t ->
    (record, Byteskit.Cursor.Reader.error) result

  val apply : state -> record -> state
  (** Fold one record; must map [snapshot s] to [s]. *)

  val snapshot : state -> record

  val resolves : state -> record -> bool
  (** Whether appending the record to a log in the given state leaves
      bytes that carry nothing the next snapshot keeps (counted by
      [resolved]). *)
end

(** The record log over a codec. *)
module Make (C : CODEC) : sig
  type t

  val create :
    ?compact_every:int ->
    ?disk:Backend.t ->
    ?file:string ->
    ?durable:bool ->
    unit ->
    t
  (** An empty log (header only), published to [file] (default the
      codec's) when [disk] is given. [durable] (default true) is the
      initial state of {!set_durable}. [compact_every] (default the
      codec's) is the record count past which {!append} folds the log
      into a snapshot.
      @raise Invalid_argument if [compact_every < 1]. *)

  val append : t -> C.record -> unit
  (** Append one checksummed record; may trigger auto-compaction. *)

  val compact : t -> unit
  (** Rewrite the log as one snapshot of the current state. *)

  val rearm : t -> bool
  (** Turn durability back on and {!compact}, which republishes the
      whole image atomically. On [No_space]/[Stalled] durability goes
      back off and the result is [false]. *)

  val state : t -> C.state
  (** The folded state of every record so far (O(1)). *)

  val records : t -> int
  (** Records currently in the log (snapshot included). *)

  val resolved : t -> int
  (** Records appended since the last snapshot for which the codec's
      [resolves] held. *)

  val size : t -> int
  val contents : t -> string
  val file : t -> string
  val eio_retries : t -> int
  (** Transient-EIO retries absorbed by the write-through so far. *)

  val set_observer : t -> (event -> unit) option -> unit
  (** Mutation hook, fired after the write-through succeeds. At most
      one observer; [None] unsubscribes. *)

  val set_durable : t -> bool -> unit
  (** Degraded-mode switch: with durability off, mutations keep
      evolving the log (and still fire the observer) but nothing
      touches the backend, so the file goes stale until {!rearm}. *)

  val durable : t -> bool

  val replay : string -> C.record list * status
  (** Decode the longest valid prefix of arbitrary bytes. Total: never
      raises. *)

  val state_of_records : C.record list -> C.state
  val record_equal : C.record -> C.record -> bool

  val of_state :
    ?compact_every:int -> ?disk:Backend.t -> ?file:string -> C.state -> t
  (** A fresh log compacted to a snapshot of the state. *)

  val recover :
    ?compact_every:int ->
    ?disk:Backend.t ->
    ?file:string ->
    string ->
    t * C.state * status
  (** {!replay} the bytes, fold the valid prefix, and return a fresh
      log already compacted to a snapshot of that state. *)

  val load :
    ?compact_every:int ->
    ?file:string ->
    disk:Backend.t ->
    unit ->
    t * C.state * status
  (** {!recover} from whatever the backend holds for [file]; a missing
      file recovers the empty state. *)
end

