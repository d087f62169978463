(** Authenticated encryption with associated data: CTR +
    encrypt-then-MAC.

    [seal] encrypts with the SipHash-PRF keystream of {!Ctr} under a
    caller-supplied fresh IV and appends a {!Mac} tag over
    [iv || associated data || ciphertext] (each length-prefixed). The
    encryption and MAC subkeys are independent derivations of the key
    ({!Key.enc}, {!Key.mac}), computed once when the {!Key.t} is built,
    so sealing and opening derive nothing.
    [open_] rejects any frame whose tag does not verify — this is what
    makes forged or tampered protocol messages indistinguishable from
    network garbage, the property the improved Enclaves protocol leans
    on.

    The associated data binds a frame to its protocol context (label,
    sender, recipient) without encrypting it, so a frame cut from one
    context cannot be replayed into another. *)

type sealed = { iv : string; ciphertext : string; tag : string }

val seal : key:Key.t -> iv:string -> ad:string -> string -> sealed
(** [seal ~key ~iv ~ad plaintext] encrypts and authenticates.
    @raise Invalid_argument if [String.length iv <> Ctr.iv_size]. *)

val open_ : key:Key.t -> ad:string -> sealed -> (string, [ `Auth_failure ]) result
(** [open_ ~key ~ad s] verifies the tag and decrypts. Any mismatch —
    wrong key, tampered ciphertext, wrong associated data, truncated
    tag — yields [`Auth_failure] with no plaintext. *)

val random_iv : Prng.Splitmix.t -> string
(** A fresh random IV. *)

val encode : sealed -> string
(** Serialize to bytes (for embedding in wire messages). *)

val decode : string -> (sealed, string) result
(** Inverse of {!encode}; [Error] on malformed input. *)
