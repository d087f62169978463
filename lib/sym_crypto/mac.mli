(** 128-bit message authentication code built from two independently
    keyed SipHash instances.

    [tag k msg] concatenates [SipHash(k.left, msg)] and
    [SipHash(k.right, msg)], where the two subkeys are derived from a
    16-byte key by domain-separated PRF calls ({!subkeys}). SipHash is
    itself a MAC for 64-bit tags; doubling the instance widens the
    forgery bound for the simulation. The subkeys are computed once
    per key: {!Key} holds the AEAD ones. *)

val tag_size : int
(** Tag size in bytes (16). *)

type subkeys = { left : Siphash.key; right : Siphash.key }

val subkeys : string -> subkeys
(** [subkeys key] derives the two SipHash keys of the 16-byte [key].
    @raise Invalid_argument if [String.length key <> 16]. *)

val tag : subkeys -> string -> string
(** [tag k msg] computes the MAC of [msg]. *)

val verify : subkeys -> string -> tag:string -> bool
(** [verify k msg ~tag] recomputes and compares in constant time. *)
