(** Counter-mode keystream from the SipHash PRF.

    Keystream word [i] (8 bytes, little-endian) is
    [SipHash(key, iv || le64 i)] ({!Siphash.hash2}). [transform]
    encrypts or decrypts (the operation is its own inverse): byte [j]
    of the output is byte [j] of the input XORed with byte [j] of the
    keystream. Only the forward direction of the PRF is ever needed,
    so no invertible block cipher is involved. The IV is 8 bytes and
    must be unique per (key, message); the Enclaves protocol layer
    generates a fresh IV per encryption. *)

val iv_size : int
(** IV size in bytes (8). *)

val transform : Siphash.key -> iv:string -> string -> string
(** [transform key ~iv data] XORs [data] with the keystream.
    @raise Invalid_argument if [String.length iv <> iv_size]. *)

val keystream : Siphash.key -> iv:string -> int -> string
(** [keystream key ~iv n] is the first [n] keystream bytes;
    exposed for testing. *)
