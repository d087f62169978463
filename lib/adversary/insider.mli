(** Compromised-insider actor for {!Enclaves.Driver.Improved}
    clusters.

    {!Netsim.Intruder} owns the deterministic campaign schedule; this
    module owns the key material and protocol knowledge needed to
    craft the actual hostile frames. The insider is a genuine
    directory member — its password is real, and {!harvest} pockets
    its live session key before the group rotates past it — so the
    A1/A2/A3 arms model abuse with legitimate credentials, the
    sentinel's hardest case.

    Everything is seeded: the actor's crafting randomness is a private
    split of the simulation stream, and {!launch} schedules bursts at
    exactly the times the intruder plan dictates, so a campaign
    replays tick-for-tick from the cluster seed. *)

type t

val create :
  driver:Enclaves.Driver.Improved.t ->
  insider:Enclaves.Types.agent ->
  password:string ->
  unit ->
  t
(** An insider actor bound to one cluster. [insider]/[password] should
    name a real directory entry — the storm arm runs genuine
    handshakes under it. *)

val intruder : t -> Netsim.Intruder.t

val harvest : t -> bool
(** Pocket the insider's current session key for the forge arm; [false]
    if it holds none. Call before a rekey or leave retires it. *)

val retired_keys : t -> Sym_crypto.Key.t list

val flood : t -> int -> int
(** A1: inject [burst] junk [AuthInitReq] frames now — half under
    ghost names, half under the insider's own — and return the count. *)

val storm : t -> int -> int
(** Inject [burst] {e valid} fresh-nonce [AuthInitReq] frames under
    the insider's identity, churning the leader's half-open table. *)

val forge : t -> int -> int
(** A2: inject [burst] frames sealed under expired (harvested) or
    mismatched key material — MAC failures at the leader. *)

val replay : t -> int -> int
(** A3: re-inject up to [burst] genuine leader-bound frames the
    insider itself once sent, newest first; returns how many the
    trace could supply. Only the insider's own captured frames are
    replayed — replaying a {e victim's} frames is the framing vector
    (evidence lands on the name in the frame), kept out of the arm
    and discussed in DESIGN.md instead. *)

val fire : t -> Netsim.Intruder.arm -> int -> int
(** Dispatch one burst of the given arm. *)

val launch : t -> Netsim.Intruder.campaign -> int
(** Schedule the campaign's whole seeded plan ({!Netsim.Intruder.plan})
    as simulator events; returns the number of scheduled bursts. *)
