(* Wire-level framing actor: the agent that turns a {!Netsim.Intruder}
   framing campaign into raw injected frames on an
   {!Enclaves.Driver.Improved} cluster.

   Unlike {!Insider}, the outsider holds nothing: no directory entry,
   no password, no key material, no network endpoint. All it can do is
   what a Dolev-Yao wire attacker can — capture honest frames off the
   trace and re-inject them, or fabricate junk — and put a {e victim's}
   name on the result. Its injections therefore arrive [Via_wire]: the
   transport vouches for no socket, which is exactly the signal the
   sentinel's attribution discounts. The campaign's goal is not entry
   (it has no keys) but {e framing}: making the leader's evidence
   scores quarantine an honest member. *)

module F = Wire.Frame
module Net = Netsim.Network
module D = Enclaves.Driver
module I = Netsim.Intruder

type t = {
  driver : D.Improved.t;
  victim : Enclaves.Types.agent;
  intr : I.t;
  rng : Prng.Splitmix.t;  (* frame-crafting randomness; private split *)
}

let create ~driver ~victim () =
  let rng = Prng.Splitmix.split (Netsim.Sim.rng (D.Improved.sim driver)) in
  { driver; victim; intr = I.create ~rng (); rng }

let intruder t = t.intr
let victim t = t.victim

let leader_name t = Enclaves.Leader.self (D.Improved.leader t.driver)

(* No [~origin]: the frame materialises on the wire with no socket
   behind it — the transport records [Via_wire]. *)
let inject t payload =
  Net.inject (D.Improved.net t.driver) ~dst:(leader_name t) payload

(* Framing replay: verbatim re-injection of the victim's own genuine
   leader-bound frames, captured off the wire. Every one carries the
   victim's name and a MAC that genuinely verifies as the victim's —
   to a claimed-sender scorer this is indistinguishable from the
   victim replaying itself, which is precisely the framing vector.
   Newest first: the freshest nonces draw the same stale-nonce verdict
   while looking maximally plausible. Returns how many frames the
   trace could supply (a quiet wire bounds the replay). *)
let frame_replay t burst =
  let lname = leader_name t in
  let replayable (f : F.t) =
    f.F.recipient = lname && f.F.sender = t.victim
    &&
    match f.F.label with
    | F.Admin_ack | F.App_data | F.Auth_ack_key | F.Auth_init_req
    | F.Req_close ->
        true
    | _ -> false
  in
  let captured =
    Netsim.Trace.payloads (Net.trace (D.Improved.net t.driver))
    |> List.filter_map (fun payload ->
           match F.decode payload with
           | Ok f when replayable f -> Some payload
           | Ok _ | Error _ -> None)
    |> List.rev
  in
  let n = ref 0 in
  List.iteri
    (fun i payload ->
      if i < burst then begin
        inject t payload;
        incr n
      end)
    captured;
  I.record (I.counters t.intr) I.Frame_replay !n;
  !n

(* Framing flood: junk AuthInitReq volume under the victim's name,
   aimed at the unauthenticated admission surface — trying to spend
   the victim's admission budget and pin pre-auth pressure (plus a
   malformed-frame rejection for every one that gets served) on it. *)
let frame_flood t burst =
  let lname = leader_name t in
  for _ = 1 to burst do
    let body = Bytes.to_string (Prng.Splitmix.next_bytes t.rng 24) in
    inject t
      (F.encode
         (F.make ~label:F.Auth_init_req ~sender:t.victim ~recipient:lname
            ~body))
  done;
  I.record (I.counters t.intr) I.Frame_flood burst;
  burst

let fire t arm burst =
  match arm with
  | I.Frame_replay -> frame_replay t burst
  | I.Frame_flood -> frame_flood t burst
  | I.Preauth_flood | I.Handshake_storm | I.Forge_burst | I.Replay_burst ->
      invalid_arg "Outsider.fire: insider arms belong to Adversary.Insider"

(* Materialise the campaign's seeded plan into simulator events. *)
let launch t (c : I.campaign) =
  let sim = D.Improved.sim t.driver in
  let plan = I.plan t.intr c in
  List.iter
    (fun (time, burst) ->
      Netsim.Sim.schedule_at sim ~time (fun () -> ignore (fire t c.I.arm burst)))
    plan;
  List.length plan
