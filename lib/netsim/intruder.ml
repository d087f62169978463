type arm =
  | Preauth_flood
  | Handshake_storm
  | Forge_burst
  | Replay_burst
  | Frame_replay
  | Frame_flood

let arm_name = function
  | Preauth_flood -> "preauth-flood"
  | Handshake_storm -> "handshake-storm"
  | Forge_burst -> "forge-burst"
  | Replay_burst -> "replay-burst"
  | Frame_replay -> "frame-replay"
  | Frame_flood -> "frame-flood"

let arm_of_name = function
  | "preauth-flood" -> Some Preauth_flood
  | "handshake-storm" -> Some Handshake_storm
  | "forge-burst" -> Some Forge_burst
  | "replay-burst" -> Some Replay_burst
  | "frame-replay" -> Some Frame_replay
  | "frame-flood" -> Some Frame_flood
  | _ -> None

type campaign = {
  arm : arm;
  start : Vtime.t;
  stop : Vtime.t;
  period : Vtime.t;
  burst : int;
  jitter : float;
}

let campaign ?(jitter = 0.25) ~arm ~start ~stop ~period ~burst () =
  if Vtime.(stop < start) then invalid_arg "Intruder.campaign: stop < start";
  if Vtime.(period <= Vtime.zero) then
    invalid_arg "Intruder.campaign: period must be positive";
  if burst <= 0 then invalid_arg "Intruder.campaign: burst must be positive";
  if jitter < 0.0 || jitter >= 1.0 then
    invalid_arg "Intruder.campaign: jitter must be in [0,1)";
  { arm; start; stop; period; burst; jitter }

let pp_campaign fmt c =
  Format.fprintf fmt "%s[%a..%a period=%a burst=%d]" (arm_name c.arm) Vtime.pp
    c.start Vtime.pp c.stop Vtime.pp c.period c.burst

module Counter = struct
  let layer = Metrics.layer "intruder"
  let c = Metrics.counter layer
  let flood_frames = c "flood_frames"
  let storm_frames = c "storm_frames"
  let forged_frames = c "forged_frames"
  let replayed_frames = c "replayed_frames"
  let framed_replays = c "framed_replays"
  let framed_floods = c "framed_floods"
end

let record c arm n =
  Metrics.add c
    (match arm with
    | Preauth_flood -> Counter.flood_frames
    | Handshake_storm -> Counter.storm_frames
    | Forge_burst -> Counter.forged_frames
    | Replay_burst -> Counter.replayed_frames
    | Frame_replay -> Counter.framed_replays
    | Frame_flood -> Counter.framed_floods)
    n

type t = { rng : Prng.Splitmix.t; counters : Metrics.t }

let create ~rng () =
  { rng = Prng.Splitmix.split rng; counters = Metrics.create Counter.layer }

let counters t = t.counters

(* The campaign's firing plan, materialised up front: one (time, burst)
   pair per period tick between [start] and [stop], each tick displaced
   by a seeded jitter fraction of the period. Consuming the plan
   mutates only this intruder's private split stream, so two intruders
   built from the same root seed produce identical plans — the property
   the replay tests pin. *)
let plan t c =
  let period_f = Int64.to_float c.period in
  let rec ticks acc at =
    if Vtime.(c.stop < at) then List.rev acc
    else
      let displaced =
        if c.jitter = 0.0 then at
        else
          let f = (Prng.Splitmix.next_float t.rng *. 2.0) -. 1.0 in
          Int64.add at (Int64.of_float (period_f *. c.jitter *. f))
      in
      let displaced = if Vtime.(displaced < c.start) then c.start else displaced in
      ticks ((displaced, c.burst) :: acc) (Vtime.add at c.period)
  in
  ticks [] c.start
