module Vtime = Netsim.Vtime
module Trace = Netsim.Trace

type level = Clear | Rate_limited | Quarantined | Expelled

let level_rank = function
  | Clear -> 0
  | Rate_limited -> 1
  | Quarantined -> 2
  | Expelled -> 3

let level_of_rank = function
  | 0 -> Clear
  | 1 -> Rate_limited
  | 2 -> Quarantined
  | _ -> Expelled

let level_name = function
  | Clear -> "clear"
  | Rate_limited -> "rate-limited"
  | Quarantined -> "quarantined"
  | Expelled -> "expelled"

type evidence =
  | Mac_failure
  | Replay
  | Stale_rekey
  | Half_open
  | Preauth_pressure
  | Malformed
  | Contained

let evidence_name = function
  | Mac_failure -> "mac-failure"
  | Replay -> "replay"
  | Stale_rekey -> "stale-rekey"
  | Half_open -> "half-open"
  | Preauth_pressure -> "preauth-pressure"
  | Malformed -> "malformed"
  | Contained -> "contained"

(* Evidence classes index the per-peer on-path score vector; the
   corroboration gate counts how many distinct classes are live. *)
let n_classes = 7

let class_index = function
  | Mac_failure -> 0
  | Replay -> 1
  | Stale_rekey -> 2
  | Half_open -> 3
  | Preauth_pressure -> 4
  | Malformed -> 5
  | Contained -> 6

type config = {
  half_life : Vtime.t;
  rate_limit_at : float;
  quarantine_at : float;
  expel_at : float;
  w_mac_failure : float;
  w_replay : float;
  w_stale_rekey : float;
  w_half_open : float;
  w_preauth : float;
  w_malformed : float;
  w_contained : float;
  preauth_rate : float;
  preauth_burst : float;
  half_open_cap : int;
  attribution : bool;
  wire_discount : float;
  corroborate_floor : float;
  challenge_cooldown : Vtime.t;
}

let default_config =
  {
    half_life = Vtime.of_s 2;
    rate_limit_at = 8.0;
    quarantine_at = 25.0;
    expel_at = 60.0;
    w_mac_failure = 3.0;
    w_replay = 1.5;
    w_stale_rekey = 1.0;
    w_half_open = 2.0;
    w_preauth = 0.4;
    w_malformed = 2.0;
    w_contained = 0.6;
    preauth_rate = 2.0;
    preauth_burst = 6.0;
    half_open_cap = 8;
    attribution = true;
    wire_discount = 0.25;
    corroborate_floor = 1.0;
    challenge_cooldown = Vtime.of_s 2;
  }

let weight cfg = function
  | Mac_failure -> cfg.w_mac_failure
  | Replay -> cfg.w_replay
  | Stale_rekey -> cfg.w_stale_rekey
  | Half_open -> cfg.w_half_open
  | Preauth_pressure -> cfg.w_preauth
  | Malformed -> cfg.w_malformed
  | Contained -> cfg.w_contained

(* The pseudo-peer every [Via_wire] frame's evidence is charged to at
   full weight. It has no directory entry and no session, so the only
   thing its containment level drives is the driver's door: once the
   wire itself is quarantined, raw injections stop reaching the
   leader at all. Angle brackets keep it out of any legal name space. *)
let wire_peer = "<wire>"

module Counter = struct
  let layer = Metrics.layer "sentinel"
  let c = Metrics.counter layer
  let observations = c "observations"
  let rate_limits = c "rate_limits"
  let quarantines = c "quarantines"
  let expulsions = c "expulsions"
  let emergency_rekeys = c "emergency_rekeys"
  let quarantined_dropped = c "quarantined_dropped"
  let preauth_admitted = c "preauth_admitted"
  let preauth_throttled = c "preauth_throttled"
  let preauth_capped = c "preauth_capped"
  let queues_purged = c "queues_purged"
  let suspicion_shipped = c "suspicion_shipped"
  let suspicion_imported = c "suspicion_imported"
  let wire_observations = c "wire_observations"
  let off_path_observations = c "off_path_observations"
  let framing_holds = c "framing_holds"
  let challenges_issued = c "challenges_issued"
  let attestations = c "attestations"
end

type peer = {
  (* On-path evidence per class: frames that arrived over this peer's
     own socket, full weight. Only these scores can corroborate. *)
  cls : float array;
  (* Off-path evidence: frames merely claiming this peer as sender,
     discounted by [wire_discount]. Never corroborates, and a live
     session-key attestation wipes it. *)
  mutable off : float;
  mutable last : Vtime.t;
  mutable level : level;
  mutable tokens : float;
  mutable tokens_at : Vtime.t;
  mutable challenge_open : bool;
  mutable last_challenge : Vtime.t option;
}

type t = {
  config : config;
  clock : unit -> Vtime.t;
  peers : (string, peer) Hashtbl.t;
  anon : peer;  (* shared bucket for names outside the directory *)
  counters : Metrics.t;
  mutable ship : (string -> unit) option;
}

let fresh_peer config now =
  {
    cls = Array.make n_classes 0.0;
    off = 0.0;
    last = now;
    level = Clear;
    tokens = config.preauth_burst;
    tokens_at = now;
    challenge_open = false;
    last_challenge = None;
  }

let create ?(config = default_config) ?(clock = fun () -> Vtime.zero) () =
  let now = clock () in
  {
    config;
    clock;
    peers = Hashtbl.create 16;
    anon = fresh_peer config now;
    counters = Metrics.create Counter.layer;
    ship = None;
  }

let config t = t.config
let counters t = t.counters
let set_ship t f = t.ship <- Some f

let peer t name =
  match Hashtbl.find_opt t.peers name with
  | Some p -> p
  | None ->
      let p = fresh_peer t.config (t.clock ()) in
      Hashtbl.replace t.peers name p;
      p

(* Exponential decay: halve every score slot per [half_life] of quiet.
   All slots share one timestamp, so one factor decays the peer. *)
let decay_factor t ~from_ ~to_ =
  let dt = Vtime.to_float_ms (Int64.sub to_ from_) in
  if dt <= 0.0 then 1.0
  else
    let hl = Vtime.to_float_ms t.config.half_life in
    Float.pow 0.5 (dt /. hl)

let touch t p now =
  let f = decay_factor t ~from_:p.last ~to_:now in
  if f < 1.0 then begin
    for i = 0 to n_classes - 1 do
      p.cls.(i) <- p.cls.(i) *. f
    done;
    p.off <- p.off *. f;
    p.last <- now
  end

let on_path_score p = Array.fold_left ( +. ) 0.0 p.cls
let total_score p = on_path_score p +. p.off

let decayed_total t p now = total_score p *. decay_factor t ~from_:p.last ~to_:now

let score t name =
  match Hashtbl.find_opt t.peers name with
  | None -> 0.0
  | Some p -> decayed_total t p (t.clock ())

let level t name =
  match Hashtbl.find_opt t.peers name with None -> Clear | Some p -> p.level

let peers t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.peers []
  |> List.sort compare

let level_for_rank_update t p target =
  (* The ladder only ratchets upward: decay lowers the score, never
     the containment level — a quarantined insider does not talk its
     way back in by going quiet. *)
  if level_rank target > level_rank p.level then begin
    p.level <- target;
    (match target with
    | Clear -> ()
    | Rate_limited -> Metrics.incr t.counters Counter.rate_limits
    | Quarantined -> Metrics.incr t.counters Counter.quarantines
    | Expelled -> Metrics.incr t.counters Counter.expulsions);
    true
  end
  else false

let target_of_score cfg s =
  if s >= cfg.expel_at then Expelled
  else if s >= cfg.quarantine_at then Quarantined
  else if s >= cfg.rate_limit_at then Rate_limited
  else Clear

(* The corroboration gate. A raw score in quarantine territory only
   fires the Quarantined/Expelled rung when the evidence has a basis
   the claimed sender genuinely owns: either enough on-path score
   (frames over its own socket) to cross the quarantine threshold by
   itself, or at least two independent evidence classes live on its
   own socket. Off-path evidence alone — the only thing a wire-level
   framer can manufacture — clamps at [Rate_limited]. *)
let corroborated cfg p =
  on_path_score p >= cfg.quarantine_at
  || (let live = ref 0 in
      Array.iter (fun s -> if s >= cfg.corroborate_floor then incr live) p.cls;
      !live >= 2)

let corroborated_target t p =
  let raw = target_of_score t.config (total_score p) in
  if
    t.config.attribution
    && level_rank raw >= level_rank Quarantined
    && not (corroborated t.config p)
  then begin
    if level_rank p.level < level_rank Quarantined then
      Metrics.incr t.counters Counter.framing_holds;
    Rate_limited
  end
  else raw

let export t =
  let rows =
    Hashtbl.fold (fun name p acc -> (name, p) :: acc) t.peers []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "suspicion/2\n";
  List.iter
    (fun (name, p) ->
      Buffer.add_string buf
        (Printf.sprintf "%d\t%Ld\t%Lx" (level_rank p.level) p.last
           (Int64.bits_of_float p.off));
      Array.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf "\t%Lx" (Int64.bits_of_float s)))
        p.cls;
      Buffer.add_string buf (Printf.sprintf "\t%s\n" name))
    rows;
  Buffer.contents buf

let maybe_ship t =
  match t.ship with
  | None -> ()
  | Some f ->
      Metrics.incr t.counters Counter.suspicion_shipped;
      f (export t)

(* Score one full-weight on-path (or legacy/unattributed) increment
   against [name] and re-run the ladder. *)
let charge_on_path t name kind =
  let now = t.clock () in
  let p = peer t name in
  touch t p now;
  p.cls.(class_index kind) <- p.cls.(class_index kind) +. weight t.config kind;
  p.last <- now;
  let escalated = level_for_rank_update t p (corroborated_target t p) in
  if escalated then maybe_ship t;
  p

let charge_off_path t name kind =
  let now = t.clock () in
  let p = peer t name in
  touch t p now;
  p.off <- p.off +. (weight t.config kind *. t.config.wire_discount);
  p.last <- now;
  Metrics.incr t.counters Counter.off_path_observations;
  let escalated = level_for_rank_update t p (corroborated_target t p) in
  if escalated then maybe_ship t;
  p

let observe_via t ~claimed ~via kind =
  Metrics.incr t.counters Counter.observations;
  if not t.config.attribution then (charge_on_path t claimed kind).level
  else
    match via with
    | Trace.Via_socket owner when String.equal owner claimed ->
        (charge_on_path t claimed kind).level
    | Trace.Via_socket owner ->
        (* The frame claims [claimed] but arrived over [owner]'s own
           connection: the owner gets the evidence at full weight, the
           claimed name only a discounted echo. *)
        ignore (charge_on_path t owner kind);
        (charge_off_path t claimed kind).level
    | Trace.Via_wire ->
        Metrics.incr t.counters Counter.wire_observations;
        ignore (charge_on_path t wire_peer kind);
        (charge_off_path t claimed kind).level

let observe t ~peer:name kind =
  observe_via t ~claimed:name ~via:(Trace.Via_socket name) kind

(* --- liveness challenge -------------------------------------------------

   When a peer's raw score sits in quarantine territory but the
   corroboration gate is holding it down, the leader may challenge it:
   a sealed admin notice only the genuine session-key holder can ack.
   A successful ack (attestation) wipes the off-path score — the
   framed member arrests its own escalation — and proves nothing for
   an insider, whose evidence is on-path and untouched. *)

let challenge_due t name =
  if not t.config.attribution then false
  else
    match Hashtbl.find_opt t.peers name with
    | None -> false
    | Some p ->
        let now = t.clock () in
        let f = decay_factor t ~from_:p.last ~to_:now in
        let raw = target_of_score t.config (total_score p *. f) in
        level_rank p.level < level_rank Quarantined
        && level_rank raw >= level_rank Quarantined
        && (not (corroborated t.config p))
        && (not p.challenge_open)
        && (match p.last_challenge with
           | None -> true
           | Some at -> Vtime.(Vtime.add at t.config.challenge_cooldown <= now))

let note_challenged t name =
  let p = peer t name in
  p.challenge_open <- true;
  p.last_challenge <- Some (t.clock ());
  Metrics.incr t.counters Counter.challenges_issued

let note_attested t name =
  match Hashtbl.find_opt t.peers name with
  | None -> false
  | Some p ->
      if p.challenge_open then begin
        p.challenge_open <- false;
        touch t p (t.clock ());
        p.off <- 0.0;
        Metrics.incr t.counters Counter.attestations;
        true
      end
      else false

let note_quarantined_drop t ?via name =
  Metrics.incr t.counters Counter.quarantined_dropped;
  let via = Option.value via ~default:(Trace.Via_socket name) in
  ignore (observe_via t ~claimed:name ~via Contained)

let note_emergency_rekey t =
  Metrics.incr t.counters Counter.emergency_rekeys

let note_queue_purged t =
  Metrics.incr t.counters Counter.queues_purged

let suspects t =
  Hashtbl.fold
    (fun name p acc ->
      if p.level = Clear then acc else (name, p.level) :: acc)
    t.peers []
  |> List.sort compare

let contained t =
  List.filter_map
    (fun (name, lvl) ->
      if level_rank lvl >= level_rank Quarantined then Some name else None)
    (suspects t)

type verdict = Admit | Throttled | Capped | Denied_quarantined

let verdict_name = function
  | Admit -> "admit"
  | Throttled -> "throttled"
  | Capped -> "capped"
  | Denied_quarantined -> "denied-quarantined"

let refill t p now =
  let dt_s = Vtime.to_float_ms (Int64.sub now p.tokens_at) /. 1000.0 in
  if dt_s > 0.0 then begin
    let rate =
      if p.level = Rate_limited then t.config.preauth_rate *. 0.25
      else t.config.preauth_rate
    in
    p.tokens <- Float.min t.config.preauth_burst (p.tokens +. (dt_s *. rate));
    p.tokens_at <- now
  end

let admit_preauth t ?via ~peer:name ~known ~resuming ~half_open () =
  let now = t.clock () in
  (* The admission budget is charged to the transport principal — the
     endpoint the frame actually came through — not the name it
     claims. A wire flood under a victim's name drains the wire
     pseudo-peer's bucket, never the victim's. *)
  let principal =
    if not t.config.attribution then name
    else
      match via with
      | None -> name
      | Some (Trace.Via_socket owner) -> owner
      | Some Trace.Via_wire -> wire_peer
  in
  let p =
    if String.equal principal name then if known then peer t name else t.anon
    else peer t principal
  in
  (* Every attempt is itself weak evidence: a flood of perfectly valid
     handshake frames still climbs the ladder. *)
  ignore
    (observe_via t ~claimed:name
       ~via:(Option.value via ~default:(Trace.Via_socket name))
       Preauth_pressure);
  let denied =
    level_rank (level t name) >= level_rank Quarantined
    || level_rank (level t principal) >= level_rank Quarantined
  in
  if denied then begin
    Metrics.incr t.counters Counter.quarantined_dropped;
    Denied_quarantined
  end
  else if resuming then begin
    (* An in-progress handshake retransmission; blocking it would wedge
       legitimate joins under their own backoff. *)
    Metrics.incr t.counters Counter.preauth_admitted;
    Admit
  end
  else if half_open >= t.config.half_open_cap then begin
    Metrics.incr t.counters Counter.preauth_capped;
    Capped
  end
  else begin
    refill t p now;
    if p.tokens >= 1.0 then begin
      p.tokens <- p.tokens -. 1.0;
      Metrics.incr t.counters Counter.preauth_admitted;
      Admit
    end
    else begin
      Metrics.incr t.counters Counter.preauth_throttled;
      Throttled
    end
  end

(* --- suspicion merge ----------------------------------------------------

   The merge is a join semilattice: both sides' score slots are decayed
   to the later of the two timestamps and joined slot-wise by max, and
   levels join by rank. That makes import commutative, associative
   (up to float rounding in the decay factor) and idempotent, so
   replicated suspicion converges under any delivery order — the
   CRDT property the qcheck suite pins. v1 lines (an aggregate score
   per peer, from pre-attribution snapshots) fold into the off-path
   slot: an old-format snapshot can ratchet levels and keep scores
   warm but never manufactures corroboration. *)

let merge_slots t p ~last_in ~off_in ~cls_in =
  let tref = if Vtime.(p.last < last_in) then last_in else p.last in
  touch t p tref;
  let f_in = decay_factor t ~from_:last_in ~to_:tref in
  (match cls_in with
  | Some cls_in ->
      for i = 0 to n_classes - 1 do
        p.cls.(i) <- Float.max p.cls.(i) (cls_in.(i) *. f_in)
      done
  | None -> ());
  p.off <- Float.max p.off (off_in *. f_in);
  p.last <- tref

let float_of_hex s =
  match Int64.of_string_opt ("0x" ^ s) with
  | None -> None
  | Some bits ->
      let v = Int64.float_of_bits bits in
      if Float.is_nan v then Some 0.0 else Some v

let import t blob =
  let lines = String.split_on_char '\n' blob in
  let merged = ref 0 in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ rank; score_hex; last; name ] when name <> "" -> (
          (* v1 row: rank, aggregate score bits, last, name. *)
          match
            (int_of_string_opt rank, float_of_hex score_hex,
             Int64.of_string_opt last)
          with
          | Some rank, Some score, Some last_in ->
              let lvl = level_of_rank (max 0 (min 3 rank)) in
              let p = peer t name in
              merge_slots t p ~last_in ~off_in:score ~cls_in:None;
              if level_for_rank_update t p lvl then incr merged
          | _ -> ())
      | rank :: last :: off_hex :: rest when List.length rest = n_classes + 1
        -> (
          (* v2 row: rank, last, off bits, one bits column per class,
             name. *)
          let name = List.nth rest n_classes in
          let cls_hex = List.filteri (fun i _ -> i < n_classes) rest in
          match
            (int_of_string_opt rank, Int64.of_string_opt last,
             float_of_hex off_hex)
          with
          | Some rank, Some last_in, Some off_in when name <> "" ->
              let cls_in = Array.make n_classes 0.0 in
              let ok = ref true in
              List.iteri
                (fun i h ->
                  match float_of_hex h with
                  | Some v -> cls_in.(i) <- v
                  | None -> ok := false)
                cls_hex;
              if !ok then begin
                let lvl = level_of_rank (max 0 (min 3 rank)) in
                let p = peer t name in
                merge_slots t p ~last_in ~off_in ~cls_in:(Some cls_in);
                if level_for_rank_update t p lvl then incr merged
              end
          | _ -> ())
      | _ -> ())
    lines;
  Metrics.incr t.counters Counter.suspicion_imported;
  !merged

let pp_suspects fmt t =
  let pp_one fmt (name, lvl) =
    Format.fprintf fmt "%s=%s(%.1f)" name (level_name lvl) (score t name)
  in
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
    pp_one fmt (suspects t)
