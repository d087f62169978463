open Sym_crypto
module F = Wire.Frame
module P = Wire.Payload

type state =
  | S_not_connected
  | S_waiting_for_key of { n1 : Wire.Nonce.t }
  | S_connected of { na : Wire.Nonce.t; ka : Key.t }

type event =
  | Joined of { session_key : Key.t }
  | Admin_accepted of Wire.Admin.t
  | App_received of { author : Types.agent; body : string }
  | Left
  | Recovery_challenged of { from : Types.agent }
  | Cold_beacon_challenged of { epoch : int }
  | Beacon_reset of { epoch : int }
  | View_diverged of { leader_epoch : int }
  | Rejected of { label : F.label option; reason : Types.reject_reason }

let pp_event fmt = function
  | Joined { session_key } ->
      Format.fprintf fmt "Joined(ka=%s)" (Key.fingerprint session_key)
  | Admin_accepted x -> Format.fprintf fmt "AdminAccepted(%a)" Wire.Admin.pp x
  | App_received { author; body } ->
      Format.fprintf fmt "AppReceived(%s: %s)" author body
  | Left -> Format.pp_print_string fmt "Left"
  | Recovery_challenged { from } ->
      Format.fprintf fmt "RecoveryChallenged(from=%s)" from
  | Cold_beacon_challenged { epoch } ->
      Format.fprintf fmt "ColdBeaconChallenged(epoch=%d)" epoch
  | Beacon_reset { epoch } -> Format.fprintf fmt "BeaconReset(epoch=%d)" epoch
  | View_diverged { leader_epoch } ->
      Format.fprintf fmt "ViewDiverged(leader_epoch=%d)" leader_epoch
  | Rejected { label; reason } ->
      Format.fprintf fmt "Rejected(%s, %a)"
        (match label with Some l -> F.label_to_string l | None -> "?")
        Types.pp_reject_reason reason

type state_view =
  | Not_connected
  | Waiting_for_key of Wire.Nonce.t
  | Connected of Wire.Nonce.t * Key.t

module Counter = struct
  let layer = Metrics.layer "member"
  let divergences_detected = Metrics.counter layer "divergences_detected"
  let deduped = Metrics.counter layer "deduped"
end

type t = {
  self : Types.agent;
  mutable leader : Types.agent;
  pa : Key.t;
  rng : Prng.Splitmix.t;
  mutable state : state;
  mutable group_key : Types.group_key option;
  mutable view : Types.agent list;  (* sorted membership belief *)
  mutable accepted_rev : Wire.Admin.t list;
  mutable app_rev : (Types.agent * string) list;
  mutable events_rev : event list;
  (* Retransmission state. Each field stores a frame already emitted
     once, so re-sending it never advances the automaton and never
     hands an attacker anything the first transmission did not. *)
  mutable last_init : F.t option;  (* outstanding AuthInitReq *)
  mutable last_key_ack : (Wire.Nonce.t * F.t) option;
      (* (N2 answered, AuthAckKey frame) of the current session *)
  mutable last_admin_ack : (Wire.Nonce.t * F.t) option;
      (* (leader nonce answered, AdminAck frame) of the latest accepted
         AdminMsg *)
  mutable last_recovery : (Wire.Nonce.t * F.t) option;
      (* (challenge nonce answered, RecoveryResponse frame) — re-sent
         on a duplicated challenge, like the other carve-outs *)
  (* Cold-restart beacon handshake in flight: (Nm we challenged with,
     Nb of the beacon we answered, beacon epoch, stored challenge
     frame). The session is NOT reset until the leader echoes Nm. *)
  mutable pending_cold : (Wire.Nonce.t * Wire.Nonce.t * int * F.t) option;
  mutable beacon_reset_pending : bool;
  (* Anti-entropy beacons accepted (cumulative across sessions). *)
  mutable digests_seen : int;
  counters : Metrics.t;  (* cumulative across sessions *)
  (* Store-and-forward delivery state (cumulative across sessions —
     the floor MUST survive a session reset, or a redelivery after a
     reconnect would apply twice). *)
  mutable delivery_floor : int;
  mutable stale_deliveries : int;
  mutable queued_applied_rev : int list;
}

let create_with_key ~self ~leader ~long_term ~rng =
  if Key.kind long_term <> Key.Long_term then
    invalid_arg "Member.create_with_key: key must be long-term";
  {
    self;
    leader;
    pa = long_term;
    rng = Prng.Splitmix.split rng;
    state = S_not_connected;
    group_key = None;
    view = [];
    accepted_rev = [];
    app_rev = [];
    events_rev = [];
    last_init = None;
    last_key_ack = None;
    last_admin_ack = None;
    last_recovery = None;
    pending_cold = None;
    beacon_reset_pending = false;
    digests_seen = 0;
    counters = Metrics.create Counter.layer;
    delivery_floor = 0;
    stale_deliveries = 0;
    queued_applied_rev = [];
  }

let create ~self ~leader ~password ~rng =
  create_with_key ~self ~leader ~long_term:(Key.long_term ~user:self ~password)
    ~rng

let self t = t.self
let leader t = t.leader

let state t =
  match t.state with
  | S_not_connected -> Not_connected
  | S_waiting_for_key { n1 } -> Waiting_for_key n1
  | S_connected { na; ka } -> Connected (na, ka)

let is_connected t = match t.state with S_connected _ -> true | _ -> false
let group_key t = t.group_key
let group_view t = t.view
let accepted_admin t = List.rev t.accepted_rev
let app_log t = List.rev t.app_rev

let session_key t =
  match t.state with S_connected { ka; _ } -> Some ka | _ -> None

let drain_events t =
  let es = List.rev t.events_rev in
  t.events_rev <- [];
  es

let emit t e = t.events_rev <- e :: t.events_rev

let reject t ?label reason =
  emit t (Rejected { label; reason });
  []

let join t =
  match t.state with
  | S_not_connected ->
      let n1 = Wire.Nonce.fresh t.rng in
      t.state <- S_waiting_for_key { n1 };
      let plaintext =
        P.encode_auth_init { P.a = t.self; l = t.leader; n1 }
      in
      let frame =
        Sealed_channel.seal ~rng:t.rng ~key:t.pa ~label:F.Auth_init_req
          ~sender:t.self ~recipient:t.leader plaintext
      in
      t.last_init <- Some frame;
      [ frame ]
  | S_waiting_for_key _ | S_connected _ -> []

let retransmit_join t =
  match (t.state, t.last_init) with
  | S_waiting_for_key _, Some frame -> [ frame ]
  | _ -> []

let reset_session t =
  t.state <- S_not_connected;
  t.group_key <- None;
  t.view <- [];
  t.accepted_rev <- [];
  t.last_init <- None;
  t.last_key_ack <- None;
  t.last_admin_ack <- None;
  t.last_recovery <- None;
  t.pending_cold <- None;
  emit t Left

let leave t =
  match t.state with
  | S_connected { ka; _ } ->
      let plaintext = P.encode_req_close { P.a = t.self; l = t.leader } in
      let frame =
        Sealed_channel.seal ~rng:t.rng ~key:ka ~label:F.Req_close
          ~sender:t.self ~recipient:t.leader plaintext
      in
      reset_session t;
      [ frame ]
  | S_not_connected | S_waiting_for_key _ -> []

let own_epoch t =
  match t.group_key with Some { Types.epoch; _ } -> epoch | None -> 0

let own_digest t = Wire.Admin.view_digest ~members:t.view ~epoch:(own_epoch t)
let digests_seen t = t.digests_seen
let delivery_floor t = t.delivery_floor
let counters t = t.counters
let stale_deliveries t = t.stale_deliveries
let queued_applied t = List.rev t.queued_applied_rev

(* Report our own (digest, epoch) to the leader under [K_a]; the
   leader answers with a repair (key + snapshot + digest) on mismatch,
   or just a digest on agreement. Also the anti-entropy liveness
   probe. *)
let resync_request t =
  match t.state with
  | S_connected { ka; _ } ->
      let plaintext =
        P.encode_view_resync
          {
            P.a = t.self;
            l = t.leader;
            digest = own_digest t;
            epoch = own_epoch t;
          }
      in
      [
        Sealed_channel.seal ~rng:t.rng ~key:ka ~label:F.View_resync_req
          ~sender:t.self ~recipient:t.leader plaintext;
      ]
  | S_not_connected | S_waiting_for_key _ -> []

(* Membership view updates triggered by accepted admin messages.
   Returns follow-up frames (a resync request when a [View_digest]
   beacon reveals divergence).

   A [Queued] wrapper is the store-and-forward drain path: the nonce
   chain already deduplicates frame retransmissions, but at-least-once
   delivery can legitimately re-present an already-applied record
   (leader crash between the member's ack and the durable queue ack),
   so the member additionally keeps a cumulative [delivery_floor] over
   the wrapper's seq — below the floor the record's effect is skipped
   while the AdminMsg is still acked, which is exactly what lets the
   leader's ack floor catch up. Stale-marked records are recorded but
   apply no state effect, and even a fresh drained [New_group_key] is
   dropped if it would regress our epoch: queued key material can
   never roll the group key back. *)
let rec apply_effect t (x : Wire.Admin.t) =
  match x with
    | Wire.Admin.New_group_key { key; epoch } ->
        if String.length key = Key.size then
          t.group_key <- Some { Types.key = Key.of_raw Key.Group key; epoch };
        []
    | Wire.Admin.Member_joined who ->
        if not (List.mem who t.view) then
          t.view <- List.sort String.compare (who :: t.view);
        []
    | Wire.Admin.Member_left who | Wire.Admin.Member_expelled who ->
        t.view <- List.filter (fun m -> m <> who) t.view;
        []
    | Wire.Admin.Membership_snapshot members ->
        t.view <- List.sort_uniq String.compare members;
        []
    | Wire.Admin.Notice _ -> []
    | Wire.Admin.View_digest { digest; epoch } ->
        t.digests_seen <- t.digests_seen + 1;
        if String.equal digest (own_digest t) && epoch = own_epoch t then []
        else begin
          Metrics.incr t.counters Counter.divergences_detected;
          emit t (View_diverged { leader_epoch = epoch });
          resync_request t
        end
    | Wire.Admin.Queued { seq; stale; x = inner } ->
        if seq < t.delivery_floor then begin
          Metrics.incr t.counters Counter.deduped;
          []
        end
        else begin
          t.delivery_floor <- seq + 1;
          t.queued_applied_rev <- seq :: t.queued_applied_rev;
          if stale then begin
            t.stale_deliveries <- t.stale_deliveries + 1;
            []
          end
          else
            match inner with
            | Wire.Admin.New_group_key { epoch; _ } when epoch < own_epoch t ->
                []
            | _ -> apply_effect t inner
        end

let apply_admin t (x : Wire.Admin.t) =
  let followups = apply_effect t x in
  t.accepted_rev <- x :: t.accepted_rev;
  emit t (Admin_accepted x);
  followups

let handle_auth_key_dist t (frame : F.t) =
  match t.state with
  | S_waiting_for_key { n1 } -> (
      match Sealed_channel.open_ ~key:t.pa frame with
      | Error reason -> reject t ~label:frame.F.label reason
      | Ok plaintext -> (
          match P.decode_auth_key_dist plaintext with
          | Error e -> reject t ~label:frame.F.label (Types.Malformed e)
          | Ok { P.l; a; n1 = n1'; n2; ka } ->
              if l <> t.leader || a <> t.self then
                reject t ~label:frame.F.label Types.Identity_mismatch
              else if not (Wire.Nonce.equal n1 n1') then
                reject t ~label:frame.F.label Types.Stale_nonce
              else if String.length ka <> Key.size then
                reject t ~label:frame.F.label
                  (Types.Malformed "bad session key length")
              else begin
                let ka = Key.of_raw Key.Session ka in
                let n3 = Wire.Nonce.fresh t.rng in
                t.state <- S_connected { na = n3; ka };
                t.last_init <- None;
                emit t (Joined { session_key = ka });
                let plaintext = P.encode_auth_ack_key { P.n2; n3 } in
                let ack =
                  Sealed_channel.seal ~rng:t.rng ~key:ka ~label:F.Auth_ack_key
                    ~sender:t.self ~recipient:t.leader plaintext
                in
                t.last_key_ack <- Some (n2, ack);
                [ ack ]
              end))
  | S_connected _ -> (
      (* Already connected: a retransmitted AuthKeyDist for the
         handshake we just completed means our AuthAckKey was lost.
         Re-send the stored ack — no state change, so a replaying
         attacker learns nothing and moves nothing. *)
      match Sealed_channel.open_ ~key:t.pa frame with
      | Error reason -> reject t ~label:frame.F.label reason
      | Ok plaintext -> (
          match P.decode_auth_key_dist plaintext with
          | Error e -> reject t ~label:frame.F.label (Types.Malformed e)
          | Ok { P.l; a; n2; _ } -> (
              match t.last_key_ack with
              | Some (n2', ack)
                when l = t.leader && a = t.self && Wire.Nonce.equal n2 n2' ->
                  [ ack ]
              | _ ->
                  reject t ~label:frame.F.label
                    (Types.Wrong_state "not waiting for key"))))
  | S_not_connected ->
      reject t ~label:frame.F.label (Types.Wrong_state "not waiting for key")

let handle_admin_msg t (frame : F.t) =
  match t.state with
  | S_connected { na; ka } -> (
      match Sealed_channel.open_ ~key:ka frame with
      | Error reason -> reject t ~label:frame.F.label reason
      | Ok plaintext -> (
          match P.decode_admin_body plaintext with
          | Error e -> reject t ~label:frame.F.label (Types.Malformed e)
          | Ok { P.l; a; expected; next; x } ->
              if l <> t.leader || a <> t.self then
                reject t ~label:frame.F.label Types.Identity_mismatch
              else if not (Wire.Nonce.equal expected na) then (
                (* The freshness evidence N_{2i+1} does not match. If
                   this is a retransmission of the admin message we
                   accepted last (its AdminAck was lost), re-send the
                   stored ack so the leader's channel unblocks;
                   anything else is a replay or out-of-order message
                   and is silently rejected. *)
                match t.last_admin_ack with
                | Some (nl_prev, ack) when Wire.Nonce.equal next nl_prev ->
                    [ ack ]
                | _ -> reject t ~label:frame.F.label Types.Stale_nonce)
              else begin
                let followups = apply_admin t x in
                let n_next = Wire.Nonce.fresh t.rng in
                t.state <- S_connected { na = n_next; ka };
                let plaintext =
                  P.encode_admin_ack
                    { P.a = t.self; l = t.leader; echo = next; next = n_next }
                in
                let ack =
                  Sealed_channel.seal ~rng:t.rng ~key:ka ~label:F.Admin_ack
                    ~sender:t.self ~recipient:t.leader plaintext
                in
                t.last_admin_ack <- Some (next, ack);
                ack :: followups
              end))
  | S_not_connected | S_waiting_for_key _ ->
      reject t ~label:frame.F.label (Types.Wrong_state "not connected")

let handle_app_data t (frame : F.t) =
  match t.group_key with
  | None -> reject t ~label:frame.F.label (Types.Wrong_state "no group key")
  | Some { Types.key; _ } -> (
      match Sealed_channel.open_group ~key frame with
      | Error reason -> reject t ~label:frame.F.label reason
      | Ok plaintext -> (
          match P.decode_app_data plaintext with
          | Error e -> reject t ~label:frame.F.label (Types.Malformed e)
          | Ok { P.author; body } ->
              t.app_rev <- (author, body) :: t.app_rev;
              emit t (App_received { author; body });
              []))

(* A restarted leader proves it still holds our [K_a] by sealing a
   fresh challenge nonce under it. Answering re-seeds the admin nonce
   chain from our fresh nonce AND forgets the old session's §5.4 log
   ([rcv_A]) and stored admin ack: the leader's [snd_A] died in the
   crash, so both sides restart the ordered-prefix ledger together.
   Group key and membership view survive — that is what makes the
   recovery warm. A replayed challenge (same nonce) elicits the stored
   response; a forged one fails the seal.

   The challenger need not be the leader we joined: a warm-promoted
   successor manager recovers [K_a] from the replicated journal and
   challenges under it. Possession of [K_a] is the proof of
   legitimacy — only the leader (and, via the authenticated
   replication channel, the trusted manager set) ever holds it — so a
   challenge whose sealed [l] matches the frame's sender (bound into
   the AEAD associated data) is accepted, and the member follows the
   handoff by retargeting its [leader] to the challenger. *)
let handle_recovery_challenge t (frame : F.t) =
  match t.state with
  | S_connected { ka; _ } -> (
      match Sealed_channel.open_ ~key:ka frame with
      | Error reason -> reject t ~label:frame.F.label reason
      | Ok plaintext -> (
          match P.decode_recovery_challenge plaintext with
          | Error e -> reject t ~label:frame.F.label (Types.Malformed e)
          | Ok { P.l; a; nc } ->
              if l <> frame.F.sender || a <> t.self then
                reject t ~label:frame.F.label Types.Identity_mismatch
              else begin
                match t.last_recovery with
                | Some (nc', resp) when Wire.Nonce.equal nc nc' ->
                    (* Duplicate of the challenge we already answered:
                       the response was lost. Re-send it unchanged. *)
                    [ resp ]
                | _ ->
                    t.leader <- l;
                    let next = Wire.Nonce.fresh t.rng in
                    t.state <- S_connected { na = next; ka };
                    t.accepted_rev <- [];
                    t.last_admin_ack <- None;
                    emit t (Recovery_challenged { from = l });
                    let plaintext =
                      P.encode_recovery_response
                        { P.a = t.self; l = t.leader; echo = nc; next }
                    in
                    let resp =
                      Sealed_channel.seal ~rng:t.rng ~key:ka
                        ~label:F.Recovery_response ~sender:t.self
                        ~recipient:t.leader plaintext
                    in
                    t.last_recovery <- Some (nc, resp);
                    [ resp ]
              end))
  | S_not_connected | S_waiting_for_key _ ->
      reject t ~label:frame.F.label (Types.Wrong_state "not connected")

(* A cold-restarted leader announces itself with a beacon sealed under
   our long-term [P_a], carrying its journalled group-key epoch. The
   beacon alone resets NOTHING: we answer with a challenge carrying a
   fresh nonce [Nm], and only a live leader that echoes [Nm] back
   (also under [P_a]) convinces us to drop the dead session and
   rejoin. A replayed beacon therefore costs one challenge frame — the
   live leader rejects the challenge because we are still in session —
   and a beacon from an older incarnation is rejected outright by the
   epoch check. *)
let handle_cold_restart t (frame : F.t) =
  match t.state with
  | S_connected _ -> (
      match Sealed_channel.open_ ~key:t.pa frame with
      | Error reason -> reject t ~label:frame.F.label reason
      | Ok plaintext -> (
          match P.decode_cold_restart plaintext with
          | Error e -> reject t ~label:frame.F.label (Types.Malformed e)
          | Ok { P.l; a; epoch; nb } ->
              if l <> t.leader || a <> t.self then
                reject t ~label:frame.F.label Types.Identity_mismatch
              else if epoch < own_epoch t then
                reject t ~label:frame.F.label
                  (Types.Stale_epoch { got = epoch; have = own_epoch t })
              else begin
                match t.pending_cold with
                | Some (_, nb', _, chal) when Wire.Nonce.equal nb nb' ->
                    (* Duplicate beacon: our challenge was lost.
                       Re-send it unchanged. *)
                    [ chal ]
                | _ ->
                    let nm = Wire.Nonce.fresh t.rng in
                    let plaintext =
                      P.encode_cold_restart_challenge
                        { P.a = t.self; l = t.leader; echo = nb; nm }
                    in
                    let chal =
                      Sealed_channel.seal ~rng:t.rng ~key:t.pa
                        ~label:F.Cold_restart_challenge ~sender:t.self
                        ~recipient:t.leader plaintext
                    in
                    t.pending_cold <- Some (nm, nb, epoch, chal);
                    emit t (Cold_beacon_challenged { epoch });
                    [ chal ]
              end))
  | S_not_connected | S_waiting_for_key _ ->
      (* Out of session there is nothing to shortcut: the normal join
         path already applies. *)
      reject t ~label:frame.F.label (Types.Wrong_state "not connected")

let handle_cold_restart_ack t (frame : F.t) =
  match t.pending_cold with
  | None ->
      (* No challenge outstanding — a stray or replayed ack moves
         nothing. *)
      reject t ~label:frame.F.label (Types.Wrong_state "no cold challenge outstanding")
  | Some (nm, _, epoch, _) -> (
      match Sealed_channel.open_ ~key:t.pa frame with
      | Error reason -> reject t ~label:frame.F.label reason
      | Ok plaintext -> (
          match P.decode_cold_restart_ack plaintext with
          | Error e -> reject t ~label:frame.F.label (Types.Malformed e)
          | Ok { P.l; a; echo } ->
              if l <> t.leader || a <> t.self then
                reject t ~label:frame.F.label Types.Identity_mismatch
              else if not (Wire.Nonce.equal echo nm) then
                reject t ~label:frame.F.label Types.Stale_nonce
              else begin
                (* The restarted leader is live and answered our fresh
                   nonce: drop the dead session and rejoin now instead
                   of waiting out the watchdog. *)
                reset_session t;
                t.beacon_reset_pending <- true;
                emit t (Beacon_reset { epoch });
                join t
              end))

let consume_beacon_reset t =
  let v = t.beacon_reset_pending in
  t.beacon_reset_pending <- false;
  v

let send_app t body =
  match (t.state, t.group_key) with
  | S_connected _, Some { Types.key; _ } ->
      let plaintext = P.encode_app_data { P.author = t.self; body } in
      [
        Sealed_channel.seal_group ~rng:t.rng ~key ~label:F.App_data
          ~sender:t.self ~recipient:t.leader plaintext;
      ]
  | _ -> []

let receive t bytes =
  match F.decode bytes with
  | Error e -> reject t (Types.Malformed e)
  | Ok frame -> (
      match frame.F.label with
      | F.Auth_key_dist -> handle_auth_key_dist t frame
      | F.Admin_msg -> handle_admin_msg t frame
      | F.App_data -> handle_app_data t frame
      | F.Recovery_challenge -> handle_recovery_challenge t frame
      | F.Cold_restart -> handle_cold_restart t frame
      | F.Cold_restart_ack -> handle_cold_restart_ack t frame
      | F.Req_open | F.Ack_open | F.Connection_denied | F.Legacy_auth1
      | F.Legacy_auth2 | F.Legacy_auth3 | F.New_key | F.New_key_ack
      | F.Legacy_req_close | F.Close_connection | F.Mem_joined | F.Mem_removed
      | F.Auth_init_req | F.Auth_ack_key | F.Admin_ack | F.Req_close
      | F.Recovery_response | F.View_resync_req | F.Cold_restart_challenge
      | F.Repl_record | F.Repl_ack | F.Repl_fetch | F.Repl_stale ->
          (* The improved member consumes only the three labels above;
             everything else — legacy traffic, leader-bound messages,
             forged denials — is ignored. The absence of any reaction
             to Connection_denied is what closes attack A1. *)
          reject t ~label:frame.F.label (Types.Unexpected_label frame.F.label))
