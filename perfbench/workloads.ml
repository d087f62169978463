(* The four workloads. Each drives the system only through its public
   API. A run is a sequence of rounds: [setup] builds a fresh group
   (timed apart from the ops), then [step] issues ops one at a time,
   closed-loop — the next op starts only after the simulation has
   quiesced on the previous one.

   Every op of a workload has the same shape. An op that alternated
   between two shapes (a single leave, then a single join) puts the
   median between two cost modes, where it jumps with run length; a
   whole leave+rejoin cycle per op keeps it on one mode. *)

module D = Enclaves.Driver.Improved
module Leader = Enclaves.Leader
module Member = Enclaves.Member
module Rng = Prng.Splitmix

let leader_name = "leader"

let names n = Array.init n (Printf.sprintf "user%02d")
let directory names = Array.to_list (Array.map (fun w -> (w, w ^ "-pw")) names)

(* The calls an op makes. Untraced, they go through the driver. Traced,
   the same calls are made directly, each inside a span, and the
   driver's network handlers are replaced by ones making exactly the
   calls the driver's own make for this configuration (no pre-auth
   queue, no sentinel, no retry): [Leader.receive] / [Member.receive],
   then [Wire.Frame.encode] and [Netsim.Network.send] per reply. *)
type io = {
  leave : string -> unit;
  join : string -> unit;
  send_app : string -> string -> unit;
  broadcast_admin : Wire.Admin.t -> unit;
  rekey : unit -> unit;
  mark_online : string -> unit;
  run : unit -> int;
}

let plain d =
  {
    leave = D.leave d;
    join = D.join d;
    send_app = D.send_app d;
    broadcast_admin =
      (fun x -> D.dispatch_leader d (Leader.broadcast_admin (D.leader d) x));
    rekey = (fun () -> D.rekey d);
    mark_online = D.mark_online d;
    run = (fun () -> D.run d);
  }

let traced sp d names =
  let span k f = Spans.span sp k f in
  let net = D.net d in
  let leader = D.leader d in
  let send ~src frames =
    List.iter
      (fun (f : Wire.Frame.t) ->
        let bytes = span Wire_encode (fun () -> Wire.Frame.encode f) in
        span Netsim_send (fun () ->
            Netsim.Network.send net ~src ~dst:f.Wire.Frame.recipient bytes))
      frames
  in
  Netsim.Network.register net leader_name (fun bytes ->
      let via = Netsim.Network.delivering_via net in
      send ~src:leader_name
        (span Leader_receive (fun () -> Leader.receive leader ?via bytes)));
  Array.iter
    (fun who ->
      let m = D.member d who in
      Netsim.Network.register net who (fun bytes ->
          send ~src:who (span Member_receive (fun () -> Member.receive m bytes))))
    names;
  let member_call who f =
    send ~src:who (span Member_call (fun () -> f (D.member d who)))
  in
  let leader_call k f = send ~src:leader_name (span k f) in
  {
    leave = (fun who -> member_call who Member.leave);
    join = (fun who -> member_call who Member.join);
    send_app = (fun who body -> member_call who (fun m -> Member.send_app m body));
    broadcast_admin =
      (fun x -> leader_call Leader_call (fun () -> Leader.broadcast_admin leader x));
    rekey = (fun () -> leader_call Leader_call (fun () -> Leader.rekey leader));
    mark_online =
      (fun who ->
        leader_call Delivery_drain (fun () -> Leader.mark_online leader who));
    run = (fun () -> span Netsim_run (fun () -> D.run d));
  }

type round = {
  step : int -> unit -> bool;
      (** [step i] runs op [i] to quiescence and returns its check,
          which the caller runs outside the op's timing. *)
  driver : D.t option;  (** [None] for the model-checker workload. *)
  events : int ref;  (** Simulation events executed by the ops. *)
  fingerprint : unit -> string;
      (** End state: frame count, virtual time, epoch, and each
          member's view and log lengths (or the explored counts),
          compared between the untraced and traced runs. *)
}

type t = {
  name : string;
  per_round : int;  (** ops per round, so heap use is independent of speed *)
  setup : seed:int64 -> Spans.t option -> round;
}

let counted events io =
  { io with run = (fun () -> let n = io.run () in events := !events + n; n) }

(* A connected group of [n] with the journal on. [stop_retry] cancels
   the periodic beacon and watchdogs so every op can quiesce. *)
let build ~seed ?delivery names =
  let d =
    D.create ~seed ~recovery:D.default_recovery ?delivery ~leader:leader_name
      ~directory:(directory names) ()
  in
  D.stop_retry d;
  Array.iter
    (fun who ->
      D.join d who;
      ignore (D.run d))
    names;
  if not (D.view_converged d) then failwith "setup: group did not converge";
  d

let epoch d =
  match Leader.group_key (D.leader d) with
  | Some gk -> gk.Enclaves.Types.epoch
  | None -> -1

let fingerprint d names () =
  let views =
    Array.to_list names
    |> List.map (fun who ->
           let m = D.member d who in
           let e =
             match Member.group_key m with
             | Some gk -> gk.Enclaves.Types.epoch
             | None -> -1
           in
           Printf.sprintf "%s@%d:%s:%d:%d:%d" who e
             (String.concat "," (Member.group_view m))
             (List.length (Member.accepted_admin m))
             (List.length (Member.app_log m))
             (Member.delivery_floor m))
  in
  Printf.sprintf "frames=%d vtime=%Ld epoch=%d views=%s"
    (Netsim.Trace.length (Netsim.Network.trace (D.net d)))
    (Netsim.Sim.now (D.sim d))
    (epoch d)
    (Digest.to_hex
       (Digest.string
          (String.concat ";"
             (String.concat "," (Leader.members (D.leader d)) :: views))))

let runtime_round ~d ~names sp step =
  let events = ref 0 in
  let io =
    counted events (match sp with None -> plain d | Some sp -> traced sp d names)
  in
  { step = step io; driver = Some d; events; fingerprint = fingerprint d names }

let op_rng seed = Rng.create (Rng.remix (Int64.logxor seed 0x6f7073L))

(* churn-rekey: N=32, rekey on join and on leave, journal on. One op =
   one member's leave and re-join: two O(N) rekeys plus journal
   appends — the paper's leader bottleneck. *)
let churn_rekey =
  let n = 32 in
  let setup ~seed sp =
    let names = names n in
    let d = build ~seed names in
    let rng = op_rng seed in
    runtime_round ~d ~names sp (fun io _i ->
        let who = names.(Rng.next_int rng n) in
        io.leave who;
        ignore (io.run ());
        io.join who;
        ignore (io.run ());
        fun () ->
          (match Member.state (D.member d who) with
          | Member.Connected _ -> true
          | Member.Not_connected | Member.Waiting_for_key _ -> false)
          && D.view_converged d)
  in
  { name = "churn-rekey"; per_round = 80; setup }

(* steady-relay: N=16, no membership change. One op = one 64 B admin
   notice to every member plus one member's 1 KiB multicast. Nothing
   is journalled, so a journal or store change must not move it. *)
let steady_relay =
  let n = 16 in
  let setup ~seed sp =
    let names = names n in
    let d = build ~seed names in
    let rng = op_rng seed in
    runtime_round ~d ~names sp (fun io i ->
        let tag = Printf.sprintf "op%08d" i in
        let notice = tag ^ String.make (64 - String.length tag) '.' in
        let author = names.(Rng.next_int rng n) in
        let body = tag ^ Bytes.to_string (Rng.next_bytes rng (1024 - String.length tag)) in
        io.broadcast_admin (Wire.Admin.Notice notice);
        io.send_app author body;
        ignore (io.run ());
        fun () ->
          D.all_prefix_ok d
          && Array.for_all
               (fun who ->
                 who = author
                 ||
                 match List.rev (Member.app_log (D.member d who)) with
                 | (a, b) :: _ -> a = author && b = body
                 | [] -> false)
               names)
  in
  { name = "steady-relay"; per_round = 200; setup }

(* offline-drain: N=16 with store-and-forward delivery (epoch window 1,
   reject beyond it). Each op takes one member offline, broadcasts 8
   notices, rekeys, and brings back the member that went offline 3 ops
   earlier. Its drain therefore holds records from 4 epochs: in-window
   ones are re-sealed, older ones rejected. Setup primes the first 3
   departures so every op has the same shape. *)
let offline_members = 16
let offline_lag = 3
let offline_notices = 8

let offline_drain =
  let n = offline_members and lag = offline_lag and notices = offline_notices in
  let setup ~seed sp =
    let names = names n in
    let d = build ~seed ~delivery:Enclaves.Delivery.default_policy names in
    let rng = op_rng seed in
    let away = Queue.create () in
    let depart io i =
      let online =
        Array.to_list names
        |> List.filter (fun w -> not (Leader.is_offline (D.leader d) w))
      in
      let who = List.nth online (Rng.next_int rng (List.length online)) in
      D.mark_offline d who;
      Queue.push (who, Member.delivery_floor (D.member d who)) away;
      for k = 1 to notices do
        let tag = Printf.sprintf "op%08d-%d" i k in
        io.broadcast_admin
          (Wire.Admin.Notice (tag ^ String.make (64 - String.length tag) '.'))
      done;
      io.rekey ()
    in
    let prime = plain d in
    for i = 1 to lag do
      depart prime (-i);
      ignore (D.run d)
    done;
    runtime_round ~d ~names sp (fun io i ->
        depart io i;
        let back, floor = Queue.pop away in
        io.mark_online back;
        ignore (io.run ());
        fun () ->
          D.queue_depth d back = 0
          && Member.delivery_floor (D.member d back) >= floor
          && D.all_prefix_ok d)
  in
  { name = "offline-drain"; per_round = 80; setup }

(* verify-2join: the bounded model check at max_joins=2, max_nonces=8,
   max_admin=2, one domain. It uses no runtime layer, so a crypto or
   netsim change must not move it. Its inputs do not depend on the
   seed. Set-up, since there is no group to build, is the first
   exploration, which checks the recorded fixture. *)
let fixture_states = 6431
let fixture_edges = 10130

let verify_config =
  { Symbolic.Model.default_config with max_joins = 2; max_nonces = 8; max_admin = 2 }

let explore () = Symbolic.Explore.run ~config:verify_config ~jobs:1 ()

let fixture_ok r =
  Symbolic.Explore.state_count r = fixture_states
  && Symbolic.Explore.edge_count r = fixture_edges
  && not r.Symbolic.Explore.truncated

let verify_2join =
  let setup ~seed:_ sp =
    let span k f = match sp with None -> f () | Some sp -> Spans.span sp k f in
    let first = explore () in
    if not (fixture_ok first) then failwith "setup: verify fixture mismatch";
    let last = ref first in
    {
      step =
        (fun _i ->
          let r = span Explore explore in
          let reports =
            span Invariants (fun () ->
                Symbolic.Invariants.all ~config:verify_config r)
          in
          last := r;
          fun () ->
            fixture_ok r
            && List.for_all (fun rp -> rp.Symbolic.Invariants.holds) reports);
      driver = None;
      events = ref 0;
      fingerprint =
        (fun () ->
          Printf.sprintf "states=%d edges=%d"
            (Symbolic.Explore.state_count !last)
            (Symbolic.Explore.edge_count !last));
    }
  in
  { name = "verify-2join"; per_round = 6; setup }

let all = [ churn_rekey; steady_relay; offline_drain; verify_2join ]
let find name = List.find_opt (fun w -> w.name = name) all
