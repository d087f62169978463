(* What the seeded CLI soaks (chaos, failover, churn, intrude,
   calibrate, nemesis) share: one sweep runner, one member directory,
   the attack and clean-chaos phases, the end-state checks, and the
   table of named sentinel configurations. Each soak subcommand in
   [enclaves_cli.ml] is a preset built from these. *)

module D = Enclaves.Driver.Improved
module S = Enclaves.Sentinel

(* --- minimal JSON emission (no dependency; the sweeps' numbers are
   ints, floats, bools and flat counter tables) --- *)

module Json = struct
  type t =
    | Str of string
    | Int of int
    | Float of float
    | Bool of bool
    | Obj of (string * t) list
    | Arr of t list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec render = function
    | Str s -> "\"" ^ escape s ^ "\""
    | Int n -> string_of_int n
    | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Printf.sprintf "%.1f" f
        else Printf.sprintf "%g" f
    | Bool b -> string_of_bool b
    | Obj fields ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ render v) fields)
        ^ "}"
    | Arr items -> "[" ^ String.concat "," (List.map render items) ^ "]"

  let counters named = Obj (List.map (fun (k, v) -> (k, Int v)) named)
end

(* --- the sweep runner --- *)

(* The sweep's outcome: the exit status, the top-level JSON fields
   that follow the rows, and the closing text. *)
type summary = { ok : bool; fields : (string * Json.t) list; text : string }

let seeds_from first n = List.init n (fun i -> Int64.add first (Int64.of_int i))

(* Run [one] over [items] (usually seeds). [one text item] writes the
   item's human-readable lines into [text] and returns its verdict and
   JSON row. In text mode the sweep prints [header], each item's lines
   as it finishes, then the summary's text; with [json] it prints one
   document [{command, params..., runs, summary fields...}]. Exits 0
   iff the summary is ok. *)
let sweep ~command ~json ?(runs = "runs") ~params ~header ~summary one items =
  if not json then print_string header;
  let results =
    List.map
      (fun x ->
        let text = Buffer.create 256 in
        let r = one text x in
        if not json then (
          print_string (Buffer.contents text);
          flush stdout);
        r)
      items
  in
  let s = summary (List.map fst results) in
  if json then
    print_endline
      (Json.render
         (Json.Obj
            ((("command", Json.Str command) :: params)
            @ ((runs, Json.Arr (List.map snd results)) :: s.fields))))
  else print_string s.text;
  if s.ok then 0 else 1

let count p l = List.length (List.filter p l)

(* The usual verdict: every seed converged. *)
let converged ?(what = "converged") oks =
  let ok_n = count Fun.id oks and seeds = List.length oks in
  {
    ok = ok_n = seeds;
    fields =
      [
        ( "summary",
          Json.Obj [ ("converged", Json.Int ok_n); ("seeds", Json.Int seeds) ]
        );
      ];
    text = Printf.sprintf "\n%d/%d seeds %s\n" ok_n seeds what;
  }

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Merge freshly produced [rows] (pre-rendered JSON result objects)
   into the bench trajectory file at [path] under [group], preserving
   every row of every other group the benchmark harness (or another
   sweep) wrote — and letting them preserve these rows in turn. *)
let merge_bench_group ~path ~group rows =
  let old_lines =
    if Sys.file_exists path then
      String.split_on_char '\n'
        (In_channel.with_open_text path In_channel.input_all)
    else []
  in
  let strip_comma l =
    let t = String.trim l in
    if t <> "" && t.[String.length t - 1] = ',' then
      String.sub t 0 (String.length t - 1)
    else t
  in
  let keep =
    List.filter_map
      (fun l ->
        let t = String.trim l in
        if
          String.length t > 1
          && t.[0] = '{'
          && not (contains_sub t ("\"group\": \"" ^ group ^ "\""))
        then Some (strip_comma l)
        else None)
      old_lines
  in
  let mode =
    List.fold_left
      (fun acc l ->
        let t = String.trim l in
        if String.length t >= 7 && String.sub t 0 7 = "\"mode\":" then
          match String.split_on_char '"' t with
          | _ :: _ :: _ :: v :: _ -> v
          | _ -> acc
        else acc)
      "none" old_lines
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"enclaves-bench/1\",\n";
  Printf.fprintf oc "  \"mode\": \"%s\",\n" mode;
  Printf.fprintf oc "  \"results\": [";
  let first = ref true in
  List.iter
    (fun row ->
      Printf.fprintf oc "%s\n    %s" (if !first then "" else ",") row;
      first := false)
    (keep @ rows);
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc

(* --- the group --- *)

let directory members =
  List.init members (fun i ->
      let name = Printf.sprintf "user%d" i in
      (name, name ^ "-pw"))

let insider = ("mallory", "mallory-pw")

(* The honest member a wire-level framing campaign impersonates. *)
let victim = "user0"

(* The honest members that are up before an attack, and the last
   [n_late] of them, who join in the middle of it. *)
let split_late honest n_late =
  let n = List.length honest in
  ( List.filteri (fun i _ -> i < n - n_late) honest,
    List.filteri (fun i _ -> i >= n - n_late) honest )

(* --- named sentinel configurations --- *)

(* The tuning points calibrate sweeps; [intrude --sentinel-profile]
   takes their labels. The first is the shipped default and the second
   the pre-attribution baseline the shipped point must dominate. *)
let sentinel_profiles =
  let b = S.default_config in
  [
    ("shipped", b);
    ("no-attribution", { b with S.attribution = false });
    ("wire-discount-0.5", { b with S.wire_discount = 0.5 });
    ("wire-discount-1.0", { b with S.wire_discount = 1.0 });
    ("no-corroboration", { b with S.corroborate_floor = 0.0 });
    ("quarantine-15", { b with S.quarantine_at = 15.0; expel_at = 40.0 });
    ("quarantine-40", { b with S.quarantine_at = 40.0; expel_at = 90.0 });
    ("half-life-1s", { b with S.half_life = Netsim.Vtime.of_s 1 });
    ("half-life-4s", { b with S.half_life = Netsim.Vtime.of_s 4 });
  ]

(* --- phases --- *)

let run_until d s = ignore (D.run ~until:(Netsim.Vtime.of_s s) d)
let run_until_ms d ms = ignore (D.run ~until:(Netsim.Vtime.of_ms ms) d)

(* A clean-chaos run: every member joins over the fault [plan] and the
   simulation runs to [until]; [crash] schedules a leader crash and a
   restart [(at, restart_after, warm)] once the joins are queued. *)
let chaos_run ?retry ?recovery ?storage_faults ?preauth ?intrusion ?crash
    ~plan ~directory ~until seed =
  let d =
    D.create ~seed ?retry ?recovery ?storage_faults ?preauth ?intrusion
      ~leader:"leader" ~directory ()
  in
  Netsim.Network.set_faultplan (D.net d) (Some plan);
  List.iter (fun (n, _) -> D.join d n) directory;
  Option.iter
    (fun (at, restart_after, warm) ->
      D.schedule_leader_crash d ~at ~restart_after ~warm ())
    crash;
  ignore (D.run ~until d);
  d

type actor = Insider of Adversary.Insider.t | Outsider of Adversary.Outsider.t

let framing = function
  | Netsim.Intruder.Frame_replay | Netsim.Intruder.Frame_flood -> true
  | _ -> false

(* The attack's opening, 0 s to 2.2 s. The early members join, the
   insider too unless the arm is a wire-level framing campaign. Then
   the attacker gets material: for framing, the victim sends
   leader-bound traffic, so the replay arm has genuinely-MACed frames
   to re-inject under its name; for an insider, its own replayable
   traffic and a pocketed session key, after which the group rotates
   so the pocketed key is genuinely retired when the forge arm reuses
   it. *)
let prelude d ~early arm =
  let framing = framing arm in
  List.iter (fun (n, _) -> D.join d n)
    (early @ if framing then [] else [ (fst insider, "") ]);
  run_until d 2;
  if framing then begin
    D.send_app d victim "victim chatter";
    run_until_ms d 2200;
    Outsider (Adversary.Outsider.create ~driver:d ~victim ())
  end
  else begin
    D.send_app d (fst insider) "insider chatter";
    run_until_ms d 2200;
    let i =
      Adversary.Insider.create ~driver:d ~insider:(fst insider)
        ~password:(snd insider) ()
    in
    ignore (Adversary.Insider.harvest i);
    D.rekey d;
    Insider i
  end

(* The campaign runs from 3 s to 6 s, 8 frames every 20 ms: five times
   the pre-auth queue's service rate (4 per 50 ms) with refills faster
   than the pump drains, so without admission control the queue stays
   pinned at capacity and tail-drops legitimate joins for the whole
   window. *)
let launch actor arm =
  let c =
    Netsim.Intruder.campaign ~arm ~start:(Netsim.Vtime.of_s 3)
      ~stop:(Netsim.Vtime.of_s 6)
      ~period:(Netsim.Vtime.of_ms 20)
      ~burst:8 ()
  in
  ignore
    (match actor with
    | Insider i -> Adversary.Insider.launch i c
    | Outsider o -> Adversary.Outsider.launch o c)

(* --- end-state checks --- *)

let quarantined d who =
  match D.sentinel d with
  | None -> false
  | Some sn -> S.level_rank (S.level sn who) >= S.level_rank S.Quarantined

let honest_quarantined d honest =
  List.exists (fun (n, _) -> quarantined d n) honest

let connected d members =
  count (fun (n, _) -> Enclaves.Member.is_connected (D.member d n)) members

(* The wire pseudo-peer is contained: scored to quarantine, or its
   injections dropped at the door. *)
let wire_contained d =
  quarantined d S.wire_peer
  || Metrics.find (D.counters d) D.Counter.injections_blocked > 0

(* Every honest member is in session on the leader's epoch and view.
   The insider is left out: it is expected to end quarantined and out
   of the view. *)
let honest_view_reconverged d honest =
  let lview = Enclaves.Leader.members (D.leader d) in
  match Enclaves.Leader.group_key (D.leader d) with
  | None -> false
  | Some gk ->
      List.for_all
        (fun (n, _) ->
          let m = D.member d n in
          Enclaves.Member.is_connected m
          && (match Enclaves.Member.group_key m with
             | Some gk' -> gk'.Enclaves.Types.epoch = gk.Enclaves.Types.epoch
             | None -> false)
          && Enclaves.Member.group_view m = lview)
        honest

(* Post-containment secrecy probe: [secret], sent after containment,
   must be unreadable to an eavesdropper who holds every key the
   attacker ever pocketed AND the whole wire trace, including the early
   group-key distributions wrapped under the insider's session key.
   Only the emergency rekey (which excluded the suspect) makes this
   hold; without it the insider is still a member, its session key
   unwraps every rotation, and the secret reads straight off the wire.
   A pure wire attacker pockets nothing, so for the framing arms the
   probe checks the replayed or fabricated traffic leaked no key
   material. *)
let secret_unreadable d actor secret =
  let know = Adversary.Knowledge.create () in
  (match actor with
  | Insider i ->
      List.iter
        (Adversary.Knowledge.add_key know)
        (Adversary.Insider.retired_keys i)
  | Outsider _ -> ());
  let trace = Netsim.Network.trace (D.net d) in
  Adversary.Knowledge.observe_trace know trace;
  Adversary.Knowledge.saturate know;
  not
    (List.exists
       (fun payload ->
         match Adversary.Knowledge.decrypt_app know payload with
         | Some (_, body) -> body = secret
         | None -> false)
       (Netsim.Trace.payloads trace))

(* intrude's and calibrate's attack run, up to 8 s: the prelude, the
   campaign, the late joins at 4 s (scored at 7 s, one second after the
   campaign window closes — the deadline that separates "rode through
   the flood" from "eventually recovered once it stopped"). Returns the
   driver, the attacker and how many late joins landed. *)
let attack_run ?intrusion ~honest ~n_late arm seed =
  let early, late = split_late honest n_late in
  let d =
    D.create ~seed ~retry:true ~preauth:true
      ?intrusion ~leader:"leader" ~directory:(honest @ [ insider ]) ()
  in
  let actor = prelude d ~early arm in
  launch actor arm;
  run_until d 4;
  List.iter (fun (n, _) -> D.join d n) late;
  run_until d 7;
  let joins_ok = connected d late in
  run_until d 8;
  (d, actor, joins_ok)
