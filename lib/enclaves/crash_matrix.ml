(* ALICE-style crash-consistency matrix for the durable journal.

   A deterministic workload (session establishments, closes including
   a close-then-re-establish, epoch bumps, enough records to force
   several compactions) runs against a journal whose disk is a
   {!Store.Crashpoint.recorder}. Every backend operation the journal
   performs is logged; {!Store.Crashpoint.enumerate} then produces
   every disk image a crash could leave behind — durable and volatile
   views at every operation boundary plus torn-write variants — and
   each image is fed back through [Journal.replay] and
   [Leader.recover].

   Three invariants are asserted over EVERY image:

   - totality: neither replay nor leader recovery ever raises;
   - non-resurrection: a session whose last journalled event is a
     close never reappears in the recovered state (re-establishment
     after a close is of course legitimate);
   - epoch monotonicity: the recovered [next_epoch] dominates every
     epoch mentioned in the surviving records, and across boundaries
     in time order the durable epoch floor never moves backward.

   A fourth, durability, is asserted at every journal-API checkpoint:
   once a mutation has returned (its fsync completed), the durable
   image at that boundary replays Clean to exactly the live state —
   nothing acknowledged is ever lost. *)

module CP = Store.Crashpoint

type violation = { image : string; invariant : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s: %s" v.invariant v.image v.detail

type report = {
  ops : int;  (** backend operations the workload performed *)
  boundaries : int;  (** crash boundaries enumerated (ops + 1) *)
  images : int;  (** disk images checked *)
  unique_images : int;  (** distinct disk states among them *)
  clean : int;  (** images whose journal replayed [Clean] *)
  damaged : int;  (** images recovered as a valid strict prefix *)
  checkpoints : int;  (** durability checkpoints verified *)
  violations : violation list;
}

let pp_report ppf r =
  Format.fprintf ppf
    "crash-matrix: %d ops, %d boundaries, %d images (%d distinct): %d clean, \
     %d damaged, %d durability checkpoints, %d violations"
    r.ops r.boundaries r.images r.unique_images r.clean r.damaged r.checkpoints
    (List.length r.violations)

let key_of rng =
  String.init Sym_crypto.Key.size (fun _ ->
      Char.chr (Prng.Splitmix.next_int rng 256))

(* Ground truth for the resurrection check: fold the replayed records
   independently of [Journal.state_of_records], keeping only the LAST
   event per member. *)
let alive_per_records records =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r with
      | Journal.Session_established { member; _ } ->
          Hashtbl.replace tbl member true
      | Journal.Session_closed { member } -> Hashtbl.replace tbl member false
      | Journal.Epoch_bump _ -> ()
      | Journal.Snapshot s ->
          Hashtbl.reset tbl;
          List.iter (fun (m, _) -> Hashtbl.replace tbl m true) s.Journal.sessions)
    records;
  Hashtbl.fold (fun m alive acc -> if alive then m :: acc else acc) tbl []
  |> List.sort String.compare

let max_epoch_mentioned records =
  List.fold_left
    (fun acc r ->
      match r with
      | Journal.Epoch_bump { epoch; _ } -> max acc epoch
      | Journal.Snapshot s ->
          let e =
            match s.Journal.group_key with Some (_, e) -> e | None -> 0
          in
          max acc (max e (s.Journal.next_epoch - 1))
      | _ -> acc)
    0 records

let run ?(members = 4) ?(appends = 24) ?(compact_every = 8) ?(seed = 11L)
    ?(torn = true) () =
  let rng = Prng.Splitmix.create seed in
  let directory =
    List.init members (fun i ->
        let name = Printf.sprintf "m%d" i in
        (name, name ^ "-pw"))
  in
  let mem = Store.Mem.create () in
  let rec_ = CP.recorder mem in
  let disk = CP.handle rec_ in
  let j = Journal.create ~compact_every ~disk () in
  (* Durability checkpoints: after each journal mutation returns, the
     ops performed so far and the state the journal acknowledged. *)
  let checkpoints = ref [] in
  let mark () =
    checkpoints :=
      (List.length (CP.ops rec_), Journal.state j, Journal.contents j)
      :: !checkpoints
  in
  mark ();
  let epoch = ref 0 in
  let bump () =
    incr epoch;
    Journal.append j (Journal.Epoch_bump { key = key_of rng; epoch = !epoch });
    mark ()
  in
  let establish m =
    Journal.append j (Journal.Session_established { member = m; key = key_of rng });
    mark ()
  in
  let close m =
    Journal.append j (Journal.Session_closed { member = m });
    mark ()
  in
  (* The workload. [m1] closes and re-establishes (resurrection must be
     allowed through the front door); [m2] closes and stays closed
     (resurrection through recovery is the bug we hunt). *)
  List.iter (fun (m, _) -> establish m) directory;
  bump ();
  if members > 1 then close "m1";
  bump ();
  if members > 1 then establish "m1";
  if members > 2 then close "m2";
  for _ = 1 to appends do
    bump ()
  done;
  let ops = CP.ops rec_ in
  let images = CP.enumerate ~torn ops in
  let violations = ref [] in
  let flag image invariant detail = violations := { image; invariant; detail } :: !violations in
  let clean = ref 0 and damaged = ref 0 in
  let check_image (img : CP.image) =
    let bytes =
      Option.value ~default:"" (List.assoc_opt (Journal.file j) img.CP.files)
    in
    match Journal.replay bytes with
    | exception e ->
        flag img.CP.label "replay-total"
          (Printf.sprintf "replay raised %s" (Printexc.to_string e))
    | records, status ->
        (match status with
        | Journal.Clean -> incr clean
        | Journal.Damaged _ -> incr damaged);
        let state = Journal.state_of_records records in
        (* Non-resurrection: the recovered session set must match the
           last-event-wins fold — in particular a member whose last
           record is a close must be absent. *)
        let expect = alive_per_records records in
        let got = List.map fst state.Journal.sessions in
        if got <> expect then
          flag img.CP.label "non-resurrection"
            (Printf.sprintf "recovered sessions [%s], last-event fold says [%s]"
               (String.concat ", " got)
               (String.concat ", " expect));
        (* Epoch monotonicity within the image. *)
        let floor = max_epoch_mentioned records in
        if state.Journal.next_epoch <= floor then
          flag img.CP.label "epoch-monotone"
            (Printf.sprintf "next_epoch %d does not clear max journalled epoch %d"
               state.Journal.next_epoch floor);
        (match state.Journal.group_key with
        | Some (_, e) when e >= state.Journal.next_epoch ->
            flag img.CP.label "epoch-monotone"
              (Printf.sprintf "group epoch %d >= next_epoch %d" e
                 state.Journal.next_epoch)
        | _ -> ());
        (* Leader recovery must accept every image: rebuild and check
           it challenges exactly the journalled sessions. *)
        (match
           let j', state', _ = Journal.recover bytes in
           let lrng = Prng.Splitmix.create (Int64.add seed 1L) in
           Leader.recover ~self:"leader" ~rng:lrng ~directory ~journal:j'
             ~state:state' ()
         with
        | exception e ->
            flag img.CP.label "recover-total"
              (Printf.sprintf "Leader.recover raised %s" (Printexc.to_string e))
        | _, frames ->
            let n = List.length state.Journal.sessions in
            if List.length frames <> n then
              flag img.CP.label "recover-total"
                (Printf.sprintf "%d recovery challenges for %d sessions"
                   (List.length frames) n))
  in
  List.iter check_image images;
  (* Durability lower bound: at every acknowledged checkpoint the
     durable image replays Clean to the acknowledged bytes. *)
  let cps = List.rev !checkpoints in
  List.iter
    (fun (boundary, state, bytes) ->
      let label = Printf.sprintf "checkpoint at boundary %d" boundary in
      let durable =
        Option.value ~default:""
          (List.assoc_opt (Journal.file j) (CP.durable_at ops boundary))
      in
      if durable <> bytes then
        flag label "durability"
          (Printf.sprintf "durable image (%d bytes) != acknowledged journal (%d bytes)"
             (String.length durable) (String.length bytes))
      else
        match Journal.replay durable with
        | _, Journal.Damaged _ ->
            flag label "durability" "acknowledged journal replays damaged"
        | records, Journal.Clean ->
            let got = Journal.state_of_records records in
            if got <> state then
              flag label "durability"
                "replayed state differs from acknowledged state")
    cps;
  (* Epoch floor across time: walking the boundaries in order, the
     durable next_epoch never decreases. *)
  let n_ops = List.length ops in
  let last_floor = ref 0 in
  for b = 0 to n_ops do
    let durable =
      Option.value ~default:""
        (List.assoc_opt (Journal.file j) (CP.durable_at ops b))
    in
    let records, _ = Journal.replay durable in
    let e = (Journal.state_of_records records).Journal.next_epoch in
    if e < !last_floor then
      flag
        (Printf.sprintf "boundary %d: durable" b)
        "epoch-monotone"
        (Printf.sprintf "durable epoch floor regressed %d -> %d" !last_floor e);
    last_floor := max !last_floor e
  done;
  {
    ops = n_ops;
    boundaries = n_ops + 1;
    images = List.length images;
    unique_images = CP.dedup_count images;
    clean = !clean;
    damaged = !damaged;
    checkpoints = List.length cps;
    violations = List.rev !violations;
  }

(* The same matrix over a store-and-forward delivery queue: a workload
   of pushes (across several epochs), cumulative acks, policy drops and
   forced compactions runs against a crash-point recorder, and every
   enumerable crash image is replayed. Beyond totality, the two
   delivery-specific invariants:

   - no duplicate-after-replay: the recovered pending set never holds
     one delivery seq twice, out of order, or below the ack floor —
     replaying any crash image of the queue file cannot make a drain
     deliver an entry twice (the at-least-once story is the in-memory
     redelivery path, not file corruption);
   - no acknowledged-then-lost: at every checkpoint where a queue
     mutation has returned, the durable image replays Clean to exactly
     the acknowledged state — an acked floor or a pushed entry, once
     confirmed, survives any subsequent crash;

   plus floor monotonicity across boundaries in time order. *)
let run_queue ?(pushes = 18) ?(compact_every = 6) ?(seed = 12L) ?(torn = true)
    () =
  let rng = Prng.Splitmix.create seed in
  let mem = Store.Mem.create () in
  let rec_ = CP.recorder mem in
  let disk = CP.handle rec_ in
  let q = Store.Queue.create ~compact_every ~disk ~file:"queue-m1" () in
  let checkpoints = ref [] in
  let mark () =
    checkpoints :=
      (List.length (CP.ops rec_), Store.Queue.state q, Store.Queue.contents q)
      :: !checkpoints
  in
  mark ();
  (* The workload: pushes spread over epochs, a mid-stream cumulative
     ack, one policy drop, more pushes (forcing compactions past the
     ack floor), a final ack. *)
  let payload i = Printf.sprintf "payload-%d-%d" i (Prng.Splitmix.next_int rng 1000) in
  let pushed = ref [] in
  for i = 1 to pushes do
    let e = Store.Queue.push q ~epoch:(i / 4) (payload i) in
    pushed := e :: !pushed;
    mark ();
    if i = pushes / 3 then begin
      Store.Queue.ack q ~upto:(e.Store.Queue.seq - 1);
      mark ()
    end;
    if i = pushes / 2 then begin
      Store.Queue.drop q ~seq:e.Store.Queue.seq;
      mark ()
    end
  done;
  Store.Queue.ack q ~upto:(Store.Queue.next_seq q - 2);
  mark ();
  let ops = CP.ops rec_ in
  let images = CP.enumerate ~torn ops in
  let violations = ref [] in
  let flag image invariant detail =
    violations := { image; invariant; detail } :: !violations
  in
  let clean = ref 0 and damaged = ref 0 in
  let check_image (img : CP.image) =
    let bytes =
      Option.value ~default:""
        (List.assoc_opt (Store.Queue.file q) img.CP.files)
    in
    match Store.Queue.replay bytes with
    | exception e ->
        flag img.CP.label "replay-total"
          (Printf.sprintf "queue replay raised %s" (Printexc.to_string e))
    | records, status -> (
        (match status with
        | Store.Queue.Clean -> incr clean
        | Store.Queue.Damaged _ -> incr damaged);
        let state = Store.Queue.state_of_records records in
        (* No duplicate-after-replay: pending seqs strictly increasing,
           none below the floor, none at or past next_seq. *)
        let rec walk last = function
          | [] -> ()
          | (e : Store.Queue.entry) :: rest ->
              if e.Store.Queue.seq <= last then
                flag img.CP.label "no-duplicate"
                  (Printf.sprintf "pending seq %d repeats or regresses after %d"
                     e.Store.Queue.seq last);
              if e.Store.Queue.seq < state.Store.Queue.floor then
                flag img.CP.label "no-duplicate"
                  (Printf.sprintf "pending seq %d below ack floor %d"
                     e.Store.Queue.seq state.Store.Queue.floor);
              if e.Store.Queue.seq >= state.Store.Queue.next_seq then
                flag img.CP.label "no-duplicate"
                  (Printf.sprintf "pending seq %d at or past next_seq %d"
                     e.Store.Queue.seq state.Store.Queue.next_seq);
              walk e.Store.Queue.seq rest
        in
        walk (-1) state.Store.Queue.pending;
        (* Recovery must accept the image too. *)
        match Store.Queue.recover bytes with
        | exception e ->
            flag img.CP.label "recover-total"
              (Printf.sprintf "queue recover raised %s" (Printexc.to_string e))
        | q', state', _ ->
            if Store.Queue.state q' <> state' then
              flag img.CP.label "recover-total"
                "recovered queue state differs from replayed fold")
  in
  List.iter check_image images;
  (* No acknowledged-then-lost: at every acknowledged checkpoint the
     durable image replays Clean to the acknowledged state. *)
  let cps = List.rev !checkpoints in
  List.iter
    (fun (boundary, state, bytes) ->
      let label = Printf.sprintf "queue checkpoint at boundary %d" boundary in
      let durable =
        Option.value ~default:""
          (List.assoc_opt (Store.Queue.file q) (CP.durable_at ops boundary))
      in
      if durable <> bytes then
        flag label "durability"
          (Printf.sprintf
             "durable image (%d bytes) != acknowledged queue (%d bytes)"
             (String.length durable) (String.length bytes))
      else
        match Store.Queue.replay durable with
        | _, Store.Queue.Damaged _ ->
            flag label "durability" "acknowledged queue replays damaged"
        | records, Store.Queue.Clean ->
            let got = Store.Queue.state_of_records records in
            if got <> state then
              flag label "durability"
                "replayed queue state differs from acknowledged state")
    cps;
  (* Ack-floor monotonicity across boundaries in time order. *)
  let n_ops = List.length ops in
  let last_floor = ref 0 in
  for b = 0 to n_ops do
    let durable =
      Option.value ~default:""
        (List.assoc_opt (Store.Queue.file q) (CP.durable_at ops b))
    in
    let records, _ = Store.Queue.replay durable in
    let f = (Store.Queue.state_of_records records).Store.Queue.floor in
    if f < !last_floor then
      flag
        (Printf.sprintf "boundary %d: durable" b)
        "floor-monotone"
        (Printf.sprintf "durable ack floor regressed %d -> %d" !last_floor f);
    last_floor := max !last_floor f
  done;
  ignore !pushed;
  {
    ops = n_ops;
    boundaries = n_ops + 1;
    images = List.length images;
    unique_images = CP.dedup_count images;
    clean = !clean;
    damaged = !damaged;
    checkpoints = List.length cps;
    violations = List.rev !violations;
  }

(* The queue matrix composed with the resource-fault layer: the same
   crash-point enumeration, but the workload crosses an ENOSPC window
   mid-stream. The fault wrapper sits between the delivery layer and
   the recorder, so refused writes never reach the op log — the
   enumerated images are exactly the states the DISK could be left in,
   including the stale-but-valid image the disarmed mirror preserves
   through the degraded window and the re-arm snapshot that replaces
   it. *)
let run_degraded ?(pushes = 20) ?(compact_every = 64) ?(seed = 13L)
    ?(torn = true) () =
  let rng = Prng.Splitmix.create seed in
  let mem = Store.Mem.create () in
  let rec_ = CP.recorder mem in
  let fault = Store.Fault.create ~rng:(Prng.Splitmix.split rng) (CP.handle rec_) in
  let disk = Store.Fault.handle fault in
  let member = "m1" in
  let file = Delivery.file_of_member member in
  let d =
    Delivery.create
      ~budgets:{ Delivery.per_member_bytes = Some 220; global_bytes = None }
      ~compact_every ~disk ()
  in
  let gk i = Wire.Admin.New_group_key { key = key_of rng; epoch = i } in
  (* Checkpoints only where the mirror is armed and clean: inside the
     degraded window the durable image lags memory by design, so
     durability is only promised at armed boundaries. *)
  let checkpoints = ref [] in
  let mark () =
    if not (Delivery.dirty d) then
      checkpoints :=
        ( List.length (CP.ops rec_),
          List.assoc_opt file (Delivery.files d) )
        :: !checkpoints
  in
  mark ();
  let squeeze_at = pushes / 3 and release_at = 2 * pushes / 3 in
  for i = 1 to pushes do
    if i = squeeze_at then
      Store.Fault.set_space_budget fault
        (Some (Store.Fault.bytes_used fault + 30));
    if i = release_at then begin
      Store.Fault.set_space_budget fault None;
      ignore (Delivery.flush d)
    end;
    Delivery.enqueue d ~member ~epoch:(i / 4) (gk (i / 4));
    mark ()
  done;
  Store.Fault.set_space_budget fault None;
  let flushed = Delivery.flush d in
  mark ();
  let ops = CP.ops rec_ in
  let images = CP.enumerate ~torn ops in
  let violations = ref [] in
  let flag image invariant detail =
    violations := { image; invariant; detail } :: !violations
  in
  if not flushed then
    flag "final" "rearm" "flush failed with the budget released";
  if Metrics.get (Delivery.counters d) Delivery.Counter.records_shed = 0 then
    flag "final" "workload" "the ENOSPC window shed nothing — matrix is vacuous";
  let clean = ref 0 and damaged = ref 0 in
  let check_image (img : CP.image) =
    let bytes = Option.value ~default:"" (List.assoc_opt file img.CP.files) in
    match Store.Queue.replay bytes with
    | exception e ->
        flag img.CP.label "replay-total"
          (Printf.sprintf "queue replay raised %s" (Printexc.to_string e))
    | records, status -> (
        (match status with
        | Store.Queue.Clean -> incr clean
        | Store.Queue.Damaged _ -> incr damaged);
        let state = Store.Queue.state_of_records records in
        let rec walk last = function
          | [] -> ()
          | (e : Store.Queue.entry) :: rest ->
              if e.Store.Queue.seq <= last then
                flag img.CP.label "no-duplicate"
                  (Printf.sprintf "pending seq %d repeats or regresses after %d"
                     e.Store.Queue.seq last);
              if e.Store.Queue.seq < state.Store.Queue.floor then
                flag img.CP.label "no-duplicate"
                  (Printf.sprintf "pending seq %d below ack floor %d"
                     e.Store.Queue.seq state.Store.Queue.floor);
              walk e.Store.Queue.seq rest
        in
        walk (-1) state.Store.Queue.pending;
        match Store.Queue.recover bytes with
        | exception e ->
            flag img.CP.label "recover-total"
              (Printf.sprintf "queue recover raised %s" (Printexc.to_string e))
        | q', state', _ ->
            if Store.Queue.state q' <> state' then
              flag img.CP.label "recover-total"
                "recovered queue state differs from replayed fold")
  in
  List.iter check_image images;
  (* Durability at armed checkpoints: the durable image replays Clean
     to exactly the acknowledged image. *)
  let cps = List.rev !checkpoints in
  List.iter
    (fun (boundary, live) ->
      let label =
        Printf.sprintf "degraded checkpoint at boundary %d" boundary
      in
      let durable =
        Option.value ~default:""
          (List.assoc_opt file (CP.durable_at ops boundary))
      in
      let live = Option.value ~default:"" live in
      if durable <> live then
        flag label "durability"
          (Printf.sprintf "durable image (%d bytes) != armed live image (%d bytes)"
             (String.length durable) (String.length live))
      else if String.length durable > 0 then
        match Store.Queue.replay durable with
        | _, Store.Queue.Damaged _ ->
            flag label "durability" "armed image replays damaged"
        | _, Store.Queue.Clean -> ())
    cps;
  (* No shed-seq resurrection: the final durable image replays to
     exactly the live post-flush state, whose pending set excludes
     every shed record. *)
  let final_durable =
    Option.value ~default:""
      (List.assoc_opt file (CP.durable_at ops (List.length ops)))
  in
  let final_live = Option.value ~default:"" (List.assoc_opt file (Delivery.files d)) in
  let st_of b = Store.Queue.state_of_records (fst (Store.Queue.replay b)) in
  if st_of final_durable <> st_of final_live then
    flag "final" "no-resurrection"
      "final durable image does not replay to the post-flush live state";
  {
    ops = List.length ops;
    boundaries = List.length ops + 1;
    images = List.length images;
    unique_images = CP.dedup_count images;
    clean = !clean;
    damaged = !damaged;
    checkpoints = List.length cps;
    violations = List.rev !violations;
  }
