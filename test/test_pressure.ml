(* Properties of the resource-pressure machinery: the delivery byte
   budgets (shedding is always covered by a durable [Drop] marker, the
   ack floor never regresses) and the leader's degraded-mode ladder
   (monotone descent inside a pressure episode, exactly one recovery
   to [Healthy] once space returns). *)

open Enclaves
module Q = Store.Queue
module A = Wire.Admin
module L = Leader

let gk epoch = A.New_group_key { key = String.make 32 'k'; epoch }

(* Replay a queue image to its post-recovery state. *)
let state_of image =
  let _, state, _ = Q.recover image in
  state

let pending_seqs (state : Q.state) =
  List.map (fun (e : Q.entry) -> e.Q.seq) state.Q.pending

(* --- shedding: durable Drop markers, no floor regression --- *)

(* Drive a budgeted, disk-backed delivery layer through an enqueue
   storm with an ENOSPC window in the middle. Afterwards, with space
   restored and [flush] run:

   - the durable image of every queue must replay to exactly the live
     state — a shed record missing its [Drop] marker would resurrect
     on replay and break the equality;
   - no queue's durable floor may ever regress;
   - every byte bound holds on the durable images.

   With [~bite] (the property's generator) the storm is non-vacuous by
   construction: a run of [burst] consecutive pushes to a fourth
   member, never acked, lands somewhere in it. Each push record carries
   a 32-byte key plus framing, so the burst alone overflows the 256 B
   per-member budget. Without [~bite] the storm is the original fully
   random one, kept for the recorded regression seeds. *)
let burst = 8

type storm = { bounds_hold : bool; shed : int; sound : bool }

let storm ~bite seed =
  let rng = Prng.Splitmix.create (Int64.of_int seed) in
  let mem = Store.Mem.create () in
  let fault = Store.Fault.create ~rng:(Prng.Splitmix.split rng) (Store.Mem.handle mem) in
  let backend = Store.Fault.handle fault in
  let budgets =
    { Delivery.per_member_bytes = Some 256; global_bytes = Some 700 }
  in
  let d = Delivery.create ~budgets ~disk:backend () in
  let members = [ "a"; "b"; "c" ] in
  (* The burst's target: a queue nothing else touches, so no ack floor
     raised by the random acks (their [upto] may run ahead of a
     queue's seqs) can absorb its pushes. *)
  let burster = "d" in
  let floors = Hashtbl.create 4 in
  let floor_ok = ref true in
  let check_floors () =
    List.iter
      (fun m ->
        let file = Delivery.file_of_member m in
        match Store.Backend.read backend ~file with
        | None -> ()
        | Some image ->
            let f = (state_of image).Q.floor in
            let prev = Option.value ~default:(-1) (Hashtbl.find_opt floors m) in
            if f < prev then floor_ok := false;
            Hashtbl.replace floors m (max prev f))
      (burster :: members)
  in
  let n = 30 + Prng.Splitmix.next_int rng 30 in
  let squeeze_at = 10 + Prng.Splitmix.next_int rng 10 in
  let release_at = squeeze_at + 5 + Prng.Splitmix.next_int rng 10 in
  let burst_at = if bite then Prng.Splitmix.next_int rng (n - burst) else n in
  let in_burst i = i >= burst_at && i < burst_at + burst in
  for i = 0 to n - 1 do
    if i = squeeze_at then
      Store.Fault.set_space_budget fault (Some (Store.Fault.bytes_used fault + 40));
    if i = release_at then Store.Fault.set_space_budget fault None;
    let m =
      if in_burst i then burster
      else List.nth members (Prng.Splitmix.next_int rng 3)
    in
    Delivery.enqueue d ~member:m ~epoch:i (gk i);
    (* Random acks keep the floors moving so regression is observable. *)
    if (not (in_burst i)) && Prng.Splitmix.next_int rng 4 = 0 then
      Delivery.ack d ~member:m ~upto:(1 + Prng.Splitmix.next_int rng (i + 1));
    check_floors ()
  done;
  Store.Fault.set_space_budget fault None;
  let flushed = Delivery.flush d in
  let durable_matches_live =
    List.for_all
      (fun (file, live) ->
        match Store.Backend.read backend ~file with
        | None -> String.length live = 0
        | Some durable -> state_of durable = state_of live)
      (Delivery.files d)
  in
  let bounds_hold =
    Delivery.total_bytes d <= 700
    && List.for_all
         (fun (_, live) -> String.length live <= 256)
         (Delivery.files d)
  in
  {
    bounds_hold;
    shed = (Delivery.counters d).Delivery.records_shed;
    sound =
      flushed && (not (Delivery.dirty d)) && durable_matches_live && !floor_ok;
  }

let shed_storm seed =
  let r = storm ~bite:true seed in
  r.sound && r.bounds_hold
  && r.shed > 0 (* the storm must actually bite for the run to count *)

(* Storms whose last operation was an [Ack] used to end with a queue
   image of 265 B against the 256 B budget: budgets were enforced
   after pushes only, and an [Ack] record extends the log too. *)
let test_ack_respects_budget () =
  List.iter
    (fun seed ->
      let r = storm ~bite:false seed in
      Alcotest.(check bool) (Printf.sprintf "seed %d sound" seed) true r.sound;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d bounds hold" seed)
        true r.bounds_hold)
    [ 1622; 2049; 2696; 3336 ]

(* The nemesis shape: a returning member's queue is one compacted
   snapshot of seven pending records (293 B) against a 300 B budget,
   and its [Ack] of the first record takes the log to 314 B. Compacting
   folds the [Ack] away and fits, so nothing pending may be shed. A
   bloat test of [records > depth + 1] saw two records against six
   pending and shed one. *)
let test_ack_compacts_before_shedding () =
  let q = Q.create () in
  for epoch = 1 to 7 do
    let x = A.New_group_key { key = String.make 16 'k'; epoch } in
    ignore (Q.push q ~epoch (A.encode x))
  done;
  Q.compact q;
  Alcotest.(check int) "snapshot image" 293 (Q.size q);
  let budgets = { Delivery.per_member_bytes = Some 300; global_bytes = None } in
  let d =
    Delivery.of_images ~budgets [ (Delivery.file_of_member "m", Q.contents q) ]
  in
  Delivery.ack d ~member:"m" ~upto:1;
  Alcotest.(check int) "records shed" 0
    (Delivery.counters d).Delivery.records_shed;
  Alcotest.(check int) "pending kept" 6 (Delivery.depth d ~member:"m");
  Alcotest.(check bool) "within budget" true (Delivery.total_bytes d <= 300)

(* --- ladder: monotone descent, single recovery --- *)

(* A leader over a fault-wrapped disk, driven through rekeys with an
   ENOSPC clamp in the middle. While the clamp holds, the mode rank
   must never decrease (one-way down inside the episode) and re-arm
   probes must fail; with space restored one probe recovers [Healthy]
   and [rearms] lands at exactly 1. *)
let ladder_episode seed =
  let rng = Prng.Splitmix.create (Int64.of_int seed) in
  let mem = Store.Mem.create () in
  let fault = Store.Fault.create ~rng:(Prng.Splitmix.split rng) (Store.Mem.handle mem) in
  let backend = Store.Fault.handle fault in
  let journal = Journal.create ~disk:backend () in
  let vault = Store.Vault.create ~disk:backend () in
  (* No byte budgets here: this property isolates the ladder's
     response to DISK pressure, so shedding (a budget response) must
     not fire during the healthy pre-phase. *)
  let delivery = Delivery.create ~disk:backend () in
  let directory = [ ("a", "a-pw"); ("b", "b-pw") ] in
  let t =
    L.create ~self:"leader" ~rng:(Prng.Splitmix.split rng) ~directory ~journal
      ~vault ~delivery ()
  in
  (* Traffic for an offline member keeps the queue — and the disk
     mirrors — under write pressure during the clamp. *)
  L.mark_offline t "a";
  let monotone = ref true in
  let last_rank = ref (L.mode_rank (L.mode t)) in
  let pre = 3 + Prng.Splitmix.next_int rng 4 in
  for _ = 0 to pre - 1 do
    ignore (L.rekey t)
  done;
  if L.mode t <> L.Healthy then monotone := false;
  Store.Fault.set_space_budget fault (Some (Store.Fault.bytes_used fault + 30));
  (* One-way down: without a re-arm probe, pressure can only push the
     rank up (compactions that succeed mid-clamp heal mirrors, never
     the mode). *)
  let clamped = 5 + Prng.Splitmix.next_int rng 6 in
  for _ = 0 to clamped - 1 do
    ignore (L.rekey t);
    let r = L.mode_rank (L.mode t) in
    if r < !last_rank then monotone := false;
    last_rank := r
  done;
  let descended = L.mode t <> L.Healthy in
  Store.Fault.set_space_budget fault None;
  let recovered = L.try_rearm t in
  descended && !monotone && recovered
  && L.mode t = L.Healthy
  && L.durability_armed t
  && L.rearms t = 1
  && L.degraded_entries t >= 1
  (* Re-arming on a healthy ladder is a no-op probe, not a second
     recovery. *)
  && L.try_rearm t
  && L.rearms t = 1

(* --- degraded-mode crash matrix --- *)

let test_crash_matrix_degraded () =
  let r = Crash_matrix.run_degraded () in
  List.iter
    (fun v -> Format.printf "%a@." Crash_matrix.pp_violation v)
    r.Crash_matrix.violations;
  Alcotest.(check int)
    "no violations" 0
    (List.length r.Crash_matrix.violations);
  Alcotest.(check bool) "images enumerated" true (r.Crash_matrix.images > 50);
  Alcotest.(check bool)
    "armed checkpoints verified" true
    (r.Crash_matrix.checkpoints > 5)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"shed records always leave durable Drop markers"
      ~count:40 ~long_factor:25
      QCheck.(int_range 1 100_000)
      shed_storm;
    QCheck.Test.make
      ~name:"ladder descends monotonically and recovers Healthy exactly once"
      ~count:40 ~long_factor:25
      QCheck.(int_range 1 100_000)
      ladder_episode;
  ]

let suite =
  [
    ( "pressure (budgets and ladder)",
      [
        Alcotest.test_case "degraded-mode crash matrix passes" `Quick
          test_crash_matrix_degraded;
        Alcotest.test_case "acks never leave a queue over budget" `Quick
          test_ack_respects_budget;
        Alcotest.test_case "an ack compacts before it sheds" `Quick
          test_ack_compacts_before_shedding;
      ]
      @ List.map QCheck_alcotest.to_alcotest qcheck_tests );
  ]
