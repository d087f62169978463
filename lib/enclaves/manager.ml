module F = Wire.Frame

let send net ~src frames =
  List.iter
    (fun (frame : F.t) ->
      Netsim.Network.send net ~src ~dst:frame.F.recipient (F.encode frame))
    frames

(* What a crash leaves on the disk: the durable image of each file, as
   opposed to the live buffers (which include unsynced bytes the crash
   lost). *)
type image = {
  journal_image : string option;
  vault_image : string;
  queue_images : (string * string) list option;
}

type counters = {
  recoveries : int;
  resyncs_served : int;
  degraded_entries : int;
  rearms : int;
  records_shed : int;
  eio_retries : int;
  crash_images : int;
  delivery : Netsim.Stats.delivery;
}

let zero =
  {
    recoveries = 0;
    resyncs_served = 0;
    degraded_entries = 0;
    rearms = 0;
    records_shed = 0;
    eio_retries = 0;
    crash_images = 0;
    delivery = Netsim.Stats.empty_delivery;
  }

let add a b =
  let x = a.delivery and y = b.delivery in
  {
    recoveries = a.recoveries + b.recoveries;
    resyncs_served = a.resyncs_served + b.resyncs_served;
    degraded_entries = a.degraded_entries + b.degraded_entries;
    rearms = a.rearms + b.rearms;
    records_shed = a.records_shed + b.records_shed;
    eio_retries = a.eio_retries + b.eio_retries;
    crash_images = a.crash_images + b.crash_images;
    delivery =
      {
        Netsim.Stats.queued = x.queued + y.queued;
        drained = x.drained + y.drained;
        deduped = x.deduped + y.deduped;
        resealed = x.resealed + y.resealed;
        rejected_stale = x.rejected_stale + y.rejected_stale;
        delivered_stale = x.delivered_stale + y.delivered_stale;
        queue_bytes_hwm = max x.queue_bytes_hwm y.queue_bytes_hwm;
      };
  }

type t = {
  net : Netsim.Network.t;
  rng : Prng.Splitmix.t;
  name : Types.agent;
  directory : (Types.agent * string) list;
  policy : Leader.policy option;
  disk : Store.Mem.t option;
  fault : Store.Fault.t option;
  backend : Store.Backend.t option;  (* fault-wrapped handle to [disk] *)
  delivery_policy : Delivery.policy option;
  delivery_budgets : Delivery.budgets option;
  sentinel : Sentinel.t option;
      (* One sentinel across incarnations: suspicion must survive a
         restart, so the process owns it and threads it into every
         rebuilt leader. *)
  mutable journal : Journal.t option;
  mutable vault : Store.Vault.t option;
  mutable delivery : Delivery.t option;
  mutable leader : Leader.t;
  mutable down : bool;
  mutable handler : (string -> unit) option;
  mutable crash_image : image option;
  mutable banked : counters;
      (* Counters of dead incarnations: they die with the automaton,
         journal or delivery layer that held them. (The degraded-mode
         ladder's state dies too: a rebuilt leader starts Healthy,
         re-probes storage and re-degrades if the pressure holds.) *)
}

let open_journal ~primary backend =
  if primary && Option.is_some backend then
    Some (Journal.create ?disk:backend ())
  else None

let open_queues ~primary ?budgets backend = function
  | Some policy when primary ->
      Some (Delivery.create ~policy ?budgets ?disk:backend ())
  | Some _ | None -> None

let create ~sim ~net ~name ~directory ?policy ~disk ?faults ?delivery
    ?delivery_budgets ?intrusion ~primary () =
  let rng = Netsim.Sim.rng sim in
  let sentinel =
    Option.map
      (fun config ->
        Sentinel.create ~config ~clock:(fun () -> Netsim.Sim.now sim) ())
      intrusion
  in
  let mem, fault, backend =
    if not disk then (None, None, None)
    else
      let mem = Store.Mem.create () in
      let inner = Store.Mem.handle mem in
      match faults with
      | Some config ->
          let f =
            Store.Fault.create ~config ~rng:(Prng.Splitmix.split rng) inner
          in
          (Some mem, Some f, Some (Store.Fault.handle f))
      | None -> (Some mem, None, Some inner)
  in
  let journal = open_journal ~primary backend in
  let vault =
    if disk then Some (Store.Vault.create ?disk:backend ()) else None
  in
  let queues =
    open_queues ~primary ?budgets:delivery_budgets backend delivery
  in
  {
    net;
    rng;
    name;
    directory;
    policy;
    disk = mem;
    fault;
    backend;
    delivery_policy = delivery;
    delivery_budgets;
    sentinel;
    journal;
    vault;
    delivery = queues;
    leader =
      Leader.create ~self:name ~rng ~directory ?policy ?journal ?vault
        ?delivery:queues ?sentinel ();
    down = false;
    handler = None;
    crash_image = None;
    banked = zero;
  }

let register m =
  match m.handler with
  | Some h -> Netsim.Network.register m.net m.name h
  | None -> ()

let attach m handler =
  m.handler <- Some (fun bytes -> if not m.down then handler bytes);
  register m

let name m = m.name
let leader m = m.leader
let down m = m.down
let dispatch m frames = send m.net ~src:m.name frames
let deliver m ?via bytes = dispatch m (Leader.receive m.leader ?via bytes)

let crash m =
  if not m.down then begin
    m.down <- true;
    m.crash_image <-
      Option.map
        (fun mem ->
          let durable file =
            Option.value ~default:"" (Store.Mem.durable_of mem file)
          in
          {
            journal_image =
              Option.map (fun j -> durable (Journal.file j)) m.journal;
            vault_image = durable Store.Vault.default_file;
            queue_images =
              Option.map
                (fun d ->
                  List.map
                    (fun (file, _) -> (file, durable file))
                    (Delivery.files d))
                m.delivery;
          })
        m.disk;
    Netsim.Network.unregister m.net m.name
  end

let live m =
  let c = Option.map Delivery.counters m.delivery in
  let count f = Option.fold ~none:0 ~some:f c in
  {
    recoveries = Leader.recoveries m.leader;
    resyncs_served = Leader.resyncs_served m.leader;
    degraded_entries = Leader.degraded_entries m.leader;
    rearms = Leader.rearms m.leader;
    records_shed = count (fun c -> c.Delivery.records_shed);
    eio_retries = Option.fold ~none:0 ~some:Journal.eio_retries m.journal;
    crash_images = 0;
    delivery =
      {
        Netsim.Stats.queued = count (fun c -> c.Delivery.queued);
        drained = count (fun c -> c.Delivery.drained);
        deduped = 0;
        resealed = count (fun c -> c.Delivery.resealed);
        rejected_stale = count (fun c -> c.Delivery.rejected_stale);
        delivered_stale = count (fun c -> c.Delivery.delivered_stale);
        queue_bytes_hwm = count (fun c -> c.Delivery.queue_bytes_hwm);
      };
  }

(* Bank the live incarnation's counters; every caller then replaces the
   leader, journal and delivery layer they were read from. *)
let retire m = m.banked <- add m.banked (live m)
let counters m = add m.banked (live m)

let fresh_leader m =
  Leader.create ~self:m.name ~rng:m.rng ~directory:m.directory
    ?policy:m.policy ?journal:m.journal ?vault:m.vault ?delivery:m.delivery
    ?sentinel:m.sentinel ()

let reopen m ~primary =
  retire m;
  m.journal <- open_journal ~primary m.backend;
  m.delivery <-
    open_queues ~primary ?budgets:m.delivery_budgets m.backend
      m.delivery_policy;
  m.leader <- fresh_leader m

type path = Warm | Cold | Fresh

type restart = {
  path : path;
  status : Journal.status;
  frames : Wire.Frame.t list;
}

let restart ?journal_image ?queue_images ~warm m =
  retire m;
  let crash = m.crash_image in
  m.crash_image <- None;
  (* Explicit bytes (a replica, or a test feeding a tampered journal)
     win; then the durable crash image; the live buffer is the last
     resort (a restart without a crash). *)
  let bytes =
    match (journal_image, Option.bind crash (fun c -> c.journal_image)) with
    | (Some _ as b), _ -> b
    | None, (Some _ as b) ->
        m.banked <- { m.banked with crash_images = m.banked.crash_images + 1 };
        b
    | None, None -> Option.map Journal.contents m.journal
  in
  (* The vault and the queues follow the same discipline: a put or a
     queue write whose fsync was dropped must not survive. *)
  (match m.vault with
  | Some v ->
      let image =
        match crash with
        | Some c -> c.vault_image
        | None -> Store.Vault.contents v
      in
      m.vault <- Some (Store.Vault.of_bytes ?disk:m.backend image)
  | None -> ());
  (match m.delivery_policy with
  | Some policy ->
      let images =
        let crashed = Option.bind crash (fun c -> c.queue_images) in
        match (queue_images, crashed, m.delivery) with
        | Some images, _, _ | None, Some images, _ -> images
        | None, None, Some d -> Delivery.files d
        | None, None, None -> []
      in
      m.delivery <-
        Some
          (Delivery.of_images ~policy ?budgets:m.delivery_budgets
             ?disk:m.backend images)
  | None -> ());
  let path, status, frames =
    match bytes with
    | Some b ->
        let records, status = Journal.replay b in
        let state = Journal.state_of_records records in
        if warm state then begin
          let journal = Journal.of_state ?disk:m.backend state in
          let l, challenges =
            Leader.recover ~self:m.name ~rng:m.rng ~directory:m.directory
              ?policy:m.policy ~journal ?vault:m.vault ?delivery:m.delivery
              ?sentinel:m.sentinel ~state ()
          in
          m.journal <- Some journal;
          m.leader <- l;
          (Warm, status, challenges)
        end
        else begin
          (* No session is trusted, but the journal still pins the
             epoch floor and stamps the cold-restart beacons. *)
          let journal = Journal.create ?disk:m.backend () in
          let l, beacons =
            Leader.cold_recover ~self:m.name ~rng:m.rng ~directory:m.directory
              ?policy:m.policy ~journal ?vault:m.vault ?delivery:m.delivery
              ?sentinel:m.sentinel ~state ()
          in
          m.journal <- Some journal;
          m.leader <- l;
          (Cold, status, beacons)
        end
    | None ->
        (* No journal at all: a fresh automaton that knows nothing. *)
        m.leader <- fresh_leader m;
        (Fresh, Journal.Clean, [])
  in
  m.down <- false;
  register m;
  { path; status; frames }

let backend m = m.backend
let fault m = m.fault
let journal m = m.journal
let vault m = m.vault
let delivery m = m.delivery
let sentinel m = m.sentinel
