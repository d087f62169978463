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

module Counter = struct
  let layer = Metrics.layer "manager"
  let crash_images_replayed = Metrics.counter layer "crash_images_replayed"
end

(* The counters that die with an incarnation — its leader automaton,
   journal and delivery layer — in this order. *)
let incarnation_layers =
  [ Leader.Counter.layer; Journal.Counter.layer; Delivery.Counter.layer ]

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
  own : Metrics.t;  (* the process's {!Counter}s *)
  banked : Metrics.t list;
      (* Counters of dead incarnations, one per {!incarnation_layers}.
         (The degraded-mode ladder's state dies too: a rebuilt leader
         starts Healthy, re-probes storage and re-degrades if the
         pressure holds.) *)
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
    own = Metrics.create Counter.layer;
    banked = List.map Metrics.create incarnation_layers;
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
  [
    Some (Leader.counters m.leader);
    Option.map Journal.counters m.journal;
    Option.map Delivery.counters m.delivery;
  ]

(* Bank the live incarnation's counters; every caller then replaces the
   leader, journal and delivery layer they were read from. *)
let retire m =
  List.iter2 (fun into -> Option.iter (Metrics.bank ~into)) m.banked (live m)

let counters m =
  Metrics.sum Counter.layer [ m.own ]
  :: List.map2
       (fun (layer, banked) live ->
         Metrics.sum layer (banked :: Option.to_list live))
       (List.combine incarnation_layers m.banked)
       (live m)

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
        Metrics.incr m.own Counter.crash_images_replayed;
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
