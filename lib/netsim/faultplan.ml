type link = {
  loss : float;
  corrupt : float;
  duplicate : float;
  spike_prob : float;
  spike : Vtime.t;
}

let perfect_link =
  { loss = 0.0; corrupt = 0.0; duplicate = 0.0; spike_prob = 0.0; spike = Vtime.zero }

let check_prob name p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Faultplan: %s probability %g outside [0,1]" name p)

let lossy_link ?(corrupt = 0.0) ?(duplicate = 0.0) ?(spike_prob = 0.0)
    ?(spike = Vtime.of_ms 50) loss =
  check_prob "loss" loss;
  check_prob "corrupt" corrupt;
  check_prob "duplicate" duplicate;
  check_prob "spike" spike_prob;
  { loss; corrupt; duplicate; spike_prob; spike }

type partition = {
  west : string list;
  east : string list;
  from_ : Vtime.t;
  heal : Vtime.t;
}

type outage = { node : string; down : Vtime.t; up : Vtime.t option }

type t = {
  default_link : link;
  links : ((string * string) * link) list;
  partitions : partition list;
  outages : outage list;
}

let none =
  { default_link = perfect_link; links = []; partitions = []; outages = [] }

let make ?(default_link = perfect_link) ?(links = []) ?(partitions = [])
    ?(outages = []) () =
  { default_link; links; partitions; outages }

let uniform_loss p = { none with default_link = lossy_link p }

let link_for t ~src ~dst =
  match List.assoc_opt (src, dst) t.links with
  | Some l -> l
  | None -> t.default_link

let active_interval ~now ~from_ ~until_ =
  Vtime.(from_ <= now) && Vtime.(now < until_)

let separates p ~src ~dst =
  (List.mem src p.west && List.mem dst p.east)
  || (List.mem src p.east && List.mem dst p.west)

let partitioned t ~now ~src ~dst =
  List.exists
    (fun p ->
      active_interval ~now ~from_:p.from_ ~until_:p.heal && separates p ~src ~dst)
    t.partitions

let node_down t ~now node =
  List.exists
    (fun o ->
      o.node = node
      && Vtime.(o.down <= now)
      && match o.up with None -> true | Some up -> Vtime.(now < up))
    t.outages

module Counter = struct
  let layer = Metrics.layer "faultplan"
  let c = Metrics.counter layer
  let lost = c "lost"
  let corrupted = c "corrupted"
  let duplicated = c "duplicated"
  let spiked = c "spiked"
  let cut = c "cut"
  let down = c "down"
end

let total_dropped c =
  Metrics.(get c Counter.lost + get c Counter.cut + get c Counter.down)

type verdict =
  | Fault_drop of [ `Loss | `Partition | `Outage ]
  | Fault_pass of { payload : string; extra : Vtime.t; copies : int }

let hit rng p = p > 0.0 && Prng.Splitmix.next_float rng < p

let flip_one_bit rng payload =
  if String.length payload = 0 then payload
  else begin
    let b = Bytes.of_string payload in
    let i = Prng.Splitmix.next_int rng (Bytes.length b) in
    let bit = 1 lsl Prng.Splitmix.next_int rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
    Bytes.to_string b
  end

let apply t ~rng ~counters ~now ~src ~dst ~payload =
  if node_down t ~now src || node_down t ~now dst then begin
    Metrics.incr counters Counter.down;
    Fault_drop `Outage
  end
  else if partitioned t ~now ~src ~dst then begin
    Metrics.incr counters Counter.cut;
    Fault_drop `Partition
  end
  else begin
    let link = link_for t ~src ~dst in
    if hit rng link.loss then begin
      Metrics.incr counters Counter.lost;
      Fault_drop `Loss
    end
    else begin
      let payload =
        if hit rng link.corrupt then begin
          Metrics.incr counters Counter.corrupted;
          flip_one_bit rng payload
        end
        else payload
      in
      let extra =
        if hit rng link.spike_prob then begin
          Metrics.incr counters Counter.spiked;
          link.spike
        end
        else Vtime.zero
      in
      let copies =
        if hit rng link.duplicate then begin
          Metrics.incr counters Counter.duplicated;
          2
        end
        else 1
      in
      Fault_pass { payload; extra; copies }
    end
  end
