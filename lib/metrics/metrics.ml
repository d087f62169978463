type merge = Sum | Max

type layer = {
  lname : string;
  mutable rev_keys : key list;
  mutable size : int;
  mutable frozen : bool;
}

and key = { layer : layer; index : int; name : string; merge : merge }

type t = { of_layer : layer; values : int array }

let layer lname = { lname; rev_keys = []; size = 0; frozen = false }

let declare merge layer name =
  if layer.frozen then
    invalid_arg
      (Printf.sprintf "Metrics: %s.%s declared after an instance"
         layer.lname name);
  let k = { layer; index = layer.size; name; merge } in
  layer.rev_keys <- k :: layer.rev_keys;
  layer.size <- layer.size + 1;
  k

let counter = declare Sum
let high_water = declare Max
let keys layer = List.rev layer.rev_keys

let create layer =
  layer.frozen <- true;
  { of_layer = layer; values = Array.make layer.size 0 }

let slot t k =
  if k.layer != t.of_layer then
    invalid_arg
      (Printf.sprintf "Metrics: %s.%s is not a counter of %s" k.layer.lname
         k.name t.of_layer.lname);
  k.index

let add t k n =
  let i = slot t k in
  t.values.(i) <- t.values.(i) + n

let incr t k = add t k 1

let set_max t k n =
  let i = slot t k in
  if n > t.values.(i) then t.values.(i) <- n

let get t k = t.values.(slot t k)
let named t = List.map (fun k -> (k.name, get t k)) (keys t.of_layer)

let bank ~into t =
  if into.of_layer != t.of_layer then
    invalid_arg
      (Printf.sprintf "Metrics.bank: %s into %s" t.of_layer.lname
         into.of_layer.lname);
  List.iter
    (fun k ->
      match k.merge with
      | Sum -> add into k (get t k)
      | Max -> set_max into k (get t k))
    (keys t.of_layer)

let sum layer ts =
  let total = create layer in
  List.iter (bank ~into:total) ts;
  total

let find ts k =
  match List.find_opt (fun t -> t.of_layer == k.layer) ts with
  | Some t -> get t k
  | None ->
      invalid_arg
        (Printf.sprintf "Metrics.find: no %s instance for %s" k.layer.lname
           k.name)

let row ts ks = List.map (fun k -> (k.name, find ts k)) ks

let pp fmt counters =
  let pp_one fmt (name, v) = Format.fprintf fmt "%s=%d" name v in
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
    pp_one fmt counters
