open Field

let rec add_parts acc f =
  if Set.mem f acc then acc
  else
    let acc = Set.add f acc in
    match f with
    | FAgent _ | FNonce _ | FKey _ | FData _ -> acc
    | FCat fs -> List.fold_left add_parts acc fs
    | FCrypt (_, body) -> add_parts acc body

let parts s = Set.fold (fun f acc -> add_parts acc f) s Set.empty
let parts_of_field f = add_parts Set.empty f

let keys_of s =
  Set.fold
    (fun f acc -> match f with FKey k -> KeySet.add k acc | _ -> acc)
    s KeySet.empty

(* Analz: iterate splitting concatenations and opening decryptable
   encryptions until no growth. *)
let analz s =
  let changed = ref true in
  let current = ref s in
  while !changed do
    changed := false;
    let keys = keys_of !current in
    let step f acc =
      match f with
      | FCat fs ->
          List.fold_left
            (fun acc part ->
              if Set.mem part acc then acc
              else begin
                changed := true;
                Set.add part acc
              end)
            acc fs
      | FCrypt (k, body) when KeySet.mem k keys ->
          if Set.mem body acc then acc
          else begin
            changed := true;
            Set.add body acc
          end
      | FAgent _ | FNonce _ | FKey _ | FData _ | FCrypt _ -> acc
    in
    current := Set.fold step !current !current
  done;
  !current

(* The worklist form of Analz for one new field: [known] is already
   closed, so only what is new gets split or opened. Learning a key
   re-opens the encryptions under it that [known] already holds; an
   encryption added later is opened on arrival. Returns [known]
   itself when [f] is already in it. *)
let analz_add known f =
  let rec go known = function
    | [] -> known
    | f :: rest when Set.mem f known -> go known rest
    | f :: rest -> (
        let known = Set.add f known in
        match f with
        | FCat fs -> go known (List.rev_append fs rest)
        | FCrypt (k, body) ->
            go known (if Set.mem (FKey k) known then body :: rest else rest)
        | FKey k ->
            go known
              (Set.fold
                 (fun g acc ->
                   match g with
                   | FCrypt (k', body) when compare_key k' k = 0 -> body :: acc
                   | _ -> acc)
                 known rest)
        | FAgent _ | FNonce _ | FData _ -> go known rest)
  in
  go known [ f ]

let rec in_synth s f =
  Set.mem f s
  ||
  match f with
  | FCat fs -> List.for_all (in_synth s) fs
  | FCrypt (k, body) -> Set.mem (FKey k) s && in_synth s body
  | FAgent _ | FData _ ->
      (* Agent names and abstract admin payloads are public: a sound
         over-approximation that only strengthens the intruder. *)
      true
  | FNonce _ | FKey _ -> false

let rec in_ideal s f =
  Set.mem f s
  ||
  match f with
  | FCat fs -> List.exists (in_ideal s) fs
  | FCrypt (k, body) -> (not (Set.mem (FKey k) s)) && in_ideal s body
  | FAgent _ | FNonce _ | FKey _ | FData _ -> false

let in_coideal s f = not (in_ideal s f)
let set_in_coideal s fields = Set.for_all (in_coideal s) fields
