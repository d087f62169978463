open Sym_crypto
module F = Wire.Frame
module P = Wire.Payload

module StringSet = Set.Make (String)

type t = {
  mutable frames : F.t list;  (* decoded wire observations *)
  mutable key_material : StringSet.t;  (* raw 16-byte key strings *)
  mutable keys : Key.t list;  (* one per [key_material] entry, newest first *)
  mutable plaintexts : StringSet.t;
  mutable observed : int;
}

let create () =
  {
    frames = [];
    key_material = StringSet.empty;
    keys = [];
    plaintexts = StringSet.empty;
    observed = 0;
  }

(* A harvested key is built (and its AEAD schedule derived) once, when
   it is first learned. AEAD ignores the kind, so one [Key.t] per raw
   key serves every protocol role. *)
let add_raw t raw =
  if not (StringSet.mem raw t.key_material) then begin
    t.key_material <- StringSet.add raw t.key_material;
    t.keys <- Key.of_raw Key.Session raw :: t.keys
  end

let add_key t key = add_raw t (Key.raw key)

let observe t bytes =
  t.observed <- t.observed + 1;
  match F.decode bytes with
  | Ok frame -> t.frames <- frame :: t.frames
  | Error _ -> ()

let observe_trace t trace =
  List.iter (observe t) (Netsim.Trace.payloads trace)

(* Associated-data contexts a frame's body might have been sealed
   under: header-bound (improved), empty (legacy), group (app/relay). *)
let ad_candidates (frame : F.t) =
  [
    F.ad frame;
    "";
    "group:" ^ F.label_to_string frame.F.label;
  ]

(* Extract key material carried inside a recovered plaintext. *)
let harvest_keys t plaintext =
  let add raw = if String.length raw = Key.size then add_raw t raw in
  (match P.decode_auth_key_dist plaintext with
  | Ok { P.ka; _ } -> add ka
  | Error _ -> ());
  (match P.decode_legacy_auth2 plaintext with
  | Ok { P.ka; kg; _ } ->
      add ka;
      add kg
  | Error _ -> ());
  (match P.decode_legacy_new_key plaintext with
  | Ok { P.kg; _ } -> add kg
  | Error _ -> ());
  match P.decode_admin_body plaintext with
  | Ok { P.x = Wire.Admin.New_group_key { key; _ }; _ } -> add key
  | Ok _ | Error _ -> ()

let try_open t (frame : F.t) =
  match Aead.decode frame.F.body with
  | Error _ -> ()
  | Ok sealed ->
      List.iter
        (fun key ->
          List.iter
            (fun ad ->
              match Aead.open_ ~key ~ad sealed with
              | Ok plaintext ->
                  if not (StringSet.mem plaintext t.plaintexts) then begin
                    t.plaintexts <- StringSet.add plaintext t.plaintexts;
                    harvest_keys t plaintext
                  end
              | Error `Auth_failure -> ())
            (ad_candidates frame))
        t.keys

let saturate t =
  (* Iterate until no new keys or plaintexts appear: recovered
     plaintexts can carry keys that unlock earlier ciphertexts. *)
  let rec loop () =
    let keys_before = StringSet.cardinal t.key_material in
    let plain_before = StringSet.cardinal t.plaintexts in
    List.iter (try_open t) t.frames;
    if
      StringSet.cardinal t.key_material <> keys_before
      || StringSet.cardinal t.plaintexts <> plain_before
    then loop ()
  in
  loop ()

let knows_key t key = StringSet.mem (Key.raw key) t.key_material

let keys t = t.keys

let plaintexts t = StringSet.elements t.plaintexts

let decrypt_app t bytes =
  match F.decode bytes with
  | Error _ -> None
  | Ok frame when frame.F.label <> F.App_data -> None
  | Ok frame ->
      let try_key acc key =
        match acc with
        | Some _ -> acc
        | None -> (
            match Enclaves.Sealed_channel.open_group ~key frame with
            | Ok plaintext -> (
                match P.decode_app_data plaintext with
                | Ok { P.author; body } -> Some (author, body)
                | Error _ -> None)
            | Error _ -> None)
      in
      List.fold_left try_key None t.keys

let stats t =
  (t.observed, StringSet.cardinal t.key_material, StringSet.cardinal t.plaintexts)
