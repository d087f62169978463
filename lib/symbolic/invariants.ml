open Field

type report = Explore.report = {
  name : string;
  holds : bool;
  checked : int;
  violations : string list;
}

type checker = {
  on_state : Model.state -> unit;
  on_edge : Model.state -> Model.move -> Model.state -> unit;
  finish : unit -> report list;
}

let pp_report fmt { name; holds; checked; violations } =
  Format.fprintf fmt "%-28s %s (%d checked)" name
    (if holds then "HOLDS" else "VIOLATED")
    checked;
  List.iter (fun v -> Format.fprintf fmt "@.    counterexample: %s" v) violations

let max_violations = 5

let make_report name checked violations =
  {
    name;
    holds = violations = [];
    checked;
    violations =
      List.filteri (fun i _ -> i < max_violations) (List.rev violations);
  }

let describe_state q =
  Format.asprintf "usr=%a lead=%a |trace|=%d" Model.pp_user_state q.Model.usr
    Model.pp_leader_state q.Model.lead
    (Event.Set.cardinal q.Model.trace)

let combine checkers =
  {
    on_state = (fun q -> List.iter (fun c -> c.on_state q) checkers);
    on_edge = (fun q m q' -> List.iter (fun c -> c.on_edge q m q') checkers);
    finish = (fun () -> List.concat_map (fun c -> c.finish ()) checkers);
  }

let check_result result c =
  Explore.iter_states result c.on_state;
  Explore.iter_edges result c.on_edge;
  c.finish ()

(* Run a single-report checker over a retained result. *)
let one result c =
  match check_result result c with [ r ] -> r | _ -> assert false

(* Single-report checkers: [f checked violations] is the per-state or
   per-edge body. *)
let state_checker name f =
  let checked = ref 0 and violations = ref [] in
  {
    on_state = f checked violations;
    on_edge = (fun _ _ _ -> ());
    finish = (fun () -> [ make_report name !checked !violations ]);
  }

let edge_checker name f =
  let checked = ref 0 and violations = ref [] in
  {
    on_state = ignore;
    on_edge = f checked violations;
    finish = (fun () -> [ make_report name !checked !violations ]);
  }

let regularity_stream () =
  edge_checker "regularity (5.1)" (fun checked violations q move q' ->
      match move with
      | Model.E_inject _ -> ()
      | Model.A_join | Model.A_recv_keydist | Model.A_recv_admin | Model.A_leave
      | Model.L_recv_init | Model.L_recv_keyack | Model.L_send_admin
      | Model.L_recv_ack | Model.L_recv_close ->
          incr checked;
          (* The contents of the new events that [q]'s trace does not
             already carry: one new event per honest step, so no full
             content set is built. *)
          let added =
            Event.Set.fold
              (fun e acc ->
                let c = Event.content e in
                if
                  Event.Set.exists
                    (fun e0 -> Field.equal (Event.content e0) c)
                    q.Model.trace
                then acc
                else Field.Set.add c acc)
              (Event.Set.diff q'.Model.trace q.Model.trace)
              Field.Set.empty
          in
          Field.Set.iter
            (fun content ->
              if Field.Set.mem (FKey Pa) (Closure.parts_of_field content) then
                violations :=
                  Format.asprintf "%a sends Pa in %a" Model.pp_move move
                    Field.pp content
                  :: !violations)
            added)

let regularity result = one result (regularity_stream ())

let long_term_key_secrecy_stream ?config () =
  state_checker "P_a secrecy (5.1)" (fun checked violations q ->
      incr checked;
      if Field.Set.mem (FKey Pa) (Model.intruder_knowledge ?config q) then
        violations := describe_state q :: !violations)

let long_term_key_secrecy ?config result =
  one result (long_term_key_secrecy_stream ?config ())

let session_keys_mentioned q =
  (* All session-key indices allocated so far. *)
  List.init q.Model.next_key (fun k -> k)

let session_key_secrecy_stream ?config () =
  state_checker "session-key secrecy (5.2)" (fun checked violations q ->
      let know = lazy (Model.intruder_knowledge ?config q) in
      List.iter
        (fun k ->
          if Model.in_use q k then begin
            incr checked;
            if Field.Set.mem (FKey (Ka k)) (Lazy.force know) then
              violations :=
                Format.asprintf "Ka%d leaked while in use: %s" k
                  (describe_state q)
                :: !violations
          end)
        (session_keys_mentioned q))

let session_key_secrecy ?config result =
  one result (session_key_secrecy_stream ?config ())

let coideal_invariant_stream () =
  state_checker "coideal invariant (5.2.5)" (fun checked violations q ->
      let contents = lazy (Event.contents q.Model.trace) in
      List.iter
        (fun k ->
          if Model.in_use q k then begin
            incr checked;
            let s = Field.Set.of_list [ FKey (Ka k); FKey Pa ] in
            if not (Closure.set_in_coideal s (Lazy.force contents)) then
              violations :=
                Format.asprintf "trace escapes C({Ka%d,Pa}): %s" k
                  (describe_state q)
                :: !violations
          end)
        (session_keys_mentioned q))

let coideal_invariant result = one result (coideal_invariant_stream ())

let oops_keys_are_public_stream ?config () =
  state_checker "oops keys public (4.1)" (fun checked violations q ->
      Event.Set.iter
        (function
          | Event.Oops (FKey (Ka k)) ->
              incr checked;
              if
                not
                  (Field.Set.mem (FKey (Ka k))
                     (Model.intruder_knowledge ?config q))
              then
                violations :=
                  Format.asprintf "oopsed Ka%d not in Know(E): %s" k
                    (describe_state q)
                  :: !violations
          | Event.Oops _ | Event.Msg _ -> ())
        q.Model.trace)

let oops_keys_are_public ?config result =
  one result (oops_keys_are_public_stream ?config ())

let stream ?config () =
  combine
    [
      regularity_stream ();
      long_term_key_secrecy_stream ?config ();
      session_key_secrecy_stream ?config ();
      coideal_invariant_stream ();
      oops_keys_are_public_stream ?config ();
    ]

let all ?config result = check_result result (stream ?config ())
