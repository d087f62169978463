(* In-memory span recorder for the traced run.

   A span is (kind, start, stop, parent, op): the benchmark opens one
   around each of its own calls into a layer's public functions, so
   nesting follows the call stack and every span carries the id of the
   op that caused it. Spans live in flat growable int arrays and are
   written out once, after the run. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type kind =
  | Op  (** one whole op, issue to quiescence *)
  | Netsim_run  (** [Driver.Improved.run]: the event loop *)
  | Netsim_send  (** [Netsim.Network.send] *)
  | Wire_encode  (** [Wire.Frame.encode] *)
  | Leader_receive  (** [Leader.receive] inside the leader's handler *)
  | Leader_call  (** [Leader.broadcast_admin] / [Leader.rekey] *)
  | Member_receive  (** [Member.receive] inside a member's handler *)
  | Member_call  (** [Member.leave] / [join] / [send_app] *)
  | Delivery_drain  (** [Leader.mark_online]: drains a durable queue *)
  | Explore  (** [Symbolic.Explore.run] *)
  | Invariants  (** [Symbolic.Invariants.all] *)

let kinds =
  [| Op; Netsim_run; Netsim_send; Wire_encode; Leader_receive; Leader_call;
     Member_receive; Member_call; Delivery_drain; Explore; Invariants |]

let index = function
  | Op -> 0
  | Netsim_run -> 1
  | Netsim_send -> 2
  | Wire_encode -> 3
  | Leader_receive -> 4
  | Leader_call -> 5
  | Member_receive -> 6
  | Member_call -> 7
  | Delivery_drain -> 8
  | Explore -> 9
  | Invariants -> 10

let name = function
  | Op -> "op"
  | Netsim_run -> "netsim.run"
  | Netsim_send -> "netsim.send"
  | Wire_encode -> "wire.encode"
  | Leader_receive -> "leader.receive"
  | Leader_call -> "leader.call"
  | Member_receive -> "member.receive"
  | Member_call -> "member.call"
  | Delivery_drain -> "delivery.mark_online"
  | Explore -> "symbolic.explore"
  | Invariants -> "symbolic.invariants"

type t = {
  mutable n : int;
  mutable kind : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable cur : int;  (** innermost open span, -1 outside any *)
  mutable op_id : int;
  t0 : int;  (** creation time; the file's times are relative to it *)
}

let create () =
  let cap = 1 lsl 16 in
  {
    n = 0;
    kind = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
    cur = -1;
    op_id = 0;
    t0 = now_ns ();
  }

let grow t =
  let cap = 2 * Array.length t.kind in
  let g a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.kind <- g t.kind;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.op <- g t.op

let enter t k =
  if t.n = Array.length t.kind then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.kind.(i) <- index k;
  t.parent.(i) <- t.cur;
  t.op.(i) <- t.op_id;
  t.cur <- i;
  t.start.(i) <- now_ns ();
  i

let leave t i =
  t.stop.(i) <- now_ns ();
  t.cur <- t.parent.(i)

let span t k f =
  let i = enter t k in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

let set_op t id = t.op_id <- id

(* Per kind: span count, summed duration and summed self time (duration
   minus the part covered by child spans), all in nanoseconds. *)
type totals = { count : int array; dur : int array; self : int array }

let totals t =
  let nk = Array.length kinds in
  let count = Array.make nk 0
  and dur = Array.make nk 0
  and self = Array.make nk 0 in
  for i = 0 to t.n - 1 do
    let d = t.stop.(i) - t.start.(i) in
    let k = t.kind.(i) in
    count.(k) <- count.(k) + 1;
    dur.(k) <- dur.(k) + d;
    self.(k) <- self.(k) + d;
    let p = t.parent.(i) in
    if p >= 0 then self.(t.kind.(p)) <- self.(t.kind.(p)) - d
  done;
  { count; dur; self }

let count tot k = tot.count.(index k)
let dur_ns tot k = tot.dur.(index k)
let self_ns tot k = tot.self.(index k)

(* CSV, one span a line: id,kind,start_ns,stop_ns,parent,op. *)
let write t path =
  let oc = open_out path in
  output_string oc "id,kind,start_ns,stop_ns,parent,op\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d,%s,%d,%d,%d,%d\n" i
      (name kinds.(t.kind.(i)))
      (t.start.(i) - t.t0) (t.stop.(i) - t.t0) t.parent.(i) t.op.(i)
  done;
  close_out oc
