(* Standalone timing of layers the benchmark cannot reach from outside
   the automata: it calls their public functions directly, at the sizes
   and counts the traced run observed. *)

let now_ns = Spans.now_ns

(* Linear interpolation between closest ranks. *)
let percentile p a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let x = p *. float_of_int (n - 1) in
    let lo = int_of_float x in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((x -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* Median time of one call, in microseconds: batches of about 0.5 ms,
   after a warm-up batch that also sizes them. *)
let per_call_us f =
  let t0 = now_ns () in
  let calls = ref 0 in
  while now_ns () - t0 < 2_000_000 do
    ignore (Sys.opaque_identity (f ()));
    incr calls
  done;
  let batch = max 1 (!calls / 4) in
  Array.init 21 (fun _ ->
      let s = now_ns () in
      for _ = 1 to batch do
        ignore (Sys.opaque_identity (f ()))
      done;
      float_of_int (now_ns () - s) /. float_of_int batch /. 1e3)
  |> percentile 0.5

(* --- sym_crypto --- *)

type crypto = {
  seal_64 : float;
  seal_1k : float;
  open_64 : float;
  open_1k : float;
  kdf : float;
}

let crypto () =
  let rng = Prng.Splitmix.create 7L in
  let key = Sym_crypto.Key.fresh Sym_crypto.Key.Session rng in
  let iv = Sym_crypto.Aead.random_iv rng in
  let ad =
    Wire.Frame.header_ad ~label:Wire.Frame.Admin_msg ~sender:"leader"
      ~recipient:"user00"
  in
  let pt n = Bytes.to_string (Prng.Splitmix.next_bytes rng n) in
  let seal n =
    let p = pt n in
    per_call_us (fun () -> Sym_crypto.Aead.seal ~key ~iv ~ad p)
  in
  let open_ n =
    let s = Sym_crypto.Aead.seal ~key ~iv ~ad (pt n) in
    per_call_us (fun () -> Sym_crypto.Aead.open_ ~key ~ad s)
  in
  let raw = Sym_crypto.Key.raw key in
  {
    seal_64 = seal 64;
    seal_1k = seal 1024;
    open_64 = open_ 64;
    open_1k = open_ 1024;
    kdf = per_call_us (fun () -> Sym_crypto.Kdf.derive ~key:raw ~label:"bench");
  }

(* Seal + open cost of [frames] sealed bodies totalling [bytes], from
   the line through the 64 B and 1 KiB points. *)
let seal_open_ms c ~frames ~bytes =
  let per_byte = (c.seal_1k +. c.open_1k -. c.seal_64 -. c.open_64) /. 960.0 in
  let fixed = c.seal_64 +. c.open_64 -. (64.0 *. per_byte) in
  ((float_of_int frames *. fixed) +. (float_of_int bytes *. per_byte)) /. 1e3

(* --- store: a counting shim over Store.Mem --- *)

module Counting = struct
  type t = {
    mem : Store.Mem.t;
    mutable pwrites : int;
    mutable fsyncs : int;
    mutable busy_ns : int;
  }

  let create () =
    { mem = Store.Mem.create (); pwrites = 0; fsyncs = 0; busy_ns = 0 }

  let timed t f =
    let s = now_ns () in
    let r = f () in
    t.busy_ns <- t.busy_ns + (now_ns () - s);
    r

  let pwrite t ~file ~off data =
    t.pwrites <- t.pwrites + 1;
    timed t (fun () -> Store.Mem.pwrite t.mem ~file ~off data)

  let read t ~file = timed t (fun () -> Store.Mem.read t.mem ~file)

  let fsync t ~file =
    t.fsyncs <- t.fsyncs + 1;
    timed t (fun () -> Store.Mem.fsync t.mem ~file)

  let rename t ~src ~dst = timed t (fun () -> Store.Mem.rename t.mem ~src ~dst)

  let remove t ~file = timed t (fun () -> Store.Mem.remove t.mem ~file)

  let reset t =
    t.pwrites <- 0;
    t.fsyncs <- 0;
    t.busy_ns <- 0
end

let backend c = Store.Backend.pack (module Counting) c

type store = { pwrites : int; fsyncs : int; busy_ns : int }

let store_of (c : Counting.t) =
  { pwrites = c.Counting.pwrites; fsyncs = c.fsyncs; busy_ns = c.busy_ns }

let add_store a b =
  { pwrites = a.pwrites + b.pwrites; fsyncs = a.fsyncs + b.fsyncs; busy_ns = a.busy_ns + b.busy_ns }

let no_store = { pwrites = 0; fsyncs = 0; busy_ns = 0 }

(* --- enclaves.journal over store --- *)

(* Records a journal image gained between two snapshots of its bytes:
   their count, and those still visible. An auto-compaction (past
   [compact_every] records since the last snapshot) folds the earlier
   ones into a snapshot, so only their count is known. 256 is the
   [Journal.create] default, which the driver's journal uses; the
   replay journal below is created with it explicitly, and the
   selftest's churn run, which crosses a compaction, fails if the
   default moves. *)
let compact_every = 256

let appended ~before ~after =
  let records b = fst (Enclaves.Journal.replay b) in
  let rb = records before and ra = records after in
  let nb = List.length rb and na = List.length ra in
  if String.starts_with ~prefix:before after then
    (na - nb, List.filteri (fun i _ -> i >= nb) ra)
  else
    let since_snapshot =
      match rb with Enclaves.Journal.Snapshot _ :: _ -> nb - 1 | _ -> nb
    in
    (compact_every + 1 - since_snapshot + (na - 1), List.tl ra)

(* Append [count] records, cycling through [seen], to a fresh journal
   on a counting backend, and put each epoch bump into a vault on the
   same backend as the leader does. Returns the mean append time (µs)
   and the store traffic. *)
let journal ~seen ~count =
  let c = Counting.create () in
  let disk = backend c in
  let j = Enclaves.Journal.create ~compact_every ~disk () in
  let vault = Store.Vault.create ~disk () in
  Counting.reset c;
  let seen = Array.of_list seen in
  let busy = ref 0 and bumps = ref 0 in
  for i = 0 to count - 1 do
    let r = seen.(i mod Array.length seen) in
    let s = now_ns () in
    Enclaves.Journal.append j r;
    busy := !busy + (now_ns () - s);
    match r with
    | Enclaves.Journal.Epoch_bump _ ->
        (* The vault writes only a rising epoch; cycled records repeat. *)
        incr bumps;
        Store.Vault.put vault !bumps
    | _ -> ()
  done;
  (float_of_int !busy /. float_of_int count /. 1e3, store_of c)

(* --- enclaves.delivery over store --- *)

(* The offline-drain op pattern replayed against a delivery layer on a
   counting backend: per op, [notices] notices and one group key queued
   for every offline member, then the member that left [lag] ops
   earlier drained and acknowledged. *)
let delivery ~ops ~members ~lag ~notices =
  let c = Counting.create () in
  let d =
    Enclaves.Delivery.create ~policy:Enclaves.Delivery.default_policy
      ~disk:(backend c) ()
  in
  let epoch = ref 1 in
  let away = Queue.create () in
  let next = ref 0 in
  let depart () =
    Queue.push (Printf.sprintf "user%02d" (!next mod members)) away;
    incr next;
    let send x =
      Queue.iter (fun member -> Enclaves.Delivery.enqueue d ~member ~epoch:!epoch x) away
    in
    for k = 1 to notices do
      send (Wire.Admin.Notice (Printf.sprintf "%064d" k))
    done;
    incr epoch;
    send (Wire.Admin.New_group_key { key = String.make 16 'k'; epoch = !epoch })
  in
  for _ = 1 to lag do
    depart ()
  done;
  Counting.reset c;
  for _ = 1 to ops do
    depart ();
    let member = Queue.pop away in
    (* The leader acknowledges each drained record as its admin ack
       comes back. *)
    List.iter
      (function
        | Wire.Admin.Queued { seq; _ } ->
            Enclaves.Delivery.ack d ~member ~upto:(seq + 1)
        | _ -> ())
      (Enclaves.Delivery.drain d ~member ~current_epoch:!epoch)
  done;
  store_of c

(* --- symbolic --- *)

(* Mean µs of [Model.canon] and of [Model.successors] over every
   explored state. *)
let symbolic config r =
  let n = Symbolic.Explore.state_count r in
  let time f =
    let s = now_ns () in
    Symbolic.Explore.iter_states r (fun q -> ignore (Sys.opaque_identity (f q)));
    float_of_int (now_ns () - s) /. float_of_int n /. 1e3
  in
  (time Symbolic.Model.canon, time (Symbolic.Model.successors config))
