type config = {
  eio : float;
  short_write : float;
  torn_write : float;
  drop_fsync : float;
  crash_after_writes : int option;
  space_budget : int option;
  fsync_spike : float;
  fsync_spike_ms : int;
  stall_after_writes : int option;
}

let none =
  {
    eio = 0.;
    short_write = 0.;
    torn_write = 0.;
    drop_fsync = 0.;
    crash_after_writes = None;
    space_budget = None;
    fsync_spike = 0.;
    fsync_spike_ms = 0;
    stall_after_writes = None;
  }

module Counter = struct
  let layer = Metrics.layer "fault"
  let c = Metrics.counter layer
  let torn_writes = c "torn_writes"
  let short_writes = c "short_writes"
  let dropped_fsyncs = c "dropped_fsyncs"
  let eio_injected = c "eio_injected"
  let enospc_hits = c "enospc_hits"
  let fsync_stall_ms_max = Metrics.high_water layer "fsync_stall_ms_max"
end

type t = {
  inner : Backend.t;
  config : config;
  rng : Prng.Splitmix.t;
  counters : Metrics.t;
  mutable writes_done : int;
  mutable crashed : bool;
  (* The ENOSPC arm models the device's own allocation: the wrapper
     tracks every file's size as it forwards mutations, so the budget
     check sees exactly what compaction frees. *)
  sizes : (string, int) Hashtbl.t;
  mutable space_budget : int option;
  mutable stalled : bool;
}

let create ?(config = none) ~rng inner =
  {
    inner;
    config;
    rng;
    counters = Metrics.create Counter.layer;
    writes_done = 0;
    crashed = false;
    sizes = Hashtbl.create 8;
    space_budget = config.space_budget;
    stalled = false;
  }

let counters t = t.counters
let crashed t = t.crashed
let stalled t = t.stalled
let set_space_budget t b = t.space_budget <- b
let space_budget t = t.space_budget
let heal_stall t = t.stalled <- false
let trigger_stall t = t.stalled <- true

let bytes_used t = Hashtbl.fold (fun _ n acc -> acc + n) t.sizes 0

let size_of t file = Option.value ~default:0 (Hashtbl.find_opt t.sizes file)

let note_write t file ~off ~len =
  if len > 0 then
    Hashtbl.replace t.sizes file (max (size_of t file) (off + len))

let hit t p = p > 0. && Prng.Splitmix.next_float t.rng < p

let check_alive t =
  if t.crashed then raise (Backend.Crashed "store already crashed")

(* A torn boundary can fall anywhere in the record, including 0 and
   len — the extremes are where off-by-one recovery bugs live. *)
let tear_len t data =
  Prng.Splitmix.next_int t.rng (String.length data + 1)

(* Returns true when this mutating call is the crash point. *)
let crash_due t =
  match t.config.crash_after_writes with
  | None -> false
  | Some k ->
      t.writes_done <- t.writes_done + 1;
      t.writes_done >= k

(* The stall arm is persistent, not probabilistic: past the k-th
   mutation every mutating call fails until {!heal_stall}. It shares
   the mutation count {!crash_due} advances; when only the stall arm
   is configured it advances the count itself. *)
let check_stall t =
  (match t.config.stall_after_writes with
  | Some k when not t.stalled ->
      if t.config.crash_after_writes = None then
        t.writes_done <- t.writes_done + 1;
      if t.writes_done >= k then t.stalled <- true
  | _ -> ());
  if t.stalled then raise (Backend.Stalled "injected persistent write stall")

(* ENOSPC with no partial effect: a write that would push usage past
   the budget fails whole. (Real disks can land a prefix first; the
   torn-write arm covers that shape independently.) *)
let check_space t file ~off ~len =
  match t.space_budget with
  | None -> ()
  | Some budget ->
      let growth = max 0 (off + len - size_of t file) in
      if growth > 0 && bytes_used t + growth > budget then (
        Metrics.incr t.counters Counter.enospc_hits;
        raise
          (Backend.No_space
             (Printf.sprintf "injected ENOSPC (%d used + %d > %d budget)"
                (bytes_used t) growth budget)))

let mark_crash t = t.crashed <- true

let pwrite t ~file ~off data =
  check_alive t;
  if crash_due t then (
    (* The dying write tears at a seeded boundary, then the process is
       gone: every later call fails. *)
    let k = tear_len t data in
    Backend.pwrite t.inner ~file ~off (String.sub data 0 k);
    note_write t file ~off ~len:k;
    mark_crash t;
    raise (Backend.Crashed (Printf.sprintf "crash during pwrite %s@%d" file off)));
  check_stall t;
  check_space t file ~off ~len:(String.length data);
  if hit t t.config.eio then (
    Metrics.incr t.counters Counter.eio_injected;
    raise (Backend.Eio "injected transient EIO"));
  if hit t t.config.short_write then (
    let k = tear_len t data in
    Backend.pwrite t.inner ~file ~off (String.sub data 0 k);
    note_write t file ~off ~len:k;
    Metrics.incr t.counters Counter.short_writes;
    raise (Backend.Eio (Printf.sprintf "injected short write (%d/%d bytes)" k (String.length data))));
  if hit t t.config.torn_write then (
    let k = tear_len t data in
    Backend.pwrite t.inner ~file ~off (String.sub data 0 k);
    note_write t file ~off ~len:k;
    Metrics.incr t.counters Counter.torn_writes)
  else (
    Backend.pwrite t.inner ~file ~off data;
    note_write t file ~off ~len:(String.length data))

let read t ~file =
  check_alive t;
  Backend.read t.inner ~file

let fsync t ~file =
  check_alive t;
  check_stall t;
  if hit t t.config.fsync_spike then (
    (* A latency spike is recorded, not slept: virtual-time harnesses
       poll [counters] for pressure rather than blocking the run. *)
    let ms = 1 + Prng.Splitmix.next_int t.rng (max 1 t.config.fsync_spike_ms) in
    Metrics.set_max t.counters Counter.fsync_stall_ms_max ms);
  if hit t t.config.eio then (
    Metrics.incr t.counters Counter.eio_injected;
    raise (Backend.Eio "injected transient EIO"));
  if hit t t.config.drop_fsync then
    Metrics.incr t.counters Counter.dropped_fsyncs
  else Backend.fsync t.inner ~file

let rename t ~src ~dst =
  check_alive t;
  if crash_due t then (
    (* Crash before the rename is applied: [dst] keeps its old
       durable content, [src] is left staged. *)
    mark_crash t;
    raise (Backend.Crashed (Printf.sprintf "crash before rename %s -> %s" src dst)));
  check_stall t;
  if hit t t.config.eio then (
    Metrics.incr t.counters Counter.eio_injected;
    raise (Backend.Eio "injected transient EIO"));
  Backend.rename t.inner ~src ~dst;
  Hashtbl.replace t.sizes dst (size_of t src);
  Hashtbl.remove t.sizes src

let remove t ~file =
  check_alive t;
  Backend.remove t.inner ~file;
  Hashtbl.remove t.sizes file

let handle t = Backend.pack (module struct
  type nonrec t = t

  let pwrite = pwrite
  let read = read
  let fsync = fsync
  let rename = rename
  let remove = remove
end) t
