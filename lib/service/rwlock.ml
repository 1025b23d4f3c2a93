(* The scheduler's admission gate, generalized from a binary
   readers-writer lock to a *footprint gate*: every job enters with a
   static effects footprint (Static.Footprint) and runs concurrently
   with every other job it is provably independent of — read/read
   always, read/write and write/write when their document regions
   don't overlap. The old purity gate falls out as the two extreme
   footprints: [read_all] (a Pure query: reads everything, writes
   nothing) and [top] (an opaque writer: conflicts with everyone).

   Admission is FIFO-ticketed: a job may start iff it is independent
   of every *running* job and of every *earlier-ticketed waiter*. The
   second clause prevents barging (a stream of readers can't starve a
   writer — the old lock's writer preference, generalized) and keeps
   conflicting writers in submission order, which makes same-document
   update interleavings deterministic. Independent jobs overtake
   freely. Deadlock-free: a waiter only ever waits on running jobs
   and strictly earlier tickets, so the wait graph follows ticket
   order and is acyclic.

   Bookkeeping is O(1) per job outside the admission check itself:
   waiters sit in a FIFO queue, running jobs in a table keyed by
   ticket, and the writer count moves incrementally. A release runs
   one admission pass over the queue in ticket order and wakes only
   the waiters it admits, each on its own condition — waiters never
   rescan the lists themselves. *)

module FP = Core.Static.Footprint

type ticket = { tk : int; fp : FP.t; writes : bool }

(* A blocked job: admitted by a releaser's pass, woken on [cond]. *)
type waiter = { w : ticket; cond : Condition.t; mutable admitted : bool }

type t = {
  mutex : Mutex.t;
  mutable next : int;
  running : (int, ticket) Hashtbl.t;  (* by ticket number *)
  mutable writers : int;  (* running jobs that write shared state *)
  mutable waiting : waiter Queue.t;  (* ascending ticket order *)
  mutable peak : int;  (* max simultaneous holders, for metrics *)
  mutable writer_peak : int;  (* same, counting writing holders only *)
}

let create () =
  {
    mutex = Mutex.create ();
    next = 0;
    running = Hashtbl.create 16;
    writers = 0;
    waiting = Queue.create ();
    peak = 0;
    writer_peak = 0;
  }

let conflicts a b = not (FP.independent a b)

let conflicts_running t fp =
  Hashtbl.fold (fun _ r acc -> acc || conflicts r.fp fp) t.running false

(* Caller holds [t.mutex]. *)
let admit t e =
  Hashtbl.replace t.running e.tk e;
  if e.writes then t.writers <- t.writers + 1;
  t.peak <- max t.peak (Hashtbl.length t.running);
  t.writer_peak <- max t.writer_peak t.writers

(* Admit, in ticket order, every waiter independent of the running
   jobs and of the earlier waiters still blocked. Caller holds
   [t.mutex]. *)
let admission_pass t =
  if not (Queue.is_empty t.waiting) then begin
    let still = Queue.create () in
    Queue.iter
      (fun wt ->
        if
          conflicts_running t wt.w.fp
          || Queue.fold (fun acc b -> acc || conflicts b.w.fp wt.w.fp) false still
        then Queue.push wt still
        else begin
          admit t wt.w;
          wt.admitted <- true;
          Condition.signal wt.cond
        end)
      t.waiting;
    t.waiting <- still
  end

let acquire t fp =
  Mutex.lock t.mutex;
  let e = { tk = t.next; fp; writes = FP.route fp <> FP.Fork } in
  t.next <- t.next + 1;
  let blocked =
    conflicts_running t fp
    || Queue.fold (fun acc wt -> acc || conflicts wt.w.fp fp) false t.waiting
  in
  if blocked then begin
    let wt = { w = e; cond = Condition.create (); admitted = false } in
    Queue.push wt t.waiting;
    while not wt.admitted do
      Condition.wait wt.cond t.mutex
    done
  end
  else admit t e;
  Mutex.unlock t.mutex;
  e

let release t e =
  Mutex.lock t.mutex;
  Hashtbl.remove t.running e.tk;
  if e.writes then t.writers <- t.writers - 1;
  (* waiters blocked on [e] (running or earlier-waiting) may now pass *)
  admission_pass t;
  Mutex.unlock t.mutex

let with_footprint t fp f =
  let e = acquire t fp in
  Fun.protect ~finally:(fun () -> release t e) f

let running t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.running in
  Mutex.unlock t.mutex;
  n

let running_writers t =
  Mutex.lock t.mutex;
  let n = t.writers in
  Mutex.unlock t.mutex;
  n

let peak t = t.peak
let writer_peak t = t.writer_peak

(* STATS "concurrency": admitted jobs now (and how many of those hold
   write regions), plus the high-water marks since boot — the
   observable proof that disjoint writers actually overlap. *)
let stats_json t =
  Printf.sprintf "{\"running\":%d,\"running_writers\":%d,\"peak\":%d,\"writer_peak\":%d}"
    (running t) (running_writers t) (peak t) (writer_peak t)

let to_prom t p =
  let gauge help name all writer =
    Xqb_obs.Prom.gauge_i p ~help ~labels:[ ("side", "all") ] name all;
    Xqb_obs.Prom.gauge_i p ~help ~labels:[ ("side", "writer") ] name writer
  in
  gauge "Jobs currently admitted by the footprint gate." "xqbang_gate_inflight"
    (running t) (running_writers t);
  gauge "Peak concurrently admitted jobs since boot." "xqbang_gate_inflight_peak"
    (peak t) (writer_peak t)
