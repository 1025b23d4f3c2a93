(* The recent-trace ring: when tracing is on, every job records a
   per-query span trace (queue wait, gate wait, compile, execution,
   snap apply, fsync wait), and the newest [cap] are kept here for the
   wire TRACE command. Off = each instrumentation point costs one
   branch. *)

module Trace = Xqb_obs.Trace
module Prom = Xqb_obs.Prom

type t = {
  tracing : bool;
  cap : int;  (* serve --trace-ring *)
  m : Mutex.t;
  mutable traces : (int * Trace.t) list;  (* newest first, bounded *)
  mutable evictions : int;  (* traces dropped off the ring *)
}

let create ~tracing ~cap =
  { tracing; cap; m = Mutex.create (); traces = []; evictions = 0 }

let tracer t = if t.tracing then Some (Trace.create ()) else None

let push t jid tr =
  Mutex.protect t.m (fun () ->
      let others = List.filter (fun (j, _) -> j <> jid) t.traces in
      let keep = List.filteri (fun i _ -> i < t.cap - 1) others in
      t.evictions <- t.evictions + (List.length others - List.length keep);
      t.traces <- (jid, tr) :: keep)

let stats t =
  Mutex.protect t.m (fun () -> (List.length t.traces, t.cap, t.evictions))

let json t =
  let size, cap, evicted = stats t in
  Printf.sprintf "{\"size\":%d,\"capacity\":%d,\"evictions\":%d}" size cap evicted

let to_prom t p =
  let size, cap, evicted = stats t in
  Prom.gauge_i p ~help:"Traces resident in the TRACE ring."
    "xqbang_trace_ring_size" size;
  Prom.gauge_i p ~help:"TRACE ring capacity (serve --trace-ring)."
    "xqbang_trace_ring_capacity" cap;
  Prom.counter p ~help:"Traces evicted from the TRACE ring."
    "xqbang_trace_ring_evictions_total" evicted

let chrome_json t jid =
  Mutex.protect t.m (fun () ->
      match jid with
      | Some j ->
        Option.map (fun tr -> (j, Trace.to_chrome_json tr)) (List.assoc_opt j t.traces)
      | None -> (
        match t.traces with
        | (j, tr) :: _ -> Some (j, Trace.to_chrome_json tr)
        | [] -> None))
