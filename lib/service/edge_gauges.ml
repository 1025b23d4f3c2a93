(* Wire-edge gauges, pulled (not pushed) from whichever edge is
   serving TCP — see [Edge] — and rendered here for STATS, METRICS
   PROM and HEALTH. *)

module Events = Xqb_obs.Events
module Prom = Xqb_obs.Prom

type t = {
  eg_open : int;  (* connections open now *)
  eg_peak : int;  (* peak concurrently open since boot *)
  eg_accepted : int;  (* connections accepted since boot *)
  eg_conn_rejects : int;  (* connections refused at --max-conns *)
  eg_suspended : int;  (* connections currently read-suspended *)
  eg_suspensions : int;  (* read-suspension episodes since boot *)
  eg_overload_rejects : int;  (* requests rejected at the hard watermark *)
  eg_requests : int;  (* requests parsed off the wire *)
  eg_batches : int;  (* readiness-cycle admission batches *)
  eg_max_conns : int;  (* configured cap; 0 = unlimited *)
}

let json e =
  Printf.sprintf
    "{\"open\":%d,\"peak\":%d,\"accepted\":%d,\"conn_rejects\":%d,\"read_suspended\":%d,\"suspensions\":%d,\"overload_rejects\":%d,\"requests\":%d,\"batches\":%d,\"max_conns\":%d}"
    e.eg_open e.eg_peak e.eg_accepted e.eg_conn_rejects e.eg_suspended
    e.eg_suspensions e.eg_overload_rejects e.eg_requests e.eg_batches
    e.eg_max_conns

(* Connection saturation against --max-conns, and read-suspension
   backpressure. *)
let health e ~queue_depth : Health.reason list =
  let conns = [ ("open", Events.I e.eg_open); ("max_conns", Events.I e.eg_max_conns) ] in
  (if e.eg_max_conns > 0 && e.eg_open >= e.eg_max_conns then
     [ ("edge-saturated", `Critical, conns) ]
   else if e.eg_max_conns > 0 && e.eg_open * 10 >= e.eg_max_conns * 9 then
     [ ("edge-saturated", `Degraded, conns) ]
   else [])
  @
  if e.eg_suspended > 0 then
    [
      ( "edge-backpressure",
        `Degraded,
        [
          ("read_suspended", Events.I e.eg_suspended);
          ("queue_depth", Events.I queue_depth);
        ] );
    ]
  else []

let to_prom e p =
  Prom.gauge_i p ~help:"Connections open on the wire edge."
    "xqbang_edge_open_connections" e.eg_open;
  Prom.gauge_i p ~help:"Peak concurrently open connections since boot."
    "xqbang_edge_open_connections_peak" e.eg_peak;
  Prom.counter p ~help:"Connections accepted since boot."
    "xqbang_edge_accepted_total" e.eg_accepted;
  Prom.counter p ~help:"Connections refused at --max-conns."
    "xqbang_edge_conn_rejects_total" e.eg_conn_rejects;
  Prom.gauge_i p
    ~help:"Connections read-suspended by scheduler backpressure right now."
    "xqbang_edge_read_suspended" e.eg_suspended;
  Prom.counter p ~help:"Read-suspension episodes since boot."
    "xqbang_edge_suspensions_total" e.eg_suspensions;
  Prom.counter p
    ~help:"Requests rejected with [overloaded] at the hard watermark."
    "xqbang_edge_overload_rejects_total" e.eg_overload_rejects;
  Prom.counter p ~help:"Requests parsed off the wire."
    "xqbang_edge_requests_total" e.eg_requests;
  Prom.counter p ~help:"Readiness-cycle admission batches."
    "xqbang_edge_batches_total" e.eg_batches
