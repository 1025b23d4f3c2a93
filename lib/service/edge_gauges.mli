(** Wire-edge gauges and their STATS, METRICS PROM and HEALTH
    renderings; {!Service.edge_gauges} re-exports the record. *)

type t = {
  eg_open : int;
  eg_peak : int;
  eg_accepted : int;
  eg_conn_rejects : int;
  eg_suspended : int;
  eg_suspensions : int;
  eg_overload_rejects : int;
  eg_requests : int;
  eg_batches : int;
  eg_max_conns : int;
}

(** STATS ["edge"]. *)
val json : t -> string

(** [edge-saturated] and [edge-backpressure]. *)
val health : t -> queue_depth:int -> Health.reason list

(** The [xqbang_edge_*] families. *)
val to_prom : t -> Xqb_obs.Prom.t -> unit
