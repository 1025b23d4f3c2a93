(** The replica side of replication: snapshot bootstrap, shipped-frame
    apply and the client thread that polls the leader for both. *)

type t

(** [leader] is ["HOST:PORT"], or [""] for a replica pumped by hand;
    a lag of [lag_warn_frames] degrades health (4× = critical, 0
    disables). *)
val create :
  leader:string ->
  catalog:Catalog.t ->
  sched:Scheduler.t ->
  events:Xqb_obs.Events.t ->
  lag_warn_frames:int ->
  t

(** Restore a leader's snapshot blob into the (empty) store and
    register its documents; returns the snapshot LSN. *)
val bootstrap : t -> string -> (int, string) result

(** Apply a batch of shipped frames; returns frames applied. *)
val ingest : t -> leader_lsn:int -> string -> (int, string) result

val applied_lsn : t -> int

(** [replica-lag], [replica-stale] and [replica-disconnected]. *)
val health : t -> Health.reason list

(** Replica-side [REPLICA STAT]. *)
val stat_json : t -> string

(** The [xqbang_replica_*] families. *)
val to_prom : t -> Xqb_obs.Prom.t -> unit

(** Start the polling thread when a leader was named.
    @raise Failure on a malformed ["HOST:PORT"]. *)
val start : t -> unit

(** Stop and join the polling thread. *)
val stop : t -> unit
