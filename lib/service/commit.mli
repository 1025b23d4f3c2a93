(** The leader-side commit path: WAL appends and the cursor behind
    them, checkpoints, the CHECKPOINT / SHIP / SNAPSHOT verbs and the
    per-replica peer table. Without durability the writes are no-ops
    and the verbs answer [Error]. *)

type t

(** [stall_ns] and [fsync_warn_ns] bound an fsync in flight and the
    fsync p99; [lag_warn_frames] a peer's lag (0 disables). *)
val create :
  ?durable:Xqb_wal.Durable.t ->
  catalog:Catalog.t ->
  sched:Scheduler.t ->
  events:Xqb_obs.Events.t ->
  stall_ns:int ->
  fsync_warn_ns:int ->
  lag_warn_frames:int ->
  unit ->
  t

(** The WAL's last LSN; [None] without durability. *)
val last_lsn : t -> int option

(** The exclusive route's commit: append the journal tail, adding its
    last LSN and entry count to [appended], then checkpoint if due.
    Caller holds a ⊤ footprint. *)
val publish : ?job:Xqb_obs.Stage.t -> t -> (int * int) ref -> unit

(** A document load's commit: append its entries, persist the
    registration (waiting for the fsync under [Always]), checkpoint
    if due. Caller holds a ⊤ footprint. *)
val commit_load : t -> uri:string -> root:int -> bytes:int -> unit

(** The concurrent-writer route's [apply_wrap]: apply under the
    scheduler's apply mutex in one store transaction, then append the
    tail into [appended]. *)
val writer_apply_wrap :
  t -> Xqb_obs.Stage.t option -> (int * int) ref -> (unit -> unit) -> unit

(** Call [k] once the WAL is durable up to [max mark lsn], where
    [mark] is the last LSN when the job passed the gate and
    [(lsn, entries)] what it appended; [parked ()] runs first when
    that means waiting. At once with [Ok ()] without durability or
    with nothing to cover. *)
val await_reply :
  t -> mark:int -> int * int -> parked:(unit -> unit) ->
  ((unit, exn) result -> unit) -> unit

(** Wire [CHECKPOINT]. *)
val checkpoint_now : t -> (int, string) result

(** Wire [SHIP]. *)
val ship :
  ?replica_id:string -> t -> from_lsn:int -> max:int -> (int * string, string) result

(** Wire [SNAPSHOT]. *)
val snapshot_blob : t -> (int * string, string) result

(** [fsync-stall], [fsync-latency] and [peer-lag] reasons. *)
val health : t -> Health.reason list

(** STATS ["durability"]; [None] without durability. *)
val stats_json : t -> string option

(** Leader-side [REPLICA STAT]: the last LSN and the peer table. *)
val replica_stat_json : t -> string

(** WAL, checkpoint and fsync families, and per-peer lag gauges. *)
val to_prom : t -> Xqb_obs.Prom.t -> unit

val inject_fsync_delay : t -> float -> unit
val inject_fsync_error : t -> bool -> unit

(** Final fsync and close of the WAL. *)
val close : t -> unit
