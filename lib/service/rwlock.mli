(** The scheduler's admission gate: a FIFO-ticketed *footprint gate*.
    Jobs enter with a static effects footprint
    ({!Core.Static.Footprint}) and run concurrently with every job
    they are provably independent of; conflicting jobs are admitted in
    submission order (no barging — the old writer preference,
    generalized). The old binary readers-writer lock is the pair of
    extreme footprints: {!Core.Static.Footprint.read_all} and
    {!Core.Static.Footprint.top}. *)

type t

type ticket

val create : unit -> t

(** Block until the footprint is independent of every running job and
    every earlier conflicting waiter, then hold it. *)
val acquire : t -> Core.Static.Footprint.t -> ticket

val release : t -> ticket -> unit

(** Exception-safe scoped admission. *)
val with_footprint : t -> Core.Static.Footprint.t -> (unit -> 'a) -> 'a

(** Currently admitted jobs / currently admitted jobs that write
    shared state (any route but the fork). *)
val running : t -> int

val running_writers : t -> int

(** High-water marks since creation (all jobs / writing jobs). *)
val peak : t -> int

val writer_peak : t -> int

(** STATS ["concurrency"]: [running], [running_writers], [peak],
    [writer_peak]. *)
val stats_json : t -> string

(** The [xqbang_gate_inflight] and [xqbang_gate_inflight_peak]
    gauges, by [side]. *)
val to_prom : t -> Xqb_obs.Prom.t -> unit
