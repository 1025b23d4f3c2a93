(** The recent-trace ring behind the wire [TRACE] command: the
    newest traced jobs, bounded by [serve --trace-ring]. *)

type t

(** [cap] is at least 1. *)
val create : tracing:bool -> cap:int -> t

(** A fresh tracer for a new job when tracing is on, else [None]. *)
val tracer : t -> Xqb_obs.Trace.t option

(** Keep job [jid]'s trace, evicting the oldest past the capacity. *)
val push : t -> int -> Xqb_obs.Trace.t -> unit

(** (occupancy, capacity, evictions since boot). *)
val stats : t -> int * int * int

(** [{"size","capacity","evictions"}]: STATS and the flight dump. *)
val json : t -> string

(** The [xqbang_trace_ring_*] families. *)
val to_prom : t -> Xqb_obs.Prom.t -> unit

(** Chrome trace-event JSON of job [jid], or of the newest trace when
    [None]; with the job id. *)
val chrome_json : t -> int option -> (int * string) option
