(** Structured, bounded service event log: typed records (severity,
    kind, monotonic + wall timestamps, key/value data) in a
    fixed-size ring, optionally mirrored line-by-line to an on-disk
    JSONL sink — Info and above serialized and flushed per event so
    the tail survives a SIGKILL and feeds the crash flight recorder;
    Debug (the per-commit hot path) queued unserialized and drained
    in order by {!pump}, at the next Info+ flush, or on {!close}.
    Thread-safe. Subscribers run outside the internal lock and may
    themselves log. *)

type severity = Debug | Info | Warn | Error | Critical

val severity_to_string : severity -> string
val severity_of_string : string -> severity option
val severity_rank : severity -> int

type field = S of string | I of int | F of float | B of bool

type event = {
  seq : int;
  ts_ns : int;  (** {!Clock.now_ns} — orders events within a run *)
  wall_s : float;  (** Unix epoch seconds — anchors them across runs *)
  level : severity;
  kind : string;  (** dotted category, e.g. ["wal.checkpoint"] *)
  data : (string * field) list;
}

type t

(** [cap] bounds the in-memory ring (default 512); [sink_path] opens
    (append, create) the JSONL mirror. *)
val create : ?cap:int -> ?sink_path:string -> unit -> t

(** A no-op log: {!log} is a single branch — the telemetry-off
    side of the [overhead] bench's telemetry leg. *)
val disabled : unit -> t

val enabled : t -> bool
val log : t -> severity -> kind:string -> (string * field) list -> unit
val debug : t -> kind:string -> (string * field) list -> unit
val info : t -> kind:string -> (string * field) list -> unit
val warn : t -> kind:string -> (string * field) list -> unit
val error : t -> kind:string -> (string * field) list -> unit
val critical : t -> kind:string -> (string * field) list -> unit

(** Called for every subsequent event, outside the ring lock. *)
val subscribe : t -> (event -> unit) -> unit

(** Events ever logged (the ring retains the last [cap]). *)
val total : t -> int

(** Events logged at [level] or above, since creation. *)
val count_at_least : t -> severity -> int

(** Last [n] retained events at [level] (default all) or above,
    oldest first. *)
val tail : ?level:severity -> t -> int -> event list

val to_json : event -> string
val events_json : event list -> string

(** Serialize any queued Debug backlog to the sink (buffered, no
    flush). Called periodically by the owner's monitor thread so
    drains happen off the logging hot path. *)
val pump : t -> unit

(** Close the sink after draining the Debug backlog (idempotent); the
    ring keeps serving. *)
val close : t -> unit

(** [xqbang_events_total] and [xqbang_events_by_level_total]; nothing
    when the log is disabled. *)
val to_prom : t -> Prom.t -> unit
