(** Service health: the reason vocabulary the service's seams report
    in, the checks no seam owns, and the monitor thread. *)

type level = [ `Degraded | `Critical ]

(** Code, level and machine-readable data fields. *)
type reason = string * level * (string * Xqb_obs.Events.field) list

type t

(** [stall_ns] bounds the apply-mutex hold time and the queue-head
    age; [gc_pause_warn_ns] ([None] when GC telemetry is off) the 10s
    GC pause p99. *)
val create : stall_ns:int -> gc_pause_warn_ns:int option -> t

(** [[code, `Critical, data]] at or past 4 × [warn], [`Degraded] at or
    past [warn]; [[]] below it or when [warn] is 0. *)
val graded :
  string -> warn:int -> int -> (string * Xqb_obs.Events.field) list -> reason list

(** Queue depth against the admission watermark, 10s-window SLO burn
    rates, GC pause p99, apply-mutex hold time and queue-head age. *)
val reasons : t -> sched:Scheduler.t -> metrics:Metrics.t -> reason list

(** ["ok"] | ["degraded"] | ["critical"]: the worst level present. *)
val status : reason list -> string

(** The status as the [xqbang_health_status] gauge: 0, 1 or 2. *)
val gauge : reason list -> int

(** Wire [HEALTH]: [{"status":…,"reasons":[{"code":…,"level":…,…}]}]. *)
val json : reason list -> string

(** Start the monitor thread: every 250ms it pumps [events]' sink and
    polls [reasons], logging each stall's rising edge and each status
    transition. *)
val start_monitor : t -> Xqb_obs.Events.t -> (unit -> reason list) -> unit

(** Stop and join the monitor thread (no-op when none runs). *)
val stop_monitor : t -> unit
