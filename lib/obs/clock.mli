(** Monotonic clock. Nanoseconds since an arbitrary (boot-time)
    epoch, as a tagged int — unboxed, allocation-free, safe against
    wall-clock steps. All span timestamps in {!Trace} use this
    scale. *)

val now_ns : unit -> int

(** Wall clock (CLOCK_REALTIME) in nanoseconds since the Unix epoch,
    as a tagged int. Event-log records carry both: {!now_ns} orders
    them, [wall_ns] anchors them to real time for post-mortem
    reading. Subject to wall-clock steps — never use for
    durations. *)
val wall_ns : unit -> int

(** Seconds elapsed since a {!now_ns} instant. *)
val secs_since : int -> float
