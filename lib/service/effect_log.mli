(** Effect observability: the last write-side job's ∆ statistics
    (wire [DELTA]), the bounded slow-effect log (wire [SLOWLOG]) and
    the per-job GC / profiler attribution they and EXPLAIN ANALYZE
    report. *)

type t

(** A job's slow-effect entry, taken when its session work ends. *)
type entry

(** Jobs whose snap-apply stage reaches [slow_ns] enter the log and
    raise a [query.slow] event; [gc] says GC telemetry is on. *)
val create : slow_ns:int -> gc:bool -> Xqb_obs.Events.t -> t

(** GC pause and profiler-sample counters at a job's start. *)
type attribution

val attribution_begin : unit -> attribution

(** EXPLAIN ANALYZE's footer: profiler samples by phase while the
    profiler runs, and the GC pause while telemetry is on. *)
val attribution_suffix : t -> attribution -> string

(** Record the job's ∆ statistics for [DELTA] and return its
    slow-effect entry. *)
val note_effects :
  t -> jid:int -> sid:int -> src:string -> trace:string option ->
  att:attribution -> Core.Context.t -> entry

(** Log [entry] with the job's finished stage split when its
    snap-apply stage reached the threshold. *)
val note_slow : t -> int array -> entry -> unit

(** The last write-side job's ∆ statistics; [None] before any. *)
val delta_json : t -> string option

(** The slow-effect log, newest first. *)
val slowlog_json : t -> string

val length : t -> int
