(** Runtime telemetry: the continuous profiler's service-side
    configuration, GC telemetry and process identity. *)

type t

(** Take a GC-telemetry refcount when [gc]; arm the profiler at
    [profile_hz] when given (the caller has checked it is
    positive). *)
val create : ?profile_hz:int -> gc:bool -> Xqb_obs.Events.t -> t

(** Wire [PROFILE]. *)
val profile_command : t -> [ `Start | `Stop | `Dump | `Dump_json | `Stat ] -> string

val inject_gc_pause : t -> int -> unit
val clear_gc_pause_injection : t -> unit

(** STATS ["process"]. *)
val process_json : t -> string

(** STATS ["gc"]; [None] while GC telemetry is off. *)
val gc_json : t -> string option

(** Build info, process, profiler and GC families. *)
val to_prom : t -> Xqb_obs.Prom.t -> unit

(** Disarm a profiler this service armed; release the GC refcount. *)
val stop : t -> unit
