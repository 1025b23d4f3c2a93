(** The in-flight job registry: every queued or running governed job,
    reachable by id for the wire [CANCEL], STATS and the shutdown
    drain. *)

type t

val create : unit -> t

(** Register a job; returns its fresh job id. [started] is its
    arrival instant (monotonic Clock ns), [src] the source shown in
    STATS. *)
val register :
  t -> sid:int -> cancel:Xqb_governor.Budget.cancel -> started:int -> string -> int

val unregister : t -> int -> unit

(** Request cancellation of job [jid]; true if it was registered. *)
val cancel : t -> int -> bool

(** Request cancellation of every registered job. *)
val cancel_all : t -> unit

(** STATS ["inflight"]: [[{"jid","sid","running_ms","src"}]]. *)
val json : t -> string
