(** A job's pipeline stages, and the one bracket that times them.

    A served job owns a {!t}: a clock started at submission plus
    exclusive nanoseconds per {!stage} — [Queue] (waiting for a
    worker), [Gate] (for footprint-gate admission), [Compile] (plan
    cache or compile), [Run] (evaluation), [Snap_apply] (applying a
    ∆), [Wal] (appending to the WAL), [Fsync] (waiting for it to be
    durable), [Serialize] (the result) and [Other] (the rest).
    Entering a stage charges the time since the job's last change to
    the stage left, so nested stages never double-count and the slots
    sum to the time since {!create}.

    One thread writes a record at a time: each change happens before
    the job is handed on (the submitter {!switch}es to [Queue] before
    enqueueing; the worker takes over from the dequeue; a commit that
    parks for the group-commit fsync {!switch}es to [Fsync] before
    parking, and the leader that replies for it calls {!finish}). *)

type stage = Queue | Gate | Compile | Run | Snap_apply | Wal | Fsync | Serialize | Other

(** Every stage, in reporting order. *)
val all : stage list

(** ["queue"], ..., ["snap-apply"], ..., ["other"]: the histogram key
    and the profiler label. *)
val name : stage -> string

(** Position in {!all}; indexes {!finish}'s array. *)
val index : stage -> int

type t

(** A record whose clock starts now, in [Other]; spans are recorded
    only with a [tracer]. *)
val create : ?tracer:Trace.t -> unit -> t

val tracer : t -> Trace.t option

(** [set_steps t f]: [f ()] reads the job's budget step counter; spans
    closed afterwards carry [fuel], the steps charged while open. *)
val set_steps : t -> (unit -> int) -> unit

(** [with_ ?stage job name f] runs [f] as one pipeline step: with
    [stage], the domain's profiler label is the stage name while [f]
    runs and [f]'s time is charged to [stage]; with [job]'s tracer,
    [f] is span [name], [args] attached at its close. Exceptions
    restore the outer stage and label. *)
val with_ :
  ?stage:stage -> ?cat:string -> ?args:(string * string) list ->
  t option -> string -> (unit -> 'a) -> 'a

(** [timed stage job name f] is [with_ ~stage job name f] that also
    returns [f]'s wall time, from the same clock readings. *)
val timed :
  ?cat:string -> ?args:(string * string) list ->
  stage -> t option -> string -> (unit -> unit) -> int

(** [switch ?args t stage] moves the job to [stage] outside any
    lexical scope, for a wait that starts on one thread and ends on
    another. Leaving [Queue] or [Gate] records span ["queue.wait"] or
    ["lock.wait"] (cat ["sched"]) with [args]; {!finish} records
    ["fsync.wait"] for a job still in [Fsync] (a commit whose reply
    waited, parked, for the group-commit fsync). *)
val switch : ?args:(string * string) list -> t -> stage -> unit

(** Charge the current stage up to now; the ns per stage, indexed by
    {!index}, summing to the time since {!create}. The array is the
    record's own: call [finish] once, when the job is done. *)
val finish : t -> int array
