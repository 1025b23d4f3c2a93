(** Per-query resource budgets and cooperative cancellation.

    Bottom-of-the-stack module (depends only on the monotonic clock
    in [Xqb_obs]) so both the store's axis iterators and the core
    evaluator can charge work against the same budget without a
    dependency cycle. The service layer decides the limits; this
    module only enforces them. *)

type reason = Deadline | Cancelled | Fuel | Delta_limit

exception Budget_exceeded of reason

val reason_to_string : reason -> string

(** {1 Cancel tokens}

    One token per in-flight job, shared with whoever may kill it
    (wire [CANCEL], shutdown). First requested reason wins; the job
    observes it at its next poll. Deadlines need no token: every
    poll reads the monotonic clock against the budget's own
    [deadline_ns]. *)

type cancel = reason option Atomic.t

val token : unit -> cancel
val request : cancel -> reason -> unit

(** {1 Budgets} *)

type t

(** [create ?deadline_ns ?fuel ?max_delta ?cancel ()] —
    [deadline_ns] is an absolute *monotonic* deadline
    ({!Xqb_obs.Clock} nanoseconds): wall-clock steps (NTP, VM
    suspend) can neither expire a running job early nor keep one
    alive.
    [fuel] caps charged evaluation steps, [max_delta] the innermost
    snap frame's pending-update count. Omitted limits are unlimited;
    an omitted [cancel] gets a fresh token (so cancellation works
    even on an otherwise unlimited budget). *)
val create :
  ?deadline_ns:int ->
  ?fuel:int ->
  ?max_delta:int ->
  ?cancel:cancel ->
  unit ->
  t

val cancel_token : t -> cancel
val steps_used : t -> int

(** Charge [n] units of work; raises [Budget_exceeded Fuel] when the
    fuel runs out and polls the cancel flag / clock every ~256
    charged units. *)
val charge : t -> int -> unit

(** Check the cancel flag and the deadline now, regardless of the
    poll interval. *)
val poll : t -> unit

(** [charge_delta t pending] — raises [Budget_exceeded Delta_limit]
    when the pending-update count exceeds the budget's cap. *)
val charge_delta : t -> int -> unit

(** {1 Domain-local current budget}

    A scheduler job runs entirely on one domain; layers with no
    evaluation context in scope (store axis iteration) find the
    active budget here. [with_current] installs and always restores,
    including on exceptions. *)

val current : unit -> t option
val with_current : t option -> (unit -> 'a) -> 'a
val charge_current : int -> unit
