(** Continuous sampling CPU profiler.

    One process-wide profiler built on [setitimer(ITIMER_PROF)] +
    SIGPROF: the kernel charges the interval against CPU time
    actually consumed, so an idle process takes no samples and a
    stopped profiler costs nothing at all. Each sample captures the
    OCaml backtrace of whichever domain executes the signal handler
    (statistically, a busy one) plus that domain's current
    phase/operator label, and folds it straight into an aggregated
    stack table — memory stays bounded no matter how long the
    profiler runs.

    Labels are domain-local: {!swap_phase} tags the query phases
    (the {!Stage} names: compile / run / snap-apply / wal / ...,
    set by {!Stage.with_}), {!with_op} nests a plan operator id
    beneath the phase while [Exec] runs a physical operator.

    All entry points are safe to call from any thread; the signal
    handler itself never blocks (it drops the sample when the
    aggregation lock is contended — see [dropped] in {!stat_json}). *)

(** {1 Folded-stack encoding}

    The flamegraph "collapsed" format: one line per distinct stack,
    root-first frames joined with [';'] and a trailing [' '] +
    count. Frame names are escaped so arbitrary bytes round-trip
    (backslash, semicolon, space, tab, CR and LF have two-character
    escapes); names without those bytes are unchanged, which keeps
    the output directly consumable by flamegraph.pl / speedscope. *)
module Folded : sig
  val encode_frame : string -> string
  val decode_frame : string -> string

  (** [encode_line frames count]: frames root-first. *)
  val encode_line : string list -> int -> string

  (** Inverse of {!encode_line}; [None] on a malformed line. *)
  val decode_line : string -> (string list * int) option
end

(** {1 Lifecycle} *)

(** Set the default sampling rate used by {!start} when no [hz] is
    given (boot-time wiring for [serve --profile-hz]). Raises
    [Invalid_argument] on a non-positive rate. *)
val configure : hz:int -> unit

(** Arm the timer and install the SIGPROF handler. Returns [false]
    (and changes nothing) when already running — start is
    idempotent. Raises [Invalid_argument] on a non-positive [hz]. *)
val start : ?hz:int -> unit -> bool

(** Disarm the timer and restore the previous SIGPROF disposition.
    Accumulated samples are kept (a dump after stop still works);
    returns [false] when not running. *)
val stop : unit -> bool

val running : unit -> bool

(** The rate the running profiler was started at; the configured
    default when stopped. *)
val hz : unit -> int

(** Drop every accumulated sample and counter (not the running
    state). *)
val reset : unit -> unit

(** {1 Labels} *)

(** [swap_phase name] sets this domain's sample label to [name] and
    returns the label it replaces, for the caller to restore. One DLS
    load and store — cheap enough to leave on permanently. *)
val swap_phase : string -> string

(** [with_op id f]: tag samples inside [f] with plan operator [id]
    (rendered as an ["op<id>"] frame under the current phase). Call
    sites should gate on {!running} — unlike phases, operator labels
    sit on per-tuple paths. *)
val with_op : int -> (unit -> 'a) -> 'a

(** {1 Inspection} *)

val samples : unit -> int

(** Samples dropped because the handler found the aggregation lock
    held (never blocks) or the stack table at capacity. *)
val dropped : unit -> int

(** Per-phase sample counts, unlabeled samples under ["other"]. *)
val phase_counts : unit -> (string * int) list

(** [diff_counts before after]: per-phase deltas, dropping zeros —
    the per-job attribution primitive. *)
val diff_counts :
  (string * int) list -> (string * int) list -> (string * int) list

(** The aggregated profile as folded-stack text (see {!Folded}),
    sorted for determinism. *)
val dump_folded : unit -> string

(** The same data as JSON:
    [{"hz":..,"samples":..,"dropped":..,"stacks":[{"stack":[..],"count":..},..]}]. *)
val dump_json : unit -> string

(** Small status document: running, hz, samples, dropped, distinct
    stacks and per-phase counts. *)
val stat_json : unit -> string

(** Write {!dump_folded} to a file (for [xqbang run --profile]). *)
val write_folded : string -> unit
