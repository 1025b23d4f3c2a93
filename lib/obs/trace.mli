(** Per-query span tracer with Chrome trace-event export.

    One tracer is created per job; recording is guarded by a
    per-trace mutex only (no global lock on any hot path). A
    disabled tracer costs a single branch per instrumentation point.

    Spans form a tree via parent links maintained by the
    begin/end stack; timestamps come from the monotonic {!Clock},
    relative to trace creation. *)

type t

(** Fresh enabled tracer; at most [cap] spans are kept (further
    spans are counted as dropped). *)
val create : ?cap:int -> unit -> t

(** The shared do-nothing tracer: every operation is one branch. *)
val disabled : t

val enabled : t -> bool

(** Process-unique trace label (["t17"]) — stamped into update
    provenance and the slow-effect log so they can be matched with
    the TRACE wire command's output. The disabled tracer is
    ["t-off"]. *)
val id : t -> string

(** Open a span (parent = innermost open span). Returns a span id;
    [-1] on a disabled tracer. *)
val begin_span : ?cat:string -> t -> string -> int

(** Close a span by id, optionally attaching key/value args (e.g.
    budget fuel consumed during the phase). Ids from a disabled
    tracer are ignored. *)
val end_span : ?args:(string * string) list -> t -> int -> unit

(** Record a root span retroactively with explicit timestamps (a
    queue or gate wait is only known when it ends). [start_ns] is on
    the {!Clock} scale. Lexical brackets go through {!Stage.with_}. *)
val add_span :
  ?cat:string ->
  ?args:(string * string) list ->
  t ->
  name:string ->
  start_ns:int ->
  dur_ns:int ->
  unit ->
  unit

val span_count : t -> int

(** Spans dropped at the cap. *)
val dropped : t -> int

type span = {
  id : int;
  parent : int;
  name : string;
  cat : string;
  tid : int;
  start_ns : int;
  mutable dur_ns : int;  (** [-1] while open *)
  mutable args : (string * string) list;
}

(** All recorded spans, oldest first. *)
val spans : t -> span list

(** Serialize as Chrome trace-event JSON (ph:"X" complete events,
    microsecond timestamps, parent links in [args]). Loadable in
    chrome://tracing / Perfetto. *)
val to_chrome_json : ?pid:int -> t -> string
