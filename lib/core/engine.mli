(** The public entry point: compile and run XQuery! programs.

    Pipeline (§4.2): parse → normalize → static checks → evaluate,
    with the query body wrapped in the implicit top-level snap (§2.3).
    The body runs on {!Eval} unless the caller passes an {!exec}: the
    served path and [Xqb_algebra.Runner] pass the algebra plan
    executor (join/group-by unnesting, §4.3). *)

type t

(** Parse/static errors, with positions where available. *)
exception Compile_error of string

(** Fresh engine (empty module). [seed] drives the nondeterministic
    update-application order; [store] shares an existing store between
    engines (the service layer's shared document catalog). *)
val create : ?seed:int -> ?store:Xqb_store.Store.t -> unit -> t

val context : t -> Context.t
val store : t -> Xqb_store.Store.t

(** Engine-level {!Context.fork_read}: a read-only fork sharing the
    store but isolated from all session mutations (the service layer
    forks at submission time so in-flight reads never race with the
    session). *)
val fork_read : t -> t

(** Load an XML document into the store and register it for
    [fn:doc(uri)]. *)
val load_document : t -> uri:string -> string -> Xqb_store.Store.node_id

(** Fallback for [fn:doc] on unknown URIs (e.g. read from disk). *)
val set_doc_resolver : t -> (string -> string) -> unit

(** Bind a global variable visible to all subsequent queries. *)
val bind : t -> string -> Xqb_xdm.Value.t -> unit

val bind_node : t -> string -> Xqb_store.Store.node_id -> unit
val lookup_global : t -> string -> Xqb_xdm.Value.t option

type compiled = {
  prog : Normalize.prog;
  source : string;
  rewrites : (string * int) list;
      (** §4.2 simplifier rules that fired during compilation *)
  type_warnings : string list;
      (** advisory static-typing warnings ({!Typing.check_prog}) *)
  footprint : Static.Footprint.t;
      (** the static effects footprint, inferred once at compile time:
          the judgement that routes the program
          ({!Static.Footprint.route}) and gates its admission *)
}

(** Parse, normalize, statically check and (unless [simplify:false])
    run the purity-guarded simplifier; installs the program's function
    declarations into the engine (later queries can call them).
    [elide_ddo] (default true) additionally runs the document-order
    analysis that rewrites provably redundant ddo sorts to the
    counted identity ["%ddo-elided"] ({!Static.elide_ddo}); its site
    count appears in [rewrites] under ["ddo-elide"]. [var_docs] is
    passed to the footprint inference (see {!footprint}).
    @raise Compile_error. *)
val compile :
  ?simplify:bool ->
  ?elide_ddo:bool ->
  ?var_docs:(string -> string option) ->
  t ->
  string ->
  compiled

(** {!compile} of a shape-keyed parse
    ({!Xqb_syntax.Parser.parse_prog_holes}): each literal [hole]
    accepts compiles to a {!Core_ast.Param} — an [xs:string] whose
    value arrives per run ({!with_params}). Nothing the compiler
    computes reads a parameter's value: the program, the rewrites, the
    footprint and the typing are those a compile of the literal text
    would produce, with the holes in place of the string literals.
    @raise Compile_error. *)
val compile_holes :
  ?var_docs:(string -> string option) ->
  hole:(Xqb_syntax.Ast.hole -> start:int -> stop:int -> int option) ->
  t ->
  string ->
  compiled

(** Install a compiled program's function declarations into the
    engine. [compile] does this itself; the service layer's plan
    cache calls it on cache hits so a session that skipped
    compilation still sees the declarations. *)
val install_functions : t -> compiled -> unit

(** Evaluate the program's global-variable declarations, in order,
    each under an implicit snap. *)
val eval_globals : ?mode:Core_ast.snap_mode -> t -> compiled -> unit

(** A body evaluator: [exec ctx env ~snap] evaluates a compiled
    program's body in [ctx] from [env] — under the implicit top-level
    snap ({!Eval.snap}) of mode [m] when [snap = Some m], bare when
    [None] (the read-only fork). The default is {!Eval.eval}, the
    oracle; the service and [Xqb_algebra.Runner] pass the algebra
    executor over the program's cached plan. *)
type exec =
  Context.t -> Context.env -> snap:Core_ast.snap_mode option -> Xqb_xdm.Value.t

(** Run a compiled program's body under the implicit top-level snap
    (default mode: ordered), after its global declarations. [exec]
    evaluates the body (default: {!Eval.eval}). *)
val run_compiled :
  ?mode:Core_ast.snap_mode -> ?exec:exec -> t -> compiled -> Xqb_xdm.Value.t

(** [compile] + [run_compiled]. *)
val run : ?mode:Core_ast.snap_mode -> t -> string -> Xqb_xdm.Value.t

(** Nodes as XML, atomics space-separated — the CLI's output format.
    [serialize_with] takes an explicit store handle (for serializing
    from a forked read-only context). *)
val serialize : t -> Xqb_xdm.Value.t -> string

val serialize_with : Xqb_store.Store.t -> Xqb_xdm.Value.t -> string

(** [with_budget t b f] runs [f ()] with resource budget [b]
    installed on the engine's context (evaluator checkpoints, and
    inherited by {!fork_read} / {!run_readonly} forks) and in the
    domain-local slot the store's axis iterators consult. Both are
    restored on exit, including on exceptions. Evaluation past the
    budget raises {!Xqb_governor.Budget.Budget_exceeded}; run updates
    inside {!Xqb_store.Store.transactionally} to get rollback. *)
val with_budget : t -> Xqb_governor.Budget.t option -> (unit -> 'a) -> 'a

(** [with_job t job f] runs [f ()] with a served job's stage record
    installed on the engine's context: {!compile}, evaluation and snap
    application charge their stages to it, and record spans into its
    tracer (conflict detection too). Inherited by {!fork_read} /
    {!run_readonly} forks; restored on exit. *)
val with_job : t -> Xqb_obs.Stage.t option -> (unit -> 'a) -> 'a

(** [with_params t values f] runs [f ()] with a shape-keyed program's
    parameter values installed on the engine's context, indexed like
    its {!Core_ast.Param} holes. Inherited by {!fork_read} /
    {!run_readonly} forks; restored on exit. *)
val with_params : t -> Xqb_xdm.Item.t array -> (unit -> 'a) -> 'a

(** §5 classification of a compiled body (E7 instrumentation). *)
val body_purity : compiled -> Static.purity

(** May this program run in a read-only fork against the shared store?
    True iff its cached footprint writes nothing: no updates, no snap,
    no node allocation. *)
val parallel_safe : compiled -> bool

(** Static effects footprint ({!Static.Footprint.of_prog}) of a
    compiled program, re-inferred: the (document, path-prefix) regions
    it may read or write. [var_docs] maps host-bound free variables to
    the URI of the catalog document they name (the service binds each
    loaded document to [$uri]); unknown bindings widen to "any
    document". *)
val footprint :
  ?var_docs:(string -> string option) -> compiled -> Static.Footprint.t

(** Run a {!parallel_safe} program without touching any session
    state: evaluation happens in a {!Context.fork_read} of the
    session context and the implicit top-level snap is skipped (a
    program that writes nothing has an empty ∆). Safe to call from
    multiple domains concurrently, provided no writer is mutating the
    regions it reads (the service scheduler's footprint gate enforces
    this).
    [exec] evaluates the body, called with [~snap:None] (default:
    {!Eval.eval}).
    @raise Invalid_argument when the program is not parallel-safe. *)
val run_readonly : ?exec:exec -> t -> compiled -> Xqb_xdm.Value.t

(** Run a program on the fork route ({!Static.Footprint.route} =
    [Fork]) like {!run_readonly}. One that constructs nodes evaluates
    against a job-private {!Xqb_store.Store.scratch} overlay of the
    shared store, so the shared store gains no node. Returns the store
    the value lives in — the overlay, or the shared store for a
    {!parallel_safe} program — to serialize against ({!serialize_with}).
    @raise Invalid_argument when the program is not on the fork route. *)
val run_fork :
  ?exec:exec -> t -> compiled -> Xqb_store.Store.t * Xqb_xdm.Value.t

val parse_error_message : exn -> string
