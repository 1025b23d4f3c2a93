(** Optimizing front end: the [Core.Engine] pipeline with the
    algebraic compilation step of §4.2 between normalization and
    evaluation — the one execution path of the CLI and the query
    service. [prepare] compiles a program and its body's plan (the
    service caches the result); {!exec} hands that plan to the
    engine's entry points as their body evaluator. *)

(** A compiled program with the algebra plan of its body. *)
type prepared = {
  compiled : Core.Engine.compiled;
  algebra : Compile.result;
      (** the body's plan, {e without} the implicit top-level snap:
          the route decides whether that snap runs, and in which mode *)
}

type run_result = {
  value : Xqb_xdm.Value.t;
  plan : Plan.vplan;
      (** the executed plan, under its top-level [Snap_v] (the tree
          {!render} and [profile] describe) *)
  fired : string list;  (** rewrites that fired *)
  rejected : (string * string) list;  (** rewrites rejected by a guard, with reasons *)
  stats : Exec.stats;
  profile : Profile.t option;
      (** per-operator counters; [Some] only from {!analyze} and
          [execute ~profile:true] *)
  ddo_elided : int;
      (** statically elided ddo sorts actually hit during execution
          (the EXPLAIN ANALYZE elision counter) *)
  footprint : Core.Static.Footprint.t;
      (** static effects footprint of the program (the regions the
          service's disjointness scheduler gates on); rendered as a
          [-- footprint:] line by {!analyze} and {!explain} *)
}

(** [Core.Engine.compile] ([var_docs] goes to the footprint
    inference) — {!Core.Engine.compile_holes} with [hole] — then the
    algebra plan of the body. The service calls
    it once per plan-cache miss.
    @raise Core.Engine.Compile_error. *)
val prepare :
  ?var_docs:(string -> string option) ->
  ?hole:(Xqb_syntax.Ast.hole -> start:int -> stop:int -> int option) ->
  Core.Engine.t ->
  string ->
  prepared

(** [bind_params values p]: [p] with each parameter hole replaced by
    the string literal [values.(i)] — the program and plan a compile
    of the literal text produces. *)
val bind_params : string array -> prepared -> prepared

(** The plan executor as a body evaluator for {!Core.Engine.run_compiled}
    and {!Core.Engine.run_readonly}: under a top-level snap it runs
    [Snap_v (mode, plan)], so [prof] must be sized to that tree. *)
val exec : ?stats:Exec.stats -> ?prof:Profile.t -> Plan.vplan -> Core.Engine.exec

(** Run a prepared program through {!Core.Engine.run_compiled} with
    the plan as its body; [profile] (default false) collects
    per-operator counters. Semantics identical to [Core.Engine.run]
    (asserted by the equivalence tests). *)
val execute :
  ?mode:Core.Core_ast.snap_mode -> ?profile:bool -> Core.Engine.t -> prepared -> run_result

(** Compile, optimize and execute. Semantics identical to
    [Core.Engine.run] (asserted by the equivalence tests). *)
val run : ?mode:Core.Core_ast.snap_mode -> Core.Engine.t -> string -> run_result

(** The EXPLAIN ANALYZE text of a result: the annotated plan tree
    ({!Profile.render}; the plain tree without a profile), then the
    [-- ddo sorts elided:] and [-- footprint:] footers. *)
val render : run_result -> string

(** EXPLAIN ANALYZE: like {!run} but with per-operator profiling; the
    string is {!render} of the result. The query executes for real,
    side effects included. *)
val analyze :
  ?mode:Core.Core_ast.snap_mode -> Core.Engine.t -> string -> run_result * string

(** Pretty-printed optimized plan (the paper's §4.3 plan syntax),
    without executing. *)
val explain : ?mode:Core.Core_ast.snap_mode -> Core.Engine.t -> string -> string
