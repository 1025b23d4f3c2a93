(** The dynamic semantics of XQuery! (the paper's Figs. 2-3).

    The judgement [store0; dynEnv |- Expr => value; Delta; store1] is
    realized as: mutation of [ctx]'s store under a defined
    left-to-right evaluation order; ∆ accumulation on [ctx]'s snap
    stack; [Snap] pushes a frame, evaluates, pops and applies. *)

(** [eval ctx env focus e] evaluates a core expression under variable
    bindings [env] and the optional focus (context item / position /
    size). @raise Xqb_xdm.Errors.Dynamic_error,
    @raise Conflict.Conflict, @raise Xqb_store.Store.Update_error. *)
val eval :
  Context.t ->
  Context.env ->
  Context.focus option ->
  Core_ast.expr ->
  Xqb_xdm.Value.t

(** [snap ctx mode body] is the snap rule, the one implementation
    every evaluator shares (this module's [Snap], the algebra
    executor's Snap operator, the engine's implicit top-level snap):
    push a ∆ frame, run [body], pop the frame, run [ctx]'s [on_apply]
    hook, record [delta_stats], and apply the ∆ in one
    {!Xqb_obs.Stage.timed} ["snap-apply"] bracket, called through
    [apply_wrap] when the ∆ is non-empty: the bracket's time is
    charged to the job's snap-apply stage and added to [apply_ns]
    from the same clock readings. On error the frame is abandoned.
    [Snap_atomic] additionally runs the whole scope inside
    {!Xqb_store.Store.transactionally}, so an error rolls back nested
    snaps that already applied. *)
val snap : Context.t -> Core_ast.snap_mode -> (unit -> Xqb_xdm.Value.t) -> Xqb_xdm.Value.t

(** Convert a value to the node list an insert/replace payload
    denotes: runs of atomics become space-joined text nodes, exactly
    as in element-constructor content. Exposed for the plan executor
    and white-box tests. *)
val content_to_nodes : Context.t -> Xqb_xdm.Value.t -> Xqb_store.Store.node_id list

(** Order-by key machinery, shared with the plan executor's OrderBy:
    evaluate one key (empty allowed, sequences are errors) and compare
    key tuples (empty first, untyped-as-string, stable on ties). *)
val eval_sort_key :
  Context.t -> Context.env -> Context.focus option -> Core_ast.expr ->
  Xqb_xdm.Atomic.t option

val compare_sort_keys :
  (Xqb_xdm.Atomic.t option * Xqb_syntax.Ast.sort_dir) list ->
  (Xqb_xdm.Atomic.t option * Xqb_syntax.Ast.sort_dir) list ->
  int
