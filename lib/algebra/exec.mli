(** Executor for the tuple algebra. Tuples are variable environments
    extending the engine's globals; expression leaves are evaluated by
    the core evaluator, so plan execution and direct evaluation share
    one semantics.

    Instrumentation is optional at two granularities: [stats] (three
    global counters, cheap, for the benches) and [prof] (per-operator
    counters and inclusive times — EXPLAIN ANALYZE). With [prof]
    absent each node costs one option match. *)

type stats = {
  mutable tuples : int;  (** tuples materialized *)
  mutable probes : int;  (** hash-table probes *)
  mutable matches : int;  (** join pairs produced *)
}

val new_stats : unit -> stats

(** Execute a value plan from an initial environment. [prof] must be
    sized to [plan] ({!Profile.create}). A [Snap_v] node runs
    {!Core.Eval.snap}, the evaluator's own snap rule. *)
val exec :
  ?stats:stats ->
  ?prof:Profile.t ->
  Core.Context.t ->
  Core.Context.env ->
  Plan.vplan ->
  Xqb_xdm.Value.t
