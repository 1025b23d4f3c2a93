(** The "phase of syntactic rewriting" of §4.2: simplification rules
    on the core language, each guarded by the side-effect judgement —
    a rule that drops, copies or moves a subexpression demands purity,
    because eliminating or duplicating a merely-Updating expression
    would change the ∆ and moving code across an Effecting one would
    change what it observes.

    Rules: if-const, dead-let, inline-let (copy propagation only —
    general inlining is unsound for node constructors and
    store-reading expressions), for-empty, for-singleton, seq-empty,
    const-fold (only when the folded operation cannot raise),
    pred-true/pred-false (boolean constants only; numeric constants
    are positional), ddo-ddo. No rule reads the value of a string
    literal, so a shape-keyed compile, whose string literals are
    {!Core_ast.Param}s, rewrites exactly as the literal text would. *)

(** Simplify to a (bounded) fixpoint. Returns the rewritten expression
    and fire counts per rule name. *)
val simplify :
  purity:(Core_ast.expr -> Static.purity) ->
  Core_ast.expr ->
  Core_ast.expr * (string * int) list

(** Free occurrence count of a variable (exposed for tests). *)
val occurrences : string -> Core_ast.expr -> int

(** Does evaluation depend on the focus? *)
val uses_focus : Core_ast.expr -> bool
