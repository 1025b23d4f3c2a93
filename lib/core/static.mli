(** Static analyses over the core language: variable scoping, free
    variables, and the §5 pure/updating/effecting classification with
    its updating-function fixpoint ("a function that calls an updating
    function is updating as well"). *)

exception Static_error of string

(** The three-way effect classification the optimizer's guards
    consume (§4.2-4.3). *)
type purity =
  | Pure  (** no updates, no snap: freely reorderable *)
  | Updating
    (** emits update requests but contains no snap — the store is
        untouched during evaluation, so lazy/algebraic evaluation
        still applies subject to cardinality guards *)
  | Effecting  (** contains a snap: evaluation order is pinned *)

val purity_to_string : purity -> string

(** Least upper bound. *)
val join : purity -> purity -> purity

(** Purity given a classification oracle for user functions. *)
val purity_with : (Xqb_xml.Qname.t -> int -> purity) -> Core_ast.expr -> purity

(** Fixpoint classification of a program's functions. *)
val classify_functions :
  Normalize.func list -> (Xqb_xml.Qname.t * int * purity) list

(** A reusable purity oracle: the function-classification fixpoint
    runs once at construction, then each call is a plain traversal. *)
val purity_oracle : Normalize.prog -> Core_ast.expr -> purity

(** One-shot [purity_oracle] (reclassifies per call — prefer the
    oracle in loops). *)
val purity_in_prog : Normalize.prog -> Core_ast.expr -> purity

(** Fixpoint allocation classification of a program's functions ("a
    function that calls an allocating function allocates"): does the
    body allocate fresh store nodes (constructors, [Copy], update
    payloads)? [Pure] functions can still allocate. *)
val classify_alloc_functions :
  Normalize.func list -> (Xqb_xml.Qname.t * int * bool) list

module SSet : Set.S with type elt = string

(** Free variables (used by the optimizer's independence guards). *)
val free_vars : Core_ast.expr -> SSet.t

val is_independent_of : Core_ast.expr -> string list -> bool

(** Scope-check an expression given the bound variables.
    @raise Static_error (XPST0008-style) on an unbound variable. *)
val check_scopes : SSet.t -> Core_ast.expr -> unit

(** Scope-check a whole program: globals see earlier globals and
    [initial] (host-bound names); functions see globals and their
    parameters. *)
val check_prog : ?initial:string list -> Normalize.prog -> unit

(** {1 Document-order analysis (ddo elision)} *)

(** What can be promised about an expression's result order. *)
type order_info = {
  o_sorted : bool;  (** items are in document order *)
  o_nodup : bool;  (** no duplicate nodes *)
  o_unrelated : bool;  (** no item is an ancestor of another *)
  o_single : bool;  (** at most one item *)
  o_node_only : bool;  (** every item is a node *)
}

(** [order_of singles e] — the judgement, given the set of variables
    known to be bound to at most one item (for/some/every binders,
    positional variables, single lets). *)
val order_of : SSet.t -> Core_ast.expr -> order_info

(** Rewrite provably redundant ["%ddo"] applications (result already
    sorted, duplicate-free, node-only) to ["%ddo-elided"] — the
    identity plus an instrumentation counter. Each site is gated on
    [purity arg <> Effecting]: a snap inside the sorted expression
    would mutate the tree mid-evaluation and void the structural
    reasoning (the §3.3 purity observation, used in reverse). Returns
    the rewritten expression and the number of sites elided. *)
val elide_ddo :
  purity:(Core_ast.expr -> purity) -> Core_ast.expr -> Core_ast.expr * int

(** {1 Effects footprints (query-update independence)} *)

(** A conservative static over-approximation of the store regions a
    program may read and may write. Two jobs whose footprints are
    {!Footprint.independent} can run concurrently against the shared
    store; anything the analysis can't pin down widens to a whole
    document or to "any document", which conflicts with everything.

    It is also the one judgement that routes a job ({!route}): node
    allocation (constructors, [Copy], calls to allocating functions)
    counts as a write to the job's own {!Fresh} region, so an empty
    write set means the program touches no store state at all, and a
    write set of fresh nodes only, in a program that emits no update
    requests, means it writes nothing shared. *)
module Footprint : sig
  (** [Fresh]: the nodes the job itself allocates. Unreachable from
      any document until a snap copies them in, so a fresh region
      overlaps no document region and no other job's fresh region. *)
  type doc = Named of string | Any_doc | Fresh

  (** A subtree region: the nodes at (or, when [ranchored] is false,
      somewhere below) the root-to-node label chain [rpath] of
      document [rdoc], together with everything beneath them.
      [rpath = []] is the whole document. *)
  type region = { rdoc : doc; rpath : string list; ranchored : bool }

  (** [updates]: the program emits update requests (its body or a
      global is not {!Pure}). *)
  type t = { reads : region list; writes : region list; updates : bool }

  val any_region : region
  val empty : t
  val top : t

  (** Reads everything, writes nothing (the footprint of an opaque
      read-only job). *)
  val read_all : t

  val regions_overlap : region -> region -> bool
  val sets_overlap : region list -> region list -> bool

  (** May the two jobs run concurrently? Read/read overlap is fine;
      any write must be disjoint from the other side's reads and
      writes. *)
  val independent : t -> t -> bool

  val writes_nothing : t -> bool

  (** False iff some region widened to "any document". *)
  val conclusive : t -> bool

  (** How the service runs a job: [Fork] — writes nothing shared (no
      writes, or only the fresh nodes of a program that emits no
      update requests), evaluates in a read-only fork whose
      constructors allocate into a job-private scratch store
      ({!Xqb_store.Store.scratch});
      [Exclusive] — may write any document (nested snaps, dynamic
      [fn:doc] URIs, updating function calls), runs under whole-job
      rollback; [Concurrent] — everything else, each top-level snap
      committing under the global apply mutex. *)
  type route = Fork | Concurrent | Exclusive

  val route : t -> route

  val region_to_string : region -> string
  val to_string : t -> string

  (** Dedupe, drop covered regions, cap size by widening. *)
  val normalize : t -> t

  (** Infer the footprint of a normalized program. [var_docs] maps a
      host-bound free variable to the URI of the catalog document
      whose root it names, if any (unknown bindings widen to
      [any_region]). *)
  val of_prog :
    ?var_docs:(string -> string option) -> Normalize.prog -> t
end
