(** The dynamic context (dynEnv of §3.4) plus the machinery the formal
    semantics leaves implicit: the store handle, the snap stack, the
    seeded RNG for the nondeterministic semantics, module-level
    globals and the document registry backing fn:doc.

    Variable bindings ([env]) and the focus are threaded functionally
    by the evaluator. *)

module SMap : Map.S with type key = string

type focus = { item : Xqb_xdm.Item.t; position : int; size : int }

type env = Xqb_xdm.Value.t SMap.t

(** A user-declared function. [updating] is the §5 flag inferred by
    {!Static.classify_functions}. *)
type func = {
  params : (string * Xqb_syntax.Ast.seq_type option) list;
  return_type : Xqb_syntax.Ast.seq_type option;
  body : Core_ast.expr;
  updating : bool;
}

type t = {
  store : Xqb_store.Store.t;
  functions : (string * int, func) Hashtbl.t;
  snaps : Snap_stack.t;
  rand : Random.State.t;
  docs : (string, Xqb_store.Store.node_id) Hashtbl.t;
  mutable doc_lookup : (string -> Xqb_store.Store.node_id option) option;
      (** secondary registry consulted on a [docs] miss before the
          resolver (the service's shared catalog); lookup only, never
          loads *)
  mutable doc_resolver : (string -> string) option;
  mutable globals : env;
  mutable on_apply : (Update.delta -> Apply.mode -> unit) option;
      (** observability hook: called with each ∆ right before a snap
          applies it *)
  mutable apply_wrap : ((unit -> unit) -> unit) option;
      (** concurrency hook: when set, each snap's apply phase runs
          inside this wrapper. The service points it at the global
          apply mutex (plus WAL group commit) for jobs on the
          concurrent-writer route, so footprint-disjoint writers
          evaluate concurrently while ∆ application stays serial.
          [None] = apply inline (the exclusive route). Cleared by
          {!fork_read}. *)
  mutable steps_evaluated : int;  (** instrumentation *)
  mutable ddo_elided : int;
      (** instrumentation: statically elided ddo sorts reached at
          runtime *)
  mutable budget : Xqb_governor.Budget.t option;
      (** resource budget charged at evaluation checkpoints; [None] =
          ungoverned. Install via {!Engine.with_budget}, which also
          mirrors it into the domain-local slot the store layer
          reads. Copied by {!fork_read}. *)
  mutable job : Xqb_obs.Stage.t option;
      (** the served job's stage record, which carries its tracer;
          [None] outside a job (one option match per instrumentation
          point). Install via {!Engine.with_job}. Copied by
          {!fork_read} so a fork's stages and spans are the job's. *)
  mutable params : Xqb_xdm.Item.t array;
      (** the running job's parameter values, indexed like the
          {!Core_ast.Param} holes of a shape-keyed plan ([[||]] outside
          such a job). Install via {!Engine.with_params}. Copied by
          {!fork_read}. *)
  delta_stats : Update.stats;
      (** ∆ introspection counters (applied snaps, requests by kind,
          snap-depth histogram, conflict checks) — behind the DELTA
          wire command and [--show-delta]. Fresh in {!fork_read}. *)
  mutable apply_ns : int;
      (** cumulative wall time spent applying ∆s (every snap's
          snap-apply bracket, {!Xqb_obs.Stage.timed}), reported by
          the service's DELTA command *)
}

(** Fresh context; [seed] drives the nondeterministic application
    order. *)
val create : ?seed:int -> ?store:Xqb_store.Store.t -> unit -> t

(** A read-only fork for concurrent evaluation: shares the store (or
    evaluates against [store], a {!Xqb_store.Store.scratch} overlay
    of it) but snapshots all other mutable state (function/document
    tables are copied, snap stack and RNG are fresh, [doc_resolver] is
    dropped so a fork can never load new XML into the shared store).
    Evaluating a fork-route program ({!Static.Footprint.route}) in a
    fork touches no state another fork can observe: one that writes
    nothing ({!Engine.parallel_safe}) against the shared store, one
    that constructs nodes against its own overlay. *)
val fork_read : ?store:Xqb_store.Store.t -> t -> t

val declare_function : t -> Xqb_xml.Qname.t -> int -> func -> unit
val find_function : t -> Xqb_xml.Qname.t -> int -> func option

val register_doc : t -> string -> Xqb_store.Store.node_id -> unit

(** Registry lookup, falling back to [doc_lookup] then
    [doc_resolver]; raises FODC0002 when unresolvable. *)
val resolve_doc : t -> string -> Xqb_store.Store.node_id

val empty_env : env
val bind : env -> string -> Xqb_xdm.Value.t -> env

(** @raise Xqb_xdm.Errors.Dynamic_error (XPST0008) when unbound. *)
val lookup : env -> string -> Xqb_xdm.Value.t
