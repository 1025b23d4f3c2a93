(* The dynamic context (dynEnv of §3.4) plus the implementation
   machinery the formal semantics leaves implicit: the store handle,
   the snap stack, the seeded RNG for the nondeterministic semantics
   and the document registry backing fn:doc.

   Variable bindings and the focus (context item / position / size)
   are *not* in here — the evaluator threads them functionally, which
   matches the substitution-style formal rules and makes scoping bugs
   impossible. *)

module SMap = Map.Make (String)

type focus = { item : Xqb_xdm.Item.t; position : int; size : int }

type env = Xqb_xdm.Value.t SMap.t

type func = {
  params : (string * Xqb_syntax.Ast.seq_type option) list;
  return_type : Xqb_syntax.Ast.seq_type option;
  body : Core_ast.expr;
  updating : bool;  (* inferred by [Static]; see §5 *)
}

type t = {
  store : Xqb_store.Store.t;
  functions : (string * int, func) Hashtbl.t;  (* qname string, arity *)
  snaps : Snap_stack.t;
  rand : Random.State.t;
  docs : (string, Xqb_store.Store.node_id) Hashtbl.t;
  mutable doc_lookup : (string -> Xqb_store.Store.node_id option) option;
    (* secondary registry consulted on a [docs] miss before the
       resolver — the service layer points it at the shared document
       catalog. Must not load anything: lookup only. *)
  mutable doc_resolver : (string -> string) option;  (* uri -> XML text *)
  mutable globals : Xqb_xdm.Value.t SMap.t;  (* module-level variables *)
  mutable on_apply : (Update.delta -> Apply.mode -> unit) option;
    (* observability hook: called with each ∆ right before a snap
       applies it (CLI --trace-updates) *)
  mutable apply_wrap : ((unit -> unit) -> unit) option;
    (* concurrency hook: when set, the top-level snap's apply phase
       (Apply.apply plus its timing) runs inside this wrapper. The
       service's footprint scheduler points it at a global apply
       mutex + WAL group commit so footprint-disjoint writers can
       *evaluate* concurrently while ∆ application stays serial.
       None = apply inline (CLI, exclusive jobs). *)
  mutable steps_evaluated : int;  (* instrumentation for the benches *)
  mutable ddo_elided : int;
    (* instrumentation: statically elided ddo sorts actually reached
       at runtime (the "%ddo-elided" builtin / plan node) *)
  mutable budget : Xqb_governor.Budget.t option;
    (* resource budget charged by the evaluator (and, via the
       domain-local mirror, by store axis iteration); None = ungoverned.
       Installed around a run by [Engine.with_budget]. *)
  mutable job : Xqb_obs.Stage.t option;
    (* the served job's stage record (and tracer); None outside a
       job, so every instrumentation point costs one option match.
       Installed around a run by [Engine.with_job]. *)
  mutable params : Xqb_xdm.Item.t array;
    (* the running job's parameter values, indexed like the
       [Core_ast.Param] holes of its shape-keyed plan; empty outside
       such a job. Installed around a run by [Engine.with_params]. *)
  delta_stats : Update.stats;
    (* ∆ introspection: per-evaluation counters of applied snaps,
       requests by kind, snap-depth histogram, conflict checks —
       behind the DELTA wire command and --show-delta *)
  mutable apply_ns : int;
    (* cumulative wall time this evaluation spent applying ∆s (the
       snap-apply bracket of every snap), feeding the DELTA command *)
}

let create ?(seed = 0x5eed) ?store () =
  let store = match store with Some s -> s | None -> Xqb_store.Store.create () in
  {
    store;
    functions = Hashtbl.create 16;
    snaps = Snap_stack.create ();
    rand = Random.State.make [| seed |];
    docs = Hashtbl.create 4;
    doc_lookup = None;
    doc_resolver = None;
    globals = SMap.empty;
    on_apply = None;
    apply_wrap = None;
    steps_evaluated = 0;
    ddo_elided = 0;
    budget = None;
    job = None;
    params = [||];
    delta_stats = Update.stats_create ();
    apply_ns = 0;
  }

(* A read-only fork for concurrent evaluation (the service layer's
   purity-gated scheduler): shares the store, but snapshots every
   other piece of mutable state so evaluation in the fork can never
   race with the parent session. The function and document tables are
   copied (cheap — they are small), the snap stack and RNG are fresh,
   and the doc resolver is dropped: a fork may *look up* already
   registered documents but must never load new XML into the shared
   store. [store] replaces the shared store with a scratch overlay of
   it, for a fork that constructs nodes. *)
let fork_read ?store ctx =
  {
    store = Option.value store ~default:ctx.store;
    functions = Hashtbl.copy ctx.functions;
    snaps = Snap_stack.create ();
    rand = Random.State.make [| 0x5eed |];
    docs = Hashtbl.copy ctx.docs;
    doc_lookup = ctx.doc_lookup;  (* lookup-only: safe in a fork *)
    doc_resolver = None;
    globals = ctx.globals;
    on_apply = None;
    apply_wrap = None;
    steps_evaluated = 0;
    ddo_elided = 0;
    budget = ctx.budget;  (* a governed session's forks inherit its budget *)
    job = ctx.job;  (* the fork's stages and spans are the same job's *)
    params = ctx.params;  (* and so are its parameter values *)
    delta_stats = Update.stats_create ();  (* forks are read-only anyway *)
    apply_ns = 0;
  }

let declare_function ctx name arity (f : func) =
  Hashtbl.replace ctx.functions (Xqb_xml.Qname.to_string name, arity) f

let find_function ctx name arity =
  Hashtbl.find_opt ctx.functions (Xqb_xml.Qname.to_string name, arity)

let register_doc ctx uri node = Hashtbl.replace ctx.docs uri node

let resolve_doc ctx uri =
  match Hashtbl.find_opt ctx.docs uri with
  | Some n -> n
  | None -> (
    match (match ctx.doc_lookup with Some f -> f uri | None -> None) with
    | Some n ->
      Hashtbl.replace ctx.docs uri n;
      n
    | None -> (
      match ctx.doc_resolver with
      | None -> Xqb_xdm.Errors.raise_error "FODC0002" "document %S not found" uri
      | Some resolve ->
        let xml = resolve uri in
        let n = Xqb_store.Store.load_string ctx.store xml in
        Hashtbl.replace ctx.docs uri n;
        n))

let empty_env : env = SMap.empty

let bind env v value : env = SMap.add v value env

let lookup env v =
  match SMap.find_opt v env with
  | Some value -> value
  | None -> Xqb_xdm.Errors.undefined_variable "undefined variable $%s" v
