(* The public entry point: compile and run XQuery! programs.

   Pipeline (§4.2): parse -> normalize -> static checks -> evaluate.
   The top-level query is wrapped in an implicit snap (§2.3), whose
   mode defaults to ordered and can be overridden per run. The body
   evaluator is pluggable ([exec]): [Eval] by default, the algebra
   plan executor of [Xqb_algebra] on the served path. *)

module Value = Xqb_xdm.Value
module Item = Xqb_xdm.Item
module Store = Xqb_store.Store
module Qname = Xqb_xml.Qname
module Stage = Xqb_obs.Stage

type t = { ctx : Context.t }

exception Compile_error of string

let create ?seed ?store () =
  let ctx = Context.create ?seed ?store () in
  { ctx }

let context t = t.ctx
let store t = t.ctx.Context.store

(* Engine-level wrapper over {!Context.fork_read}: a read-only fork
   sharing the store but isolated from all session mutations. *)
let fork_read t = { ctx = Context.fork_read t.ctx }

(* Load an XML document into the store, register it for fn:doc under
   [uri], and return its document node. *)
let load_document t ~uri xml =
  let doc = Store.load_string (store t) xml in
  Context.register_doc t.ctx uri doc;
  doc

let set_doc_resolver t f = t.ctx.Context.doc_resolver <- Some f

(* Bind a global variable visible to subsequent queries. *)
let bind t name value =
  t.ctx.Context.globals <- Context.bind t.ctx.Context.globals name value

let bind_node t name node = bind t name (Value.of_node node)

let lookup_global t name = Context.SMap.find_opt name t.ctx.Context.globals

type compiled = {
  prog : Normalize.prog;
  source : string;
  rewrites : (string * int) list;  (* simplifier rules fired (§4.2) *)
  type_warnings : string list;  (* static-typing warnings (advisory) *)
  footprint : Static.Footprint.t;  (* the concurrency judgement, judged once *)
}

let parse_error_message = function
  | Xqb_syntax.Parser.Error (l, c, m) -> Printf.sprintf "parse error %d:%d: %s" l c m
  | Xqb_syntax.Lexer.Error (l, c, m) -> Printf.sprintf "lex error %d:%d: %s" l c m
  | Normalize.Static_error m -> Printf.sprintf "static error: %s" m
  | e -> Printexc.to_string e

(* Merge two rule-count alists. *)
let merge_counts a b =
  List.fold_left
    (fun acc (rule, n) ->
      match List.assoc_opt rule acc with
      | Some m -> (rule, m + n) :: List.remove_assoc rule acc
      | None -> (rule, n) :: acc)
    a b

(* Install a compiled program's function declarations into the engine.
   [compile] does this automatically; the service layer's plan cache
   calls it on cache hits, where the parse/normalize/rewrite phases
   are skipped but a fresh session still needs the declarations. *)
let install_functions t (c : compiled) =
  match c.prog.Normalize.functions with
  | [] -> ()  (* the common plan-cache hit: nothing to classify *)
  | functions ->
    let purities = Static.classify_functions functions in
    List.iter
      (fun (f : Normalize.func) ->
        let arity = List.length f.Normalize.params in
        let updating =
          match
            List.find_opt
              (fun (g, m, _) -> Qname.equal f.Normalize.fname g && m = arity)
              purities
          with
          | Some (_, _, Static.Pure) -> false
          | Some _ -> true
          | None -> false
        in
        Context.declare_function t.ctx f.Normalize.fname arity
          {
            Context.params = f.Normalize.params;
            return_type = f.Normalize.return_type;
            body = f.Normalize.body;
            updating;
          })
      functions

(* Parse, normalize, statically check and simplify a program (§4.2's
   "phase of syntactic rewriting", with purity guards). Function
   declarations are installed into the engine so later [compile]d
   queries can call them too. The effects footprint is inferred here,
   once, against [var_docs] (see {!footprint}). *)
let compile_with ~parse ?(simplify = true) ?(elide_ddo = true) ?var_docs t source
    : compiled =
  let job = t.ctx.Context.job in
  Stage.with_ ~stage:Stage.Compile ~cat:"compile" job "compile" @@ fun () ->
  let extra_fns =
    Hashtbl.fold
      (fun (name, arity) _ acc -> (Qname.of_string name, arity) :: acc)
      t.ctx.Context.functions []
  in
  let prog =
    try
      let ast =
        Stage.with_ ~cat:"compile" job "parse" (fun () -> parse source)
      in
      Stage.with_ ~cat:"compile" job "normalize" (fun () ->
          Normalize.normalize_prog ~extra_fns ~is_builtin:Functions.is_builtin ast)
    with
    | (Xqb_syntax.Parser.Error _ | Xqb_syntax.Lexer.Error _ | Normalize.Static_error _)
      as e ->
      raise (Compile_error (parse_error_message e))
  in
  let host_bound =
    Context.SMap.fold (fun k _ acc -> k :: acc) t.ctx.Context.globals []
  in
  (try
     Stage.with_ ~cat:"compile" job "static.check" (fun () ->
         Static.check_prog ~initial:host_bound prog)
   with Normalize.Static_error m -> raise (Compile_error ("static error: " ^ m)));
  (* §4.2 syntactic rewriting, guarded by the purity judgement. *)
  let rewrites = ref [] in
  let prog =
    if not simplify then prog
    else
      Stage.with_ ~cat:"compile" job "simplify" @@ fun () ->
      let purity = Static.purity_oracle prog in
      let simp e =
        let e', stats = Rewrite.simplify ~purity e in
        rewrites := merge_counts !rewrites stats;
        e'
      in
      {
        Normalize.global_vars =
          List.map (fun (v, ty, e) -> (v, ty, simp e)) prog.Normalize.global_vars;
        functions =
          List.map
            (fun (f : Normalize.func) -> { f with Normalize.body = simp f.Normalize.body })
            prog.Normalize.functions;
        body = Option.map simp prog.Normalize.body;
      }
  in
  (* Document-order analysis: elide provably redundant ddo sorts.
     After [simplify] (whose rules pattern-match "%ddo" literally),
     before [Typing.check_prog] (which types "%ddo-elided"). *)
  let prog =
    if not elide_ddo then prog
    else
      Stage.with_ ~cat:"compile" job "ddo-elide" @@ fun () ->
      let purity = Static.purity_oracle prog in
      let elided = ref 0 in
      let el e =
        let e', n = Static.elide_ddo ~purity e in
        elided := !elided + n;
        e'
      in
      let prog =
        {
          Normalize.global_vars =
            List.map (fun (v, ty, e) -> (v, ty, el e)) prog.Normalize.global_vars;
          functions =
            List.map
              (fun (f : Normalize.func) -> { f with Normalize.body = el f.Normalize.body })
              prog.Normalize.functions;
          body = Option.map el prog.Normalize.body;
        }
      in
      if !elided > 0 then
        rewrites := merge_counts !rewrites [ ("ddo-elide", !elided) ];
      prog
  in
  let type_warnings =
    Stage.with_ ~cat:"compile" job "typing" (fun () -> Typing.check_prog prog)
  in
  let footprint = Static.Footprint.of_prog ?var_docs prog in
  let c = { prog; source; rewrites = !rewrites; type_warnings; footprint } in
  install_functions t c;
  c

let compile ?simplify ?elide_ddo ?var_docs t source =
  compile_with ~parse:Xqb_syntax.Parser.parse_prog ?simplify ?elide_ddo ?var_docs t
    source

(* A shape-keyed compile: the parser asks [hole] which literals become
   parameters ({!Xqb_syntax.Parser.parse_prog_holes}); the rest of the
   pipeline is [compile]'s, and none of it reads a parameter's value. *)
let compile_holes ?var_docs ~hole t source =
  compile_with ~parse:(Xqb_syntax.Parser.parse_prog_holes ~hole) ?var_docs t source

(* Evaluate the global-variable declarations of a compiled program (in
   order, under the implicit top-level snap like the body). *)
let eval_globals ?(mode = Core_ast.Snap_ordered) t (c : compiled) =
  List.iter
    (fun (v, ty, e) ->
      let wrapped = Core_ast.Snap (mode, e) in
      let value = Eval.eval t.ctx t.ctx.Context.globals None wrapped in
      (match ty with
      | Some ty ->
        if not (Types.matches (store t) ty value) then
          raise
            (Compile_error
               (Printf.sprintf "global $%s does not match its declared type" v))
      | None -> ());
      bind t v value)
    c.prog.Normalize.global_vars

(* A body evaluator: evaluate the compiled program's body in [ctx]
   from [env], under the implicit top-level snap of mode [m] when
   [~snap:(Some m)] and bare when [~snap:None]. [Eval] is the default
   and the oracle; the served path passes the algebra executor over
   the cached plan ([Xqb_algebra.Runner]), whose [Direct] leaves are
   [Eval] again. *)
type exec = Context.t -> Context.env -> snap:Core_ast.snap_mode option -> Value.t

let eval_exec body : exec =
 fun ctx env ~snap ->
  let body = match snap with None -> body | Some m -> Core_ast.Snap (m, body) in
  Eval.eval ctx env None body

(* Run a compiled program's body under the implicit top-level snap. *)
let run_compiled ?(mode = Core_ast.Snap_ordered) ?exec t (c : compiled) : Value.t =
  Stage.with_ ~stage:Stage.Run ~cat:"exec" t.ctx.Context.job "eval"
  @@ fun () ->
  eval_globals ~mode t c;
  match c.prog.Normalize.body with
  | None -> []
  | Some body ->
    let exec = Option.value exec ~default:(eval_exec body) in
    exec t.ctx t.ctx.Context.globals ~snap:(Some mode)

(* One-shot: compile and run. *)
let run ?mode t source : Value.t =
  let c = compile t source in
  run_compiled ?mode t c

(* Serialize a value the way the CLI prints results: nodes as XML,
   atomics space-separated. [serialize_with] takes an explicit store
   handle — the service layer serializes results while still holding
   the scheduler's read lock, possibly from a forked context. Every
   item is written into one buffer; nodes by a walk of the store. *)
let serialize_with store (v : Value.t) : string =
  let buf = Buffer.create 256 in
  let last_was_atomic = ref false in
  List.iter
    (fun item ->
      match item with
      | Item.Node n ->
        Store.add_xml store buf n;
        last_was_atomic := false
      | Item.Atomic a ->
        if !last_was_atomic then Buffer.add_char buf ' ';
        Buffer.add_string buf (Xqb_xdm.Atomic.to_string a);
        last_was_atomic := true)
    v;
  Buffer.contents buf

let serialize t (v : Value.t) : string = serialize_with (store t) v

(* Run [f] with [budget] governing the engine: installed both on the
   context (evaluator checkpoints; inherited by read forks) and in
   the domain-local slot the store's axis iterators consult. Restored
   on exit, exceptional or not — a scheduler worker domain outlives
   many governed jobs, so leaking either installation would charge a
   later query against a dead budget. *)
let with_budget t budget f =
  let ctx = t.ctx in
  let saved = ctx.Context.budget in
  ctx.Context.budget <- budget;
  Fun.protect
    ~finally:(fun () -> ctx.Context.budget <- saved)
    (fun () -> Xqb_governor.Budget.with_current budget f)

(* Run [f] with [job]'s stage record installed on the engine's
   context (inherited by read forks via [Context.fork_read]). Restored
   on exit for the same reason as [with_budget]: worker domains
   outlive jobs. *)
let with_job t job f =
  let ctx = t.ctx in
  let saved = ctx.Context.job in
  ctx.Context.job <- job;
  Fun.protect ~finally:(fun () -> ctx.Context.job <- saved) f

(* Run [f] with a job's parameter values installed (inherited by read
   forks); restored on exit like [with_job]. *)
let with_params t params f =
  let ctx = t.ctx in
  let saved = ctx.Context.params in
  ctx.Context.params <- params;
  Fun.protect ~finally:(fun () -> ctx.Context.params <- saved) f

(* Purity of a compiled body (E7's instrumentation). *)
let body_purity (c : compiled) =
  match c.prog.Normalize.body with
  | None -> Static.Pure
  | Some body -> Static.purity_in_prog c.prog body

(* May this compiled program run against the shared store in a
   read-only fork? Exactly when its footprint writes nothing — no
   updates, no snap, no node allocation. *)
let parallel_safe (c : compiled) = Static.Footprint.writes_nothing c.footprint

(* Static effects footprint of a compiled program — the (document,
   path-prefix) regions it may read or write — re-inferred against
   [var_docs], which names host-bound variables that hold catalog
   document roots (the service binds each loaded document to [$uri]).
   [compile ?var_docs] caches the same judgement in [c.footprint]. *)
let footprint ?var_docs (c : compiled) = Static.Footprint.of_prog ?var_docs c.prog

(* The snap-free evaluation both fork runs share: globals, then the
   body, in the fork [ctx]. *)
let eval_fork ?exec ctx (c : compiled) : Value.t =
  Stage.with_ ~stage:Stage.Run ~cat:"exec" ctx.Context.job "eval.readonly"
  @@ fun () ->
  let env =
    List.fold_left
      (fun env (v, ty, e) ->
        let value = Eval.eval ctx env None e in
        (match ty with
        | Some ty ->
          if not (Types.matches ctx.Context.store ty value) then
            raise
              (Compile_error
                 (Printf.sprintf "global $%s does not match its declared type" v))
        | None -> ());
        Context.bind env v value)
      ctx.Context.globals c.prog.Normalize.global_vars
  in
  match c.prog.Normalize.body with
  | None -> []
  | Some body ->
    let exec = Option.value exec ~default:(eval_exec body) in
    exec ctx env ~snap:None

(* Run a parallel-safe compiled program without touching any of the
   session's mutable state: evaluation happens in a [Context.fork_read]
   of the session context, and — because the program writes nothing —
   the implicit top-level snap is skipped entirely (it could only ever
   apply an empty ∆, but pushing the frame and applying would mutate
   the snap stack and the store's journal flags).

   @raise Invalid_argument when the program is not parallel-safe. *)
let run_readonly ?exec t (c : compiled) : Value.t =
  if not (parallel_safe c) then
    invalid_arg "Engine.run_readonly: program is not parallel-safe";
  eval_fork ?exec (Context.fork_read t.ctx) c

(* Run a fork-route program ([Static.Footprint.route] = Fork) the way
   [run_readonly] runs a parallel-safe one. A program that constructs
   nodes evaluates against a job-private [Store.scratch] overlay of
   the shared store, which gains no node: the overlay is returned with
   the value, to serialize against, and dropped with it.

   @raise Invalid_argument when the program is not on the fork route. *)
let run_fork ?exec t (c : compiled) : Store.t * Value.t =
  if Static.Footprint.route c.footprint <> Static.Footprint.Fork then
    invalid_arg "Engine.run_fork: program is not on the fork route";
  let store = if parallel_safe c then store t else Store.scratch (store t) in
  (store, eval_fork ?exec (Context.fork_read ~store t.ctx) c)
