(* Optimizing front end: the [Core.Engine] pipeline with the algebraic
   compilation step of §4.2 inserted between normalization and
   evaluation. Two halves, shared with the query service: [prepare]
   compiles a program and the plan of its body (the service caches
   the result), [execute] runs that plan through the engine's entry
   points as their body evaluator. *)

module Engine = Core.Engine
module C = Core.Core_ast

type prepared = {
  compiled : Engine.compiled;
  algebra : Compile.result;
      (* the body's plan, without the implicit top-level snap: the
         caller's route decides whether that snap runs, and in which
         mode *)
}

type run_result = {
  value : Xqb_xdm.Value.t;
  plan : Plan.vplan;
  fired : string list;  (* rewrites that fired *)
  rejected : (string * string) list;  (* rewrites rejected by a guard *)
  stats : Exec.stats;
  profile : Profile.t option;  (* per-operator counters (analyze only) *)
  ddo_elided : int;  (* statically elided ddo sorts hit during exec *)
  footprint : Core.Static.Footprint.t;
    (* static effects footprint of the whole program — what the
       service's disjointness scheduler gates on *)
}

let prepare ?var_docs ?hole engine source =
  let compiled =
    match hole with
    | None -> Engine.compile ?var_docs engine source
    | Some hole -> Engine.compile_holes ?var_docs ~hole engine source
  in
  Xqb_obs.Stage.with_ ~cat:"compile" (Engine.context engine).Core.Context.job
    "algebra.compile"
  @@ fun () ->
  let purity = Core.Static.purity_oracle compiled.Engine.prog in
  let body = Option.value compiled.Engine.prog.Core.Normalize.body ~default:C.Empty in
  { compiled; algebra = Compile.compile ~purity body }

(* The program a compile of the literal text would have prepared: each
   parameter hole replaced by its value. *)
let bind_params values p =
  let bind = C.bind_params values in
  let prog = p.compiled.Engine.prog in
  {
    compiled =
      {
        p.compiled with
        Engine.prog = { prog with Core.Normalize.body = Option.map bind prog.Core.Normalize.body };
      };
    algebra = { p.algebra with Compile.plan = Plan.map_exprs bind p.algebra.Compile.plan };
  }

(* The plan as executed under [snap]: wrapped in the top-level Snap
   operator when there is one, so the rendered tree is the paper's
   and profile ids cover the snap too. *)
let top_plan snap plan =
  match snap with None -> plan | Some m -> Plan.Snap_v (m, plan)

let exec ?stats ?prof plan : Engine.exec =
 fun ctx env ~snap -> Exec.exec ?stats ?prof ctx env (top_plan snap plan)

(* The whole program as displayed: a body-less program runs nothing,
   so its plan gets no snap. *)
let shown_plan ~mode p =
  match p.compiled.Engine.prog.Core.Normalize.body with
  | None -> p.algebra.Compile.plan
  | Some _ -> top_plan (Some mode) p.algebra.Compile.plan

let execute ?(mode = C.Snap_ordered) ?(profile = false) engine p : run_result =
  let plan = shown_plan ~mode p in
  let stats = Exec.new_stats () in
  let prof = if profile then Some (Profile.create plan) else None in
  let ctx = Engine.context engine in
  let elided_before = ctx.Core.Context.ddo_elided in
  let value =
    Engine.run_compiled ~mode
      ~exec:(exec ~stats ?prof p.algebra.Compile.plan)
      engine p.compiled
  in
  {
    value;
    plan;
    fired = p.algebra.Compile.fired;
    rejected = p.algebra.Compile.rejected;
    stats;
    profile = prof;
    ddo_elided = ctx.Core.Context.ddo_elided - elided_before;
    footprint = p.compiled.Engine.footprint;
  }

let run ?mode engine source = execute ?mode engine (prepare engine source)

let footprint_line fp =
  Printf.sprintf "\n-- footprint: %s" (Core.Static.Footprint.to_string fp)

(* EXPLAIN ANALYZE rendering: the annotated plan, then the ddo and
   footprint footers. *)
let render (r : run_result) =
  let tree =
    match r.profile with
    | Some p -> Profile.render r.plan p
    | None -> Plan.explain r.plan
  in
  let elided =
    if r.ddo_elided > 0 then Printf.sprintf "\n-- ddo sorts elided: %d" r.ddo_elided
    else ""
  in
  tree ^ elided ^ footprint_line r.footprint

(* EXPLAIN ANALYZE: execute with per-operator profiling and render the
   annotated plan. The query runs for real — side effects included —
   which is the only honest way to report actual cardinalities for a
   language with side effects. *)
let analyze ?mode engine source : run_result * string =
  let r = execute ?mode ~profile:true engine (prepare engine source) in
  (r, render r)

let explain ?(mode = C.Snap_ordered) engine source =
  let p = prepare engine source in
  Plan.explain (shown_plan ~mode p) ^ footprint_line p.compiled.Engine.footprint
