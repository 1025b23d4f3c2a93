(* Optimizing front end: the same pipeline as [Core.Engine.run] with
   the algebraic compilation step of §4.2 inserted between
   normalization and evaluation. *)

module Engine = Core.Engine
module C = Core.Core_ast

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

(* Compile [source] and return the optimized plan for its body (under
   the implicit top-level snap). *)
let plan_of ?(mode = C.Snap_ordered) engine source =
  let compiled = Engine.compile engine source in
  let ctx = Engine.context engine in
  Core.Context.span ~cat:"compile" ctx "algebra.compile" @@ fun () ->
  let purity = Core.Static.purity_oracle compiled.Engine.prog in
  let body =
    match compiled.Engine.prog.Core.Normalize.body with
    | Some b -> C.Snap (mode, b)
    | None -> C.Empty
  in
  (compiled, Compile.compile ~purity body)

let run_with ?(mode = C.Snap_ordered) ~profile engine source : run_result =
  let compiled, cres = plan_of ~mode engine source in
  Engine.eval_globals ~mode engine compiled;
  let stats = Exec.new_stats () in
  let prof = if profile then Some (Profile.create cres.Compile.plan) else None in
  let ctx = Engine.context engine in
  let elided_before = ctx.Core.Context.ddo_elided in
  let value =
    Core.Context.span ~cat:"exec" ctx "exec.plan" (fun () ->
        Exec.exec ~stats ?prof ctx ctx.Core.Context.globals cres.Compile.plan)
  in
  {
    value;
    plan = cres.Compile.plan;
    fired = cres.Compile.fired;
    rejected = cres.Compile.rejected;
    stats;
    profile = prof;
    ddo_elided = ctx.Core.Context.ddo_elided - elided_before;
    footprint = compiled.Engine.footprint;
  }

let run ?mode engine source = run_with ?mode ~profile:false engine source

(* EXPLAIN ANALYZE: execute with per-operator profiling and render the
   annotated plan. The query runs for real — side effects included —
   which is the only honest way to report actual cardinalities for a
   language with side effects. *)
let analyze ?mode engine source : run_result * string =
  let r = run_with ?mode ~profile:true engine source in
  let rendered =
    match r.profile with
    | Some p -> Profile.render r.plan p
    | None -> Plan.explain r.plan
  in
  let rendered =
    if r.ddo_elided > 0 then
      Printf.sprintf "%s\n-- ddo sorts elided: %d" rendered r.ddo_elided
    else rendered
  in
  let rendered =
    Printf.sprintf "%s\n-- footprint: %s" rendered
      (Core.Static.Footprint.to_string r.footprint)
  in
  (r, rendered)

let explain ?mode engine source =
  let compiled, cres = plan_of ?mode engine source in
  Printf.sprintf "%s\n-- footprint: %s"
    (Plan.explain cres.Compile.plan)
    (Core.Static.Footprint.to_string compiled.Engine.footprint)
