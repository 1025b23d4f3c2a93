(* Executor for the tuple algebra. Tuples are variable environments
   extending the engine's globals; expression leaves are evaluated by
   the core evaluator, so plan execution and direct evaluation share
   one semantics (the equivalence tests in test/test_optimizer.ml rely
   on this split).

   Two levels of instrumentation, both optional:
   - [stats]: three global counters (tuples/probes/matches), always
     cheap, used by the benches;
   - [prof]: a {!Profile.t} with per-operator counters and inclusive
     wall times, addressed by the plan's pre-order node ids (see
     plan.ml) — the EXPLAIN ANALYZE machinery. When [prof] is [None]
     each node pays one option match and nothing else. *)

module C = Core.Core_ast
module Context = Core.Context
module Eval = Core.Eval
module Atomic = Xqb_xdm.Atomic
module Item = Xqb_xdm.Item
module Value = Xqb_xdm.Value

type stats = {
  mutable tuples : int;  (* tuples materialized *)
  mutable probes : int;  (* hash probes *)
  mutable matches : int;  (* join pairs produced *)
}

let new_stats () = { tuples = 0; probes = 0; matches = 0 }

(* Hash keys for the typed hash join, encoding XQuery's general-=
   coercion rules:
   - a numeric operand compares numerically with numerics and with
     untyped (untyped is cast to double);
   - an untyped operand compares as a string with strings and other
     untyped values;
   - a string operand compares as a string with strings and untyped.
   Build-side entries and probe-side lookups are chosen so a hash hit
   occurs exactly when general-= would hold. *)
type key =
  | K_num of float  (* numeric values *)
  | K_unt_num of float  (* untyped values, under their numeric reading *)
  | K_str of string  (* strings and untyped values, string reading *)
  | K_bool of bool

let build_keys (a : Atomic.t) : key list =
  match a with
  | Atomic.Integer i -> [ K_num (float_of_int i) ]
  | Atomic.Decimal f | Atomic.Double f ->
    if Float.is_nan f then [] else [ K_num f ]
  | Atomic.String s -> [ K_str s ]
  | Atomic.Untyped s -> (
    K_str s
    ::
    (match float_of_string_opt (String.trim s) with
    | Some f when not (Float.is_nan f) -> [ K_unt_num f ]
    | _ -> []))
  | Atomic.Boolean b -> [ K_bool b ]
  | Atomic.QName q -> [ K_str ("Q{" ^ Xqb_xml.Qname.to_string q) ]

let probe_keys (a : Atomic.t) : key list =
  match a with
  | Atomic.Integer i ->
    let f = float_of_int i in
    [ K_num f; K_unt_num f ]
  | Atomic.Decimal f | Atomic.Double f ->
    if Float.is_nan f then [] else [ K_num f; K_unt_num f ]
  | Atomic.String s -> [ K_str s ]
  | Atomic.Untyped s -> (
    K_str s
    ::
    (match float_of_string_opt (String.trim s) with
    | Some f when not (Float.is_nan f) -> [ K_num f ]
    | _ -> []))
  | Atomic.Boolean b -> [ K_bool b ]
  | Atomic.QName q -> [ K_str ("Q{" ^ Xqb_xml.Qname.to_string q) ]

let eval_keys ctx env (e : C.expr) = Value.atomize ctx.Context.store (Eval.eval ctx env None e)

(* Build an index from right tuples. Returns the tuple array and the
   key table mapping to tuple indexes. *)
let build_index ctx (rkey : C.expr) (right : Context.env list) =
  let arr = Array.of_list right in
  let tbl : (key, int list ref) Hashtbl.t = Hashtbl.create (2 * Array.length arr) in
  Array.iteri
    (fun i env ->
      List.iter
        (fun a ->
          List.iter
            (fun k ->
              match Hashtbl.find_opt tbl k with
              | Some l -> l := i :: !l
              | None -> Hashtbl.add tbl k (ref [ i ]))
            (build_keys a))
        (eval_keys ctx env rkey))
    arr;
  (arr, tbl)

(* Indexes of right tuples matching the left tuple's key value, in
   right order, without duplicates. [op] (when profiling) counts the
   same hash lookups as [stats.probes], per operator. *)
let matching_indexes ctx stats op tbl env (lkey : C.expr) =
  let hits = ref [] in
  List.iter
    (fun a ->
      List.iter
        (fun k ->
          stats.probes <- stats.probes + 1;
          (match op with
          | Some (o : Profile.op) -> o.Profile.probes <- o.Profile.probes + 1
          | None -> ());
          match Hashtbl.find_opt tbl k with
          | Some l -> hits := List.rev_append !l !hits
          | None -> ())
        (probe_keys a))
    (eval_keys ctx env lkey);
  List.sort_uniq compare !hits

(* Merge the variables a sub-plan bound into the outer tuple. Both are
   full environments; [right] wins on its own variables. *)
let merge_envs (left : Context.env) (right : Context.env) : Context.env =
  Context.SMap.union (fun _ _ r -> Some r) left right

(* Profiling shims: [pop] fetches the node's counter record, [timed]
   accumulates inclusive wall time around the node's execution. *)
let pop prof id =
  match prof with None -> None | Some p -> Some (Profile.op p id)

let timed op f =
  match op with
  | None -> f ()
  | Some (o : Profile.op) ->
    o.Profile.invocations <- o.Profile.invocations + 1;
    let t0 = Xqb_obs.Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        o.Profile.time_ns <- o.Profile.time_ns + (Xqb_obs.Clock.now_ns () - t0))
      f

(* Continuous-profiler operator labels: while the sampling profiler
   runs, samples taken inside this node carry an ["op<id>"] frame
   under the phase label. One atomic read when the profiler is off —
   cheap enough for the per-tuple path. *)
let sampled id f =
  if Xqb_obs.Profile.running () then Xqb_obs.Profile.with_op id f else f ()

let note_io op tin tout =
  match op with
  | None -> ()
  | Some (o : Profile.op) ->
    o.Profile.tuples_in <- o.Profile.tuples_in + tin;
    o.Profile.tuples_out <- o.Profile.tuples_out + tout

let rec exec_t ctx stats prof id (env0 : Context.env) (p : Plan.tplan) :
    Context.env list =
  let op = pop prof id in
  sampled id @@ fun () ->
  timed op @@ fun () ->
  match p with
  | Plan.Unit ->
    stats.tuples <- stats.tuples + 1;
    note_io op 0 1;
    [ env0 ]
  | Plan.For_tuple (input, v, pos, e) ->
    let tuples = exec_t ctx stats prof (id + 1) env0 input in
    let out = ref [] in
    let n_out = ref 0 in
    List.iter
      (fun env ->
        let items = Eval.eval ctx env None e in
        List.iteri
          (fun i item ->
            stats.tuples <- stats.tuples + 1;
            incr n_out;
            let env = Context.bind env v [ item ] in
            let env =
              match pos with
              | None -> env
              | Some pv -> Context.bind env pv (Value.of_int (i + 1))
            in
            out := env :: !out)
          items)
      tuples;
    note_io op (List.length tuples) !n_out;
    List.rev !out
  | Plan.Let_tuple (input, v, e) ->
    let tuples = exec_t ctx stats prof (id + 1) env0 input in
    let n = List.length tuples in
    note_io op n n;
    List.map (fun env -> Context.bind env v (Eval.eval ctx env None e)) tuples
  | Plan.Select (input, e) ->
    let tuples = exec_t ctx stats prof (id + 1) env0 input in
    let kept =
      List.filter
        (fun env -> Value.effective_boolean_value (Eval.eval ctx env None e))
        tuples
    in
    note_io op (List.length tuples) (List.length kept);
    kept
  | Plan.Join { left; right; lkey; rkey } ->
    let ltuples = exec_t ctx stats prof (id + 1) env0 left in
    let rtuples = exec_t ctx stats prof (id + 1 + Plan.size_t left) env0 right in
    let arr, tbl = build_index ctx rkey rtuples in
    (match op with
    | Some o ->
      o.Profile.build <- o.Profile.build + Array.length arr;
      o.Profile.probed <- o.Profile.probed + List.length ltuples
    | None -> ());
    let out = ref [] in
    let n_out = ref 0 in
    List.iter
      (fun lenv ->
        List.iter
          (fun i ->
            stats.matches <- stats.matches + 1;
            (match op with
            | Some o -> o.Profile.matches <- o.Profile.matches + 1
            | None -> ());
            incr n_out;
            out := merge_envs lenv arr.(i) :: !out)
          (matching_indexes ctx stats op tbl lenv lkey))
      ltuples;
    note_io op (List.length ltuples + List.length rtuples) !n_out;
    List.rev !out
  | Plan.Sort (input, specs) ->
    let tuples = exec_t ctx stats prof (id + 1) env0 input in
    let n = List.length tuples in
    note_io op n n;
    let keyed =
      List.map
        (fun env ->
          ( List.map (fun (k, d) -> (Eval.eval_sort_key ctx env None k, d)) specs,
            env ))
        tuples
    in
    List.map snd
      (List.stable_sort (fun (k1, _) (k2, _) -> Eval.compare_sort_keys k1 k2) keyed)
  | Plan.Outer_join_group { left; right; lkey; rkey; ret; out } ->
    let ltuples = exec_t ctx stats prof (id + 1) env0 left in
    let rtuples = exec_t ctx stats prof (id + 1 + Plan.size_t left) env0 right in
    let arr, tbl = build_index ctx rkey rtuples in
    (match op with
    | Some o ->
      o.Profile.build <- o.Profile.build + Array.length arr;
      o.Profile.probed <- o.Profile.probed + List.length ltuples
    | None -> ());
    let result =
      List.map
        (fun lenv ->
          let group = ref [] in
          List.iter
            (fun i ->
              stats.matches <- stats.matches + 1;
              (match op with
              | Some o -> o.Profile.matches <- o.Profile.matches + 1
              | None -> ());
              let env = merge_envs lenv arr.(i) in
              group := List.rev_append (Eval.eval ctx env None ret) !group)
            (matching_indexes ctx stats op tbl lenv lkey);
          Context.bind lenv out (List.rev !group))
        ltuples
    in
    note_io op (List.length ltuples + List.length rtuples) (List.length ltuples);
    result

let rec exec_v ctx stats prof id (env0 : Context.env) (p : Plan.vplan) : Value.t
    =
  let op = pop prof id in
  sampled id @@ fun () ->
  timed op @@ fun () ->
  match p with
  | Plan.Direct e ->
    let v = Eval.eval ctx env0 None e in
    note_io op 0 (List.length v);
    v
  | Plan.Map_from_tuple (tplan, ret) ->
    let tuples = exec_t ctx stats prof (id + 1) env0 tplan in
    let out = ref [] in
    List.iter
      (fun env -> out := List.rev_append (Eval.eval ctx env None ret) !out)
      tuples;
    let v = List.rev !out in
    note_io op (List.length tuples) (List.length v);
    v
  | Plan.Seq_v (a, b) ->
    let va = exec_v ctx stats prof (id + 1) env0 a in
    let vb = exec_v ctx stats prof (id + 1 + Plan.size_v a) env0 b in
    let v = va @ vb in
    note_io op (List.length va + List.length vb) (List.length v);
    v
  | Plan.Snap_v (mode, body) ->
    let v = Eval.snap ctx mode (fun () -> exec_v ctx stats prof (id + 1) env0 body) in
    note_io op 0 (List.length v);
    v
  | Plan.Ddo_v { elided; body } ->
    let vb = exec_v ctx stats prof (id + 1) env0 body in
    let v =
      if elided then begin
        (* statically certified sorted/duplicate-free: identity *)
        ctx.Context.ddo_elided <- ctx.Context.ddo_elided + 1;
        vb
      end
      else Core.Functions.call ctx None "%ddo" [ vb ]
    in
    note_io op (List.length vb) (List.length v);
    v

let exec ?(stats = new_stats ()) ?prof ctx env0 plan =
  exec_v ctx stats prof 0 env0 plan
