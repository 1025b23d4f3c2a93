(* The dynamic semantics of XQuery! (Figs. 2-3).

   The formal judgement
       store0; dynEnv |- Expr => value; Delta; store1
   is realized as:
   - the store is an OCaml mutable structure ([ctx.store]); store
     threading becomes in-place mutation under a *defined
     left-to-right evaluation order* — every rule below sequences its
     premises with explicit [let]s, never relying on OCaml's
     (right-to-left!) argument evaluation order;
   - Delta is not returned by each call: requests are appended to the
     innermost frame of the snap stack ([ctx.snaps]), which by
     construction yields exactly the (Delta1, Delta2, ...) ordering of
     the rules;
   - [Snap] pushes a frame, evaluates its body, pops and applies —
     the "stack-like behavior ... built into the recursive machinery"
     of §3.4. *)

module C = Core_ast
module A = Xqb_syntax.Ast
module Atomic = Xqb_xdm.Atomic
module Item = Xqb_xdm.Item
module Value = Xqb_xdm.Value
module Errors = Xqb_xdm.Errors
module Store = Xqb_store.Store
module Axes = Xqb_store.Axes
module Qname = Xqb_xml.Qname

let type_check store what (ty : A.seq_type option) (v : Value.t) =
  match ty with
  | None -> ()
  | Some ty ->
    if not (Types.matches store ty v) then
      Errors.type_error "%s does not match declared type %s" what
        (A.seq_type_to_string ty)

(* Convert a value to the node list an insert/replace payload denotes:
   runs of atomics become text nodes (space-joined), exactly as in
   element-constructor content. *)
let content_to_nodes ctx (v : Value.t) : Store.node_id list =
  let store = ctx.Context.store in
  let out = ref [] in
  let buf = ref [] in
  let flush () =
    if !buf <> [] then begin
      let s = String.concat " " (List.rev_map Atomic.to_string !buf) in
      out := Store.make_text store s :: !out;
      buf := []
    end
  in
  List.iter
    (fun item ->
      match item with
      | Item.Atomic a -> buf := a :: !buf
      | Item.Node n ->
        flush ();
        out := n :: !out)
    v;
  flush ();
  List.rev !out

(* Evaluate a name-producing expression (rename target, computed
   constructor names). *)
let value_to_qname store (v : Value.t) : Qname.t =
  match Value.singleton_atomic store v with
  | Atomic.QName q -> q
  | Atomic.String s | Atomic.Untyped s ->
    let q = Qname.of_string s in
    if not (Qname.valid q) then Errors.value_error "invalid QName %S" s;
    q
  | a -> Errors.type_error "expected a QName, got %s" (Atomic.type_name a)

(* Budget checkpoints. [tick] charges one unit per evaluated core
   expression; [charge_nodes] additionally charges result fan-out on
   the index-backed paths that bypass [Axes] (the generic axis walk
   is charged inside the store); [emit_request] enforces the
   pending-∆ cap as requests are recorded. All three are no-ops on an
   ungoverned context. *)
let tick ctx =
  match ctx.Context.budget with
  | None -> ()
  | Some b -> Xqb_governor.Budget.charge b 1

let step_context = function
  | Item.Node n -> n
  | Item.Atomic a -> Errors.type_error "path step applied to a %s" (Atomic.type_name a)

let charge_nodes ctx nodes =
  (match ctx.Context.budget with
  | None -> ()
  | Some b -> Xqb_governor.Budget.charge b (List.length nodes));
  nodes

(* Record an update request on the innermost snap frame, stamping it
   with provenance: the effecting expression's source location, the
   snap depth it was emitted at, and the active trace id (if any). *)
let emit_request ctx ?(loc = C.no_loc) op =
  let prov =
    {
      Update.src_line = loc.C.line;
      src_col = loc.C.col;
      snap_depth = Snap_stack.depth ctx.Context.snaps;
      trace_id =
        Option.map Xqb_obs.Trace.id
          (Option.bind ctx.Context.job Xqb_obs.Stage.tracer);
    }
  in
  Snap_stack.emit ctx.Context.snaps (Update.make ~prov op);
  match ctx.Context.budget with
  | None -> ()
  | Some b ->
    Xqb_governor.Budget.charge_delta b (Snap_stack.pending ctx.Context.snaps)

(* The snap rule, shared by every evaluator ([eval] below, the
   algebra executor's Snap operator, the engine's implicit top-level
   snap): push a frame, run [body], pop and apply the frame's ∆ — the
   "stack-like behavior ... built into the recursive machinery" of
   §3.4. On error the frame's pending updates are abandoned.

   [snap atomic] (extension, §5 failure control) runs the whole scope
   — body, any nested snaps it applies, and the final application —
   inside a store transaction: on error the store is rolled back and
   the error propagates. *)
let snap_frame ctx mode body =
  let snaps = ctx.Context.snaps in
  Snap_stack.push snaps (Apply.mode_of_snap mode);
  let v =
    match body () with
    | v -> v
    | exception ex ->
      ignore (Snap_stack.pop snaps);
      raise ex
  in
  let delta, amode = Snap_stack.pop snaps in
  (match ctx.Context.on_apply with
  | Some hook -> hook delta amode
  | None -> ());
  Update.stats_record ctx.Context.delta_stats
    ~conflict_checked:(amode = Apply.Conflict_detection)
    delta;
  let apply_inline () =
    let job = ctx.Context.job in
    ctx.Context.apply_ns <-
      ctx.Context.apply_ns
      + Xqb_obs.Stage.timed ~cat:"snap"
          ~args:
            [
              ("requests", string_of_int (List.length delta));
              ("mode", Apply.mode_to_string amode);
            ]
          Xqb_obs.Stage.Snap_apply job "snap.apply"
          (fun () ->
            Apply.apply ~rand_state:ctx.Context.rand ?job ctx.Context.store amode
              delta)
  in
  (match ctx.Context.apply_wrap with
  | Some wrap when delta <> [] -> wrap apply_inline
  | _ -> apply_inline ());
  v

let snap ctx (mode : C.snap_mode) body =
  match mode with
  | C.Snap_atomic ->
    Store.transactionally ctx.Context.store (fun () ->
        snap_frame ctx C.Snap_ordered body)
  | _ -> snap_frame ctx mode body

(* Does [s] contain the two bytes [a][b] in a row? *)
let has_pair s a b =
  let rec go i = i + 1 < String.length s && ((s.[i] = a && s.[i + 1] = b) || go (i + 1)) in
  go 0

(* Comment and PI content the serializer could not write back as one
   node is rejected where it enters the store: by the constructors and
   by "replace value of node", the two places every route sets it. *)
let check_comment s =
  if has_pair s '-' '-' || String.ends_with ~suffix:"-" s then
    Errors.raise_error "XQDY0072" "comment content %S contains \"--\" or ends in \"-\"" s

let check_pi s =
  if has_pair s '?' '>' then
    Errors.raise_error "XQDY0026" "processing-instruction content %S contains \"?>\"" s

let rec eval (ctx : Context.t) (env : Context.env) (focus : Context.focus option)
    (e : C.expr) : Value.t =
  tick ctx;
  match e with
  | C.Scalar a -> [ Item.Atomic a ]
  | C.Param i -> [ ctx.Context.params.(i) ]
  | C.Var v -> Context.lookup env v
  | C.Context_item -> (
    match focus with
    | Some f -> [ f.Context.item ]
    | None -> Errors.raise_error "XPDY0002" "no context item")
  | C.Empty -> []
  | C.Seq (e1, e2) ->
    (* Expr1 must be fully evaluated before Expr2 (§2.3). *)
    let v1 = eval ctx env focus e1 in
    let v2 = eval ctx env focus e2 in
    v1 @ v2
  | C.For (v, posvar, e1, body) ->
    let items = eval ctx env focus e1 in
    let n = ref 0 in
    let acc = ref [] in
    List.iter
      (fun item ->
        incr n;
        let env = Context.bind env v [ item ] in
        let env =
          match posvar with
          | None -> env
          | Some pv -> Context.bind env pv (Value.of_int !n)
        in
        acc := List.rev_append (eval ctx env focus body) !acc)
      items;
    List.rev !acc
  | C.Let (v, e1, body) ->
    let v1 = eval ctx env focus e1 in
    eval ctx (Context.bind env v v1) focus body
  | C.If (c, t, e) ->
    let cv = eval ctx env focus c in
    if Value.effective_boolean_value cv then eval ctx env focus t
    else eval ctx env focus e
  | C.Sort_flwor (clauses, specs, ret) -> eval_sort_flwor ctx env focus clauses specs ret
  | C.Some_sat (v, e1, sat) ->
    let items = eval ctx env focus e1 in
    Value.of_bool
      (List.exists
         (fun item ->
           Value.effective_boolean_value
             (eval ctx (Context.bind env v [ item ]) focus sat))
         items)
  | C.Every_sat (v, e1, sat) ->
    let items = eval ctx env focus e1 in
    Value.of_bool
      (List.for_all
         (fun item ->
           Value.effective_boolean_value
             (eval ctx (Context.bind env v [ item ]) focus sat))
         items)
  | C.Step (input, Axes.Descendant, Axes.Name q) ->
    (* descendant::name goes through the store's element-name index
       (populated lazily, invalidated on mutation) — the target of the
       descendant-step rewrites. *)
    let v = eval ctx env focus input in
    ctx.Context.steps_evaluated <- ctx.Context.steps_evaluated + 1;
    let store = ctx.Context.store in
    List.concat_map
      (fun item ->
        let n = step_context item in
        List.map Item.node (charge_nodes ctx (Store.descendants_by_name store n q)))
      v
  | C.Step (input, axis, test) -> (
    let v = eval ctx env focus input in
    ctx.Context.steps_evaluated <- ctx.Context.steps_evaluated + 1;
    let store = ctx.Context.store in
    (* a lone context node — the common case — builds its result
       directly, with no closure and no concatenation *)
    match v with
    | [ item ] -> Axes.step store axis test Item.node (step_context item)
    | _ ->
      List.concat_map
        (fun item -> Axes.step store axis test Item.node (step_context item))
        v)
  | C.Key_step (base, elem, attr, rhs) ->
    (* descendant::elem[@attr = rhs], rhs pure and focus-free (the
       rewrite's guard). String keys go through the store's key index;
       non-string keys fall back to a scan with general-= semantics.
       The rhs is evaluated only when candidates exist, preserving the
       original's error behaviour (zero candidates = zero rhs
       evaluations). *)
    let v = eval ctx env focus base in
    ctx.Context.steps_evaluated <- ctx.Context.steps_evaluated + 1;
    let store = ctx.Context.store in
    let roots =
      List.map
        (function
          | Item.Node n -> n
          | Item.Atomic a ->
            Errors.type_error "path step applied to a %s" (Atomic.type_name a))
        v
    in
    let has_candidates =
      List.exists (fun n -> Store.descendants_by_name store n elem <> []) roots
    in
    if not has_candidates then []
    else begin
      let keys = Value.atomize store (eval ctx env focus rhs) in
      let strings_only =
        List.for_all
          (function Atomic.String _ | Atomic.Untyped _ -> true | _ -> false)
          keys
      in
      if strings_only then
        let key_strings =
          List.sort_uniq compare (List.map Atomic.to_string keys)
        in
        List.concat_map
          (fun n ->
            List.concat_map
              (fun k -> List.map Item.node (Store.lookup_by_key store n ~elem ~attr k))
              key_strings)
          roots
      else
        List.concat_map
          (fun n ->
            List.filter_map
              (fun e ->
                match Store.attr_value store e attr with
                | Some value
                  when List.exists
                         (fun k ->
                           Atomic.general_compare Atomic.Eq (Atomic.Untyped value) k)
                         keys ->
                  Some (Item.Node e)
                | _ -> None)
              (Store.descendants_by_name store n elem))
          roots
    end
  | C.Map (e1, e2) ->
    let v1 = eval ctx env focus e1 in
    let size = List.length v1 in
    let acc = ref [] in
    List.iteri
      (fun i item ->
        let f = { Context.item; position = i + 1; size } in
        acc := List.rev_append (eval ctx env (Some f) e2) !acc)
      v1;
    let results = List.rev !acc in
    let has_node = List.exists Item.is_node results in
    let has_atomic = List.exists (fun i -> not (Item.is_node i)) results in
    if has_node && has_atomic then
      Errors.raise_error "XPTY0018" "path result mixes nodes and atomic values"
    else if has_node then Functions.call ctx focus "%ddo" [ results ]
    else results
  | C.Predicate (input, pred) ->
    let v = eval ctx env focus input in
    let size = List.length v in
    let keep = ref [] in
    List.iteri
      (fun i item ->
        let f = { Context.item; position = i + 1; size } in
        let pv = eval ctx env (Some f) pred in
        let selected =
          match pv with
          | [ Item.Atomic a ] when Atomic.is_numeric a ->
            Atomic.to_double a = float_of_int (i + 1)
          | _ -> Value.effective_boolean_value pv
        in
        if selected then keep := item :: !keep)
      v;
    List.rev !keep
  | C.Binop (op, e1, e2) -> eval_binop ctx env focus op e1 e2
  | C.Unary_minus e -> (
    let v = eval ctx env focus e in
    match Value.atomize ctx.Context.store v with
    | [] -> []
    | [ a ] -> Value.of_atomic (Atomic.negate a)
    | _ -> Errors.type_error "unary minus on a sequence")
  | C.Call_builtin (name, arg_exprs) ->
    (* Arguments evaluate left to right (function-call rule, Fig. 3). *)
    let args = eval_args ctx env focus arg_exprs in
    Functions.call ctx focus name args
  | C.Call_user (f, arg_exprs) -> eval_user_call ctx env focus f arg_exprs
  | C.Instance_of (e, ty) ->
    let v = eval ctx env focus e in
    Value.of_bool (Types.matches ctx.Context.store ty v)
  | C.Cast_as (e, ty) ->
    let v = eval ctx env focus e in
    Types.cast ctx.Context.store ty v
  | C.Castable_as (e, ty) ->
    let v = eval ctx env focus e in
    Value.of_bool (Types.castable ctx.Context.store ty v)
  | C.Treat_as (e, ty) ->
    let v = eval ctx env focus e in
    if Types.matches ctx.Context.store ty v then v
    else
      Errors.raise_error "XPDY0050" "treat as %s failed"
        (A.seq_type_to_string ty)
  | C.Elem (ns, content) ->
    let name = eval_name ctx env focus ns in
    let parts = List.rev (eval_content ctx env focus content []) in
    Value.of_node (construct_element ctx name parts)
  | C.Attr (ns, content) ->
    let name = eval_name ctx env focus ns in
    let cv = eval ctx env focus content in
    let s =
      String.concat " "
        (List.map (Item.string_value ctx.Context.store) cv)
    in
    Value.of_node (Store.make_attribute ctx.Context.store name s)
  | C.Text_node content -> (
    let cv = eval ctx env focus content in
    match cv with
    | [] -> []
    | _ ->
      let s =
        String.concat " " (List.map (Item.string_value ctx.Context.store) cv)
      in
      Value.of_node (Store.make_text ctx.Context.store s))
  | C.Comment_node content ->
    let s = Value.string_value ctx.Context.store (eval ctx env focus content) in
    check_comment s;
    Value.of_node (Store.make_comment ctx.Context.store s)
  | C.Pi_node (ns, content) ->
    let target = Qname.to_string (eval_name ctx env focus ns) in
    let s = Value.string_value ctx.Context.store (eval ctx env focus content) in
    check_pi s;
    Value.of_node (Store.make_pi ctx.Context.store target s)
  | C.Doc_node content ->
    let cv = eval ctx env focus content in
    let store = ctx.Context.store in
    let doc = Store.make_document store in
    let nodes = List.map (copy_item ctx) cv |> content_to_nodes ctx in
    Store.wire store ~parent:doc nodes;
    Value.of_node doc
  (* ---- XQuery! operations (Fig. 2) ---- *)
  | C.Copy e ->
    let v = eval ctx env focus e in
    List.map (copy_item ctx) v
  | C.Insert (target, payload, dest, loc) ->
    (* Fig. 2: Expr1 first, then Expr2, then the location judgement. *)
    let v1 = eval ctx env focus payload in
    let v2 = eval ctx env focus dest in
    let nodes = content_to_nodes ctx v1 in
    let anchor = Value.singleton_node v2 in
    let store = ctx.Context.store in
    let parent_of n =
      match Store.parent store n with
      | Some p -> p
      | None ->
        Errors.raise_error "XUDY0029" "insert before/after a parentless node"
    in
    let parent, position =
      match target with
      | C.T_first -> (anchor, Update.First)
      | C.T_last -> (anchor, Update.Last)
      | C.T_before -> (parent_of anchor, Update.Before anchor)
      | C.T_after -> (parent_of anchor, Update.After anchor)
    in
    emit_request ctx ~loc (Update.Insert { nodes; parent; position });
    []
  | C.Delete (e, loc) ->
    let v = eval ctx env focus e in
    let nodes = Value.nodes_of v in
    List.iter (fun n -> emit_request ctx ~loc (Update.Delete n)) nodes;
    []
  | C.Replace (e1, e2, loc) ->
    (* Fig. 2: Delta3 = (Delta1, Delta2, insert(...), delete(node)). *)
    let v1 = eval ctx env focus e1 in
    let v2 = eval ctx env focus e2 in
    let node = Value.singleton_node v1 in
    let store = ctx.Context.store in
    let parent =
      match Store.parent store node with
      | Some p -> p
      | None -> Errors.raise_error "XUDY0009" "replace of a parentless node"
    in
    let nodes = content_to_nodes ctx v2 in
    emit_request ctx ~loc
      (Update.Insert { nodes; parent; position = Update.After node });
    emit_request ctx ~loc (Update.Delete node);
    []
  | C.Replace_value (e1, e2, loc) ->
    (* XQUF: the replacement atomizes to a string; emit a set-value
       request against the target node. *)
    let v1 = eval ctx env focus e1 in
    let v2 = eval ctx env focus e2 in
    let node = Value.singleton_node v1 in
    let s =
      String.concat " "
        (List.map Atomic.to_string (Value.atomize ctx.Context.store v2))
    in
    (match Store.kind ctx.Context.store node with
    | Store.Comment -> check_comment s
    | Store.Pi -> check_pi s
    | _ -> ());
    emit_request ctx ~loc (Update.Set_value (node, s));
    []
  | C.Rename (e1, e2, loc) ->
    let v1 = eval ctx env focus e1 in
    let v2 = eval ctx env focus e2 in
    let node = Value.singleton_node v1 in
    let name = value_to_qname ctx.Context.store v2 in
    emit_request ctx ~loc (Update.Rename (node, name));
    []
  | C.Snap (mode, body) -> snap ctx mode (fun () -> eval ctx env focus body)

(* Explicit left-to-right evaluation (OCaml's own application order is
   right-to-left, so a bare List.map would not do). *)
and eval_args ctx env focus = function
  | [] -> []
  | a :: rest ->
    let v = eval ctx env focus a in
    v :: eval_args ctx env focus rest

and eval_name ctx env focus (ns : C.name_spec) : Qname.t =
  match ns with
  | C.Static q -> q
  | C.Dynamic e ->
    let v = eval ctx env focus e in
    value_to_qname ctx.Context.store v

and copy_item ctx (item : Item.t) : Item.t =
  match item with
  | Item.Atomic _ -> item
  | Item.Node n -> Item.Node (Store.deep_copy ctx.Context.store n)

(* An element constructor's content, part by part along the [C.Seq]
   spine, newest first: [(true, v)] for a part that is itself a node
   constructor, whose fresh nodes nothing else can reach, [(false, v)]
   for anything else (variables, paths, calls), whose nodes may be
   referenced elsewhere. Ticks each spine node as [eval] would. *)
and eval_content ctx env focus (e : C.expr) acc =
  match e with
  | C.Seq (a, b) ->
    tick ctx;
    let acc = eval_content ctx env focus a acc in
    eval_content ctx env focus b acc
  | C.Elem _ | C.Attr _ | C.Text_node _ | C.Comment_node _ | C.Pi_node _ ->
    (true, eval ctx env focus e) :: acc
  | _ -> (false, eval ctx env focus e) :: acc

(* Computed element construction: content items are deep-copied into
   the fresh element (XQuery 1.0 semantics — this is what makes the
   §3.3 copy-insertion around insert payloads sufficient to prevent
   trees with two parents), except the fresh nodes of a content part
   that is itself a constructor, which are adopted as they are: no one
   else holds them, so copying could not be observed. Attribute items
   must precede all other content. The parts are wired in one
   [Store.wire]: construction is not an update, so no rollback ever
   undoes it. *)
and construct_element ctx name (parts : (bool * Value.t) list) : Store.node_id =
  let store = ctx.Context.store in
  let el = Store.make_element store name in
  let seen_child = ref false in
  let pending_atoms = ref [] in
  let nodes = ref [] in
  let flush_atoms () =
    if !pending_atoms <> [] then begin
      let s = String.concat " " (List.rev_map Atomic.to_string !pending_atoms) in
      pending_atoms := [];
      seen_child := true;
      nodes := Store.make_text store s :: !nodes
    end
  in
  List.iter
    (fun (owned, v) ->
      let own n = if owned then n else Store.deep_copy store n in
      List.iter
        (fun item ->
          match item with
          | Item.Atomic a -> pending_atoms := a :: !pending_atoms
          | Item.Node n -> (
            flush_atoms ();
            match Store.kind store n with
            | Store.Attribute ->
              if !seen_child then
                Errors.raise_error "XQTY0024"
                  "attribute node follows non-attribute content";
              nodes := own n :: !nodes
            | Store.Document ->
              (* document nodes splice (copies of) their children *)
              seen_child := true;
              List.iter
                (fun c -> nodes := Store.deep_copy store c :: !nodes)
                (Store.children store n)
            | Store.Element | Store.Text | Store.Comment | Store.Pi ->
              seen_child := true;
              nodes := own n :: !nodes))
        v)
    parts;
  flush_atoms ();
  Store.wire store ~parent:el (List.rev !nodes);
  el

and eval_user_call ctx env focus f arg_exprs =
  let arity = List.length arg_exprs in
  match Context.find_function ctx f arity with
  | None ->
    Errors.arity_error "call to undeclared function %s/%d" (Qname.to_string f) arity
  | Some fn ->
    (* Fig. 3: arguments evaluate left to right, threading the store;
       their Deltas precede the body's. *)
    let args = eval_args ctx env focus arg_exprs in
    let store = ctx.Context.store in
    (* Function bodies see the module's global variables, not the
       caller's locals; parameters shadow globals. *)
    let call_env =
      List.fold_left2
        (fun acc (p, ty) v ->
          type_check store (Printf.sprintf "argument $%s of %s" p (Qname.to_string f))
            ty v;
          Context.bind acc p v)
        ctx.Context.globals fn.Context.params args
    in
    (* The function body sees no focus: XQuery's context item does not
       propagate into function bodies. *)
    let result = eval ctx call_env None fn.Context.body in
    type_check store
      (Printf.sprintf "result of %s" (Qname.to_string f))
      fn.Context.return_type result;
    result

and eval_binop ctx env focus op e1 e2 =
  let store = ctx.Context.store in
  match op with
  | A.Or ->
    (* Defined order with short-circuit (documented deviation from
       XQuery 1.0's free order, required once operands may have
       effects). *)
    let v1 = eval ctx env focus e1 in
    if Value.effective_boolean_value v1 then Value.of_bool true
    else Value.of_bool (Value.effective_boolean_value (eval ctx env focus e2))
  | A.And ->
    let v1 = eval ctx env focus e1 in
    if not (Value.effective_boolean_value v1) then Value.of_bool false
    else Value.of_bool (Value.effective_boolean_value (eval ctx env focus e2))
  | A.Gen_eq | A.Gen_ne | A.Gen_lt | A.Gen_le | A.Gen_gt | A.Gen_ge ->
    let v1 = eval ctx env focus e1 in
    let v2 = eval ctx env focus e2 in
    let a1 = Value.atomize store v1 and a2 = Value.atomize store v2 in
    let cmp = gen_op op in
    Value.of_bool
      (List.exists
         (fun x -> List.exists (fun y -> Atomic.general_compare cmp x y) a2)
         a1)
  | A.Val_eq | A.Val_ne | A.Val_lt | A.Val_le | A.Val_gt | A.Val_ge -> (
    let v1 = eval ctx env focus e1 in
    let v2 = eval ctx env focus e2 in
    match Value.atomize store v1, Value.atomize store v2 with
    | [], _ | _, [] -> []
    | [ a ], [ b ] -> Value.of_bool (Atomic.value_compare (val_op op) a b)
    | _ -> Errors.type_error "value comparison on a sequence")
  | A.Is | A.Precedes | A.Follows -> (
    let v1 = eval ctx env focus e1 in
    let v2 = eval ctx env focus e2 in
    match v1, v2 with
    | [], _ | _, [] -> []
    | _ ->
      let n1 = Value.singleton_node v1 and n2 = Value.singleton_node v2 in
      let c = Store.compare_order store n1 n2 in
      Value.of_bool
        (match op with
        | A.Is -> n1 = n2
        | A.Precedes -> c < 0
        | A.Follows -> c > 0
        | _ -> assert false))
  | A.Add | A.Sub | A.Mul | A.Div | A.Idiv | A.Mod -> (
    let v1 = eval ctx env focus e1 in
    let v2 = eval ctx env focus e2 in
    match Value.atomize store v1, Value.atomize store v2 with
    | [], _ | _, [] -> []
    | [ a ], [ b ] -> Value.of_atomic (Atomic.arith (arith_op op) a b)
    | _ -> Errors.type_error "arithmetic on a sequence")
  | A.To -> (
    let v1 = eval ctx env focus e1 in
    let v2 = eval ctx env focus e2 in
    match v1, v2 with
    | [], _ | _, [] -> []
    | _ ->
      let a = Value.to_integer store v1 and b = Value.to_integer store v2 in
      if a > b then []
      else List.init (b - a + 1) (fun i -> Item.integer (a + i)))
  | A.Union | A.Intersect | A.Except ->
    let v1 = eval ctx env focus e1 in
    let v2 = eval ctx env focus e2 in
    let n1 = Value.nodes_of v1 and n2 = Value.nodes_of v2 in
    let module IS = Set.Make (Int) in
    let s2 = IS.of_list n2 in
    let result =
      match op with
      | A.Union -> n1 @ n2
      | A.Intersect -> List.filter (fun n -> IS.mem n s2) n1
      | A.Except -> List.filter (fun n -> not (IS.mem n s2)) n1
      | _ -> assert false
    in
    Value.of_nodes (Store.sort_doc_order store result)

and gen_op : A.binop -> Atomic.cmp_op = function
  | A.Gen_eq -> Atomic.Eq
  | A.Gen_ne -> Atomic.Ne
  | A.Gen_lt -> Atomic.Lt
  | A.Gen_le -> Atomic.Le
  | A.Gen_gt -> Atomic.Gt
  | A.Gen_ge -> Atomic.Ge
  | _ -> assert false

and val_op : A.binop -> Atomic.cmp_op = function
  | A.Val_eq -> Atomic.Eq
  | A.Val_ne -> Atomic.Ne
  | A.Val_lt -> Atomic.Lt
  | A.Val_le -> Atomic.Le
  | A.Val_gt -> Atomic.Gt
  | A.Val_ge -> Atomic.Ge
  | _ -> assert false

and arith_op : A.binop -> Atomic.arith_op = function
  | A.Add -> Atomic.Add
  | A.Sub -> Atomic.Sub
  | A.Mul -> Atomic.Mul
  | A.Div -> Atomic.Div
  | A.Idiv -> Atomic.Idiv
  | A.Mod -> Atomic.Mod
  | _ -> assert false

and compare_sort_keys (k1 : (Atomic.t option * A.sort_dir) list)
    (k2 : (Atomic.t option * A.sort_dir) list) : int =
  (* order-by comparison: empty keys first; untyped compares as string
     (the standard value-comparison rule); NaN ties. Shared with the
     plan executor's OrderBy. *)
  let rec go l1 l2 =
    match l1, l2 with
    | [], [] -> 0
    | (a, dir) :: r1, (b, _) :: r2 ->
      let c =
        match a, b with
        | None, None -> 0
        | None, Some _ -> -1
        | Some _, None -> 1
        | Some a, Some b -> (
          let norm = function Atomic.Untyped s -> Atomic.String s | x -> x in
          match Atomic.compare_values (norm a) (norm b) with
          | Some c -> c
          | None -> 0)
      in
      let c = match dir with A.Ascending -> c | A.Descending -> -c in
      if c <> 0 then c else go r1 r2
    | _ -> 0
  in
  go k1 k2

(* Evaluate one order-by key to its comparable form. *)
and eval_sort_key ctx env focus (ke : C.expr) : Atomic.t option =
  let kv = eval ctx env focus ke in
  match Value.atomize ctx.Context.store kv with
  | [] -> None
  | [ a ] -> Some a
  | _ -> Errors.type_error "order-by key is a sequence"

(* FLWOR with order-by: generate the binding-tuple stream in clause
   order, sort it by the order specs, then evaluate the return clause
   in sorted order. Effects in the clauses happen in generation order;
   effects in the return clause happen in sorted order — matching the
   defined-evaluation-order semantics. *)
and eval_sort_flwor ctx env focus clauses specs ret =
  let store = ctx.Context.store in
  let tuples = ref [] in
  let rec gen env = function
    | [] -> tuples := env :: !tuples
    | C.S_for (v, posvar, e) :: rest ->
      let items = eval ctx env focus e in
      let n = ref 0 in
      List.iter
        (fun item ->
          incr n;
          let env = Context.bind env v [ item ] in
          let env =
            match posvar with
            | None -> env
            | Some pv -> Context.bind env pv (Value.of_int !n)
          in
          gen env rest)
        items
    | C.S_let (v, e) :: rest ->
      let value = eval ctx env focus e in
      gen (Context.bind env v value) rest
    | C.S_where e :: rest ->
      if Value.effective_boolean_value (eval ctx env focus e) then gen env rest
  in
  gen env clauses;
  ignore store;
  let tuples = List.rev !tuples in
  let keyed =
    List.map
      (fun tenv ->
        let keys =
          List.map (fun (ke, dir) -> (eval_sort_key ctx tenv focus ke, dir)) specs
        in
        (keys, tenv))
      tuples
  in
  let sorted =
    List.stable_sort (fun (k1, _) (k2, _) -> compare_sort_keys k1 k2) keyed
  in
  List.concat_map (fun (_, tenv) -> eval ctx tenv focus ret) sorted
