(* The "phase of syntactic rewriting" of §4.2: simplification rules on
   the core language, each "guarded by a judgment which detects
   whether side effects occur in a given subexpression to avoid
   changing the semantics for the query".

   The guards are the point (and what E11 measures): eliminating or
   duplicating a merely-Updating expression would change how many
   update requests reach the ∆, and reordering around an Effecting one
   would change what it observes — so every rule that drops, copies or
   moves a subexpression demands purity.

   Rules (names as reported in [stats]):
   - if-const:       if (true) then t else e  =>  t        (cond is a constant)
   - dead-let:       let $v := e1 return body =>  body     (v unused, e1 pure)
   - inline-let:     let $v := e1 return body =>  body[v:=e1]
                     (e1 pure, focus-independent, used once)
   - for-singleton:  for $v in <single item>  =>  let
   - seq-empty:      ((), e) => e ; (e, ()) => e
   - const-fold:     1 + 2 => 3 (both scalar, operation total here)
   - if-fold:        EBV of a scalar condition folds the branch
   - pred-true:      e[true()] => e
   - ddo-ddo:        %ddo(%ddo(e)) => %ddo(e)
   - for-empty:      for $v in () return body => () *)

module C = Core_ast
module A = Xqb_syntax.Ast

let bump stats rule =
  stats :=
    (match List.assoc_opt rule !stats with
    | Some n -> (rule, n + 1) :: List.remove_assoc rule !stats
    | None -> (rule, 1) :: !stats)

(* Number of free occurrences of [v] in [e]. *)
let rec occurrences v (e : C.expr) : int =
  match e with
  | C.Var w -> if String.equal v w then 1 else 0
  | C.For (w, pos, e1, body) ->
    let shadow = String.equal v w || pos = Some v in
    occurrences v e1 + if shadow then 0 else occurrences v body
  | C.Let (w, e1, body) | C.Some_sat (w, e1, body) | C.Every_sat (w, e1, body) ->
    occurrences v e1 + if String.equal v w then 0 else occurrences v body
  | C.Sort_flwor _ ->
    (* conservative: treat as many occurrences to block inlining *)
    if Static.SSet.mem v (Static.free_vars e) then 2 else 0
  | _ -> List.fold_left (fun acc s -> acc + occurrences v s) 0 (C.sub_exprs e)

(* Does evaluation of [e] depend on the focus (context item, position,
   size)? Inlining across a predicate/path boundary is only legal when
   it does not. *)
let rec uses_focus (e : C.expr) : bool =
  match e with
  | C.Context_item -> true
  | C.Call_builtin (("position" | "last"), []) -> true
  | C.Call_builtin (("string" | "string-length" | "normalize-space" | "number"
                    | "name" | "local-name" | "root"), []) ->
    true
  | C.Predicate (input, _) | C.Map (input, _) ->
    (* the right side runs under its own focus *)
    uses_focus input
  | _ -> List.exists uses_focus (C.sub_exprs e)

(* Substitute [replacement] for free [v] in [e] (capture is impossible:
   normalization's fresh variables contain '%', and we only substitute
   pure expressions whose free variables cannot be rebound between the
   let and the use — guaranteed by only inlining when the binder chain
   does not rebind them; checked conservatively below). *)
let rec substitute v replacement (e : C.expr) : C.expr =
  match e with
  | C.Var w when String.equal v w -> replacement
  | C.For (w, pos, e1, body) when String.equal v w || pos = Some v ->
    C.For (w, pos, substitute v replacement e1, body)
  | C.Let (w, e1, body) when String.equal v w ->
    C.Let (w, substitute v replacement e1, body)
  | C.Some_sat (w, e1, body) when String.equal v w ->
    C.Some_sat (w, substitute v replacement e1, body)
  | C.Every_sat (w, e1, body) when String.equal v w ->
    C.Every_sat (w, substitute v replacement e1, body)
  | _ -> C.map_subs (substitute v replacement) e

(* All variables bound anywhere inside [e] — used to rule out capture
   when inlining. *)
let rec binders (e : C.expr) : Static.SSet.t =
  let subs =
    List.fold_left
      (fun acc s -> Static.SSet.union acc (binders s))
      Static.SSet.empty (C.sub_exprs e)
  in
  match e with
  | C.For (v, pos, _, _) ->
    let s = Static.SSet.add v subs in
    (match pos with Some p -> Static.SSet.add p s | None -> s)
  | C.Let (v, _, _) | C.Some_sat (v, _, _) | C.Every_sat (v, _, _) ->
    Static.SSet.add v subs
  | C.Sort_flwor (clauses, _, _) ->
    List.fold_left
      (fun acc c ->
        match c with
        | C.S_for (v, pos, _) ->
          let acc = Static.SSet.add v acc in
          (match pos with Some p -> Static.SSet.add p acc | None -> acc)
        | C.S_let (v, _) -> Static.SSet.add v acc
        | C.S_where _ -> acc)
      subs clauses
  | _ -> subs

(* No rule consults the value of a string literal: a shape-keyed
   compile turns string literals into parameters ([C.Param]), and the
   plan it caches must be the plan the literal text would get, so
   string scalars are as opaque here as parameters are. *)
let is_string = function C.Scalar (Xqb_xdm.Atomic.String _) -> true | _ -> false

(* Constant EBV of a scalar, when defined. *)
let const_ebv (e : C.expr) : bool option =
  match e with
  | C.Empty -> Some false
  | C.Call_builtin ("true", []) -> Some true
  | C.Call_builtin ("false", []) -> Some false
  | C.Scalar a -> (
    match a with
    | Xqb_xdm.Atomic.Boolean b -> Some b
    | Xqb_xdm.Atomic.Integer i -> Some (i <> 0)
    | Xqb_xdm.Atomic.String _ -> None
    | Xqb_xdm.Atomic.Untyped s -> Some (s <> "")
    | Xqb_xdm.Atomic.Decimal f | Xqb_xdm.Atomic.Double f ->
      Some (not (f = 0.0 || Float.is_nan f))
    | Xqb_xdm.Atomic.QName _ -> None)
  | _ -> None

(* One bottom-up pass. *)
let rec pass ~purity stats (e : C.expr) : C.expr =
  let e = C.map_subs (pass ~purity stats) e in
  let pure x = purity x = Static.Pure in
  match e with
  | C.If (c, t, f) -> (
    match const_ebv c with
    | Some b ->
      bump stats "if-const";
      if b then t else f
    | None -> e)
  | C.Let (v, e1, body) -> (
    match occurrences v body with
    | 0 when pure e1 ->
      bump stats "dead-let";
      body
    | 1
      when (* Copy propagation only: inlining a general pure
              expression is unsound here even when used once — it
              moves the evaluation *later*, across code whose effects
              (applied inner snaps) it might observe, and node
              constructors are pure but not referentially transparent
              (fresh identity per evaluation). Variables and literals
              are immune to both. *)
           (match e1 with C.Var _ | C.Scalar _ | C.Param _ -> true | _ -> false)
           && Static.SSet.disjoint (Static.free_vars e1) (binders body) ->
      bump stats "inline-let";
      substitute v e1 body
    | _ -> e)
  | C.For (_, _, C.Empty, _) ->
    bump stats "for-empty";
    C.Empty
  | C.For (v, None, ((C.Scalar _ | C.Param _) as item), body) ->
    (* a for over one item binds exactly like a let *)
    bump stats "for-singleton";
    C.Let (v, item, body)
  | C.Seq (C.Empty, b) ->
    bump stats "seq-empty";
    b
  | C.Seq (a, C.Empty) ->
    bump stats "seq-empty";
    a
  | C.Binop (op, (C.Scalar x as a), (C.Scalar y as b))
    when not (is_string a || is_string b) -> (
    match op with
    | A.Add | A.Sub | A.Mul | A.Div | A.Idiv | A.Mod -> (
      match Xqb_xdm.Atomic.arith (arith_of op) x y with
      | r ->
        bump stats "const-fold";
        C.Scalar r
      | exception _ -> e (* folding would move the error to compile time *))
    | A.Gen_eq | A.Gen_ne | A.Gen_lt | A.Gen_le | A.Gen_gt | A.Gen_ge -> (
      match Xqb_xdm.Atomic.general_compare (cmp_of op) x y with
      | b ->
        bump stats "const-fold";
        C.Scalar (Xqb_xdm.Atomic.Boolean b)
      | exception _ -> e)
    | _ -> e)
  (* only boolean constants: a numeric constant predicate is
     positional *)
  | C.Predicate (input, (C.Scalar (Xqb_xdm.Atomic.Boolean _) as p))
  | C.Predicate (input, (C.Call_builtin (("true" | "false"), []) as p)) -> (
    match const_ebv p with
    | Some true ->
      bump stats "pred-true";
      input
    | Some false when pure input ->
      bump stats "pred-false";
      C.Empty
    | _ -> e)
  | C.Call_builtin ("%ddo", [ C.Call_builtin ("%ddo", [ inner ]) ]) ->
    bump stats "ddo-ddo";
    C.Call_builtin ("%ddo", [ inner ])
  (* e//T: descendant-or-self::node()/child::T  =>  descendant::T —
     every descendant is the child of some node on the dos axis, so
     the sets coincide; the descendant form feeds the store's
     element-name index. *)
  | C.Call_builtin
      ( "%ddo",
        [
          C.Step
            ( C.Call_builtin
                ("%ddo", [ C.Step (b, Xqb_store.Axes.Descendant_or_self, Xqb_store.Axes.Kind_node) ]),
              Xqb_store.Axes.Child,
              test );
        ] ) ->
    bump stats "descendant-step";
    C.Call_builtin ("%ddo", [ C.Step (b, Xqb_store.Axes.Descendant, test) ])
  (* e//T[p] with a provably non-positional p: the per-parent
     predicate grouping only matters for positional predicates, so the
     flattened descendant form is equivalent. *)
  | C.Call_builtin
      ( "%ddo",
        [
          C.For
            ( dot,
              None,
              C.Call_builtin
                ("%ddo", [ C.Step (b, Xqb_store.Axes.Descendant_or_self, Xqb_store.Axes.Kind_node) ]),
              C.Predicate (C.Step (C.Var dot', Xqb_store.Axes.Child, test), p) );
        ] )
    when String.equal dot dot' && occurrences dot p = 0 && non_positional p ->
    bump stats "descendant-step-pred";
    C.Call_builtin ("%ddo", [ C.Predicate (C.Step (b, Xqb_store.Axes.Descendant, test), p) ])
  (* descendant::elem[@attr = rhs] with a pure, focus-free rhs: the
     form [Eval] can serve from the attribute-value key index. The rhs
     moves from per-item to once-per-evaluation — legal because it is
     pure (no ∆-cardinality change) and focus-free (same value every
     iteration). *)
  | C.Predicate
      ( C.Step (b, Xqb_store.Axes.Descendant, Xqb_store.Axes.Name elem),
        C.Binop (A.Gen_eq, lhs, rhs) ) -> (
    let attr_of = function
      | C.Call_builtin
          ("%ddo", [ C.Step (C.Context_item, Xqb_store.Axes.Attribute, Xqb_store.Axes.Name a) ])
        ->
        Some a
      | _ -> None
    in
    let mk attr key =
      if purity key = Static.Pure && not (uses_focus key) then begin
        bump stats "key-step";
        Some (C.Key_step (b, elem, attr, key))
      end
      else None
    in
    let rewritten =
      match attr_of lhs, attr_of rhs with
      | Some attr, None -> mk attr rhs
      | None, Some attr -> mk attr lhs
      | _ -> None
    in
    match rewritten with Some e' -> e' | None -> e)
  | e -> e

(* A predicate is provably non-positional when it mentions no
   position()/last(), calls no user functions (which could), and its
   inferred type rules out the numeric-predicate reading. *)
and non_positional (p : C.expr) : bool =
  let rec mentions_position e =
    match e with
    | C.Call_builtin (("position" | "last"), []) -> true
    | C.Call_user _ -> true (* conservative *)
    | _ -> List.exists mentions_position (C.sub_exprs e)
  in
  (not (mentions_position p))
  &&
  let t, _ = Typing.infer_expr p in
  match t.Typing.item with
  | Typing.T_atomic (Typing.K_boolean | Typing.K_string) -> true
  | Typing.T_element | Typing.T_attribute | Typing.T_text | Typing.T_comment
  | Typing.T_pi | Typing.T_document | Typing.T_node ->
    true
  | Typing.T_atomic _ | Typing.T_item -> false

and arith_of : A.binop -> Xqb_xdm.Atomic.arith_op = function
  | A.Add -> Xqb_xdm.Atomic.Add
  | A.Sub -> Xqb_xdm.Atomic.Sub
  | A.Mul -> Xqb_xdm.Atomic.Mul
  | A.Div -> Xqb_xdm.Atomic.Div
  | A.Idiv -> Xqb_xdm.Atomic.Idiv
  | A.Mod -> Xqb_xdm.Atomic.Mod
  | _ -> assert false

and cmp_of : A.binop -> Xqb_xdm.Atomic.cmp_op = function
  | A.Gen_eq -> Xqb_xdm.Atomic.Eq
  | A.Gen_ne -> Xqb_xdm.Atomic.Ne
  | A.Gen_lt -> Xqb_xdm.Atomic.Lt
  | A.Gen_le -> Xqb_xdm.Atomic.Le
  | A.Gen_gt -> Xqb_xdm.Atomic.Gt
  | A.Gen_ge -> Xqb_xdm.Atomic.Ge
  | _ -> assert false

(* Simplify to a fixpoint (bounded). Returns the rewritten expression
   and a count per fired rule. *)
let simplify ~purity (e : C.expr) : C.expr * (string * int) list =
  let stats = ref [] in
  let rec go i e =
    if i >= 10 then e
    else
      let before = !stats in
      let e' = pass ~purity stats e in
      if !stats = before then e' else go (i + 1) e'
  in
  let e = go 0 e in
  (e, !stats)
