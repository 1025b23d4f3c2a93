(* A lightweight static type system — the paper leaves static typing
   as an open issue ("The proposal leaves many issues open for further
   investigation, such as static typing..."); this module implements
   the conservative fragment that is useful without schema import:

   - sequence-type *inference* over the core language (item-kind
     lattice x occurrence lattice), always sound: the inferred type
     over-approximates every possible runtime value;
   - *warnings* for expressions whose inferred type proves a dynamic
     error or a dead spot (arithmetic on a guaranteed string, a path
     step over guaranteed atomics, an argument that cannot match its
     parameter type, EBV of a guaranteed multi-atomic sequence).

   Warnings never block execution (the language stays dynamically
   typed); the engine surfaces them on [compile]. *)

module C = Core_ast
module A = Xqb_syntax.Ast

(* -- the type lattice ------------------------------------------------ *)

type atomic_kind =
  | K_integer
  | K_decimal
  | K_double
  | K_numeric  (* any of the above *)
  | K_string
  | K_boolean
  | K_untyped
  | K_qname
  | K_any_atomic

type item_ty =
  | T_atomic of atomic_kind
  | T_element
  | T_attribute
  | T_text
  | T_comment
  | T_pi
  | T_document
  | T_node  (* any node kind *)
  | T_item  (* anything *)

(* Occurrence: how many items the value may contain. *)
type occ = O_zero | O_one | O_opt | O_star | O_plus

type t = { item : item_ty; occ : occ }

let empty_ty = { item = T_item; occ = O_zero }
let item_star = { item = T_item; occ = O_star }

let atomic_kind_to_string = function
  | K_integer -> "xs:integer"
  | K_decimal -> "xs:decimal"
  | K_double -> "xs:double"
  | K_numeric -> "xs:numeric"
  | K_string -> "xs:string"
  | K_boolean -> "xs:boolean"
  | K_untyped -> "xs:untypedAtomic"
  | K_qname -> "xs:QName"
  | K_any_atomic -> "xs:anyAtomicType"

let item_ty_to_string = function
  | T_atomic k -> atomic_kind_to_string k
  | T_element -> "element()"
  | T_attribute -> "attribute()"
  | T_text -> "text()"
  | T_comment -> "comment()"
  | T_pi -> "processing-instruction()"
  | T_document -> "document-node()"
  | T_node -> "node()"
  | T_item -> "item()"

let occ_to_string = function
  | O_zero -> " (empty)"
  | O_one -> ""
  | O_opt -> "?"
  | O_star -> "*"
  | O_plus -> "+"

let to_string ty =
  if ty.occ = O_zero then "empty-sequence()"
  else item_ty_to_string ty.item ^ occ_to_string ty.occ

(* joins *)

let join_kind a b =
  if a = b then a
  else
    match a, b with
    | (K_integer | K_decimal | K_double | K_numeric), (K_integer | K_decimal | K_double | K_numeric)
      ->
      K_numeric
    | _ -> K_any_atomic

let join_item a b =
  if a = b then a
  else
    match a, b with
    | T_atomic x, T_atomic y -> T_atomic (join_kind x y)
    | ( (T_element | T_attribute | T_text | T_comment | T_pi | T_document | T_node),
        (T_element | T_attribute | T_text | T_comment | T_pi | T_document | T_node) )
      ->
      T_node
    | _ -> T_item

let join_occ a b =
  match a, b with
  | O_zero, x | x, O_zero -> ( match x with O_one | O_plus -> O_opt | O_zero -> O_zero | o -> if o = O_plus then O_star else if o = O_one then O_opt else o)
  | O_one, O_one -> O_one
  | O_plus, (O_one | O_plus) | O_one, O_plus -> O_plus
  | O_opt, (O_one | O_opt) | O_one, O_opt -> O_opt
  | _ -> O_star

let join a b =
  if a.occ = O_zero then { b with occ = join_occ a.occ b.occ }
  else if b.occ = O_zero then { a with occ = join_occ a.occ b.occ }
  else { item = join_item a.item b.item; occ = join_occ a.occ b.occ }

(* sequence concatenation: occurrences add *)
let occ_concat a b =
  match a, b with
  | O_zero, x | x, O_zero -> x
  | (O_one | O_plus), (O_one | O_plus) -> O_plus
  | (O_one | O_plus), (O_opt | O_star) | (O_opt | O_star), (O_one | O_plus) ->
    O_plus
  | (O_opt | O_star), (O_opt | O_star) -> O_star

let concat a b =
  if a.occ = O_zero then b
  else if b.occ = O_zero then a
  else { item = join_item a.item b.item; occ = occ_concat a.occ b.occ }

(* iteration (for-loop): body occurrence multiplied by input count *)
let occ_iterate input body =
  match input, body with
  | O_zero, _ | _, O_zero -> O_zero
  | O_one, b -> b
  | O_plus, O_one -> O_plus
  | O_plus, O_plus -> O_plus
  | _ -> O_star

(* can the value be plural? / must it be non-empty? *)
let may_be_plural o = match o with O_plus | O_star -> true | O_zero | O_one | O_opt -> false
let must_be_nonempty o = match o with O_one | O_plus -> true | O_zero | O_opt | O_star -> false

(* definitely an atomic (never a node)? *)
let definitely_atomic = function T_atomic _ -> true | _ -> false

(* atomization type *)
let atomized ty =
  match ty.item with
  | T_atomic _ -> ty
  | T_item -> { ty with item = T_atomic K_any_atomic }
  | _ -> { ty with item = T_atomic K_untyped }

(* can atomized values of this kind be used in arithmetic? *)
let arith_ok = function
  | K_integer | K_decimal | K_double | K_numeric | K_untyped | K_any_atomic -> true
  | K_string | K_boolean | K_qname -> false

(* -- declared sequence types -> inferred types ----------------------- *)

let of_seq_type (st : A.seq_type) : t =
  match st with
  | A.St_empty -> empty_ty
  | A.St (it, occ) ->
    let item =
      match it with
      | A.It_atomic q -> (
        match Xqb_xml.Qname.to_string q with
        | "xs:integer" -> T_atomic K_integer
        | "xs:decimal" -> T_atomic K_decimal
        | "xs:double" | "xs:float" -> T_atomic K_double
        | "xs:string" -> T_atomic K_string
        | "xs:boolean" -> T_atomic K_boolean
        | "xs:untypedAtomic" -> T_atomic K_untyped
        | "xs:QName" -> T_atomic K_qname
        | _ -> T_atomic K_any_atomic)
      | A.It_item -> T_item
      | A.It_node -> T_node
      | A.It_element _ -> T_element
      | A.It_attribute _ -> T_attribute
      | A.It_text -> T_text
      | A.It_comment -> T_comment
      | A.It_pi -> T_pi
      | A.It_document -> T_document
    in
    let occ =
      match occ with
      | A.Occ_one -> O_one
      | A.Occ_opt -> O_opt
      | A.Occ_star -> O_star
      | A.Occ_plus -> O_plus
    in
    { item; occ }

(* do an inferred type and a declared type certainly NOT overlap? *)
let disjoint_with_declared (inferred : t) (declared : t) =
  let items_disjoint =
    match inferred.item, declared.item with
    | T_item, _ | _, T_item -> false
    | T_atomic a, T_atomic b -> (
      match a, b with
      | x, y when x = y -> false
      | (K_any_atomic | K_untyped), _ | _, (K_any_atomic | K_untyped) ->
        (* untyped casts to anything at function boundaries? we only
           match structurally, so untyped vs string IS disjoint for
           instance-of-style matching; stay conservative: overlap *)
        false
      | (K_integer | K_decimal | K_double | K_numeric),
        (K_integer | K_decimal | K_double | K_numeric) ->
        (* promotion makes the whole numeric tower overlap *)
        false
      | _ -> true)
    | T_atomic _, _ | _, T_atomic _ -> true
    | T_node, _ | _, T_node -> false
    | a, b -> a <> b
  in
  let occ_disjoint =
    match inferred.occ, declared.occ with
    | O_zero, (O_one | O_plus) -> true
    | (O_one | O_plus), O_zero -> true
    | _ -> false
  in
  occ_disjoint || (items_disjoint && must_be_nonempty inferred.occ
                   && declared.occ <> O_zero)

(* -- inference -------------------------------------------------------- *)

module SMap = Map.Make (String)

type env = {
  vars : t SMap.t;
  (* declared return types of user functions *)
  fn_ret : (string * int, t) Hashtbl.t;
  mutable warnings : string list;
}

let warn env fmt = Format.kasprintf (fun s -> env.warnings <- s :: env.warnings) fmt

let scalar_ty (a : Xqb_xdm.Atomic.t) =
  let k =
    match a with
    | Xqb_xdm.Atomic.Integer _ -> K_integer
    | Xqb_xdm.Atomic.Decimal _ -> K_decimal
    | Xqb_xdm.Atomic.Double _ -> K_double
    | Xqb_xdm.Atomic.String _ -> K_string
    | Xqb_xdm.Atomic.Boolean _ -> K_boolean
    | Xqb_xdm.Atomic.Untyped _ -> K_untyped
    | Xqb_xdm.Atomic.QName _ -> K_qname
  in
  { item = T_atomic k; occ = O_one }

(* result types of the builtins we can say something about *)
let builtin_ty name (_args : t list) : t =
  let one item = { item; occ = O_one } in
  match name with
  | "count" | "position" | "last" | "string-length" | "string-to-codepoints" ->
    one (T_atomic K_integer)
  | "true" | "false" | "not" | "boolean" | "empty" | "exists" | "contains"
  | "starts-with" | "ends-with" | "deep-equal" | "matches" | "doc-available" ->
    one (T_atomic K_boolean)
  | "string" | "concat" | "string-join" | "substring" | "substring-before"
  | "substring-after" | "upper-case" | "lower-case" | "translate"
  | "normalize-space" | "name" | "local-name" | "codepoints-to-string"
  | "replace" | "%avt-part" ->
    one (T_atomic K_string)
  | "number" -> one (T_atomic K_double)
  | "sum" -> one (T_atomic K_numeric)
  | "avg" | "abs" | "floor" | "ceiling" | "round" | "round-half-to-even" ->
    { item = T_atomic K_numeric; occ = O_opt }
  | "doc" | "root" -> one T_node
  | "%ddo" | "%ddo-elided" -> { item = T_node; occ = O_star }
  | "data" | "distinct-values" -> { item = T_atomic K_any_atomic; occ = O_star }
  | "node-name" -> { item = T_atomic K_qname; occ = O_opt }
  | "tokenize" -> { item = T_atomic K_string; occ = O_star }
  | "id" -> { item = T_element; occ = O_star }
  | "xs:integer" -> one (T_atomic K_integer)
  | "xs:decimal" -> one (T_atomic K_decimal)
  | "xs:double" -> one (T_atomic K_double)
  | "xs:string" -> one (T_atomic K_string)
  | "xs:boolean" -> one (T_atomic K_boolean)
  | "xs:QName" -> one (T_atomic K_qname)
  | "xs:untypedAtomic" -> one (T_atomic K_untyped)
  | _ -> item_star

let rec infer env (vars : t SMap.t) (e : C.expr) : t =
  match e with
  | C.Scalar a -> scalar_ty a
  | C.Param _ -> scalar_ty (Xqb_xdm.Atomic.String "")
  | C.Var v -> ( match SMap.find_opt v vars with Some t -> t | None -> item_star)
  | C.Context_item -> { item = T_item; occ = O_one }
  | C.Empty -> empty_ty
  | C.Seq (a, b) -> concat (infer env vars a) (infer env vars b)
  | C.For (v, pos, e1, body) ->
    let t1 = infer env vars e1 in
    let vars' = SMap.add v { t1 with occ = O_one } vars in
    let vars' =
      match pos with
      | Some p -> SMap.add p { item = T_atomic K_integer; occ = O_one } vars'
      | None -> vars'
    in
    let tb = infer env vars' body in
    if t1.occ = O_zero then empty_ty
    else { item = tb.item; occ = occ_iterate t1.occ tb.occ }
  | C.Let (v, e1, body) ->
    let t1 = infer env vars e1 in
    infer env (SMap.add v t1 vars) body
  | C.If (c, t, f) ->
    check_ebv env vars c "if condition";
    join (infer env vars t) (infer env vars f)
  | C.Sort_flwor (clauses, specs, ret) ->
    let vars', multiplier =
      List.fold_left
        (fun (vars, mult) cl ->
          match cl with
          | C.S_for (v, pos, e) ->
            let t1 = infer env vars e in
            let vars = SMap.add v { t1 with occ = O_one } vars in
            let vars =
              match pos with
              | Some p -> SMap.add p { item = T_atomic K_integer; occ = O_one } vars
              | None -> vars
            in
            (vars, occ_iterate mult t1.occ)
          | C.S_let (v, e) ->
            let t1 = infer env vars e in
            (SMap.add v t1 vars, mult)
          | C.S_where e ->
            check_ebv env vars e "where clause";
            (vars, join_occ mult O_zero))
        (vars, O_one) clauses
    in
    List.iter (fun (k, _) -> ignore (infer env vars' k)) specs;
    let tr = infer env vars' ret in
    { item = tr.item; occ = occ_iterate multiplier tr.occ }
  | C.Some_sat (v, e1, body) | C.Every_sat (v, e1, body) ->
    let t1 = infer env vars e1 in
    check_ebv env (SMap.add v { t1 with occ = O_one } vars) body "satisfies clause";
    { item = T_atomic K_boolean; occ = O_one }
  | C.Step (input, axis, test) ->
    let ti = infer env vars input in
    if definitely_atomic ti.item && ti.occ <> O_zero then
      warn env "path step over a value of type %s (a node is required)"
        (to_string ti);
    let item =
      match test, axis with
      | Xqb_store.Axes.Kind_text, _ -> T_text
      | Xqb_store.Axes.Kind_comment, _ -> T_comment
      | Xqb_store.Axes.Kind_document, _ -> T_document
      | Xqb_store.Axes.Kind_attribute _, _ -> T_attribute
      | Xqb_store.Axes.Kind_element _, _ -> T_element
      | (Xqb_store.Axes.Name _ | Xqb_store.Axes.Wildcard), Xqb_store.Axes.Attribute
        ->
        T_attribute
      | (Xqb_store.Axes.Name _ | Xqb_store.Axes.Wildcard), _ -> T_element
      | _ -> T_node
    in
    { item; occ = O_star }
  | C.Map (a, b) ->
    let ta = infer env vars a in
    let tb = infer env vars b in
    { item = tb.item; occ = occ_iterate ta.occ tb.occ }
  | C.Key_step (base, _, _, rhs) ->
    ignore (infer env vars base);
    ignore (infer env vars rhs);
    { item = T_element; occ = O_star }
  | C.Predicate (input, pred) ->
    let ti = infer env vars input in
    ignore (infer env vars pred);
    { ti with occ = (match ti.occ with O_zero -> O_zero | _ -> O_star) }
  | C.Binop (op, a, b) -> infer_binop env vars op a b
  | C.Unary_minus a ->
    let ta = atomized (infer env vars a) in
    (match ta.item with
    | T_atomic k when not (arith_ok k) ->
      warn env "unary minus on %s" (to_string ta)
    | _ -> ());
    { item = T_atomic K_numeric; occ = (match ta.occ with O_zero -> O_zero | O_one | O_plus -> O_one | _ -> O_opt) }
  | C.Call_builtin (name, args) ->
    let targs = List.map (infer env vars) args in
    builtin_ty name targs
  | C.Call_user (f, args) -> (
    let targs = List.map (infer env vars) args in
    ignore targs;
    match Hashtbl.find_opt env.fn_ret (Xqb_xml.Qname.to_string f, List.length args) with
    | Some t -> t
    | None -> item_star)
  | C.Instance_of (a, _) | C.Castable_as (a, _) ->
    ignore (infer env vars a);
    { item = T_atomic K_boolean; occ = O_one }
  | C.Cast_as (a, it) ->
    ignore (infer env vars a);
    of_seq_type (A.St (it, A.Occ_one))
  | C.Treat_as (a, st) ->
    ignore (infer env vars a);
    of_seq_type st
  | C.Elem (ns, content) ->
    infer_name env vars ns;
    ignore (infer env vars content);
    { item = T_element; occ = O_one }
  | C.Attr (ns, content) ->
    infer_name env vars ns;
    ignore (infer env vars content);
    { item = T_attribute; occ = O_one }
  | C.Text_node a ->
    let t = infer env vars a in
    { item = T_text; occ = (match t.occ with O_zero -> O_zero | O_one | O_plus -> O_one | _ -> O_opt) }
  | C.Comment_node a ->
    ignore (infer env vars a);
    { item = T_comment; occ = O_one }
  | C.Pi_node (ns, a) ->
    infer_name env vars ns;
    ignore (infer env vars a);
    { item = T_pi; occ = O_one }
  | C.Doc_node a ->
    ignore (infer env vars a);
    { item = T_document; occ = O_one }
  | C.Copy a ->
    let t = infer env vars a in
    { t with item = t.item }
  | C.Insert (_, payload, target, _) ->
    ignore (infer env vars payload);
    let tt = infer env vars target in
    if definitely_atomic tt.item && tt.occ <> O_zero then
      warn env "insert target has type %s (a node is required)" (to_string tt);
    empty_ty
  | C.Delete (a, _) ->
    let t = infer env vars a in
    if definitely_atomic t.item && must_be_nonempty t.occ then
      warn env "delete of a value of type %s (nodes required)" (to_string t);
    empty_ty
  | C.Replace (a, b, _) | C.Replace_value (a, b, _) | C.Rename (a, b, _) ->
    let ta = infer env vars a in
    ignore (infer env vars b);
    if definitely_atomic ta.item && ta.occ <> O_zero then
      warn env "update target has type %s (a node is required)" (to_string ta);
    empty_ty
  | C.Snap (_, a) -> infer env vars a

and infer_name env vars = function
  | C.Static _ -> ()
  | C.Dynamic e -> ignore (infer env vars e)

and check_ebv env vars e what =
  let t = infer env vars e in
  if definitely_atomic t.item && may_be_plural t.occ && t.occ = O_plus then
    warn env
      "%s always has two or more atomic items: its effective boolean value is an error"
      what;
  ()

and infer_binop env vars (op : A.binop) a b =
  let ta = infer env vars a in
  let tb = infer env vars b in
  let bool_one = { item = T_atomic K_boolean; occ = O_one } in
  match op with
  | A.Or | A.And ->
    check_ebv env vars a "operand of and/or";
    check_ebv env vars b "operand of and/or";
    bool_one
  | A.Gen_eq | A.Gen_ne | A.Gen_lt | A.Gen_le | A.Gen_gt | A.Gen_ge -> bool_one
  | A.Val_eq | A.Val_ne | A.Val_lt | A.Val_le | A.Val_gt | A.Val_ge ->
    { item = T_atomic K_boolean;
      occ =
        (if must_be_nonempty ta.occ && must_be_nonempty tb.occ then O_one
         else O_opt);
    }
  | A.Is | A.Precedes | A.Follows -> { item = T_atomic K_boolean; occ = O_opt }
  | A.Add | A.Sub | A.Mul | A.Div | A.Idiv | A.Mod ->
    let check side t =
      let at = atomized t in
      match at.item with
      | T_atomic k when not (arith_ok k) && must_be_nonempty t.occ ->
        warn env "%s operand of %s has type %s" side (A.binop_to_string op)
          (to_string at)
      | _ -> ()
    in
    check "left" ta;
    check "right" tb;
    let occ =
      if must_be_nonempty ta.occ && must_be_nonempty tb.occ then O_one else O_opt
    in
    { item = T_atomic K_numeric; occ }
  | A.To -> { item = T_atomic K_integer; occ = O_star }
  | A.Union | A.Intersect | A.Except ->
    { item = join_item ta.item tb.item; occ = O_star }

(* -- whole programs --------------------------------------------------- *)

(* Infer a program; returns the warnings (empty = no definite
   problems found). Function parameter/return annotations seed the
   environment; unannotated positions default to item()*. *)
let check_prog (prog : Normalize.prog) : string list =
  let env = { vars = SMap.empty; fn_ret = Hashtbl.create 8; warnings = [] } in
  (* declared return types first (mutual recursion) *)
  List.iter
    (fun (f : Normalize.func) ->
      match f.Normalize.return_type with
      | Some st ->
        Hashtbl.replace env.fn_ret
          (Xqb_xml.Qname.to_string f.Normalize.fname, List.length f.Normalize.params)
          (of_seq_type st)
      | None -> ())
    prog.Normalize.functions;
  let globals =
    List.fold_left
      (fun vars (v, ty, e) ->
        let inferred = infer env vars e in
        let t =
          match ty with
          | Some st ->
            let declared = of_seq_type st in
            if disjoint_with_declared inferred declared then
              warn env "global $%s has type %s but is declared %s" v
                (to_string inferred) (to_string declared);
            declared
          | None -> inferred
        in
        SMap.add v t vars)
      SMap.empty prog.Normalize.global_vars
  in
  List.iter
    (fun (f : Normalize.func) ->
      let vars =
        List.fold_left
          (fun vars (p, ty) ->
            SMap.add p
              (match ty with Some st -> of_seq_type st | None -> item_star)
              vars)
          globals f.Normalize.params
      in
      let tb = infer env vars f.Normalize.body in
      match f.Normalize.return_type with
      | Some st when disjoint_with_declared tb (of_seq_type st) ->
        warn env "function %s returns %s but is declared %s"
          (Xqb_xml.Qname.to_string f.Normalize.fname)
          (to_string tb)
          (to_string (of_seq_type st))
      | _ -> ())
    prog.Normalize.functions;
  (match prog.Normalize.body with
  | Some body -> ignore (infer env globals body)
  | None -> ());
  List.rev env.warnings

(* Expression-level entry point for tests. *)
let infer_expr ?(vars = SMap.empty) (e : C.expr) : t * string list =
  let env = { vars = SMap.empty; fn_ret = Hashtbl.create 1; warnings = [] } in
  let t = infer env vars e in
  (t, List.rev env.warnings)
