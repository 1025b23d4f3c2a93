(* Normalization of the surface language into the XQuery! core
   (§3.3). "The syntax of XQuery! core for update operations is almost
   identical to that of the surface language. The only non-trivial
   normalization effect is the insertion of a deep copy operator
   around the first argument of insert ... the same happens to the
   second argument of replace."

   Beyond the paper's rule we perform the standard XQuery 1.0
   normalizations: FLWOR chains to nested for/let/if, paths to
   per-context-node iteration with distinct-doc-order, direct
   constructors to computed constructors, function resolution. *)

module A = Xqb_syntax.Ast
module C = Core_ast
module Qname = Xqb_xml.Qname

exception Static_error of string

let static_error fmt = Format.kasprintf (fun s -> raise (Static_error s)) fmt

type env = {
  user_fns : (Qname.t * int) list;
  is_builtin : string -> int -> bool;  (* canonical name, arity *)
}

let fresh_counter = ref 0

let fresh_var base =
  incr fresh_counter;
  Printf.sprintf "%%%s%d" base !fresh_counter

(* A name resolves to a builtin when it has no prefix or the fn:
   prefix. *)
let builtin_name q =
  match Qname.prefix q with
  | "" | "fn" -> Some (Qname.local q)
  | "xs" -> Some ("xs:" ^ Qname.local q)  (* constructor functions *)
  | _ -> None

let rec normalize env (e : A.expr) : C.expr =
  match e with
  | A.Literal (A.Lit_integer i) -> C.Scalar (Xqb_xdm.Atomic.Integer i)
  | A.Literal (A.Lit_decimal f) -> C.Scalar (Xqb_xdm.Atomic.Decimal f)
  | A.Literal (A.Lit_double f) -> C.Scalar (Xqb_xdm.Atomic.Double f)
  | A.Literal (A.Lit_string s) -> C.Scalar (Xqb_xdm.Atomic.String s)
  | A.Param i -> C.Param i
  | A.Var v -> C.Var v
  | A.Context_item -> C.Context_item
  | A.Seq [] -> C.Empty
  | A.Seq es ->
    let rec build = function
      | [] -> C.Empty
      | [ e ] -> normalize env e
      | e :: rest -> C.Seq (normalize env e, build rest)
    in
    build es
  | A.Root -> C.Call_builtin ("root", [ C.Context_item ])
  | A.Path (base, step) -> normalize_path env base step
  | A.Path_general (l, r) -> C.Map (normalize env l, normalize env r)
  | A.Filter (e, preds) ->
    List.fold_left
      (fun acc p -> C.Predicate (acc, normalize env p))
      (normalize env e) preds
  | A.Flwor (clauses, None, ret) ->
    let rec build = function
      | [] -> normalize env ret
      | A.For bindings :: rest ->
        List.fold_right
          (fun (v, pos, e) body -> C.For (v, pos, normalize env e, body))
          bindings (build rest)
      | A.Let bindings :: rest ->
        List.fold_right
          (fun (v, e) body -> C.Let (v, normalize env e, body))
          bindings (build rest)
      | A.Where cond :: rest -> C.If (normalize env cond, build rest, C.Empty)
    in
    build clauses
  | A.Flwor (clauses, Some specs, ret) ->
    let ncl =
      List.concat_map
        (fun c ->
          match c with
          | A.For bindings ->
            List.map (fun (v, pos, e) -> C.S_for (v, pos, normalize env e)) bindings
          | A.Let bindings ->
            List.map (fun (v, e) -> C.S_let (v, normalize env e)) bindings
          | A.Where e -> [ C.S_where (normalize env e) ])
        clauses
    in
    let nspecs = List.map (fun (e, d) -> (normalize env e, d)) specs in
    C.Sort_flwor (ncl, nspecs, normalize env ret)
  | A.Quantified (q, bindings, sat) ->
    let mk v e body =
      match q with
      | A.Some_q -> C.Some_sat (v, e, body)
      | A.Every_q -> C.Every_sat (v, e, body)
    in
    List.fold_right
      (fun (v, e) body -> mk v (normalize env e) body)
      bindings (normalize env sat)
  | A.If (c, t, e) -> C.If (normalize env c, normalize env t, normalize env e)
  | A.Binop (op, l, r) -> C.Binop (op, normalize env l, normalize env r)
  | A.Unary_minus e -> C.Unary_minus (normalize env e)
  | A.Call (f, args) -> normalize_call env f args
  | A.Instance_of (e, t) -> C.Instance_of (normalize env e, t)
  | A.Cast_as (e, t) -> C.Cast_as (normalize env e, t)
  | A.Castable_as (e, t) -> C.Castable_as (normalize env e, t)
  | A.Treat_as (e, t) -> C.Treat_as (normalize env e, t)
  (* typeswitch normalizes to the standard let/instance-of cascade
     (XQuery 1.0 core). *)
  | A.Typeswitch (scrut, cases, dv, dbody) ->
    let sv = fresh_var "ts" in
    let rec cascade = function
      | [] ->
        let body = normalize env dbody in
        (match dv with
        | Some v -> C.Let (v, C.Var sv, body)
        | None -> body)
      | (v, ty, body) :: rest ->
        let nbody = normalize env body in
        let nbody =
          match v with Some v -> C.Let (v, C.Var sv, nbody) | None -> nbody
        in
        C.If (C.Instance_of (C.Var sv, ty), nbody, cascade rest)
    in
    C.Let (sv, normalize env scrut, cascade cases)
  | A.Dir_elem (name, attrs, content) ->
    let attr_exprs =
      List.map
        (fun (an, avts) -> C.Attr (C.Static an, normalize_avt env avts))
        attrs
    in
    let content_exprs = List.map (normalize_content env) content in
    C.Elem (C.Static name, seq_of (attr_exprs @ content_exprs))
  | A.Comp_elem (ns, content) ->
    C.Elem (normalize_name_spec env ns, normalize env content)
  | A.Comp_attr (ns, content) ->
    C.Attr (normalize_name_spec env ns, normalize env content)
  | A.Comp_text e -> C.Text_node (normalize env e)
  | A.Comp_comment e -> C.Comment_node (normalize env e)
  | A.Comp_pi (ns, e) -> C.Pi_node (normalize_name_spec env ns, normalize env e)
  | A.Comp_doc e -> C.Doc_node (normalize env e)
  (* -- XQuery! operations; the paper's §3.3 rule inserts the deep
     copies here. -- *)
  | A.Insert (what, loc, kw_loc) ->
    let payload = C.Copy (normalize env what) in
    let target, dest =
      match loc with
      | A.Into e -> (C.T_last, e)  (* [into] => [as last into] *)
      | A.Into_as_first e -> (C.T_first, e)
      | A.Into_as_last e -> (C.T_last, e)
      | A.Before e -> (C.T_before, e)
      | A.After e -> (C.T_after, e)
    in
    C.Insert (target, payload, normalize env dest, kw_loc)
  | A.Delete (e, kw_loc) -> C.Delete (normalize env e, kw_loc)
  | A.Replace (e1, e2, kw_loc) ->
    C.Replace (normalize env e1, C.Copy (normalize env e2), kw_loc)
  (* replace value of node: the replacement is atomized, so no copy is
     needed — no node ends up with two parents. *)
  | A.Replace_value (e1, e2, kw_loc) ->
    C.Replace_value (normalize env e1, normalize env e2, kw_loc)
  | A.Rename (e1, e2, kw_loc) ->
    C.Rename (normalize env e1, normalize env e2, kw_loc)
  | A.Copy e -> C.Copy (normalize env e)
  (* XQUF transform is sugar the XQuery! core already expresses:
     copies bound by let, the modify clause under its own snap (its
     updates apply before the return clause runs), then the return.
     The XQUF restriction that modify only target the copies is not
     enforced (XQuery! is deliberately more permissive). *)
  | A.Transform (bindings, modify, ret) ->
    let body =
      C.Seq (C.Snap (A.Snap_ordered, normalize env modify), normalize env ret)
    in
    List.fold_right
      (fun (v, e) acc -> C.Let (v, C.Copy (normalize env e), acc))
      bindings body
  | A.Snap (mode, e) -> C.Snap (mode, normalize env e)

and seq_of = function
  | [] -> C.Empty
  | [ e ] -> e
  | e :: rest -> C.Seq (e, seq_of rest)

and normalize_name_spec env = function
  | A.Static_name q -> C.Static q
  | A.Dynamic_name e -> C.Dynamic (normalize env e)

(* Attribute value templates: text segments stay strings, enclosed
   expressions are atomized and space-joined; all segments are
   concatenated ("%avt" builtin). *)
and normalize_avt env (avts : A.avt list) : C.expr =
  match avts with
  | [] -> C.Scalar (Xqb_xdm.Atomic.String "")
  | [ A.Avt_text s ] -> C.Scalar (Xqb_xdm.Atomic.String s)
  | [ A.Avt_param i ] -> C.Param i  (* the hole stands where the text did *)
  | [ A.Avt_expr e ] -> C.Call_builtin ("%avt-part", [ normalize env e ])
  | segs ->
    let parts =
      List.map
        (function
          | A.Avt_text s -> C.Scalar (Xqb_xdm.Atomic.String s)
          | A.Avt_param i -> C.Param i
          | A.Avt_expr e -> C.Call_builtin ("%avt-part", [ normalize env e ]))
        segs
    in
    C.Call_builtin ("concat", parts)

and normalize_content env (c : A.content) : C.expr =
  match c with
  | A.C_text s -> C.Text_node (C.Scalar (Xqb_xdm.Atomic.String s))
  | A.C_expr e -> normalize env e
  | A.C_elem e -> normalize env e
  | A.C_comment s -> C.Comment_node (C.Scalar (Xqb_xdm.Atomic.String s))
  | A.C_pi (t, body) ->
    C.Pi_node
      (C.Static (Xqb_xml.Qname.make t), C.Scalar (Xqb_xdm.Atomic.String body))

and normalize_call env f args =
  let nargs = List.map (normalize env) args in
  let arity = List.length nargs in
  if List.exists (fun (g, n) -> Qname.equal f g && n = arity) env.user_fns then
    C.Call_user (f, nargs)
  else
    match builtin_name f with
    | Some name when env.is_builtin name arity -> C.Call_builtin (name, nargs)
    | _ ->
      static_error "unknown function %s/%d" (Qname.to_string f) arity

(* e/axis::test[p1][p2] normalizes to
     ddo(for $%dot in e return (($%dot/axis::test)[p1])[p2])
   so predicates see per-context-node position/size (XPath semantics)
   and the result is in document order without duplicates. *)
and normalize_path env base step =
  let nbase = normalize env base in
  let { A.axis; test; preds } = step in
  match preds with
  | [] -> C.Call_builtin ("%ddo", [ C.Step (nbase, axis, test) ])
  | _ ->
    let dot = fresh_var "dot" in
    let inner =
      List.fold_left
        (fun acc p -> C.Predicate (acc, normalize env p))
        (C.Step (C.Var dot, axis, test))
        preds
    in
    C.Call_builtin ("%ddo", [ C.For (dot, None, nbase, inner) ])

(* -- Programs -------------------------------------------------------- *)

type func = {
  fname : Qname.t;
  params : (string * A.seq_type option) list;
  return_type : A.seq_type option;
  body : C.expr;
}

type prog = {
  global_vars : (string * A.seq_type option * C.expr) list;
  functions : func list;
  body : C.expr option;
}

(* [extra_fns] lets the host contribute already-installed functions
   (e.g. a module compiled earlier in the same engine). *)
let normalize_prog ?(extra_fns = []) ~is_builtin (p : A.prog) : prog =
  let own_fns =
    List.filter_map
      (function
        | A.Decl_function (f, params, _, _) -> Some (f, List.length params)
        | A.Decl_variable _ -> None)
      p.A.prolog
  in
  (* Reject duplicate function declarations within this program (a
     declaration may shadow an [extra_fns] entry from the host). *)
  let rec check_dups = function
    | [] -> ()
    | (f, n) :: rest ->
      if List.exists (fun (g, m) -> Qname.equal f g && n = m) rest then
        static_error "duplicate function declaration %s/%d" (Qname.to_string f) n;
      check_dups rest
  in
  check_dups own_fns;
  let user_fns = own_fns @ extra_fns in
  let env = { user_fns; is_builtin } in
  let global_vars =
    List.filter_map
      (function
        | A.Decl_variable (v, ty, e) -> Some (v, ty, normalize env e)
        | A.Decl_function _ -> None)
      p.A.prolog
  in
  let functions =
    List.filter_map
      (function
        | A.Decl_function (f, params, ret, body) ->
          Some
            { fname = f; params; return_type = ret; body = normalize env body }
        | A.Decl_variable _ -> None)
      p.A.prolog
  in
  { global_vars; functions; body = Option.map (normalize env) p.A.body }
