(* Pretty-printer for the surface AST. Output re-parses to the same
   AST (checked by a qcheck round-trip property in the test suite), so
   it over-parenthesizes rather than track precedence minimally. *)

module A = Ast
module Axes = Xqb_store.Axes
module Qname = Xqb_xml.Qname

let escape_string_literal s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\"\""
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec expr buf (e : A.expr) =
  let add = Buffer.add_string buf in
  match e with
  | A.Literal (A.Lit_integer i) ->
    if i < 0 then add (Printf.sprintf "(%d)" i) else add (string_of_int i)
  | A.Literal (A.Lit_decimal f) -> add (Printf.sprintf "%.6f" f)
  | A.Literal (A.Lit_double f) ->
    (* a lexically valid DoubleLiteral: ensure an exponent part; INF
       and NaN have no literal form, so print the constructor call *)
    if Float.is_nan f then add "xs:double(\"NaN\")"
    else if f = Float.infinity then add "xs:double(\"INF\")"
    else if f = Float.neg_infinity then add "(-xs:double(\"INF\"))"
    else begin
      let s = Printf.sprintf "%.17g" f in
      if String.contains s 'e' || String.contains s 'E' then add s
      else add (s ^ "e0")
    end
  | A.Literal (A.Lit_string s) -> add ("\"" ^ escape_string_literal s ^ "\"")
  | A.Param i -> add ("?" ^ string_of_int i)  (* a hole: not source syntax *)
  | A.Var v -> add ("$" ^ v)
  | A.Context_item -> add "."
  | A.Seq [] -> add "()"
  | A.Seq es ->
    add "(";
    List.iteri
      (fun i e ->
        if i > 0 then add ", ";
        expr buf e)
      es;
    add ")"
  | A.Root -> add "/"
  | A.Path (A.Root, s) ->
    add "/";
    step buf s
  | A.Path (A.Context_item, s) -> step buf s
  | A.Path (e, s) ->
    sub buf e;
    add "/";
    step buf s
  | A.Path_general (l, r) ->
    sub buf l;
    add "/";
    sub buf r
  | A.Filter (e, preds) ->
    sub buf e;
    List.iter
      (fun pe ->
        add "[";
        expr buf pe;
        add "]")
      preds
  | A.Flwor (clauses, order, ret) ->
    add "(";
    List.iter
      (fun c ->
        (match c with
        | A.For bindings ->
          add "for ";
          List.iteri
            (fun i (v, pos, e) ->
              if i > 0 then add ", ";
              add ("$" ^ v);
              (match pos with Some pv -> add (" at $" ^ pv) | None -> ());
              add " in ";
              expr buf e)
            bindings
        | A.Let bindings ->
          add "let ";
          List.iteri
            (fun i (v, e) ->
              if i > 0 then add ", ";
              add ("$" ^ v ^ " := ");
              expr buf e)
            bindings
        | A.Where e ->
          add "where ";
          expr buf e);
        add " ")
      clauses;
    (match order with
    | None -> ()
    | Some specs ->
      add "order by ";
      List.iteri
        (fun i (e, dir) ->
          if i > 0 then add ", ";
          expr buf e;
          match dir with
          | A.Ascending -> ()
          | A.Descending -> add " descending")
        specs;
      add " ");
    add "return ";
    expr buf ret;
    add ")"
  | A.Quantified (q, bindings, sat) ->
    add "(";
    add (match q with A.Some_q -> "some " | A.Every_q -> "every ");
    List.iteri
      (fun i (v, e) ->
        if i > 0 then add ", ";
        add ("$" ^ v ^ " in ");
        expr buf e)
      bindings;
    add " satisfies ";
    expr buf sat;
    add ")"
  | A.If (c, t, e) ->
    add "(if (";
    expr buf c;
    add ") then ";
    expr buf t;
    add " else ";
    expr buf e;
    add ")"
  | A.Binop (op, l, r) ->
    add "(";
    sub buf l;
    add (" " ^ A.binop_to_string op ^ " ");
    sub buf r;
    add ")"
  | A.Unary_minus e ->
    add "(-";
    sub buf e;
    add ")"
  | A.Call (f, args) ->
    add (Qname.to_string f);
    add "(";
    List.iteri
      (fun i a ->
        if i > 0 then add ", ";
        expr buf a)
      args;
    add ")"
  | A.Instance_of (e, t) ->
    add "(";
    sub buf e;
    add (" instance of " ^ A.seq_type_to_string t);
    add ")"
  | A.Cast_as (e, t) ->
    add "(";
    sub buf e;
    add (" cast as " ^ A.item_type_to_string t);
    add ")"
  | A.Castable_as (e, t) ->
    add "(";
    sub buf e;
    add (" castable as " ^ A.item_type_to_string t);
    add ")"
  | A.Treat_as (e, t) ->
    add "(";
    sub buf e;
    add (" treat as " ^ A.seq_type_to_string t);
    add ")"
  | A.Typeswitch (scrut, cases, dv, dbody) ->
    add "(typeswitch (";
    expr buf scrut;
    add ")";
    List.iter
      (fun (v, ty, body) ->
        add " case ";
        (match v with Some v -> add ("$" ^ v ^ " as ") | None -> ());
        add (A.seq_type_to_string ty);
        add " return ";
        expr buf body)
      cases;
    add " default ";
    (match dv with Some v -> add ("$" ^ v ^ " ") | None -> ());
    add "return ";
    expr buf dbody;
    add ")"
  | A.Dir_elem (name, attrs, content) ->
    add ("<" ^ Qname.to_string name);
    List.iter
      (fun (an, avts) ->
        add (" " ^ Qname.to_string an ^ "=\"");
        List.iter
          (fun seg ->
            match seg with
            | A.Avt_text s ->
              Xqb_xml.Escape.add_escaped_attr buf (brace_escape s)
            | A.Avt_expr e ->
              add "{";
              expr buf e;
              add "}"
            | A.Avt_param i -> add ("{?" ^ string_of_int i ^ "}"))
          avts;
        add "\"")
      attrs;
    if content = [] then add "/>"
    else begin
      add ">";
      List.iter
        (fun c ->
          match c with
          | A.C_text s -> Xqb_xml.Escape.add_escaped_text buf (brace_escape s)
          | A.C_expr e ->
            add "{";
            expr buf e;
            add "}"
          | A.C_elem e -> expr buf e
          | A.C_comment s -> add ("<!--" ^ s ^ "-->")
          | A.C_pi (t, c) -> add ("<?" ^ t ^ " " ^ c ^ "?>"))
        content;
      add ("</" ^ Qname.to_string name ^ ">")
    end
  | A.Comp_elem (name, content) ->
    add "element ";
    name_spec buf name;
    add " {";
    expr buf content;
    add "}"
  | A.Comp_attr (name, content) ->
    add "attribute ";
    name_spec buf name;
    add " {";
    expr buf content;
    add "}"
  | A.Comp_text e ->
    add "text {";
    expr buf e;
    add "}"
  | A.Comp_comment e ->
    add "comment {";
    expr buf e;
    add "}"
  | A.Comp_pi (ns, e) ->
    add "processing-instruction ";
    name_spec buf ns;
    add " {";
    expr buf e;
    add "}"
  | A.Comp_doc e ->
    add "document {";
    expr buf e;
    add "}"
  | A.Insert (what, loc, _) ->
    add "insert {";
    expr buf what;
    add "} ";
    (match loc with
    | A.Into e ->
      add "into {";
      expr buf e;
      add "}"
    | A.Into_as_first e ->
      add "as first into {";
      expr buf e;
      add "}"
    | A.Into_as_last e ->
      add "as last into {";
      expr buf e;
      add "}"
    | A.Before e ->
      add "before {";
      expr buf e;
      add "}"
    | A.After e ->
      add "after {";
      expr buf e;
      add "}")
  | A.Delete (e, _) ->
    add "delete {";
    expr buf e;
    add "}"
  | A.Replace (e1, e2, _) ->
    add "replace {";
    expr buf e1;
    add "} with {";
    expr buf e2;
    add "}"
  | A.Replace_value (e1, e2, _) ->
    add "replace value of node ";
    sub buf e1;
    add " with ";
    sub buf e2
  | A.Rename (e1, e2, _) ->
    add "rename {";
    expr buf e1;
    add "} to {";
    expr buf e2;
    add "}"
  | A.Copy e ->
    add "copy {";
    expr buf e;
    add "}"
  | A.Transform (bs, u, r) ->
    add "(copy ";
    List.iteri
      (fun i (v, e) ->
        if i > 0 then add ", ";
        add ("$" ^ v ^ " := ");
        expr buf e)
      bs;
    add " modify ";
    expr buf u;
    add " return ";
    expr buf r;
    add ")"
  | A.Snap (mode, e) ->
    add "snap ";
    (match A.snap_mode_to_string mode with
    | "" -> ()
    | m -> add (m ^ " "));
    add "{";
    expr buf e;
    add "}"

(* Double the braces that are literal text inside constructors. *)
and brace_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '{' -> Buffer.add_string buf "{{"
      | '}' -> Buffer.add_string buf "}}"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

and name_spec buf = function
  | A.Static_name q -> Buffer.add_string buf (Qname.to_string q)
  | A.Dynamic_name e ->
    Buffer.add_string buf "{";
    expr buf e;
    Buffer.add_string buf "}"

(* Sub-expressions that may need parentheses in step/operand
   position. Paths and filters would otherwise glue to the enclosing
   operator; the update operations, copy and snap are only recognized
   at ExprSingle level, so as operands they need parentheses too. *)
and sub buf (e : A.expr) =
  match e with
  | A.Path _ | A.Path_general _ | A.Filter _
  | A.Insert _ | A.Delete _ | A.Replace _ | A.Replace_value _ | A.Rename _
  | A.Copy _ | A.Snap _
  | A.Comp_elem _ | A.Comp_attr _ | A.Comp_text _ | A.Comp_comment _
  | A.Comp_pi _ | A.Comp_doc _ ->
    Buffer.add_string buf "(";
    expr buf e;
    Buffer.add_string buf ")"
  | _ -> expr buf e

and step buf (s : A.step) =
  let add = Buffer.add_string buf in
  (match s.A.axis with
  | Axes.Child -> ()
  | Axes.Attribute -> add "@"
  | ax -> add (Axes.axis_to_string ax ^ "::"));
  add (Axes.node_test_to_string s.A.test);
  List.iter
    (fun pe ->
      add "[";
      expr buf pe;
      add "]")
    s.A.preds

let expr_to_string e =
  let buf = Buffer.create 128 in
  expr buf e;
  Buffer.contents buf

let decl_to_string (d : A.decl) =
  let buf = Buffer.create 128 in
  let add = Buffer.add_string buf in
  (match d with
  | A.Decl_variable (v, ty, e) ->
    add ("declare variable $" ^ v);
    (match ty with
    | Some t -> add (" as " ^ A.seq_type_to_string t)
    | None -> ());
    add " := ";
    expr buf e
  | A.Decl_function (f, params, ret, body) ->
    add ("declare function " ^ Qname.to_string f ^ "(");
    List.iteri
      (fun i (v, ty) ->
        if i > 0 then add ", ";
        add ("$" ^ v);
        match ty with
        | Some t -> add (" as " ^ A.seq_type_to_string t)
        | None -> ())
      params;
    add ")";
    (match ret with
    | Some t -> add (" as " ^ A.seq_type_to_string t)
    | None -> ());
    add " { ";
    expr buf body;
    add " }");
  add ";";
  Buffer.contents buf

let prog_to_string (prog : A.prog) =
  let decls = List.map decl_to_string prog.A.prolog in
  let body = Option.map expr_to_string prog.A.body in
  String.concat "\n" (decls @ Option.to_list body)
