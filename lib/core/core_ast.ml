(* The XQuery! core language (§3.3). Surface expressions are
   normalized into this smaller language; the dynamic semantics of
   Figs. 2-3 is defined over it ([Eval]).

   Differences from the surface syntax:
   - FLWORs without [order by] become nested [For]/[Let]/[If];
   - direct constructors become computed constructors;
   - [insert]/[replace] payloads are wrapped in an explicit [Copy]
     (§3.3's normalization rule);
   - [into] is resolved to [as last into];
   - function calls are resolved to user functions or builtins. *)

module Qname = Xqb_xml.Qname
module Axes = Xqb_store.Axes

(* Source location of the effecting keyword, carried from the surface
   syntax so emitted update requests can cite where they came from. *)
type loc = Xqb_syntax.Ast.loc = { line : int; col : int }

let no_loc = Xqb_syntax.Ast.no_loc

type snap_mode = Xqb_syntax.Ast.snap_mode =
  | Snap_default
  | Snap_ordered
  | Snap_nondeterministic
  | Snap_conflict
  | Snap_atomic

type expr =
  | Scalar of Xqb_xdm.Atomic.t  (* literals after normalization *)
  | Param of int
    (* an xs:string literal whose value arrives per run (a shape-keyed
       compile's hole): typed, routed and planned like [Scalar (String
       _)], evaluated from the context's [params] *)
  | Var of string
  | Context_item
  | Seq of expr * expr  (* binary comma, Fig. 3 *)
  | Empty  (* () *)
  | For of string * string option * expr * expr  (* for $v (at $p)? in e1 return e2 *)
  | Let of string * expr * expr
  | If of expr * expr * expr
  | Sort_flwor of sort_clause list * (expr * Xqb_syntax.Ast.sort_dir) list * expr
    (* FLWORs with order-by keep their clause chain *)
  | Some_sat of string * expr * expr
  | Every_sat of string * expr * expr
  | Step of expr * Axes.axis * Axes.node_test  (* e/axis::test, ddo applied *)
  | Key_step of expr * Qname.t * Qname.t * expr
    (* optimizer-produced form of e/descendant::elem[@attr = rhs] with
       a pure, focus-free rhs: eligible for the store's attribute-value
       key index when the rhs evaluates to strings *)
  | Map of expr * expr
    (* e1/e2 with general e2: evaluate e2 with each item of e1 as the
       focus; node results get distinct-doc-order, atomic-only results
       keep sequence order, mixed results are XPTY0018 *)
  | Predicate of expr * expr  (* e[p] with focus semantics *)
  | Binop of Xqb_syntax.Ast.binop * expr * expr
  | Unary_minus of expr
  | Call_builtin of string * expr list  (* resolved builtin, by canonical name *)
  | Call_user of Qname.t * expr list
  | Instance_of of expr * Xqb_syntax.Ast.seq_type
  | Cast_as of expr * Xqb_syntax.Ast.item_type
  | Castable_as of expr * Xqb_syntax.Ast.item_type
  | Treat_as of expr * Xqb_syntax.Ast.seq_type
  | Elem of name_spec * expr  (* computed element constructor *)
  | Attr of name_spec * expr
  | Text_node of expr
  | Comment_node of expr
  | Pi_node of name_spec * expr
  | Doc_node of expr
  (* XQuery! operations *)
  | Insert of insert_target * expr * expr * loc
    (* payload (already Copy-wrapped), target *)
  | Delete of expr * loc
  | Replace of expr * expr * loc  (* 2nd already Copy-wrapped *)
  | Replace_value of expr * expr * loc  (* XQUF "replace value of node" *)
  | Rename of expr * expr * loc
  | Copy of expr
  | Snap of snap_mode * expr

and name_spec =
  | Static of Qname.t
  | Dynamic of expr

and insert_target = T_first | T_last | T_before | T_after

and sort_clause =
  | S_for of string * string option * expr
  | S_let of string * expr
  | S_where of expr

let insert_target_to_string = function
  | T_first -> "as first into"
  | T_last -> "as last into"
  | T_before -> "before"
  | T_after -> "after"

(* A compact printer for debugging and golden tests. *)
let rec pp ppf (e : expr) =
  let open Format in
  match e with
  | Scalar a -> fprintf ppf "%s(%s)" (Xqb_xdm.Atomic.type_name a) (Xqb_xdm.Atomic.to_string a)
  | Param i -> fprintf ppf "xs:string(?%d)" i
  | Var v -> fprintf ppf "$%s" v
  | Context_item -> fprintf ppf "."
  | Empty -> fprintf ppf "()"
  | Seq (a, b) -> fprintf ppf "(%a, %a)" pp a pp b
  | For (v, None, e1, e2) -> fprintf ppf "for $%s in %a return %a" v pp e1 pp e2
  | For (v, Some p, e1, e2) ->
    fprintf ppf "for $%s at $%s in %a return %a" v p pp e1 pp e2
  | Let (v, e1, e2) -> fprintf ppf "let $%s := %a return %a" v pp e1 pp e2
  | If (c, t, e) -> fprintf ppf "if (%a) then %a else %a" pp c pp t pp e
  | Sort_flwor (_, _, _) -> fprintf ppf "<sort-flwor>"
  | Some_sat (v, e1, e2) -> fprintf ppf "some $%s in %a satisfies %a" v pp e1 pp e2
  | Every_sat (v, e1, e2) -> fprintf ppf "every $%s in %a satisfies %a" v pp e1 pp e2
  | Step (e, ax, t) ->
    fprintf ppf "%a/%s::%s" pp e (Axes.axis_to_string ax) (Axes.node_test_to_string t)
  | Map (a, b) -> fprintf ppf "%a/%a" pp a pp b
  | Key_step (b, elem, attr, rhs) ->
    fprintf ppf "%a/key::%s[@%s = %a]" pp b (Qname.to_string elem)
      (Qname.to_string attr) pp rhs
  | Predicate (e, p) -> fprintf ppf "%a[%a]" pp e pp p
  | Binop (op, a, b) ->
    fprintf ppf "(%a %s %a)" pp a (Xqb_syntax.Ast.binop_to_string op) pp b
  | Unary_minus e -> fprintf ppf "-(%a)" pp e
  | Call_builtin (f, args) ->
    fprintf ppf "fn:%s(%a)" f (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp) args
  | Call_user (f, args) ->
    fprintf ppf "%s(%a)" (Qname.to_string f)
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") pp)
      args
  | Instance_of (e, t) ->
    fprintf ppf "(%a instance of %s)" pp e (Xqb_syntax.Ast.seq_type_to_string t)
  | Cast_as (e, t) ->
    fprintf ppf "(%a cast as %s)" pp e (Xqb_syntax.Ast.item_type_to_string t)
  | Castable_as (e, t) ->
    fprintf ppf "(%a castable as %s)" pp e (Xqb_syntax.Ast.item_type_to_string t)
  | Treat_as (e, t) ->
    fprintf ppf "(%a treat as %s)" pp e (Xqb_syntax.Ast.seq_type_to_string t)
  | Elem (Static n, c) -> fprintf ppf "element %s {%a}" (Qname.to_string n) pp c
  | Elem (Dynamic n, c) -> fprintf ppf "element {%a} {%a}" pp n pp c
  | Attr (Static n, c) -> fprintf ppf "attribute %s {%a}" (Qname.to_string n) pp c
  | Attr (Dynamic n, c) -> fprintf ppf "attribute {%a} {%a}" pp n pp c
  | Text_node e -> fprintf ppf "text {%a}" pp e
  | Comment_node e -> fprintf ppf "comment {%a}" pp e
  | Pi_node (Static t, e) ->
    fprintf ppf "processing-instruction %s {%a}" (Qname.to_string t) pp e
  | Pi_node (Dynamic t, e) ->
    fprintf ppf "processing-instruction {%a} {%a}" pp t pp e
  | Doc_node e -> fprintf ppf "document {%a}" pp e
  | Insert (tgt, what, into, _) ->
    fprintf ppf "insert {%a} %s {%a}" pp what (insert_target_to_string tgt) pp into
  | Delete (e, _) -> fprintf ppf "delete {%a}" pp e
  | Replace (a, b, _) -> fprintf ppf "replace {%a} with {%a}" pp a pp b
  | Replace_value (a, b, _) -> fprintf ppf "replace value of node %a with %a" pp a pp b
  | Rename (a, b, _) -> fprintf ppf "rename {%a} to {%a}" pp a pp b
  | Copy e -> fprintf ppf "copy {%a}" pp e
  | Snap (m, e) ->
    let ms = Xqb_syntax.Ast.snap_mode_to_string m in
    fprintf ppf "snap %s{%a}" (if ms = "" then "" else ms ^ " ") pp e

let to_string e = Format.asprintf "%a" pp e

(* Rebuild [e] with [f] applied to every immediate subexpression. *)
let rec map_subs f (e : expr) : expr =
  match e with
  | Scalar _ | Param _ | Var _ | Context_item | Empty -> e
  | Seq (a, b) -> Seq (f a, f b)
  | For (v, pos, a, b) -> For (v, pos, f a, f b)
  | Let (v, a, b) -> Let (v, f a, f b)
  | If (a, b, c) -> If (f a, f b, f c)
  | Sort_flwor (clauses, specs, ret) ->
    Sort_flwor
      ( List.map
          (function
            | S_for (v, pos, e) -> S_for (v, pos, f e)
            | S_let (v, e) -> S_let (v, f e)
            | S_where e -> S_where (f e))
          clauses,
        List.map (fun (k, d) -> (f k, d)) specs,
        f ret )
  | Some_sat (v, a, b) -> Some_sat (v, f a, f b)
  | Every_sat (v, a, b) -> Every_sat (v, f a, f b)
  | Step (a, ax, t) -> Step (f a, ax, t)
  | Key_step (a, elem, attr, b) -> Key_step (f a, elem, attr, f b)
  | Map (a, b) -> Map (f a, f b)
  | Predicate (a, b) -> Predicate (f a, f b)
  | Binop (op, a, b) -> Binop (op, f a, f b)
  | Unary_minus a -> Unary_minus (f a)
  | Call_builtin (n, args) -> Call_builtin (n, List.map f args)
  | Call_user (n, args) -> Call_user (n, List.map f args)
  | Instance_of (a, t) -> Instance_of (f a, t)
  | Cast_as (a, t) -> Cast_as (f a, t)
  | Castable_as (a, t) -> Castable_as (f a, t)
  | Treat_as (a, t) -> Treat_as (f a, t)
  | Elem (ns, c) -> Elem (map_name ns f, f c)
  | Attr (ns, c) -> Attr (map_name ns f, f c)
  | Text_node a -> Text_node (f a)
  | Comment_node a -> Comment_node (f a)
  | Pi_node (ns, a) -> Pi_node (map_name ns f, f a)
  | Doc_node a -> Doc_node (f a)
  | Insert (tgt, a, b, loc) -> Insert (tgt, f a, f b, loc)
  | Delete (a, loc) -> Delete (f a, loc)
  | Replace (a, b, loc) -> Replace (f a, f b, loc)
  | Replace_value (a, b, loc) -> Replace_value (f a, f b, loc)
  | Rename (a, b, loc) -> Rename (f a, f b, loc)
  | Copy a -> Copy (f a)
  | Snap (m, a) -> Snap (m, f a)

and map_name ns f = match ns with Static _ -> ns | Dynamic e -> Dynamic (f e)

(* [e] with each [Param i] replaced by the string literal [values.(i)]:
   the program a compile of the literal text would have produced
   (EXPLAIN renders a shape-keyed plan through it). *)
let rec bind_params values (e : expr) : expr =
  match e with
  | Param i -> Scalar (Xqb_xdm.Atomic.String values.(i))
  | e -> map_subs (bind_params values) e

(* Immediate sub-expressions; used by the static analyses and the
   purity judgement. *)
let sub_exprs (e : expr) : expr list =
  match e with
  | Scalar _ | Param _ | Var _ | Context_item | Empty -> []
  | Seq (a, b)
  | Binop (_, a, b)
  | Predicate (a, b)
  | Let (_, a, b)
  | Some_sat (_, a, b)
  | Every_sat (_, a, b)
  | Replace (a, b, _)
  | Replace_value (a, b, _)
  | Rename (a, b, _)
  | For (_, _, a, b)
  | Insert (_, a, b, _)
  | Map (a, b)
  | Key_step (a, _, _, b) ->
    [ a; b ]
  | If (a, b, c) -> [ a; b; c ]
  | Sort_flwor (clauses, specs, ret) ->
    List.concat_map
      (function
        | S_for (_, _, e) | S_let (_, e) | S_where e -> [ e ])
      clauses
    @ List.map fst specs @ [ ret ]
  | Step (e, _, _)
  | Unary_minus e
  | Instance_of (e, _)
  | Cast_as (e, _)
  | Castable_as (e, _)
  | Treat_as (e, _)
  | Text_node e
  | Comment_node e
  | Doc_node e
  | Delete (e, _)
  | Copy e
  | Snap (_, e) ->
    [ e ]
  | Elem (ns, c) | Attr (ns, c) | Pi_node (ns, c) -> (
    match ns with Static _ -> [ c ] | Dynamic n -> [ n; c ])
  | Call_builtin (_, args) | Call_user (_, args) -> args
