(* Surface abstract syntax for XQuery! — the XQuery 1.0 fragment the
   paper builds on, plus the Fig. 1 extensions (insert/delete/replace/
   rename/copy/snap). Normalization to the core language lives in
   [Core.Normalize]. *)

module Qname = Xqb_xml.Qname

(* Source location of an effecting expression's keyword, recorded by
   the parser and threaded through normalization onto the update
   requests the expression emits (provenance). *)
type loc = { line : int; col : int }

let no_loc = { line = 0; col = 0 }

let loc_to_string { line; col } = Printf.sprintf "%d:%d" line col

type snap_mode =
  | Snap_default  (* same as ordered; "snap { e }" *)
  | Snap_ordered
  | Snap_nondeterministic
  | Snap_conflict  (* the conflict-detection semantics of §3.2 *)
  | Snap_atomic
    (* extension: ordered application plus failure atomicity — if the
       body raises, every store effect it performed (applied nested
       snaps included) is rolled back. §5 sketches this use of snap
       for "controlling the extent of failure propagation". *)

let snap_mode_to_string = function
  | Snap_default -> ""
  | Snap_ordered -> "ordered"
  | Snap_nondeterministic -> "nondeterministic"
  | Snap_conflict -> "conflict"
  | Snap_atomic -> "atomic"

type binop =
  | Or
  | And
  (* general comparisons *)
  | Gen_eq | Gen_ne | Gen_lt | Gen_le | Gen_gt | Gen_ge
  (* value comparisons *)
  | Val_eq | Val_ne | Val_lt | Val_le | Val_gt | Val_ge
  (* node comparisons *)
  | Is | Precedes | Follows
  | Add | Sub | Mul | Div | Idiv | Mod
  | To
  | Union | Intersect | Except

let binop_to_string = function
  | Or -> "or" | And -> "and"
  | Gen_eq -> "=" | Gen_ne -> "!=" | Gen_lt -> "<" | Gen_le -> "<="
  | Gen_gt -> ">" | Gen_ge -> ">="
  | Val_eq -> "eq" | Val_ne -> "ne" | Val_lt -> "lt" | Val_le -> "le"
  | Val_gt -> "gt" | Val_ge -> "ge"
  | Is -> "is" | Precedes -> "<<" | Follows -> ">>"
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "div" | Idiv -> "idiv"
  | Mod -> "mod" | To -> "to"
  | Union -> "union" | Intersect -> "intersect" | Except -> "except"

type literal =
  | Lit_integer of int
  | Lit_decimal of float
  | Lit_double of float
  | Lit_string of string

(* Sequence types (used on function signatures and instance-of). *)
type item_type =
  | It_atomic of Qname.t  (* xs:integer, xs:string, ... *)
  | It_item
  | It_node
  | It_element of Qname.t option
  | It_attribute of Qname.t option
  | It_text
  | It_comment
  | It_pi
  | It_document

type occurrence = Occ_one | Occ_opt | Occ_star | Occ_plus

type seq_type =
  | St_empty
  | St of item_type * occurrence

type axis = Xqb_store.Axes.axis

type node_test = Xqb_store.Axes.node_test

(* A parameter hole: a string literal in expression position, or the
   literal text of a direct attribute value, that a shape-keyed parse
   ({!Parser.parse_prog_holes}) turned into a per-run parameter. The
   compiler sees only the index; the value arrives with each run. *)
type hole = Hole_string | Hole_attr

type expr =
  | Literal of literal
  | Param of int  (* an xs:string parameter hole *)
  | Var of string
  | Context_item  (* . *)
  | Seq of expr list  (* e1, e2, ...; Seq [] is "()" *)
  | Root  (* leading "/" *)
  | Path of expr * step  (* e/axis::test[preds] *)
  | Path_general of expr * expr  (* e1/e2 where e2 is not an axis step *)
  | Filter of expr * expr list  (* e[p1][p2]... *)
  | Flwor of clause list * (order_spec list) option * expr
  | Quantified of quantifier * (string * expr) list * expr
  | If of expr * expr * expr
  | Binop of binop * expr * expr
  | Unary_minus of expr
  | Call of Qname.t * expr list
  | Instance_of of expr * seq_type
  | Cast_as of expr * item_type
  | Castable_as of expr * item_type
  | Treat_as of expr * seq_type
  | Typeswitch of expr * (string option * seq_type * expr) list * string option * expr
    (* typeswitch (e) case ($v as)? T return e ... default ($v)? return e *)
  (* constructors *)
  | Dir_elem of Qname.t * (Qname.t * avt list) list * content list
  | Comp_elem of name_spec * expr
  | Comp_attr of name_spec * expr
  | Comp_text of expr
  | Comp_comment of expr
  | Comp_pi of name_spec * expr
  | Comp_doc of expr
  (* XQuery! extensions (Fig. 1) *)
  | Insert of expr * insert_loc * loc
  | Delete of expr * loc
  | Replace of expr * expr * loc
  | Replace_value of expr * expr * loc
    (* XQUF compatibility: "replace value of node e1 with e2" — sets
       the target's content instead of replacing the node *)
  | Rename of expr * expr * loc
  | Copy of expr
  | Transform of (string * expr) list * expr * expr
    (* XQUF compatibility: copy $v := e (, ...)* modify u return r —
       sugar for let-copies + an inner snap around the modify clause *)
  | Snap of snap_mode * expr

and step = { axis : axis; test : node_test; preds : expr list }

and clause =
  | For of (string * string option * expr) list  (* $v (at $pos)? in e *)
  | Let of (string * expr) list
  | Where of expr

and order_spec = expr * sort_dir

and sort_dir = Ascending | Descending

and quantifier = Some_q | Every_q

and name_spec =
  | Static_name of Qname.t  (* element foo {...} *)
  | Dynamic_name of expr  (* element {e} {...} *)

and avt = Avt_text of string | Avt_expr of expr | Avt_param of int

and content =
  | C_text of string
  | C_expr of expr  (* enclosed { e } *)
  | C_elem of expr  (* nested constructor *)
  | C_comment of string
  | C_pi of string * string

and insert_loc =
  | Into of expr  (* into { e } *)
  | Into_as_first of expr
  | Into_as_last of expr
  | Before of expr
  | After of expr

(* Prolog declarations. *)
type decl =
  | Decl_variable of string * seq_type option * expr
  | Decl_function of Qname.t * (string * seq_type option) list * seq_type option * expr

type prog = { prolog : decl list; body : expr option }

(* -- Convenience constructors used by tests and examples ----------- *)

let lit_int i = Literal (Lit_integer i)
let lit_str s = Literal (Lit_string s)
let seq = function [ e ] -> e | es -> Seq es

let child_step ?(preds = []) name =
  { axis = Xqb_store.Axes.Child;
    test = Xqb_store.Axes.Name (Qname.of_string name);
    preds }

let occurrence_to_string = function
  | Occ_one -> ""
  | Occ_opt -> "?"
  | Occ_star -> "*"
  | Occ_plus -> "+"

let item_type_to_string = function
  | It_atomic q -> Qname.to_string q
  | It_item -> "item()"
  | It_node -> "node()"
  | It_element None -> "element()"
  | It_element (Some q) -> "element(" ^ Qname.to_string q ^ ")"
  | It_attribute None -> "attribute()"
  | It_attribute (Some q) -> "attribute(" ^ Qname.to_string q ^ ")"
  | It_text -> "text()"
  | It_comment -> "comment()"
  | It_pi -> "processing-instruction()"
  | It_document -> "document-node()"

let seq_type_to_string = function
  | St_empty -> "empty-sequence()"
  | St (it, occ) -> item_type_to_string it ^ occurrence_to_string occ
