(* Recursive-descent parser for XQuery! (Fig. 1 grammar on top of the
   XQuery 1.0 expression grammar).

   XQuery keywords are contextual, so the lexer emits plain names and
   this parser decides keyword-hood from (at most two tokens of)
   lookahead. Direct element constructors switch to the lexer's raw
   character-level entry points, as real XQuery implementations do. *)

module A = Ast
module L = Lexer
module Axes = Xqb_store.Axes
module Qname = Xqb_xml.Qname

exception Error of int * int * string

(* The buffer pairs each lookahead token with its start position so
   effecting expressions can record where their keyword began even
   though the lexer has since moved on, and with its byte extent, which
   a shape-keyed parse hands to [hole].

   [hole kind ~start ~stop] (shape-keyed parses only) is asked about
   each string literal in expression position and each direct
   attribute value of literal text, with the byte extent of the quoted
   span; [Some i] turns it into parameter [i]. [holes] switches the
   asking off where a literal's value is part of the program: the
   prolog, fn:doc / fn:collection arguments. *)
type p = {
  lx : L.t;
  mutable buf : (L.token * (int * int) * (int * int)) list;
  hole : (A.hole -> start:int -> stop:int -> int option) option;
  mutable holes : bool;
}

let fail p msg =
  let line, col = L.position p.lx in
  raise (Error (line, col, msg))

let make ?hole src = { lx = L.make src; buf = []; hole; holes = false }

let fill p n =
  while List.length p.buf < n do
    let tok = L.next p.lx in
    p.buf <-
      p.buf @ [ (tok, L.token_start p.lx, (L.token_offset p.lx, L.offset p.lx)) ]
  done

let tok_of (t, _, _) = t

let peek p =
  fill p 1;
  tok_of (List.nth p.buf 0)

let peek2 p =
  fill p 2;
  tok_of (List.nth p.buf 1)

(* Source location where the current token starts. *)
let peek_loc p =
  fill p 1;
  let _, (line, col), _ = List.nth p.buf 0 in
  { A.line; col }

(* The parameter the current token's span becomes, if any. *)
let hole_here p kind ~start ~stop =
  match p.hole with
  | Some hole when p.holes -> hole kind ~start ~stop
  | _ -> None

let peek_hole p =
  fill p 1;
  let _, _, (start, stop) = List.nth p.buf 0 in
  hole_here p A.Hole_string ~start ~stop

(* Run [f] with hole-asking off (literal values the program depends on). *)
let without_holes p f =
  let saved = p.holes in
  p.holes <- false;
  Fun.protect ~finally:(fun () -> p.holes <- saved) f

let advance p =
  match p.buf with
  | _ :: rest -> p.buf <- rest
  | [] -> ignore (L.next p.lx)

let eat p t =
  let cur = peek p in
  if cur = t then advance p
  else
    fail p
      (Printf.sprintf "expected %s but found %s" (L.token_to_string t)
         (L.token_to_string cur))

(* Current token is the contextual keyword [kw]. *)
let at_kw p kw = match peek p with L.Name n -> String.equal n kw | _ -> false

let eat_kw p kw =
  if at_kw p kw then advance p
  else
    fail p
      (Printf.sprintf "expected keyword %S but found %s" kw
         (L.token_to_string (peek p)))

let var_name p =
  match peek p with
  | L.Var v ->
    advance p;
    v
  | t -> fail p ("expected a variable, found " ^ L.token_to_string t)

let qname p =
  match peek p with
  | L.Name n ->
    advance p;
    Qname.make n
  | L.Qname (pre, l) ->
    advance p;
    Qname.make ~prefix:pre l
  | t -> fail p ("expected a name, found " ^ L.token_to_string t)

(* -- Sequence types ------------------------------------------------ *)

let kind_test_names =
  [ "node"; "text"; "comment"; "element"; "attribute"; "document-node";
    "processing-instruction"; "item" ]

let rec parse_item_type p =
  match peek p with
  | L.Name n when List.mem n kind_test_names && peek2 p = L.Lparen -> (
    advance p;
    eat p L.Lparen;
    let arg =
      match peek p with
      | L.Rparen -> None
      | L.Name _ | L.Qname _ -> Some (qname p)
      | L.Str s ->
        advance p;
        Some (Qname.make s)
      | L.Star ->
        advance p;
        None
      | t -> fail p ("unexpected token in kind test: " ^ L.token_to_string t)
    in
    eat p L.Rparen;
    match n with
    | "item" -> A.It_item
    | "node" -> A.It_node
    | "text" -> A.It_text
    | "comment" -> A.It_comment
    | "element" -> A.It_element arg
    | "attribute" -> A.It_attribute arg
    | "document-node" -> A.It_document
    | "processing-instruction" -> A.It_pi
    | _ -> assert false)
  | L.Name _ | L.Qname _ -> A.It_atomic (qname p)
  | t -> fail p ("expected an item type, found " ^ L.token_to_string t)

and parse_seq_type p =
  if at_kw p "empty-sequence" && peek2 p = L.Lparen then begin
    advance p;
    eat p L.Lparen;
    eat p L.Rparen;
    A.St_empty
  end
  else begin
    let it = parse_item_type p in
    let occ =
      match peek p with
      | L.Question ->
        advance p;
        A.Occ_opt
      | L.Star ->
        advance p;
        A.Occ_star
      | L.Plus ->
        advance p;
        A.Occ_plus
      | _ -> A.Occ_one
    in
    A.St (it, occ)
  end

(* -- Expressions ---------------------------------------------------- *)

let update_keywords = [ "insert"; "delete"; "replace"; "rename" ]

let rec parse_expr p =
  let e1 = parse_expr_single p in
  if peek p = L.Comma then begin
    let rec more acc =
      if peek p = L.Comma then begin
        advance p;
        more (parse_expr_single p :: acc)
      end
      else List.rev acc
    in
    A.Seq (more [ e1 ])
  end
  else e1

and parse_expr_single p =
  match peek p with
  | L.Name "for" when (match peek2 p with L.Var _ -> true | _ -> false) ->
    parse_flwor p
  | L.Name "let" when (match peek2 p with L.Var _ -> true | _ -> false) ->
    parse_flwor p
  | L.Name ("some" | "every")
    when (match peek2 p with L.Var _ -> true | _ -> false) ->
    parse_quantified p
  | L.Name "if" when peek2 p = L.Lparen -> parse_if p
  | L.Name "typeswitch" when peek2 p = L.Lparen -> parse_typeswitch p
  | L.Name "snap" -> parse_snap p
  | L.Name "insert" when peek2 p = L.Lbrace -> parse_insert p
  | L.Name "delete" when peek2 p = L.Lbrace ->
    let loc = peek_loc p in
    advance p;
    A.Delete (braced p, loc)
  | L.Name "replace" when peek2 p = L.Lbrace ->
    let loc = peek_loc p in
    advance p;
    let e1 = braced p in
    eat_kw p "with";
    A.Replace (e1, braced p, loc)
  | L.Name "rename" when peek2 p = L.Lbrace ->
    let loc = peek_loc p in
    advance p;
    let e1 = braced p in
    eat_kw p "to";
    A.Rename (e1, braced p, loc)
  | L.Name "copy" when peek2 p = L.Lbrace ->
    advance p;
    A.Copy (braced p)
  (* XQUF transform: copy $v := e (, $w := e)* modify u return r *)
  | L.Name "copy" when (match peek2 p with L.Var _ -> true | _ -> false) ->
    advance p;
    let rec bindings acc =
      let v = var_name p in
      eat p L.Colonassign;
      let e = parse_expr_single p in
      let acc = (v, e) :: acc in
      if peek p = L.Comma then begin
        advance p;
        bindings acc
      end
      else List.rev acc
    in
    let bs = bindings [] in
    eat_kw p "modify";
    let u = parse_expr_single p in
    eat_kw p "return";
    let r = parse_expr_single p in
    A.Transform (bs, u, r)
  (* -- XQuery Update Facility compatibility syntax (the W3C language
     this paper influenced): "insert node(s) E into E",
     "delete node(s) E", "replace (value of)? node E with E",
     "rename node E as E". Brace-free operand form. -- *)
  | L.Name "insert" when (match peek2 p with L.Name ("node" | "nodes") -> true | _ -> false)
    ->
    parse_xquf_insert p
  | L.Name "delete" when (match peek2 p with L.Name ("node" | "nodes") -> true | _ -> false)
    ->
    let loc = peek_loc p in
    advance p;
    advance p;
    A.Delete (parse_expr_single p, loc)
  | L.Name "replace" when (match peek2 p with L.Name ("node" | "value") -> true | _ -> false)
    ->
    parse_xquf_replace p
  | L.Name "rename" when peek2 p = L.Name "node" ->
    let loc = peek_loc p in
    advance p;
    advance p;
    let target = parse_expr_single p in
    eat_kw p "as";
    A.Rename (target, parse_expr_single p, loc)
  | _ -> parse_or p

and parse_xquf_insert p =
  let kw_loc = peek_loc p in
  eat_kw p "insert";
  advance p (* node | nodes *);
  let payload = parse_expr_single p in
  let loc =
    match peek p with
    | L.Name "as" -> (
      advance p;
      match peek p with
      | L.Name "first" ->
        advance p;
        eat_kw p "into";
        A.Into_as_first (parse_expr_single p)
      | L.Name "last" ->
        advance p;
        eat_kw p "into";
        A.Into_as_last (parse_expr_single p)
      | t -> fail p ("expected 'first' or 'last', found " ^ L.token_to_string t))
    | L.Name "into" ->
      advance p;
      A.Into (parse_expr_single p)
    | L.Name "before" ->
      advance p;
      A.Before (parse_expr_single p)
    | L.Name "after" ->
      advance p;
      A.After (parse_expr_single p)
    | t -> fail p ("expected an insert location, found " ^ L.token_to_string t)
  in
  A.Insert (payload, loc, kw_loc)

and parse_xquf_replace p =
  let kw_loc = peek_loc p in
  eat_kw p "replace";
  let value_of =
    if at_kw p "value" then begin
      advance p;
      eat_kw p "of";
      true
    end
    else false
  in
  eat_kw p "node";
  let target = parse_expr_single p in
  eat_kw p "with";
  let replacement = parse_expr_single p in
  if value_of then A.Replace_value (target, replacement, kw_loc)
  else A.Replace (target, replacement, kw_loc)

and braced p =
  eat p L.Lbrace;
  let e = parse_expr p in
  eat p L.Rbrace;
  e

and parse_snap p =
  eat_kw p "snap";
  let mode =
    match peek p with
    | L.Name "ordered" when peek2 p = L.Lbrace ->
      advance p;
      A.Snap_ordered
    | L.Name "nondeterministic" when peek2 p = L.Lbrace ->
      advance p;
      A.Snap_nondeterministic
    | L.Name "conflict" when peek2 p = L.Lbrace ->
      advance p;
      A.Snap_conflict
    | L.Name "atomic" when peek2 p = L.Lbrace ->
      advance p;
      A.Snap_atomic
    | _ -> A.Snap_default
  in
  match peek p with
  | L.Lbrace -> A.Snap (mode, braced p)
  | L.Name kw when List.mem kw update_keywords && peek2 p = L.Lbrace ->
    (* "snap insert {...} into {...}" abbreviates "snap { insert ... }" *)
    A.Snap (mode, parse_expr_single p)
  | t -> fail p ("expected '{' or an update expression after snap, found "
                 ^ L.token_to_string t)

and parse_insert p =
  let kw_loc = peek_loc p in
  eat_kw p "insert";
  let what = braced p in
  let loc =
    match peek p with
    | L.Name "as" -> (
      advance p;
      match peek p with
      | L.Name "first" ->
        advance p;
        eat_kw p "into";
        A.Into_as_first (braced p)
      | L.Name "last" ->
        advance p;
        eat_kw p "into";
        A.Into_as_last (braced p)
      | t -> fail p ("expected 'first' or 'last', found " ^ L.token_to_string t))
    | L.Name "into" ->
      advance p;
      A.Into (braced p)
    | L.Name "before" ->
      advance p;
      A.Before (braced p)
    | L.Name "after" ->
      advance p;
      A.After (braced p)
    | t -> fail p ("expected an insert location, found " ^ L.token_to_string t)
  in
  A.Insert (what, loc, kw_loc)

and parse_flwor p =
  let rec clauses acc =
    match peek p with
    | L.Name "for" when (match peek2 p with L.Var _ -> true | _ -> false) ->
      advance p;
      let rec bindings acc =
        let v = var_name p in
        let posvar =
          if at_kw p "at" then begin
            advance p;
            Some (var_name p)
          end
          else None
        in
        eat_kw p "in";
        let e = parse_expr_single p in
        let acc = (v, posvar, e) :: acc in
        if peek p = L.Comma then begin
          advance p;
          bindings acc
        end
        else List.rev acc
      in
      clauses (A.For (bindings []) :: acc)
    | L.Name "let" when (match peek2 p with L.Var _ -> true | _ -> false) ->
      advance p;
      let rec bindings acc =
        let v = var_name p in
        eat p L.Colonassign;
        let e = parse_expr_single p in
        let acc = (v, e) :: acc in
        if peek p = L.Comma then begin
          advance p;
          bindings acc
        end
        else List.rev acc
      in
      clauses (A.Let (bindings []) :: acc)
    | L.Name "where" ->
      advance p;
      clauses (A.Where (parse_expr_single p) :: acc)
    | _ -> List.rev acc
  in
  let cls = clauses [] in
  let order =
    if at_kw p "order" then begin
      advance p;
      eat_kw p "by";
      let rec specs acc =
        let e = parse_expr_single p in
        let dir =
          match peek p with
          | L.Name "ascending" ->
            advance p;
            A.Ascending
          | L.Name "descending" ->
            advance p;
            A.Descending
          | _ -> A.Ascending
        in
        let acc = (e, dir) :: acc in
        if peek p = L.Comma then begin
          advance p;
          specs acc
        end
        else List.rev acc
      in
      Some (specs [])
    end
    else if at_kw p "stable" then begin
      advance p;
      eat_kw p "order";
      eat_kw p "by";
      let e = parse_expr_single p in
      Some [ (e, A.Ascending) ]
    end
    else None
  in
  eat_kw p "return";
  let body = parse_expr_single p in
  A.Flwor (cls, order, body)

and parse_quantified p =
  let quant =
    if at_kw p "some" then A.Some_q
    else begin
      eat_kw p "every";
      A.Every_q
    end
  in
  if quant = A.Some_q then eat_kw p "some";
  let rec bindings acc =
    let v = var_name p in
    eat_kw p "in";
    let e = parse_expr_single p in
    let acc = (v, e) :: acc in
    if peek p = L.Comma then begin
      advance p;
      bindings acc
    end
    else List.rev acc
  in
  let bs = bindings [] in
  eat_kw p "satisfies";
  A.Quantified (quant, bs, parse_expr_single p)

and parse_if p =
  eat_kw p "if";
  eat p L.Lparen;
  let c = parse_expr p in
  eat p L.Rparen;
  eat_kw p "then";
  let t = parse_expr_single p in
  eat_kw p "else";
  let e = parse_expr_single p in
  A.If (c, t, e)

and parse_or p =
  let rec loop left =
    if at_kw p "or" then begin
      advance p;
      loop (A.Binop (A.Or, left, parse_and p))
    end
    else left
  in
  loop (parse_and p)

and parse_and p =
  let rec loop left =
    if at_kw p "and" then begin
      advance p;
      loop (A.Binop (A.And, left, parse_comparison p))
    end
    else left
  in
  loop (parse_comparison p)

and parse_comparison p =
  let left = parse_range p in
  let op =
    match peek p with
    | L.Eq -> Some A.Gen_eq
    | L.Ne -> Some A.Gen_ne
    | L.Lt -> Some A.Gen_lt
    | L.Le -> Some A.Gen_le
    | L.Gt -> Some A.Gen_gt
    | L.Ge -> Some A.Gen_ge
    | L.Ltlt -> Some A.Precedes
    | L.Gtgt -> Some A.Follows
    | L.Name "eq" -> Some A.Val_eq
    | L.Name "ne" -> Some A.Val_ne
    | L.Name "lt" -> Some A.Val_lt
    | L.Name "le" -> Some A.Val_le
    | L.Name "gt" -> Some A.Val_gt
    | L.Name "ge" -> Some A.Val_ge
    | L.Name "is" -> Some A.Is
    | _ -> None
  in
  match op with
  | None -> left
  | Some op ->
    advance p;
    A.Binop (op, left, parse_range p)

and parse_range p =
  let left = parse_additive p in
  if at_kw p "to" then begin
    advance p;
    A.Binop (A.To, left, parse_additive p)
  end
  else left

and parse_additive p =
  let rec loop left =
    match peek p with
    | L.Plus ->
      advance p;
      loop (A.Binop (A.Add, left, parse_multiplicative p))
    | L.Minus ->
      advance p;
      loop (A.Binop (A.Sub, left, parse_multiplicative p))
    | _ -> left
  in
  loop (parse_multiplicative p)

and parse_multiplicative p =
  let rec loop left =
    match peek p with
    | L.Star ->
      advance p;
      loop (A.Binop (A.Mul, left, parse_union p))
    | L.Name "div" ->
      advance p;
      loop (A.Binop (A.Div, left, parse_union p))
    | L.Name "idiv" ->
      advance p;
      loop (A.Binop (A.Idiv, left, parse_union p))
    | L.Name "mod" ->
      advance p;
      loop (A.Binop (A.Mod, left, parse_union p))
    | _ -> left
  in
  loop (parse_union p)

and parse_union p =
  let rec loop left =
    match peek p with
    | L.Bar | L.Name "union" ->
      advance p;
      loop (A.Binop (A.Union, left, parse_intersect p))
    | _ -> left
  in
  loop (parse_intersect p)

and parse_intersect p =
  let rec loop left =
    match peek p with
    | L.Name "intersect" ->
      advance p;
      loop (A.Binop (A.Intersect, left, parse_instance_of p))
    | L.Name "except" ->
      advance p;
      loop (A.Binop (A.Except, left, parse_instance_of p))
    | _ -> left
  in
  loop (parse_instance_of p)

and parse_instance_of p =
  let left = parse_cast p in
  if at_kw p "instance" then begin
    advance p;
    eat_kw p "of";
    A.Instance_of (left, parse_seq_type p)
  end
  else left

and parse_cast p =
  let left = parse_unary p in
  if at_kw p "cast" then begin
    advance p;
    eat_kw p "as";
    let t = parse_item_type p in
    (* allow the single-type '?' of "cast as T?" *)
    if peek p = L.Question then advance p;
    A.Cast_as (left, t)
  end
  else if at_kw p "castable" then begin
    advance p;
    eat_kw p "as";
    let t = parse_item_type p in
    if peek p = L.Question then advance p;
    A.Castable_as (left, t)
  end
  else if at_kw p "treat" then begin
    advance p;
    eat_kw p "as";
    A.Treat_as (left, parse_seq_type p)
  end
  else left

and parse_typeswitch p =
  eat_kw p "typeswitch";
  eat p L.Lparen;
  let scrutinee = parse_expr p in
  eat p L.Rparen;
  let rec cases acc =
    if at_kw p "case" then begin
      advance p;
      let v =
        match peek p with
        | L.Var v ->
          advance p;
          eat_kw p "as";
          Some v
        | _ -> None
      in
      let ty = parse_seq_type p in
      eat_kw p "return";
      let body = parse_expr_single p in
      cases ((v, ty, body) :: acc)
    end
    else List.rev acc
  in
  let cs = cases [] in
  if cs = [] then fail p "typeswitch needs at least one case";
  eat_kw p "default";
  let dv =
    match peek p with
    | L.Var v ->
      advance p;
      Some v
    | _ -> None
  in
  eat_kw p "return";
  let dbody = parse_expr_single p in
  A.Typeswitch (scrutinee, cs, dv, dbody)

and parse_unary p =
  match peek p with
  | L.Minus ->
    advance p;
    A.Unary_minus (parse_unary p)
  | L.Plus ->
    advance p;
    parse_unary p
  | _ -> parse_path p

(* Path expressions. *)
and parse_path p =
  match peek p with
  | L.Slash ->
    advance p;
    if can_start_step p then parse_relative p A.Root else A.Root
  | L.Slashslash ->
    advance p;
    let dos =
      A.Path
        (A.Root, { A.axis = Axes.Descendant_or_self; test = Axes.Kind_node; preds = [] })
    in
    parse_relative p dos
  | _ ->
    let first = parse_step_expr p in
    parse_relative_cont p first

and parse_relative p left =
  let e =
    if starts_axis_step p then apply_step left (parse_step p)
    else A.Path_general (left, parse_postfix p)
  in
  parse_relative_cont p e

(* Does the current token begin an axis step (as opposed to a primary
   expression used as a path step, e.g. [a/string()])? *)
and starts_axis_step p =
  match peek p with
  | L.At | L.Dotdot | L.Star -> true
  | L.Name _ when peek2 p = L.Coloncolon -> true
  | L.Name n when List.mem n kind_test_names && n <> "item" && peek2 p = L.Lparen
    ->
    true
  | L.Name ("element" | "attribute")
    when (match peek2 p with L.Lbrace | L.Name _ | L.Qname _ -> true | _ -> false)
    ->
    false
  | L.Name ("text" | "document" | "ordered" | "unordered" | "comment") when peek2 p = L.Lbrace
    ->
    false
  | L.Name "processing-instruction"
    when (match peek2 p with L.Lbrace | L.Name _ | L.Qname _ -> true | _ -> false)
    ->
    false
  | L.Name _ | L.Qname _ when peek2 p <> L.Lparen -> true
  | _ -> false

and parse_relative_cont p left =
  match peek p with
  | L.Slash ->
    advance p;
    parse_relative p left
  | L.Slashslash ->
    advance p;
    let dos =
      A.Path
        (left, { A.axis = Axes.Descendant_or_self; test = Axes.Kind_node; preds = [] })
    in
    parse_relative p dos
  | _ -> left

and apply_step left (step : A.step) = A.Path (left, step)

and can_start_step p =
  match peek p with
  | L.Name _ | L.Qname _ | L.Star | L.At | L.Dot | L.Dotdot | L.Var _
  | L.Lparen | L.Int _ | L.Decimal _ | L.Double _ | L.Str _ | L.Lt ->
    true
  | _ -> false

(* A step in a path: either an axis step or a postfix (primary +
   predicates) expression. *)
and parse_step_expr p =
  match peek p with
  | L.At | L.Dotdot -> step_to_expr p (parse_step p)
  | L.Star -> step_to_expr p (parse_step p)
  | L.Name _ when peek2 p = L.Coloncolon -> step_to_expr p (parse_step p)
  | L.Name n when List.mem n kind_test_names && n <> "item" && peek2 p = L.Lparen ->
    step_to_expr p (parse_step p)
  (* Computed constructors and ordered{}/unordered{} start with a name
     but are primaries, not steps. *)
  | L.Name ("element" | "attribute")
    when (match peek2 p with L.Lbrace | L.Name _ | L.Qname _ -> true | _ -> false)
    ->
    parse_postfix p
  | L.Name ("text" | "document" | "ordered" | "unordered" | "comment") when peek2 p = L.Lbrace
    ->
    parse_postfix p
  | L.Name "processing-instruction"
    when (match peek2 p with L.Lbrace | L.Name _ | L.Qname _ -> true | _ -> false)
    ->
    parse_postfix p
  | L.Name _ | L.Qname _ when peek2 p <> L.Lparen -> step_to_expr p (parse_step p)
  | _ -> parse_postfix p

and step_to_expr p step =
  ignore p;
  (* A leading axis step is a path from the context item. *)
  A.Path (A.Context_item, step)

and parse_step p : A.step =
  match peek p with
  | L.Dotdot ->
    advance p;
    { A.axis = Axes.Parent; test = Axes.Kind_node; preds = parse_predicates p }
  | L.At ->
    advance p;
    let test = parse_node_test p in
    { A.axis = Axes.Attribute; test; preds = parse_predicates p }
  | L.Name n when peek2 p = L.Coloncolon ->
    let axis =
      match n with
      | "child" -> Axes.Child
      | "descendant" -> Axes.Descendant
      | "descendant-or-self" -> Axes.Descendant_or_self
      | "attribute" -> Axes.Attribute
      | "self" -> Axes.Self
      | "parent" -> Axes.Parent
      | "ancestor" -> Axes.Ancestor
      | "ancestor-or-self" -> Axes.Ancestor_or_self
      | "following-sibling" -> Axes.Following_sibling
      | "preceding-sibling" -> Axes.Preceding_sibling
      | "following" -> Axes.Following
      | "preceding" -> Axes.Preceding
      | a -> fail p ("unknown axis: " ^ a)
    in
    advance p;
    eat p L.Coloncolon;
    let test = parse_node_test p in
    { A.axis; test; preds = parse_predicates p }
  | _ ->
    let test = parse_node_test p in
    { A.axis = Axes.Child; test; preds = parse_predicates p }

and parse_node_test p =
  match peek p with
  | L.Star ->
    advance p;
    Axes.Wildcard
  | L.Name n when List.mem n kind_test_names && n <> "item" && peek2 p = L.Lparen
    -> (
    advance p;
    eat p L.Lparen;
    let arg =
      match peek p with
      | L.Rparen -> None
      | L.Name _ | L.Qname _ -> Some (qname p)
      | L.Str s ->
        advance p;
        Some (Qname.make s)
      | t -> fail p ("unexpected token in kind test: " ^ L.token_to_string t)
    in
    eat p L.Rparen;
    match n with
    | "node" -> Axes.Kind_node
    | "text" -> Axes.Kind_text
    | "comment" -> Axes.Kind_comment
    | "element" -> Axes.Kind_element arg
    | "attribute" -> Axes.Kind_attribute arg
    | "document-node" -> Axes.Kind_document
    | "processing-instruction" ->
      Axes.Kind_pi (Option.map Qname.to_string arg)
    | _ -> assert false)
  | L.Name _ | L.Qname _ ->
    let q = qname p in
    if Qname.local q = "*" then Axes.Wildcard else Axes.Name q
  | t -> fail p ("expected a node test, found " ^ L.token_to_string t)

and parse_predicates p =
  let rec loop acc =
    if peek p = L.Lbracket then begin
      advance p;
      let e = parse_expr p in
      eat p L.Rbracket;
      loop (e :: acc)
    end
    else List.rev acc
  in
  loop []

and parse_postfix p =
  let prim = parse_primary p in
  match parse_predicates p with
  | [] -> prim
  | preds -> A.Filter (prim, preds)

and parse_primary p =
  match peek p with
  | L.Int i ->
    advance p;
    A.Literal (A.Lit_integer i)
  | L.Decimal f ->
    advance p;
    A.Literal (A.Lit_decimal f)
  | L.Double f ->
    advance p;
    A.Literal (A.Lit_double f)
  | L.Str s -> (
    let param = peek_hole p in
    advance p;
    match param with Some i -> A.Param i | None -> A.Literal (A.Lit_string s))
  | L.Var v ->
    advance p;
    A.Var v
  | L.Dot ->
    advance p;
    A.Context_item
  | L.Lparen ->
    advance p;
    if peek p = L.Rparen then begin
      advance p;
      A.Seq []
    end
    else begin
      let e = parse_expr p in
      eat p L.Rparen;
      e
    end
  | L.Lt ->
    advance p;
    parse_direct_constructor p
  | L.Name ("ordered" | "unordered") when peek2 p = L.Lbrace ->
    advance p;
    braced p
  | L.Name "element" when is_comp_ctor_name p -> parse_comp_elem p
  | L.Name "attribute" when is_comp_ctor_name p -> parse_comp_attr p
  | L.Name "text" when peek2 p = L.Lbrace ->
    advance p;
    A.Comp_text (braced p)
  | L.Name "comment" when peek2 p = L.Lbrace ->
    advance p;
    A.Comp_comment (braced p)
  | L.Name "processing-instruction" when is_comp_ctor_name p ->
    advance p;
    let name =
      match peek p with
      | L.Lbrace -> A.Dynamic_name (braced p)
      | _ -> A.Static_name (qname p)
    in
    A.Comp_pi (name, braced p)
  | L.Name "document" when peek2 p = L.Lbrace ->
    advance p;
    A.Comp_doc (braced p)
  | L.Name _ | L.Qname _ when peek2 p = L.Lparen -> parse_call p
  | t -> fail p ("unexpected token " ^ L.token_to_string t)

(* "element foo { e }" or "element { e1 } { e2 }" *)
and is_comp_ctor_name p =
  match peek2 p with
  | L.Lbrace -> true
  | L.Name _ | L.Qname _ -> true
  | _ -> false

and parse_comp_elem p =
  eat_kw p "element";
  let name =
    match peek p with
    | L.Lbrace -> A.Dynamic_name (braced p)
    | _ -> A.Static_name (qname p)
  in
  A.Comp_elem (name, braced p)

and parse_comp_attr p =
  eat_kw p "attribute";
  let name =
    match peek p with
    | L.Lbrace -> A.Dynamic_name (braced p)
    | _ -> A.Static_name (qname p)
  in
  A.Comp_attr (name, braced p)

and parse_call p =
  let f = qname p in
  eat p L.Lparen;
  (* a document URI decides the footprint and the route: never a hole *)
  let keep_literals =
    (Qname.prefix f = "" || Qname.prefix f = "fn")
    && (Qname.local f = "doc" || Qname.local f = "collection")
  in
  let args =
    if peek p = L.Rparen then []
    else if keep_literals then without_holes p (fun () -> more_args p)
    else more_args p
  in
  eat p L.Rparen;
  A.Call (f, args)

and more_args p =
  let rec more acc =
    let e = parse_expr_single p in
    if peek p = L.Comma then begin
      advance p;
      more (e :: acc)
    end
    else List.rev (e :: acc)
  in
  more []

(* -- Direct element constructors (raw lexing) ----------------------- *)

(* Called with the '<' already consumed and the token buffer empty. *)
and parse_direct_constructor p =
  assert (p.buf = []);
  let name = L.raw_qname p.lx in
  let rec attrs acc =
    L.raw_skip_space p.lx;
    match L.raw_peek p.lx with
    | '/' | '>' -> List.rev acc
    | _ ->
      let an = L.raw_qname p.lx in
      L.raw_skip_space p.lx;
      L.raw_expect p.lx '=';
      L.raw_skip_space p.lx;
      let start = L.offset p.lx in
      let segs = L.raw_attr_value p.lx in
      let literal_text = match segs with [] | [ `Text _ ] -> true | _ -> false in
      let namespace_decl =
        Qname.prefix an = "xmlns" || (Qname.prefix an = "" && Qname.local an = "xmlns")
      in
      let param =
        if literal_text && not namespace_decl then
          hole_here p A.Hole_attr ~start ~stop:(L.offset p.lx)
        else None
      in
      let avts =
        match param with
        | Some i -> [ A.Avt_param i ]
        | None ->
          List.map
            (function
              | `Text s -> A.Avt_text s
              | `Expr src -> A.Avt_expr (parse_sub src))
            segs
      in
      attrs ((an, avts) :: acc)
  in
  let attributes = attrs [] in
  match L.raw_peek p.lx with
  | '/' ->
    L.raw_advance p.lx;
    L.raw_expect p.lx '>';
    A.Dir_elem (name, attributes, [])
  | '>' ->
    L.raw_advance p.lx;
    let content = parse_dir_content p name in
    A.Dir_elem (name, attributes, content)
  | c -> fail p (Printf.sprintf "unexpected %C in element constructor" c)

and parse_dir_content p elem_name =
  let is_boundary_ws s = String.for_all (fun c -> L.is_space c) s in
  let rec loop acc =
    let text = L.raw_content_text p.lx in
    let acc =
      if text = "" || is_boundary_ws text then acc else A.C_text text :: acc
    in
    if L.raw_looking_at p.lx "</" then begin
      L.raw_skip_string p.lx "</";
      let close = L.raw_qname p.lx in
      if not (Qname.equal close elem_name) then
        fail p
          (Printf.sprintf "mismatched end tag </%s>, expected </%s>"
             (Qname.to_string close) (Qname.to_string elem_name));
      L.raw_skip_space p.lx;
      L.raw_expect p.lx '>';
      List.rev acc
    end
    else if L.raw_looking_at p.lx "<!--" then begin
      L.raw_skip_string p.lx "<!--";
      let body = L.raw_until p.lx "-->" in
      loop (A.C_comment body :: acc)
    end
    else if L.raw_looking_at p.lx "<![CDATA[" then begin
      L.raw_skip_string p.lx "<![CDATA[";
      let body = L.raw_until p.lx "]]>" in
      loop (A.C_text body :: acc)
    end
    else if L.raw_looking_at p.lx "<?" then begin
      L.raw_skip_string p.lx "<?";
      let target = L.raw_name p.lx in
      L.raw_skip_space p.lx;
      let body = L.raw_until p.lx "?>" in
      loop (A.C_pi (target, body) :: acc)
    end
    else if L.raw_peek p.lx = '<' then begin
      L.raw_advance p.lx;
      let nested = parse_direct_constructor p in
      loop (A.C_elem nested :: acc)
    end
    else if L.raw_peek p.lx = '{' then begin
      L.raw_advance p.lx;
      (* Switch to token mode for the enclosed expression. *)
      let e = parse_expr p in
      eat p L.Rbrace;
      assert (p.buf = []);
      loop (A.C_expr e :: acc)
    end
    else fail p "unterminated element constructor"
  in
  loop []

and parse_sub src =
  let sub = make src in
  let e = parse_expr sub in
  (match peek sub with
  | L.Eof -> ()
  | t -> fail sub ("trailing tokens in enclosed expression: " ^ L.token_to_string t));
  e

(* -- Prolog and program --------------------------------------------- *)

let parse_decl p =
  eat_kw p "declare";
  match peek p with
  | L.Name "variable" ->
    advance p;
    let v = var_name p in
    let ty =
      if at_kw p "as" then begin
        advance p;
        Some (parse_seq_type p)
      end
      else None
    in
    eat p L.Colonassign;
    let e = parse_expr_single p in
    Some (A.Decl_variable (v, ty, e))
  | L.Name "function" ->
    advance p;
    let f = qname p in
    eat p L.Lparen;
    let params =
      if peek p = L.Rparen then []
      else begin
        let rec more acc =
          let v = var_name p in
          let ty =
            if at_kw p "as" then begin
              advance p;
              Some (parse_seq_type p)
            end
            else None
          in
          let acc = (v, ty) :: acc in
          if peek p = L.Comma then begin
            advance p;
            more acc
          end
          else List.rev acc
        in
        more []
      end
    in
    eat p L.Rparen;
    let ret =
      if at_kw p "as" then begin
        advance p;
        Some (parse_seq_type p)
      end
      else None
    in
    let body = braced p in
    Some (A.Decl_function (f, params, ret, body))
  | L.Name "namespace" ->
    (* declare namespace p = "uri"; accepted and recorded nowhere:
       names are compared on prefixes in this reproduction. *)
    advance p;
    let _prefix = qname p in
    eat p L.Eq;
    (match peek p with
    | L.Str _ -> advance p
    | t -> fail p ("expected a URI literal, found " ^ L.token_to_string t));
    None
  | t -> fail p ("unexpected declaration: " ^ L.token_to_string t)

let parse_prog_with ?hole src =
  let p = make ?hole src in
  let rec prolog acc =
    if at_kw p "declare" then begin
      let d = parse_decl p in
      (match peek p with
      | L.Semi -> advance p
      | t -> fail p ("expected ';' after declaration, found " ^ L.token_to_string t));
      prolog (match d with Some d -> d :: acc | None -> acc)
    end
    else List.rev acc
  in
  let prolog = prolog [] in
  p.holes <- true;
  let body = if peek p = L.Eof then None else Some (parse_expr p) in
  (match peek p with
  | L.Eof -> ()
  | t -> fail p ("trailing tokens after query body: " ^ L.token_to_string t));
  { A.prolog; body }

let parse_prog src = parse_prog_with src
let parse_prog_holes ~hole src = parse_prog_with ~hole src

(* The value of a hole's quoted span, lexed exactly as the parse that
   made the hole did; [None] when the span is no longer a literal of
   that kind (an attribute value that now encloses an expression) or
   does not lex (an unknown entity). *)
let hole_value kind span =
  let n = String.length span in
  let plain c = c <> '&' && c <> span.[0] && not (kind = A.Hole_attr && (c = '{' || c = '}')) in
  let rec all_plain i = i >= n - 1 || (plain span.[i] && all_plain (i + 1)) in
  if n >= 2 && span.[n - 1] = span.[0] && all_plain 1 then
    (* nothing to unescape: the value is the text between the quotes *)
    Some (String.sub span 1 (n - 2))
  else
  let lx = L.make span in
  match kind with
  | A.Hole_string -> (
    match L.next lx with
    | L.Str s when L.next lx = L.Eof -> Some s
    | _ -> None
    | exception L.Error _ -> None)
  | A.Hole_attr -> (
    match L.raw_attr_value lx with
    | [] when L.offset lx = String.length span -> Some ""
    | [ `Text s ] when L.offset lx = String.length span -> Some s
    | _ -> None
    | exception L.Error _ -> None)

let parse_expr_string src =
  let p = make src in
  let e = parse_expr p in
  (match peek p with
  | L.Eof -> ()
  | t -> fail p ("trailing tokens: " ^ L.token_to_string t));
  e
