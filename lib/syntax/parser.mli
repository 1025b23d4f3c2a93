(** Recursive-descent parser for XQuery! — the Fig. 1 grammar over the
    XQuery 1.0 expression grammar. Keywords are contextual; direct
    element constructors are lexed in raw character mode. *)

exception Error of int * int * string  (** line, column, message *)

(** Parse a whole program: prolog declarations then an optional query
    body. @raise Error on malformed input. *)
val parse_prog : string -> Ast.prog

(** {!parse_prog} for a shape-keyed compile: [hole kind ~start ~stop]
    is asked about each string literal in the query body's expression
    positions ([Hole_string]) and each direct attribute value of
    literal text ([Hole_attr]), with the byte extent of the quoted span
    in [src] (quotes included). [Some i] parses it as {!Ast.Param} [i]
    (an attribute as {!Ast.Avt_param} [i]). Never asked: the prolog,
    [fn:doc]/[fn:collection] arguments, namespace declaration
    attributes, attribute values with enclosed expressions, enclosed
    expressions inside attribute values, kind-test names. Holes are
    asked in source order. *)
val parse_prog_holes :
  hole:(Ast.hole -> start:int -> stop:int -> int option) -> string -> Ast.prog

(** The value a hole of [kind] takes from the quoted span [span], lexed
    as the parse that made the hole lexed it; [None] when the span is
    not a literal of that kind. *)
val hole_value : Ast.hole -> string -> string option

(** Parse a single expression (must consume all input). *)
val parse_expr_string : string -> Ast.expr
