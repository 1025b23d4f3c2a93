(** Strict JSON well-formedness checker and the emitters' shared
    escaping helper.

    The parser accepts exactly RFC 8259 documents (no trailing
    commas, no comments, validated escapes and surrogate pairs); it
    backs the test suite's round-trip assertions, recorded job traces
    included. *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

exception Parse_error of string

(** Escape a string for inclusion in a JSON string literal (quotes,
    backslashes, control characters). *)
val escape : string -> string

(** Parse a complete document (trailing garbage is an error). *)
val parse : string -> (v, string) result

(** @raise Parse_error *)
val parse_exn : string -> v

val member : string -> v -> v option

(** Follow a chain of object keys. *)
val path : v -> string list -> v option

val to_string_opt : v -> string option
val to_float_opt : v -> float option

(** Array elements ([[]] for non-arrays). *)
val to_list : v -> v list
