(** Hand-written lexer for XQuery!.

    XQuery has no reserved words, so the lexer emits generic
    {!type:token}s and the parser decides keyword-hood from context.
    Direct element constructors are lexed through the raw
    character-level entry points at the bottom — the parser switches
    modes, the standard trick for XQuery's context-sensitive grammar. *)

type token =
  | Int of int
  | Decimal of float
  | Double of float
  | Str of string  (** quote-doubling and entity refs already resolved *)
  | Name of string
  | Qname of string * string  (** prefix:local, lexed with no spaces *)
  | Var of string  (** $name *)
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Comma
  | Semi
  | Dot
  | Dotdot
  | Slash
  | Slashslash
  | At
  | Coloncolon
  | Colonassign
  | Star
  | Plus
  | Minus
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Ltlt
  | Gtgt
  | Bar
  | Question
  | Eof

val token_to_string : token -> string

type t

exception Error of int * int * string  (** line, column, message *)

val make : string -> t

(** Current (line, column). *)
val position : t -> int * int

(** (line, column) where the most recent token returned by {!next}
    started, i.e. the position after skipping trivia and before
    consuming the token's first character. *)
val token_start : t -> int * int

(** Byte offset of the next unread character, and of the start of the
    most recent token returned by {!next} — the two ends of that
    token once {!next} returns. *)
val offset : t -> int

val token_offset : t -> int

(** Next token; skips whitespace and nestable [(: ... :)] comments. *)
val next : t -> token

val is_space : char -> bool

(** {1 Raw scanning for direct constructors}

    Valid only when the parser has just consumed ['<'] (or is inside
    element content) and its token buffer is empty. *)

val raw_peek : t -> char
val raw_advance : t -> unit
val raw_skip_space : t -> unit
val raw_name : t -> string
val raw_qname : t -> Xqb_xml.Qname.t
val raw_expect : t -> char -> unit
val raw_looking_at : t -> string -> bool
val raw_skip_string : t -> string -> unit

(** Element-content text up to the next ['<'], ['{'] or ['}'];
    doubled braces unescape, entities resolve. *)
val raw_content_text : t -> string

(** Attribute value split into text and ['{']-enclosed expression
    segments (returned as raw source for re-parsing). *)
val raw_attr_value : t -> [ `Text of string | `Expr of string ] list

(** Text before the next occurrence of the terminator (consumed). *)
val raw_until : t -> string -> string
