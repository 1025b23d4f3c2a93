(** Qualified names for elements, attributes and functions.

    Names are [(prefix, local)] pairs (the paper's programs never
    rebind prefixes, so pair equality coincides with expanded-name
    equality). They are interned: {!make} and {!of_string} are the
    only constructors and return one shared record per pair, so
    {!equal} is physical equality. *)

type t = private { prefix : string; local : string }

(** [make ?prefix local] is the interned name; [prefix] defaults to
    [""]. Thread- and domain-safe. *)
val make : ?prefix:string -> string -> t

val prefix : t -> string
val local : t -> string

(** Parse ["p:local"] or ["local"]. Total; validity is checked
    separately with {!valid}. *)
val of_string : string -> t

val to_string : t -> string

(** [a == b]: the same pair is the same record. Agrees with
    structural equality on every name this module returned. *)
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

(** Character classes for XML names (ASCII subset; bytes >= 128
    accepted). *)
val is_name_start : char -> bool

val is_name_char : char -> bool

(** XML 1.0 NCName check. *)
val valid_ncname : string -> bool

(** Both parts of the name are valid NCNames (empty prefix allowed). *)
val valid : t -> bool

(** [xs "integer"] = [xs:integer]. *)
val xs : string -> t

(** [fn "count"] = [fn:count]. *)
val fn : string -> t
