(** Pull-style XML events: what the parser produces, the writer
    consumes, the store loader folds over and the XMark generator
    emits. *)

type t =
  | Start_element of Qname.t * (Qname.t * string) list
  | End_element of Qname.t
  | Text of string
  | Comment of string
  | Pi of string * string  (** target, content *)

val equal : t -> t -> bool
