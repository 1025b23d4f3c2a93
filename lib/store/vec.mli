(** Growable vector of ints, used for child/attribute lists.

    Child lists are a hot path: XMark-style workloads append thousands
    of children under one parent, so the amortized O(1) {!push}
    matters for the complexity claims of experiment E1. *)

type t

(** Fresh empty vector. Without a positive [capacity] it shares the
    empty array and allocates only on its first push. *)
val create : ?capacity:int -> unit -> t

val length : t -> int

(** @raise Invalid_argument on out-of-range indexes. *)
val get : t -> int -> int

val set : t -> int -> int -> unit

(** Append; amortized O(1). *)
val push : t -> int -> unit

(** [insert v i x] inserts [x] at index [i], shifting the tail. O(n-i). *)
val insert : t -> int -> int -> unit

(** Remove the element at an index, shifting the tail. O(n-i). *)
val remove_at : t -> int -> unit

(** Index of the first occurrence, if any. O(n). *)
val index_of : t -> int -> int option

(** Remove the first occurrence; [true] if something was removed. *)
val remove : t -> int -> bool

val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val to_list : t -> int list
val of_list : int list -> t
val is_empty : t -> bool
val first : t -> int option
val last : t -> int option
val exists : (int -> bool) -> t -> bool
