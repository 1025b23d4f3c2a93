(** Versioned pre/post-order keys: the store's O(1) document-order
    acceleration (see [Store.compare_order]). A key is valid iff its
    [(root, ver)] generation matches the root's current shape
    generation, which only inserts and detaches move. *)

type t = { root : int; ver : int; pre : int; post : int }

(** The "no key" sentinel ([root = -1]). *)
val none : t

(** Strict subtree containment — an O(1) interval test. Only
    meaningful when both keys are valid for the same generation. *)
val contains : anc:t -> desc:t -> bool
