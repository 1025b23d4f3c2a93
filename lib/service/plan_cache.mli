(** Bounded LRU cache of prepared query plans. Two ways in: text keys
    (whitespace-normalized source, literals verbatim) and shape keys
    (the same with every quoted span holed, plus a per-entry hole mask
    and verbatim sub-key), which the query service uses. Thread-safe. *)

type 'a t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
  shapes : int;  (** resident entries that hold at least one parameter *)
}

val create : ?capacity:int -> unit -> 'a t

(** Collapse whitespace runs so reformatted repeats of a query still
    hit the cache — except inside string/attribute literals (their
    spelling is the value: ['a b'] and ['a  b'] must not share a
    plan) and inside [(: ... :)] comments, which are both preserved
    verbatim, and anywhere in a text that may hold a direct element
    constructor (['<'] before a name, ['!'] or ['?']), whose content
    whitespace is significant. Honors the lexer's quote-doubling
    escapes and nested comments. *)
val normalize_key : string -> string

(** Lookup by (already normalized) key; counts a hit or miss and
    refreshes recency. *)
val find : 'a t -> string -> 'a option

(** Insert, evicting the least-recently-used entry when full. *)
val add : 'a t -> string -> 'a -> unit

(** {1 Shape keys} *)

(** A request's shape: {!normalize_key}'s scan with every quoted span
    reduced to its two quotes, and the spans' byte extents in [src]
    ([start], [stop) exclusive, quotes included), in source order. *)
type shape = private { key : string; src : string; spans : (int * int) array }

val shape : string -> shape

(** The source text of span [i], quotes included. *)
val span_text : shape -> int -> string

(** The span whose extent is exactly [start, stop), if any. *)
val span_index : shape -> start:int -> stop:int -> int option

(** [find_shape t sh accept]: the entries under [sh.key] whose
    verbatim spans (those their hole mask leaves out) equal [sh]'s are
    offered to [accept mask value] in turn; the first [Some] is the
    result. Counts one hit or one miss and refreshes recency. *)
val find_shape : 'a t -> shape -> (bool array -> 'a -> 'b option) -> 'b option

(** Insert under [sh]'s key with hole mask [holes] (one flag per span;
    the unflagged spans become the entry's verbatim sub-key), evicting
    the least-recently-used entry when full. *)
val add_shape : 'a t -> shape -> holes:bool array -> 'a -> unit

val stats : 'a t -> stats
