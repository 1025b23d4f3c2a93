(** The XDM store of the paper's §3.2: for each node id its kind,
    parent, name and content, with the accessors and constructors
    corresponding to the XQuery data model.

    The store is mutable; the formal semantics' store-threading is
    realized by in-place mutation under the evaluator's defined
    left-to-right evaluation order.

    Delete follows the paper's {e detach} semantics (§3.1): nodes are
    never erased, only disconnected from their parent; a detached
    subtree remains queryable and re-insertable. *)

type node_id = int

type kind = Document | Element | Attribute | Text | Comment | Pi

val kind_to_string : kind -> string

(** The physical node record. Exposed for the store-internal modules
    ([Axes]) and white-box tests; engine code should use the accessors. *)
type node = {
  id : node_id;
  mutable kind : kind;
  mutable name : Xqb_xml.Qname.t option;
  mutable content : string;
  mutable parent : node_id option;
  mutable pos : int;  (** index within the parent's child/attr list *)
  children : Vec.t;
  attributes : Vec.t;
}

type t

(** Raised when an update's precondition fails (§3.2: update
    application is a partial function). *)
exception Update_error of string

val create : unit -> t

(** [scratch base] is a job-private overlay of [base]: a store whose
    own allocations take ids from {!scratch_first_id} up and live in
    its own tables, while every lower id — node, order key, name/key
    index record, lock — reads through to [base]. A read that
    constructs nodes evaluates against it, so its nodes never enter
    [base] (nor its mutation journal, nor a WAL) and are freed with
    the overlay. Trees never mix sides: constructors deep-copy base
    content into the overlay. The overlay never mutates [base]: its
    mutators raise [Invalid_argument] on a base id. Across trees,
    document order puts every base node before every overlay node, as
    creation order would. *)
val scratch : t -> t

(** The first id a {!scratch} overlay allocates (2{^40}). *)
val scratch_first_id : int

(** Number of nodes this store allocated (an overlay's own only). *)
val node_count : t -> int

(** Number of store-mutating operations performed (instrumentation). *)
val mutation_count : t -> int

val get : t -> node_id -> node

(** {1 Constructors (XDM)} *)

val make_document : t -> node_id
val make_element : t -> Xqb_xml.Qname.t -> node_id
val make_text : t -> string -> node_id
val make_comment : t -> string -> node_id
val make_pi : t -> string -> string -> node_id
val make_attribute : t -> Xqb_xml.Qname.t -> string -> node_id

(** {1 Accessors (XDM)} *)

val kind : t -> node_id -> kind
val name : t -> node_id -> Xqb_xml.Qname.t option
val content : t -> node_id -> string
val parent : t -> node_id -> node_id option
val children : t -> node_id -> node_id list
val attributes : t -> node_id -> node_id list
val child_count : t -> node_id -> int
val nth_child : t -> node_id -> int -> node_id

(** Concatenated text of the subtree (fn:string on nodes). *)
val string_value : t -> node_id -> string

val is_ancestor : t -> ancestor:node_id -> node_id -> bool

(** Strict: is the node inside [ancestor]'s subtree? An O(1) interval
    test on the pre/post order keys once they are built (this is a
    read path — it builds on a miss, unlike {!is_ancestor}, whose
    keyed fast path is valid-only because it also runs while
    mutating). *)
val is_descendant : t -> ancestor:node_id -> node_id -> bool

(** Topmost parentless node above [id]. *)
val root : t -> node_id -> node_id

(** {1 Transactions}

    [transactionally store f] runs [f ()]; if it raises, every store
    mutation it performed is undone and the exception re-raised. Used
    by snap application so a failing update list (precondition
    violation, detected conflict) leaves the store unchanged.
    Transactions nest. *)
val transactionally : t -> (unit -> 'a) -> 'a

(** {1 Mutations (the update-request applications of §3.2)} *)

(** @raise Update_error on document/text/comment nodes. *)
val rename : t -> node_id -> Xqb_xml.Qname.t -> unit

(** Set text/comment/PI/attribute content.
    @raise Update_error on element/document nodes. *)
val set_content : t -> node_id -> string -> unit

(** Detach from the parent (the paper's delete). Idempotent. *)
val detach : t -> node_id -> unit

type insert_position = First | Last | After of node_id

(** [insert store ~parent ~position nodes] splices [nodes] into
    [parent]'s child list ([Attribute] nodes go to the attribute
    list). Preconditions (§3.2), checked before any mutation: every
    inserted node is parentless; an [After] anchor is a child of
    [parent]; kinds are compatible; no cycles; no duplicate attribute
    names. @raise Update_error otherwise. *)
val insert : t -> parent:node_id -> position:insert_position -> node_id list -> unit

(** [wire store ~parent nodes] hangs fresh parentless [nodes] under the
    fresh [parent], in order (attributes to its attribute list, the
    rest appended to its children): node-constructor content. For
    nodes nobody else can reach yet, so it takes no index lock, bumps
    no root and checks no cycle. It records no undo entry — a
    rollback of a transaction open meanwhile (another job's snap
    apply) leaves constructed content intact — and journals one
    {!mj_op.M_wire}. Not counted by {!mutation_count}, which counts
    updates. @raise Update_error on [insert]'s kind,
    parentless and duplicate-attribute preconditions, checked before
    anything is wired. *)
val wire : t -> parent:node_id -> node_id list -> unit

(** Deep copy of a subtree; the copy is parentless (the data-model
    half of [copy { e }]). *)
val deep_copy : t -> node_id -> node_id

(** {1 Document order} *)

(** Total order: document order within a tree; across trees (incl.
    detached/fresh nodes) by root creation order. Attributes order
    after their element and before its children. Two array lookups
    when both nodes carry valid pre/post order keys, the naive
    O(depth) chain walk otherwise (never builds keys — building
    happens on the bulk read paths below). *)
val compare_order : t -> node_id -> node_id -> int

(** The chain-walking comparator, always. Exposed as the reference
    implementation for the keyed-≡-naive qcheck property. *)
val compare_order_naive : t -> node_id -> node_id -> int

(** Sort into document order and drop duplicates (the ddo applied to
    path-expression results). Builds order keys, then sorts decorated
    (root, pre) integer pairs. *)
val sort_doc_order : t -> node_id list -> node_id list

(** Is the list already strictly in document order (sorted and
    duplicate-free)? Builds order keys — the ddo builtin's fast
    path. *)
val sorted_strict : t -> node_id list -> bool

(** {1 Serialization and loading} *)

(** Append the XML text of a node (its whole subtree) to the buffer,
    walking the store through {!Xqb_xml.Xml_writer}'s primitives. An
    attribute node serializes as [name="value"]. *)
val add_xml : t -> Buffer.t -> node_id -> unit

(** [add_xml] into a fresh buffer. *)
val serialize : t -> node_id -> string

(** Build a document node from an event stream / XML text. *)
val load_events : t -> Xqb_xml.Event.t list -> node_id

val load_string : ?keep_ws:bool -> t -> string -> node_id

(** {1 Name and key indexes}

    One index record per parentless root, built lazily by the first
    read that needs it. A record reads only element names, attribute
    names and attribute values, so only inserting, detaching or
    renaming an element or attribute, or setting an attribute's value,
    drops it; text, comment and PI edits leave it valid. *)

(** Elements named [q] among the descendants of the context node, in
    document order — the workhorse of [e//name] steps. Served from the
    root's index record for parentless roots; computed directly for
    attached context nodes. *)
val descendants_by_name : t -> node_id -> Xqb_xml.Qname.t -> node_id list

(** String value of [elem]'s attribute named [attr], if present. *)
val attr_value : t -> node_id -> Xqb_xml.Qname.t -> string option

(** Elements [elem] under [root] whose @[attr] string-equals [value] —
    the hash path behind [//elem[@attr = $v]] for string keys. Same
    caching and invalidation policy as {!descendants_by_name}. *)
val lookup_by_key :
  t -> node_id -> elem:Xqb_xml.Qname.t -> attr:Xqb_xml.Qname.t -> string ->
  node_id list

(** Turn the caches off (the ablation knob for benches E12/E13;
    results are identical either way). *)
val set_indexing : t -> bool -> unit

(** Turn the pre/post order-key tables off (ablation knob for bench
    E18: forces the naive comparator everywhere; results are
    identical either way). *)
val set_order_keys : t -> bool -> unit

(** How many order-key tables were (re)built (instrumentation: one
    per (root, shape generation) actually touched by a read; only
    inserts and detaches move a shape generation). *)
val order_key_builds : t -> int

(** How many root index records were (re)built (instrumentation: one
    per parentless root read through the index after an edit that
    dropped its record). *)
val index_builds : t -> int

(** {1 Introspection} *)

(** Structural-invariant check; returns human-readable violations
    (empty = healthy). Used by tests and failure injection. *)
val validate : t -> string list

(** Parentless non-document nodes — the "persistent but unreachable
    nodes" of §4.1 the detach semantics produces. *)
val detached_count : t -> int

(** Stable, human-readable path from the node's root
    (["/site[1]/regions[1]/africa[1]"]; attributes end in ["/@name"],
    text nodes in ["/text()[k]"]). Indexes are 1-based among
    same-label siblings. Nodes under a detached (non-document) root
    get the root's id as a disambiguating prefix (["log#7/entry[2]"]);
    ids the store does not know render as ["#<id>"]. *)
val node_path : t -> node_id -> string

(** {1 Mutation journal (effect observability)}

    An append-only, replayable record of everything that changes the
    store, distinct from the transactional undo log: node allocations,
    inserts, detaches, renames, content writes, deep copies, and
    transaction begin/commit/abort markers, each with a monotonic
    sequence number. Because node ids are allocated sequentially,
    re-executing the entries in order against a {e fresh} store
    reproduces the same ids and hence the same store byte for byte —
    see {!Journal.replay}. Provenance notes ({!mj_op.M_request}) tie
    journal spans back to the update request (and source location)
    that caused them. *)

type mj_op =
  | M_make of kind * Xqb_xml.Qname.t option * string
      (** one node allocation: kind, name, content *)
  | M_insert of node_id * insert_position * node_id list
  | M_detach of node_id
  | M_rename of node_id * Xqb_xml.Qname.t
  | M_set_content of node_id * string
  | M_deep_copy of node_id
      (** composite: one whole recursive {!deep_copy} *)
  | M_wire of node_id * node_id list
      (** constructor wiring ({!wire}); never undone, live or in replay *)
  | M_txn_begin
  | M_txn_commit
  | M_txn_abort
  | M_request of {
      line : int;
      col : int;
      snap_depth : int;
      trace_id : string option;
      desc : string;
    }  (** provenance note preceding one update request's ops *)

type mj_entry = { seq : int; op : mj_op }

(** Start recording (clears any previous journal). Replay is exact
    only when recording starts on a fresh, empty store and outside any
    transaction. *)
val journal_start : t -> unit

(** Recording and not suspended by a composite op. *)
val journal_active : t -> bool

(** Entries in chronological order. *)
val journal_entries : t -> mj_entry list

(** Entries with [seq >= n] in chronological order — the tail the
    durable layer has not yet appended to the on-disk WAL. O(tail)
    thanks to the reversed internal list. *)
val journal_entries_from : t -> int -> mj_entry list

(** Number of entries recorded (= the next sequence number). *)
val journal_length : t -> int

(** Append a provenance note ({!mj_op.M_request}); no-op when not
    recording. *)
val journal_note :
  t -> line:int -> col:int -> snap_depth:int -> trace_id:string option ->
  desc:string -> unit

(** Re-execute an {!mj_op.M_make} (journal replay only). *)
val replay_make : t -> kind -> Xqb_xml.Qname.t option -> string -> node_id
