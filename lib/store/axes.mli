(** XPath axes and node tests over the store.

    Forward axes return nodes in document order, reverse axes in
    reverse document order (nearest first) — positional predicates
    count in axis order, as XPath requires. *)

type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Attribute
  | Self
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Following_sibling
  | Preceding_sibling
  | Following
  | Preceding

val axis_to_string : axis -> string
val is_reverse : axis -> bool

(** Node tests. A [Name] test matches the axis' principal node kind:
    attributes on the attribute axis, elements everywhere else. *)
type node_test =
  | Name of Xqb_xml.Qname.t
  | Wildcard
  | Kind_node
  | Kind_text
  | Kind_element of Xqb_xml.Qname.t option
  | Kind_attribute of Xqb_xml.Qname.t option
  | Kind_comment
  | Kind_pi of string option
  | Kind_document

val node_test_to_string : node_test -> string

val principal_kind : axis -> Store.kind

val test_matches : Store.t -> axis -> node_test -> Store.node_id -> bool

(** All nodes on [axis] from the context node, unfiltered. *)
val apply : Store.t -> axis -> Store.node_id -> Store.node_id list

(** [step store axis test f id]: [apply] filtered by the node test —
    one full step — with each match mapped through [f]. Charges the
    budget exactly as [apply] does. The child and attribute axes walk
    the parent's vector in place instead of materializing it. *)
val step :
  Store.t -> axis -> node_test -> (Store.node_id -> 'a) -> Store.node_id -> 'a list

(** Descendants in document order (no attributes). *)
val descendants : Store.t -> Store.node_id -> Store.node_id list

(** Ancestors, nearest first. *)
val ancestors : Store.t -> Store.node_id -> Store.node_id list
