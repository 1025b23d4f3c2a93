(* Versioned pre/post-order keys for O(1) document order.

   One key per node, tagged with the (root, shape generation) it was
   built under. A key is *valid* iff its root's current shape
   generation still equals [ver]; every insert and detach bumps the
   affected root's shape generation, so a valid key proves the tree
   shape is unchanged since the build. Renames and value edits do not
   move the shape generation (keys read no names or contents), and
   the name and key indexes are invalidated separately
   ([Store.bump]).

   [pre]/[post] are positions in a single shared counter over one DFS:
   an element takes its [pre], then each attribute takes an empty slot
   (pre = post), then children recurse, then the element takes its
   [post]. This matches [Store.sibling_rank]'s attributes-before-
   children order, so the keyed comparator agrees with the naive
   chain-walking one (asserted by the qcheck property). *)

type t = { root : int; ver : int; pre : int; post : int }

(* Sentinel for "no key": root = -1 never matches a real root id. *)
let none = { root = -1; ver = -1; pre = 0; post = 0 }

(* Strict containment: is [desc] strictly inside [anc]'s subtree?
   Only meaningful when both keys are valid for the same generation. *)
let contains ~anc ~desc =
  anc.root = desc.root && anc.pre < desc.pre && desc.post < anc.post
