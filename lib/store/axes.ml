(* XPath axes over the store. Every axis returns nodes already in the
   axis' natural order (document order for forward axes, reverse
   document order for reverse axes); the evaluator still applies
   distinct-doc-order at step boundaries as XQuery requires. *)

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

let axis_to_string = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Descendant_or_self -> "descendant-or-self"
  | Attribute -> "attribute"
  | Self -> "self"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Ancestor_or_self -> "ancestor-or-self"
  | Following_sibling -> "following-sibling"
  | Preceding_sibling -> "preceding-sibling"
  | Following -> "following"
  | Preceding -> "preceding"

let is_reverse = function
  | Parent | Ancestor | Ancestor_or_self | Preceding_sibling | Preceding -> true
  | Child | Descendant | Descendant_or_self | Attribute | Self
  | Following_sibling | Following -> false

(* Node tests. [Name] matches elements on non-attribute axes and
   attributes on the attribute axis, per XPath's principal node kind. *)
type node_test =
  | Name of Xqb_xml.Qname.t
  | Wildcard  (* '*' *)
  | Kind_node  (* node() *)
  | Kind_text
  | Kind_element of Xqb_xml.Qname.t option  (* element() / element(n) *)
  | Kind_attribute of Xqb_xml.Qname.t option
  | Kind_comment
  | Kind_pi of string option
  | Kind_document

let node_test_to_string = function
  | Name q -> Xqb_xml.Qname.to_string q
  | Wildcard -> "*"
  | Kind_node -> "node()"
  | Kind_text -> "text()"
  | Kind_element None -> "element()"
  | Kind_element (Some q) -> Printf.sprintf "element(%s)" (Xqb_xml.Qname.to_string q)
  | Kind_attribute None -> "attribute()"
  | Kind_attribute (Some q) -> Printf.sprintf "attribute(%s)" (Xqb_xml.Qname.to_string q)
  | Kind_comment -> "comment()"
  | Kind_pi None -> "processing-instruction()"
  | Kind_pi (Some t) -> Printf.sprintf "processing-instruction(%s)" t
  | Kind_document -> "document-node()"

let principal_kind = function
  | Attribute -> Store.Attribute
  | Child | Descendant | Descendant_or_self | Self | Parent | Ancestor
  | Ancestor_or_self | Following_sibling | Preceding_sibling | Following
  | Preceding -> Store.Element

(* Names are interned, so a name test is a pointer compare. *)
let name_matches qn = function
  | Some n -> Xqb_xml.Qname.equal qn n
  | None -> false

(* The node test on a node record, [principal] being the axis'
   principal node kind. *)
let node_matches principal test (n : Store.node) =
  let k = n.kind in
  match test with
  | Name qn -> k = principal && name_matches qn n.name
  | Wildcard -> k = principal
  | Kind_node -> true
  | Kind_text -> k = Store.Text
  | Kind_element None -> k = Store.Element
  | Kind_element (Some qn) -> k = Store.Element && name_matches qn n.name
  | Kind_attribute None -> k = Store.Attribute
  | Kind_attribute (Some qn) -> k = Store.Attribute && name_matches qn n.name
  | Kind_comment -> k = Store.Comment
  | Kind_pi None -> k = Store.Pi
  | Kind_pi (Some t) ->
    k = Store.Pi
    && (match n.name with
       | Some q -> String.equal (Xqb_xml.Qname.to_string q) t
       | None -> false)
  | Kind_document -> k = Store.Document

let test_matches store axis test id =
  node_matches (principal_kind axis) test (Store.get store id)

(* Charge [n] steps against an (optional) budget. The walkers below
   charge one step per emitted node *during* the walk, so a fuel
   budget bounds the work of a huge descendant/following scan instead
   of being checked only after the full result is materialized. *)
let charge b n =
  match b with None -> () | Some b -> Xqb_governor.Budget.charge b n

(* All descendants of [id] in document order (excluding attributes). *)
let rec add_descendants store b acc id =
  List.fold_left
    (fun acc c ->
      charge b 1;
      add_descendants store b (c :: acc) c)
    acc (Store.children store id)

let descendants_b store b id = List.rev (add_descendants store b [] id)

let descendants store id = descendants_b store None id

let ancestors store id =
  let rec up acc id =
    match Store.parent store id with None -> acc | Some p -> up (p :: acc) p
  in
  List.rev (up [] id)  (* nearest ancestor first (reverse doc order) *)

let siblings_after store id =
  match Store.parent store id with
  | None -> []
  | Some p ->
    if Store.kind store id = Store.Attribute then []
    else begin
      let n = Store.get store id in
      let cs = Store.get store p in
      let out = ref [] in
      for i = Vec.length cs.children - 1 downto n.pos + 1 do
        out := Vec.get cs.children i :: !out
      done;
      !out
    end

let siblings_before store id =
  match Store.parent store id with
  | None -> []
  | Some p ->
    if Store.kind store id = Store.Attribute then []
    else begin
      let n = Store.get store id in
      let cs = Store.get store p in
      let out = ref [] in
      for i = 0 to n.pos - 1 do
        out := Vec.get cs.children i :: !out
      done;
      !out  (* nearest sibling first: reverse document order *)
    end

(* Nodes strictly after [id] in document order, excluding descendants
   and attributes (the XPath [following] axis): the following siblings
   of [id] with their subtrees, then those of its parent, and so on. *)
let following_b store b id =
  let rec up id =
    let here =
      List.concat_map
        (fun s ->
          charge b 1;
          s :: descendants_b store b s)
        (siblings_after store id)
    in
    match Store.parent store id with None -> here | Some p -> here @ up p
  in
  up id

let preceding_b store b id =
  (* Nodes strictly before [id], excluding ancestors and attributes,
     in reverse document order. Ancestors go into a hash set: the
     membership test runs once per candidate sibling, and a List.mem
     over the ancestor chain made deep-tree preceding quadratic. *)
  let anc_set = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace anc_set a ()) (ancestors store id);
  let is_anc x = Hashtbl.mem anc_set x in
  let rec up acc id =
    let acc =
      List.fold_left
        (fun acc s ->
          if is_anc s then acc
          else begin
            charge b 1;
            List.rev_append (descendants_b store b s) (s :: acc)
          end)
        acc
        (List.rev (siblings_before store id))
      (* siblings_before is nearest-first; List.rev gives doc order;
         we accumulate reversed so nearest material ends up first. *)
    in
    match Store.parent store id with None -> acc | Some p -> up acc p
  in
  up [] id

let apply store axis id =
  (* Axis walks are where a governed query burns store work that the
     evaluator's per-expression tick cannot see. The unbounded-fanout
     axes charge per node during the walk (see [charge]); the
     remaining axes are bounded by local degree/depth and charge
     their materialized length, as before. *)
  let b = Xqb_governor.Budget.current () in
  match axis with
  | Descendant -> descendants_b store b id
  | Descendant_or_self ->
    charge b 1;
    id :: descendants_b store b id
  | Following -> following_b store b id
  | Preceding -> preceding_b store b id
  | Child | Attribute | Self | Parent | Ancestor | Ancestor_or_self
  | Following_sibling | Preceding_sibling ->
    let nodes =
      match axis with
      | Child -> Store.children store id
      | Attribute -> Store.attributes store id
      | Self -> [ id ]
      | Parent -> (match Store.parent store id with None -> [] | Some p -> [ p ])
      | Ancestor -> ancestors store id
      | Ancestor_or_self -> id :: ancestors store id
      | Following_sibling -> siblings_after store id
      | Preceding_sibling -> siblings_before store id
      | Descendant | Descendant_or_self | Following | Preceding ->
        assert false
    in
    charge b (List.length nodes);
    nodes

(* One full step: axis + node test from a single context node, each
   match mapped through [f] (the evaluator wraps node ids as items).
   The child and attribute axes — most steps — walk the parent's
   vector in place, testing each node record once, and build the
   result back to front in one pass; nothing mutates the store during
   a read (the §3 purity observation), so the vector is stable. They
   charge the full vector length, as [apply] does. The other axes
   filter [apply]'s list. *)
let step store axis test f id =
  match axis with
  | Child | Attribute ->
    let n = Store.get store id in
    let vec = if axis = Child then n.children else n.attributes in
    let len = Vec.length vec in
    charge (Xqb_governor.Budget.current ()) len;
    let principal = principal_kind axis in
    let out = ref [] in
    for i = len - 1 downto 0 do
      let c = Vec.get vec i in
      if node_matches principal test (Store.get store c) then out := f c :: !out
    done;
    !out
  | Self | Parent | Ancestor | Ancestor_or_self | Following_sibling
  | Preceding_sibling | Descendant | Descendant_or_self | Following | Preceding ->
    List.filter_map
      (fun c -> if test_matches store axis test c then Some (f c) else None)
      (apply store axis id)
