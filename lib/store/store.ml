(* The XDM store of §3.2: for each node id, its kind, parent, name and
   content, plus the accessors and constructors corresponding to the
   XDM. The store is mutable; the formal semantics' store-threading is
   realized by in-place mutation under the evaluator's defined
   left-to-right evaluation order.

   Delete follows the paper's *detach* semantics: nodes are never
   erased, only disconnected from their parent; a detached subtree
   remains queryable and re-insertable (§3.1).

   Each node caches its index within its parent ([pos]); insert/detach
   maintain it, which makes document-order comparison O(depth) and
   keeps E1's complexity claims honest (no hidden linear scans). *)

type node_id = int

type kind = Document | Element | Attribute | Text | Comment | Pi

let kind_to_string = function
  | Document -> "document"
  | Element -> "element"
  | Attribute -> "attribute"
  | Text -> "text"
  | Comment -> "comment"
  | Pi -> "processing-instruction"

type node = {
  id : node_id;
  mutable kind : kind;
  mutable name : Xqb_xml.Qname.t option;
  mutable content : string;  (* text/comment/pi content, attribute value *)
  mutable parent : node_id option;
  mutable pos : int;  (* index within parent's children or attributes *)
  children : Vec.t;
  attributes : Vec.t;
}

type journal_entry =
  | J_child_inserted of node_id * node_id  (* parent, child *)
  | J_attr_inserted of node_id * node_id
  | J_detached_child of node_id * node_id * int  (* child, parent, index *)
  | J_detached_attr of node_id * node_id * int
  | J_renamed of node_id * Xqb_xml.Qname.t option
  | J_content of node_id * string

(* Mutation-journal ops (distinct from [journal_entry], which is the
   transactional UNDO log above). The mutation journal is an
   append-only, replayable record of everything that changed the
   store: node allocation is sequential, so re-executing the ops in
   order against a fresh store reproduces the same node ids and hence
   the same store byte for byte ([Journal.replay]). Transaction spans
   are bracketed with begin/commit/abort markers so replay can redo a
   rollback with the same undo machinery. *)
type insert_position = First | Last | After of node_id

type mj_op =
  | M_make of kind * Xqb_xml.Qname.t option * string
    (* one [alloc]: kind, name, content *)
  | M_insert of node_id * insert_position * node_id list
  | M_detach of node_id
  | M_rename of node_id * Xqb_xml.Qname.t
  | M_set_content of node_id * string
  | M_deep_copy of node_id
    (* composite: the whole recursive copy, one entry (inner allocs
       are suppressed — [deep_copy] wires structure directly, so
       replay just calls it again) *)
  | M_wire of node_id * node_id list
    (* constructor wiring ([wire]): fresh nodes hung under a fresh
       parent; never undone, live or in replay *)
  | M_txn_begin
  | M_txn_commit
  | M_txn_abort
  | M_request of {
      line : int;
      col : int;
      snap_depth : int;
      trace_id : string option;
      desc : string;
    }
    (* provenance note preceding the ops of one update request *)

type mj_entry = { seq : int; op : mj_op }

(* One parentless root's name and key indexes. [by_name] is filled by
   one DFS when the record is built; [by_key] fills lazily, one table
   per (element, attribute) pair. Both read only element names,
   attribute names and attribute values, so only an edit to one of
   those drops the record (see [bump]). *)
type root_index = {
  by_name : (string, node_id list) Hashtbl.t;  (* name -> elements, doc order *)
  by_key : (string * string, (string, node_id list) Hashtbl.t) Hashtbl.t;
    (* (elem, attr) -> value -> elements, doc order *)
}

type t = {
  (* [tbl], [okeys] and [root_vers] are indexed by [id - first_id].
     A plain store has [first_id = 0] and no [base]. A scratch overlay
     ([scratch]) owns the ids from [scratch_first_id] up and reads
     every lower id — node, order key, index record, lock — through
     to [base]. *)
  first_id : int;
  base : t option;
  mutable tbl : node array;
  mutable next_id : int;
  mutable journal : journal_entry list;
  mutable journal_on : bool;
  (* mutation journal (observability): reversed entry list, entry
     count (= next seq), recording flag, and a suspension flag for
     composite ops ([deep_copy]) whose inner allocs must not appear *)
  mutable mj : mj_entry list;
  mutable mj_count : int;
  mutable mj_on : bool;
  mutable mj_suspend : bool;
  mutable mutations : int;  (* statistics: store-changing operations *)
  (* The name and key indexes, one record per parentless root, built
     lazily by the first read that needs it. Invalidation is per root
     and per index kind: only an edit to what the record reads (an
     element or attribute inserted, detached or renamed, an attribute
     value set) drops the record of the root above it. Text edits —
     the bids of the §2 service — leave it alone, and writes to one
     tree (a log) never evict another tree's record (the auction
     document) — see bench E13. A rebuild replaces the dropped record,
     so the table holds one record per indexed root, bounded by
     [max_indexed_roots]. Guarded by [index_lock]. *)
  mutable index_enabled : bool;
  index : (node_id, root_index) Hashtbl.t;
  mutable index_builds : int;  (* statistics: root-index (re)builds *)
  (* The shape generation: one slot per node id (only parentless roots
     are ever bumped), bumped by every insert and detach, whatever the
     node kind — exactly what the order keys read. An array rather
     than a hashtable so the hot validity check ([okey_valid]) is a
     lock-free load that can run while a *disjoint* region of the
     same store is being mutated; all writes (and resizes) happen
     under [mu]. A stale read is sound: it can only under-report a
     bump by a concurrent writer whose footprint is disjoint, and
     relative order / containment of the reader's own nodes is
     unaffected by disjoint structural edits. *)
  mutable root_vers : int array;
  (* pre/post-order keys (see order_key.ml), one slot per node id,
     built lazily per parentless root and invalidated by the root's
     shape generation. [Order_key.none] means "never built"; a stale
     generation is detected per-node by comparing [ver] against the
     root's current shape generation, so slots are never eagerly
     cleared. *)
  mutable okeys : Order_key.t array;
  mutable order_keys_enabled : bool;
  mutable okey_builds : int;  (* statistics: key-table (re)builds *)
  (* The index caches above are filled *lazily during reads*, and
     their builds walk a whole tree — potentially crossing into a
     subtree some footprint-disjoint writer is mutating right now.
     This lock therefore serializes cache fill/lookup *and* every
     structural mutator body, so a build never observes a half-done
     splice. Uncontended cost is a few ns. *)
  index_lock : Mutex.t;
  (* Allocation/journal lock: node-id assignment, table/okeys/version
     resizes, mutation-journal appends and version bumps. Keeps ids
     sequential and the journal totally ordered when several
     footprint-disjoint jobs evaluate concurrently. Lock order:
     [index_lock] before [mu]; never the reverse. *)
  mu : Mutex.t;
}

exception Update_error of string

let update_error fmt = Format.kasprintf (fun s -> raise (Update_error s)) fmt

let dummy_node =
  { id = -1; kind = Text; name = None; content = ""; parent = None; pos = 0;
    children = Vec.create (); attributes = Vec.create () }

let create () =
  { first_id = 0; base = None;
    tbl = Array.make 64 dummy_node; next_id = 0; journal = []; journal_on = false;
    mj = []; mj_count = 0; mj_on = false; mj_suspend = false;
    mutations = 0; index_enabled = true; index = Hashtbl.create 8;
    index_builds = 0; root_vers = Array.make 64 0;
    okeys = Array.make 64 Order_key.none; order_keys_enabled = true;
    okey_builds = 0; index_lock = Mutex.create (); mu = Mutex.create () }

(* The first id a scratch overlay allocates: far above any id a store
   reaches, so an id alone says which side owns it. *)
let scratch_first_id = 1 lsl 40

(* A job-private overlay of [base] for a read that constructs nodes.
   Its own allocations get ids from [scratch_first_id] up and live in
   its own tables; every lower id reads through to [base], which the
   overlay never mutates (the mutators reject base ids). Trees never
   mix sides: constructors deep-copy base content into the overlay, so
   every tree — and with it every order key and index record — lies
   wholly in one store. Dropping the overlay frees all it allocated;
   [base]'s ids, journal and WAL never see it. *)
let scratch base =
  if base.base <> None then invalid_arg "Store.scratch: already an overlay";
  { (create ()) with
    first_id = scratch_first_id;
    next_id = scratch_first_id;
    base = Some base;
    index_enabled = base.index_enabled;
    order_keys_enabled = base.order_keys_enabled }

(* The store that owns [id]: the overlay for its own ids, the base for
   lower ones. *)
let owner store id =
  if id >= store.first_id then store
  else match store.base with Some b -> b | None -> store

(* Mutators act on the store's own nodes only. *)
let own store id =
  if id < store.first_id then
    invalid_arg "Store: a scratch overlay never mutates its base"

(* -- Mutation journal (observability) ------------------------------ *)

(* Run [f ()] holding [m]. Unlocks on both exits without the
   closures [Fun.protect] allocates: these wrap every allocation and
   every index lookup. *)
let locked m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

let with_mu store f = locked store.mu f

(* Caller holds [mu] (allocation, deep copy). *)
let mj_record store op =
  if store.mj_on && not store.mj_suspend then begin
    store.mj <- { seq = store.mj_count; op } :: store.mj;
    store.mj_count <- store.mj_count + 1
  end

(* Locking append, for callers that don't hold [mu] (the structural
   mutators, transaction markers, provenance notes). *)
let mj_append store op = with_mu store (fun () -> mj_record store op)

(* Start recording. The journal is replayable only when started on a
   fresh (empty) store — replay depends on sequential id allocation —
   and outside any transaction; callers own that discipline. *)
let journal_start store =
  with_mu store (fun () ->
      store.mj <- [];
      store.mj_count <- 0;
      store.mj_on <- true)

let journal_active store = store.mj_on && not store.mj_suspend

let journal_entries store = with_mu store (fun () -> List.rev store.mj)

(* Entries with [seq >= n], oldest first. The internal list is newest
   first, so walk until the seq drops below [n] — O(tail), which is
   what the WAL appender consumes after each committed job. Under
   [mu] so a concurrent evaluator's allocation can't tear the list
   head out from under the walk. *)
let journal_entries_from store n =
  with_mu store (fun () ->
      let rec take acc = function
        | { seq; _ } as e :: rest when seq >= n -> take (e :: acc) rest
        | _ -> acc
      in
      take [] store.mj)

let journal_length store = store.mj_count

let journal_note store ~line ~col ~snap_depth ~trace_id ~desc =
  mj_append store (M_request { line; col; snap_depth; trace_id; desc })

let set_indexing store b = store.index_enabled <- b
let set_order_keys store b = store.order_keys_enabled <- b
let order_key_builds store = store.okey_builds
let index_builds store = store.index_builds

let with_index_lock store f = locked store.index_lock f

let root_version store root =
  let s = owner store root in
  let i = root - s.first_id in
  let vers = s.root_vers in
  if i >= 0 && i < Array.length vers then vers.(i) else 0

(* The order-key slot of [id], in whichever store owns it. *)
let okey store id =
  let s = owner store id in
  s.okeys.(id - s.first_id)

(* Is this key's generation current? Two reads (key slot + shape
   generation) — no root walk. Sound because every insert and detach
   bumps the shape generation of the root whose tree it touches
   (including the self-bump on freshly attached nodes and the child
   bump when an undo re-attaches a detached subtree), so a key that
   still matches its root's generation proves the tree shape is
   unchanged since the build. Names and contents are not part of the
   shape: renames and value edits leave keys valid. *)
let okey_valid store (k : Order_key.t) =
  k.Order_key.root >= 0 && root_version store k.Order_key.root = k.Order_key.ver

let node_count store = store.next_id - store.first_id

let mutation_count store = store.mutations

let get store id =
  if id >= store.first_id && id < store.next_id then store.tbl.(id - store.first_id)
  else
    match store.base with
    | Some b when id >= 0 && id < b.next_id -> b.tbl.(id)
    | _ -> invalid_arg "Store.get: bad node id"

let mem store id =
  (id >= store.first_id && id < store.next_id)
  || match store.base with Some b -> id >= 0 && id < b.next_id | None -> false

(* Caller holds [mu]. Resizes swap in freshly copied arrays, so a
   lock-free reader holding the old pointer still sees every node
   that existed when it loaded it — node records are shared, only
   the spine is replaced. *)
let alloc_unlocked store kind name content =
  let i = store.next_id - store.first_id in
  if i >= Array.length store.tbl then begin
    let tbl = Array.make (2 * Array.length store.tbl) dummy_node in
    Array.blit store.tbl 0 tbl 0 i;
    store.tbl <- tbl;
    let okeys = Array.make (2 * Array.length store.okeys) Order_key.none in
    Array.blit store.okeys 0 okeys 0 i;
    store.okeys <- okeys;
    let vers = Array.make (2 * Array.length store.root_vers) 0 in
    Array.blit store.root_vers 0 vers 0 (Array.length store.root_vers);
    store.root_vers <- vers
  end;
  let n =
    { id = store.next_id; kind; name; content; parent = None; pos = 0;
      children = Vec.create (); attributes = Vec.create () }
  in
  store.tbl.(i) <- n;
  store.next_id <- store.next_id + 1;
  mj_record store (M_make (kind, name, content));
  n.id

let alloc store kind name content =
  with_mu store (fun () -> alloc_unlocked store kind name content)

(* Journal replay's constructor: re-execute an [M_make] verbatim.
   Identical to the per-kind constructors below modulo the name/kind
   packaging. *)
let replay_make store kind name content = alloc store kind name content

(* -- Constructors ------------------------------------------------- *)

let make_document store = alloc store Document None ""
let make_element store name = alloc store Element (Some name) ""
let make_text store content = alloc store Text None content
let make_comment store content = alloc store Comment None content
let make_pi store target content = alloc store Pi (Some (Xqb_xml.Qname.make target)) content

let make_attribute store name value = alloc store Attribute (Some name) value

(* -- Accessors ---------------------------------------------------- *)

let kind store id = (get store id).kind
let name store id = (get store id).name
let content store id = (get store id).content
let parent store id = (get store id).parent
let children store id = Vec.to_list (get store id).children
let attributes store id = Vec.to_list (get store id).attributes
let child_count store id = Vec.length (get store id).children
let nth_child store id i = Vec.get (get store id).children i

(* An element or document whose content is one text node (or none)
   — most of XMark's leaves — has that node's content as its string
   value, shared rather than copied through a buffer. *)
let rec string_value store id =
  let n = get store id in
  match n.kind with
  | Text | Comment | Pi | Attribute -> n.content
  | Element | Document -> (
    match Vec.length n.children with
    | 0 -> ""
    | 1 when (get store (Vec.get n.children 0)).kind = Text ->
      (get store (Vec.get n.children 0)).content
    | _ ->
      let buf = Buffer.create 16 in
      add_text_descendants store buf id;
      Buffer.contents buf)

and add_text_descendants store buf id =
  let n = get store id in
  match n.kind with
  | Text -> Buffer.add_string buf n.content
  | Element | Document ->
    Vec.iter (fun c -> add_text_descendants store buf c) n.children
  | Attribute | Comment | Pi -> ()

let is_ancestor store ~ancestor id =
  (* valid-key fast path only — never builds, because this also runs
     on the mutation path (insert's cycle check), where keys are
     typically stale anyway *)
  let ka = okey store ancestor and kd = okey store id in
  if okey_valid store ka && okey_valid store kd then
    Order_key.contains ~anc:ka ~desc:kd
  else
    let rec up id =
      match (get store id).parent with
      | None -> false
      | Some p -> p = ancestor || up p
    in
    up id

let root store id =
  let rec up id =
    match (get store id).parent with None -> id | Some p -> up p
  in
  up id

(* Does an edit of a node of this kind change what the name and key
   indexes read? Inserting, detaching or renaming elements and
   attributes does; so does setting an attribute's value (the key
   index reads it). Text, comment and PI edits never do. *)
let indexed_kind = function
  | Element | Attribute -> true
  | Document | Text | Comment | Pi -> false

(* Invalidate what an edit under the tree containing [id] changed:
   [~shape] bumps the root's shape generation (order keys),
   [~elements] drops the root's name/key index record. O(depth).
   Runs even while indexing is disabled, so caches built before a
   disable/enable cycle can never be served stale. Caller holds
   [index_lock] (every mutator body and [undo] do), which is what
   guards [index]. *)
let bump store id ~shape ~elements =
  let r = root store id in
  let store = owner store r in
  if elements then Hashtbl.remove store.index r;
  if shape then
    with_mu store (fun () ->
        let i = r - store.first_id in
        if i >= 0 && i < Array.length store.root_vers then
          store.root_vers.(i) <- store.root_vers.(i) + 1)

(* -- Order keys (see order_key.ml) --------------------------------- *)

(* Build the key table for the tree rooted at parentless [r], which
   [store] owns, under its current shape generation. One DFS with one shared counter: an
   element takes [pre], each attribute takes an empty slot
   (pre = post), the children recurse, then the element takes [post]
   — matching [sibling_rank]'s attributes-before-children order. A node's slot
   is written only once its post is known (an immutable record, so
   the store is atomic): lock-free readers either see a complete key
   of the current generation or fall back. *)
let build_okeys store r =
  let ver = root_version store r in
  let ctr = ref 0 in
  let rec walk id =
    let pre = !ctr in
    incr ctr;
    let n = get store id in
    Vec.iter
      (fun aid ->
        let s = !ctr in
        incr ctr;
        store.okeys.(aid - store.first_id) <- { Order_key.root = r; ver; pre = s; post = s })
      n.attributes;
    Vec.iter walk n.children;
    let post = !ctr in
    incr ctr;
    store.okeys.(id - store.first_id) <- { Order_key.root = r; ver; pre; post }
  in
  walk r;
  store.okey_builds <- store.okey_builds + 1

(* A valid key for [id], building its root's table on a generation
   miss. The fast path costs two reads; the O(depth) root walk and
   O(tree) build are paid once per (root, shape generation) — i.e. at
   most once per evaluation phase of an innermost snap, during which
   no structural mutation can run (the §3.3 purity observation). *)
let ensure_key store id =
  let store = owner store id in
  let k = okey store id in
  if okey_valid store k then Some k
  else if not store.order_keys_enabled then None
  else begin
    let r = root store id in
    with_index_lock store (fun () ->
        (* double-checked: another reader may have built this root *)
        if not (okey_valid store (okey store id)) then build_okeys store r);
    let k = okey store id in
    if okey_valid store k then Some k else None
  end

(* Strict: is [id] strictly inside [ancestor]'s subtree? An O(1)
   interval test once keys are built (read path — builds). *)
let is_descendant store ~ancestor id =
  id <> ancestor
  && (match ensure_key store ancestor, ensure_key store id with
     | Some ka, Some kd -> Order_key.contains ~anc:ka ~desc:kd
     | _ -> is_ancestor store ~ancestor id)

(* -- Journal ------------------------------------------------------ *)

let record store e = if store.journal_on then store.journal <- e :: store.journal

(* Each undo invalidates what the edit it reverses did, judged by the
   kind of the node it re-attaches, detaches, renames or resets. *)
let undo store e =
  let elements id = indexed_kind (get store id).kind in
  (match e with
  | J_child_inserted (parent, child)
  | J_attr_inserted (parent, child) ->
    bump store parent ~shape:true ~elements:(elements child)
  | J_detached_child (child, parent, _)
  | J_detached_attr (child, parent, _) ->
    (* the child is parentless right now, so it is its own root: bump
       it too, killing order keys and index records built on the
       detached subtree between the detach and this rollback *)
    let elements = elements child in
    bump store child ~shape:true ~elements;
    bump store parent ~shape:true ~elements
  | J_renamed (id, _) -> bump store id ~shape:false ~elements:(elements id)
  | J_content (id, _) ->
    bump store id ~shape:false ~elements:((get store id).kind = Attribute));
  match e with
  | J_child_inserted (parent, child) ->
    let p = get store parent in
    let c = get store child in
    Vec.remove_at p.children c.pos;
    for i = c.pos to Vec.length p.children - 1 do
      (get store (Vec.get p.children i)).pos <- i
    done;
    c.parent <- None;
    c.pos <- 0
  | J_attr_inserted (parent, attr) ->
    let p = get store parent in
    let a = get store attr in
    Vec.remove_at p.attributes a.pos;
    for i = a.pos to Vec.length p.attributes - 1 do
      (get store (Vec.get p.attributes i)).pos <- i
    done;
    a.parent <- None;
    a.pos <- 0
  | J_detached_child (child, parent, idx) ->
    let p = get store parent in
    let c = get store child in
    Vec.insert p.children idx child;
    c.parent <- Some parent;
    for i = idx to Vec.length p.children - 1 do
      (get store (Vec.get p.children i)).pos <- i
    done
  | J_detached_attr (attr, parent, idx) ->
    let p = get store parent in
    let a = get store attr in
    Vec.insert p.attributes idx attr;
    a.parent <- Some parent;
    for i = idx to Vec.length p.attributes - 1 do
      (get store (Vec.get p.attributes i)).pos <- i
    done
  | J_renamed (id, old) -> (get store id).name <- old
  | J_content (id, old) -> (get store id).content <- old

(* Run [f ()]; if it raises, undo every store mutation it performed
   and re-raise. Used by snap application so a failing update list
   (precondition violation, detected conflict) leaves the store
   unchanged — the paper's "update application fails" is atomic here.
   Transactions nest by saving the enclosing journal. *)
let transactionally store f =
  let saved_journal = store.journal and saved_on = store.journal_on in
  store.journal <- [];
  store.journal_on <- true;
  mj_append store M_txn_begin;
  match f () with
  | v ->
    (* Commit: fold our entries into the enclosing journal (if any) so
       an outer transaction can still undo them. *)
    store.journal_on <- saved_on;
    store.journal <- (if saved_on then store.journal @ saved_journal else saved_journal);
    mj_append store M_txn_commit;
    v
  | exception e ->
    let mine = store.journal in
    (* under the index lock: the undo splices bypass the mutators,
       and a concurrent reader's lazy index build must not watch *)
    with_index_lock store (fun () -> List.iter (undo store) mine);
    store.journal <- saved_journal;
    store.journal_on <- saved_on;
    (* the undo above bypassed the mutators, so nothing was journaled
       during rollback; the abort marker lets replay redo the rollback
       with the same machinery *)
    mj_append store M_txn_abort;
    raise e

(* -- Mutations ---------------------------------------------------- *)

(* Every structural mutator body runs under [index_lock], so a lazy
   index/order-key build (which walks the whole tree, possibly into a
   region some footprint-disjoint job is writing) never observes a
   half-done splice. Mutators are further serialized among themselves
   by the scheduler's apply mutex; the lock here is only against the
   read-side cache fills. *)
let rename store id new_name =
  own store id;
  with_index_lock store @@ fun () ->
  let n = get store id in
  (match n.kind with
  | Element | Attribute | Pi -> ()
  | Document | Text | Comment ->
    update_error "cannot rename a %s node" (kind_to_string n.kind));
  record store (J_renamed (id, n.name));
  mj_append store (M_rename (id, new_name));
  bump store id ~shape:false ~elements:(indexed_kind n.kind);
  n.name <- Some new_name;
  store.mutations <- store.mutations + 1

let set_content store id s =
  own store id;
  with_index_lock store @@ fun () ->
  let n = get store id in
  (match n.kind with
  | Text | Comment | Pi | Attribute -> ()
  | Document | Element ->
    update_error "cannot set content of a %s node" (kind_to_string n.kind));
  record store (J_content (id, n.content));
  mj_append store (M_set_content (id, s));
  (* only an attribute value is indexed (by the key index) *)
  bump store id ~shape:false ~elements:(n.kind = Attribute);
  n.content <- s;
  store.mutations <- store.mutations + 1

(* Detach [id] from its parent (the paper's delete). Detaching an
   already parentless node is a no-op, matching the partial-function
   reading: the request "delete n" asks that n have no parent. *)
let detach store id =
  own store id;
  with_index_lock store @@ fun () ->
  let n = get store id in
  match n.parent with
  | None -> ()
  | Some pid ->
    let elements = indexed_kind n.kind in
    (* before the detach changes the root chain *)
    bump store pid ~shape:true ~elements;
    let p = get store pid in
    let vec = if n.kind = Attribute then p.attributes else p.children in
    let idx = n.pos in
    if idx >= Vec.length vec || Vec.get vec idx <> id then
      invalid_arg "Store.detach: corrupted position cache";
    Vec.remove_at vec idx;
    for i = idx to Vec.length vec - 1 do
      (get store (Vec.get vec i)).pos <- i
    done;
    record store
      (if n.kind = Attribute then J_detached_attr (id, pid, idx)
       else J_detached_child (id, pid, idx));
    mj_append store (M_detach id);
    n.parent <- None;
    n.pos <- 0;
    (* [id] just became its own root: bump it, so order keys and index
       records built when it was last a root (before an earlier
       re-attach, during which its subtree may have changed under the
       *enclosing* root's generations) can never resurface as valid *)
    bump store id ~shape:true ~elements;
    store.mutations <- store.mutations + 1

(* The preconditions [insert] and [wire] share, checked before
   anything is mutated: the parent accepts children, every node is
   this store's own and parentless, is no document node, and an
   attribute goes into an element whose attributes — the existing
   ones and those earlier in [nodes] — do not already carry its name.
   Returns the parent's record. *)
let check_insertable store pid nodes =
  own store pid;
  let p = get store pid in
  (match p.kind with
  | Element | Document -> ()
  | Attribute | Text | Comment | Pi ->
    update_error "cannot insert into a %s node" (kind_to_string p.kind));
  (* the attribute names seen so far, gathered at the first attribute *)
  let names =
    lazy (ref (Vec.fold (fun acc aid -> (get store aid).name :: acc) [] p.attributes))
  in
  List.iter
    (fun nid ->
      own store nid;
      let n = get store nid in
      if n.parent <> None then update_error "inserted node %d already has a parent" nid;
      match n.kind with
      | Document -> update_error "cannot insert a document node"
      | Attribute ->
        if p.kind <> Element then
          update_error "attributes can only be inserted into elements";
        (match n.name with
        | Some an ->
          let names = Lazy.force names in
          if
            List.exists
              (function Some bn -> Xqb_xml.Qname.equal an bn | None -> false)
              !names
          then update_error "duplicate attribute %s" (Xqb_xml.Qname.to_string an);
          names := n.name :: !names
        | None -> ())
      | Element | Text | Comment | Pi -> ())
    nodes;
  p

(* Insert [nodes] under [parent]. Attribute nodes go to the attribute
   list (appended); other nodes are spliced into the child list at
   [position]. Preconditions (§3.2): [check_insertable]'s, an [After n]
   position must denote a child of [parent], and no cycles. *)
let insert store ~parent:pid ~position nodes =
  with_index_lock store @@ fun () ->
  let p = check_insertable store pid nodes in
  List.iter
    (fun nid ->
      if nid = pid || is_ancestor store ~ancestor:nid pid then
        update_error "insertion would create a cycle")
    nodes;
  bump store pid ~shape:true
    ~elements:(List.exists (fun nid -> indexed_kind (get store nid).kind) nodes);
  let base_idx =
    match position with
    | First -> 0
    | Last -> Vec.length p.children
    | After anchor ->
      let a = get store anchor in
      if a.parent <> Some pid || a.kind = Attribute then
        update_error "insertion anchor is not a child of the target parent";
      a.pos + 1
  in
  let inserted_children = ref 0 in
  List.iter
    (fun nid ->
      let n = get store nid in
      (* [nid] is still parentless here, i.e. its own root: bump it so
         order keys and index records built on the detached subtree
         don't survive the attach (its nodes now live under [pid]'s
         root) *)
      bump store nid ~shape:true ~elements:(indexed_kind n.kind);
      if n.kind = Attribute then begin
        Vec.push p.attributes nid;
        n.parent <- Some pid;
        n.pos <- Vec.length p.attributes - 1;
        record store (J_attr_inserted (pid, nid))
      end
      else begin
        let idx = base_idx + !inserted_children in
        Vec.insert p.children idx nid;
        n.parent <- Some pid;
        incr inserted_children;
        for i = idx to Vec.length p.children - 1 do
          (get store (Vec.get p.children i)).pos <- i
        done;
        record store (J_child_inserted (pid, nid))
      end;
      store.mutations <- store.mutations + 1)
    nodes;
  (* recorded after the fact so a precondition failure above leaves
     the journal clean (nothing was mutated, nothing is replayed) *)
  mj_append store (M_insert (pid, position, nodes))

(* -- Constructor wiring -------------------------------------------- *)

(* Hang fresh parentless [nodes] under the fresh [parent], in order:
   attributes appended to its attribute list, the rest to its
   children — the content of a node constructor. Nobody else can
   reach a node its constructor is still building, so this skips
   what [insert] pays for reachable nodes: the index lock, the root
   bumps (no key or index record was ever built on these roots) and
   the cycle check. It records no undo entry: a rollback undoes
   updates, and construction is not one — even when it runs while
   another job's snap apply has a transaction open. Replay redoes the
   one [M_wire] entry the same way. *)
let wire store ~parent:pid nodes =
  let p = check_insertable store pid nodes in
  List.iter
    (fun nid ->
      let n = get store nid in
      let vec = if n.kind = Attribute then p.attributes else p.children in
      Vec.push vec nid;
      n.parent <- Some pid;
      n.pos <- Vec.length vec - 1)
    nodes;
  if nodes <> [] && store.mj_on then mj_append store (M_wire (pid, nodes))

(* -- Deep copy (the [copy { e }] operator's data-model half) ------- *)

(* Caller holds [mu] (via [deep_copy]). *)
let rec deep_copy_rec store id =
  let n = get store id in
  let fresh =
    alloc_unlocked store n.kind n.name n.content
  in
  let f = get store fresh in
  Vec.iter
    (fun aid ->
      let c = deep_copy_rec store aid in
      Vec.push f.attributes c;
      (get store c).parent <- Some fresh;
      (get store c).pos <- Vec.length f.attributes - 1)
    n.attributes;
  Vec.iter
    (fun cid ->
      let c = deep_copy_rec store cid in
      Vec.push f.children c;
      (get store c).parent <- Some fresh;
      (get store c).pos <- Vec.length f.children - 1)
    n.children;
  fresh

(* The copy allocates and wires structure directly (bypassing
   [insert]), so it journals as one composite [M_deep_copy]: replay
   calls [deep_copy] again, which is deterministic given the same
   prior store. Inner allocs are suppressed for the duration. [mu]
   is held across the whole copy so the fresh id range is contiguous
   — replay re-executes the copy as one block, so an interleaved
   foreign allocation inside the range would shift every id after
   it. *)
let deep_copy store id =
  with_mu store @@ fun () ->
  let saved = store.mj_suspend in
  store.mj_suspend <- true;
  let fresh =
    Fun.protect
      ~finally:(fun () -> store.mj_suspend <- saved)
      (fun () -> deep_copy_rec store id)
  in
  mj_record store (M_deep_copy id);
  fresh

(* -- Document order ----------------------------------------------- *)

(* Rank of a node among its siblings: attributes order before child
   nodes of the same parent (XDM: attributes follow their element but
   precede its children). *)
let sibling_rank store id =
  let n = get store id in
  if n.kind = Attribute then (0, n.pos) else (1, n.pos)

(* Total order: within a tree, document order; across trees (including
   detached subtrees and freshly constructed nodes), by root id, which
   is creation order — stable and deterministic. The naive comparator
   allocates two full ancestor chains per call; it is the fallback
   (and the qcheck reference) for the keyed one below. *)
let compare_order_naive store a b =
  if a = b then 0
  else begin
    let chain id =
      let rec up acc id =
        match (get store id).parent with None -> id :: acc | Some p -> up (id :: acc) p
      in
      up [] id
    in
    let ca = chain a and cb = chain b in
    match ca, cb with
    | ra :: _, rb :: _ when ra <> rb -> compare ra rb
    | _ ->
      let rec walk ca cb =
        match ca, cb with
        | [], [] -> 0
        | [], _ :: _ -> -1 (* a is an ancestor of b: a first *)
        | _ :: _, [] -> 1
        | x :: ca', y :: cb' ->
          if x = y then walk ca' cb'
          else compare (sibling_rank store x) (sibling_rank store y)
      in
      walk ca cb
  end

(* Same total order, two array lookups when both keys are valid:
   across trees the roots compare like the naive root-id compare;
   within a tree pre-order is document order (ancestors first,
   attributes before children). Valid-only — never builds, so pure
   comparisons during a mutation phase just fall back. *)
let compare_order store a b =
  if a = b then 0
  else
    let ka = okey store a and kb = okey store b in
    if okey_valid store ka && okey_valid store kb then
      if ka.Order_key.root <> kb.Order_key.root then
        compare ka.Order_key.root kb.Order_key.root
      else compare ka.Order_key.pre kb.Order_key.pre
    else compare_order_naive store a b

(* Sort into document order and remove duplicates (the ddo applied to
   every path-expression result). The keyed path decorates each id
   with its (root, pre) key and sorts the triples with the polymorphic
   comparator — O(n log n) integer compares instead of O(n log n)
   chain walks. *)
let sort_doc_order store ids =
  match ids with
  | [] | [ _ ] -> ids
  | _ ->
    let rec decorate acc = function
      | [] -> Some (List.rev acc)
      | id :: rest ->
        (match ensure_key store id with
        | Some k -> decorate ((k.Order_key.root, k.Order_key.pre, id) :: acc) rest
        | None -> None)
    in
    (match decorate [] ids with
    | Some dec -> List.map (fun (_, _, id) -> id) (List.sort_uniq compare dec)
    | None -> List.sort_uniq (compare_order_naive store) ids)

(* Is [ids] already strictly in document order (sorted and duplicate
   free)? Builds keys, so the common already-sorted fast path through
   the ddo builtin costs O(n) lookups rather than n-1 chain walks. *)
let sorted_strict store ids =
  let lt a b =
    match ensure_key store a, ensure_key store b with
    | Some ka, Some kb ->
      (if ka.Order_key.root <> kb.Order_key.root then
         compare ka.Order_key.root kb.Order_key.root
       else compare ka.Order_key.pre kb.Order_key.pre)
      < 0
    | _ -> compare_order_naive store a b < 0
  in
  let rec go = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> lt a b && go rest
  in
  go ids

(* -- Serialization ------------------------------------------------ *)

(* Append the XML text of [id] to [buf]: one walk of its tree — in
   the base store or a scratch overlay alike — through [Xml_writer]'s
   markup primitives. A lone attribute serializes as [name="value"]. *)
let rec add_xml store buf id =
  let module W = Xqb_xml.Xml_writer in
  let n = get store id in
  match n.kind with
  | Document -> add_xml_all store buf n.children
  | Element ->
    let name = match n.name with Some q -> q | None -> Xqb_xml.Qname.make "_" in
    W.add_start_tag buf name;
    for i = 0 to Vec.length n.attributes - 1 do
      match get store (Vec.get n.attributes i) with
      | { name = Some an; content; _ } -> W.add_attribute buf an content
      | _ -> ()
    done;
    W.close_start_tag buf;
    add_xml_all store buf n.children;
    W.add_end_tag buf name
  | Text -> W.add_text buf n.content
  | Comment -> W.add_comment buf n.content
  | Pi ->
    let target = match n.name with Some q -> Xqb_xml.Qname.to_string q | None -> "" in
    W.add_pi buf target n.content
  | Attribute -> (
    match n.name with Some an -> W.add_lone_attribute buf an n.content | None -> ())

and add_xml_all store buf ids =
  for i = 0 to Vec.length ids - 1 do
    add_xml store buf (Vec.get ids i)
  done

let serialize store id =
  let buf = Buffer.create 256 in
  add_xml store buf id;
  Buffer.contents buf

(* -- Loading ------------------------------------------------------ *)

(* Build a document node from an event stream. *)
let load_events store events =
  let doc = make_document store in
  let stack = ref [ doc ] in
  let top () = match !stack with t :: _ -> t | [] -> assert false in
  List.iter
    (fun (e : Xqb_xml.Event.t) ->
      match e with
      | Start_element (name, attrs) ->
        let el = make_element store name in
        let attr_ids =
          List.map (fun (an, av) -> make_attribute store an av) attrs
        in
        insert store ~parent:el ~position:Last attr_ids;
        insert store ~parent:(top ()) ~position:Last [ el ];
        stack := el :: !stack
      | End_element _ -> (
        match !stack with
        | _ :: rest -> stack := rest
        | [] -> assert false)
      | Text s -> insert store ~parent:(top ()) ~position:Last [ make_text store s ]
      | Comment s -> insert store ~parent:(top ()) ~position:Last [ make_comment store s ]
      | Pi (t, c) -> insert store ~parent:(top ()) ~position:Last [ make_pi store t c ])
    events;
  doc

let load_string ?keep_ws store src =
  load_events store (Xqb_xml.Xml_parser.parse ?keep_ws src)

(* -- Invariant checking (used by tests and failure injection) ------ *)

let validate store =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  for id = store.first_id to store.next_id - 1 do
    let n = store.tbl.(id - store.first_id) in
    if n.id <> id then err "node %d has wrong id %d" id n.id;
    (match n.parent with
    | Some pid ->
      let p = get store pid in
      let vec = if n.kind = Attribute then p.attributes else p.children in
      if not (n.pos >= 0 && n.pos < Vec.length vec && Vec.get vec n.pos = id) then
        err "node %d: position cache does not match parent %d" id pid
    | None -> ());
    Vec.iter
      (fun cid ->
        let c = get store cid in
        if c.parent <> Some id then err "child %d of %d has parent %s" cid id
            (match c.parent with None -> "none" | Some p -> string_of_int p);
        if c.kind = Attribute then err "attribute %d stored as child of %d" cid id;
        if c.kind = Document then err "document %d stored as child of %d" cid id)
      n.children;
    Vec.iter
      (fun aid ->
        let a = get store aid in
        if a.parent <> Some id then err "attribute %d of %d has wrong parent" aid id;
        if a.kind <> Attribute then err "non-attribute %d in attribute list of %d" aid id)
      n.attributes
  done;
  List.rev !errors

(* -- Name and key indexes ------------------------------------------ *)

(* Elements named [q] among the descendants of [ctx], in document
   order, by a direct walk: the uncached path, and the oracle the
   index must agree with. *)
let elements_named store ctx q =
  let out = ref [] in
  let rec walk id =
    let n = get store id in
    (match n.kind, n.name with
    | Element, Some nm when Xqb_xml.Qname.equal nm q -> out := id :: !out
    | _ -> ());
    Vec.iter walk n.children
  in
  Vec.iter walk (get store ctx).children;
  List.rev !out

(* How many roots the index holds records for before it is reset.
   Documents are few, but every [//name] step from a freshly
   constructed or detached root indexes that root, and such roots come
   and go. *)
let max_indexed_roots = 4096

let bucket tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key)

(* The record of parentless [root], built on a miss by one DFS that
   fills every name's bucket; the build replaces the record the last
   element edit dropped. Caller holds [index_lock]. *)
let root_index store root =
  match Hashtbl.find_opt store.index root with
  | Some ri -> ri
  | None ->
    if Hashtbl.length store.index >= max_indexed_roots then
      Hashtbl.reset store.index;
    let by_name = Hashtbl.create 32 in
    let rec walk id =
      let n = get store id in
      (match n.kind, n.name with
      | Element, Some nm ->
        let key = Xqb_xml.Qname.to_string nm in
        Hashtbl.replace by_name key (id :: bucket by_name key)
      | _ -> ());
      Vec.iter walk n.children
    in
    Vec.iter walk (get store root).children;
    Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) by_name;
    let ri = { by_name; by_key = Hashtbl.create 8 } in
    Hashtbl.replace store.index root ri;
    store.index_builds <- store.index_builds + 1;
    ri

(* Elements named [q] among the descendants of [root], in document
   order — the workhorse of [e//name] steps. Served from the root's
   index record for parentless roots; descendant queries from attached
   context nodes are computed directly, keeping the index's memory
   linear in the store. *)
let descendants_by_name store root q =
  let store = owner store root in
  if (not store.index_enabled) || (get store root).parent <> None then
    elements_named store root q
  else
    with_index_lock store (fun () ->
        bucket (root_index store root).by_name (Xqb_xml.Qname.to_string q))

(* Attribute value of [elem] for [attr], if present. *)
let attr_value store elem attr =
  let n = get store elem in
  let found = ref None in
  Vec.iter
    (fun aid ->
      let a = get store aid in
      match a.name with
      | Some an when Xqb_xml.Qname.equal an attr && !found = None ->
        found := Some a.content
      | _ -> ())
    n.attributes;
  !found

(* Elements [elem] under [root] whose @[attr] string-equals [value] —
   the hash path behind //elem[@attr = $v] when $v is a string. The
   (elem, attr) value table lives in the root's index record, so it
   shares the name index's invalidation: attribute values are among
   the things an element edit covers. *)
let lookup_by_key store root ~elem ~attr value =
  let store = owner store root in
  if (not store.index_enabled) || (get store root).parent <> None then
    List.filter
      (fun e -> attr_value store e attr = Some value)
      (elements_named store root elem)
  else
    with_index_lock store (fun () ->
        let ri = root_index store root in
        let key = (Xqb_xml.Qname.to_string elem, Xqb_xml.Qname.to_string attr) in
        let tbl =
          match Hashtbl.find_opt ri.by_key key with
          | Some tbl -> tbl
          | None ->
            let tbl = Hashtbl.create 64 in
            List.iter
              (fun e ->
                match attr_value store e attr with
                | Some v -> Hashtbl.replace tbl v (e :: bucket tbl v)
                | None -> ())
              (bucket ri.by_name (fst key));
            (* store buckets in document order *)
            Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) tbl;
            Hashtbl.add ri.by_key key tbl;
            tbl
        in
        bucket tbl value)

(* Count nodes that are not reachable from any document node —
   §4.1's "persistent but unreachable nodes" produced by the detach
   semantics (candidates for garbage collection). *)
let detached_count store =
  let n = ref 0 in
  for id = store.first_id to store.next_id - 1 do
    let node = store.tbl.(id - store.first_id) in
    if node.parent = None && node.kind <> Document then incr n
  done;
  !n

(* -- Stable node paths (observability) ----------------------------- *)

(* One path step: the node's label with its 1-based index among
   same-label siblings ("africa[1]", "text()[2]", "@id"). *)
let path_segment store id =
  let n = get store id in
  match n.kind with
  | Attribute ->
    "@" ^ (match n.name with Some q -> Xqb_xml.Qname.to_string q | None -> "?")
  | _ ->
    let label =
      match n.kind with
      | Element -> (
        match n.name with Some q -> Xqb_xml.Qname.to_string q | None -> "*")
      | Text -> "text()"
      | Comment -> "comment()"
      | Pi -> "processing-instruction()"
      | Document -> "document()"
      | Attribute -> assert false
    in
    (match n.parent with
    | None -> label
    | Some pid ->
      let p = get store pid in
      let seen = ref 0 and mine = ref 0 in
      Vec.iter
        (fun cid ->
          let c = get store cid in
          let same =
            match n.kind, c.kind with
            | Element, Element -> (
              match n.name, c.name with
              | Some a, Some b -> Xqb_xml.Qname.equal a b
              | _ -> false)
            | ka, kb -> ka = kb
          in
          if same then begin
            incr seen;
            if cid = id then mine := !seen
          end)
        p.children;
      Printf.sprintf "%s[%d]" label !mine)

(* Stable, human-readable path from the node's root
   ("/site[1]/regions[1]/africa[1]"; attributes end in "/@name").
   Nodes under a detached (non-document) root are prefixed with the
   root's id so operators can tell the trees apart; unknown ids render
   as "#<id>". *)
let node_path store id =
  if not (mem store id) then Printf.sprintf "#%d" id
  else begin
    let rec up id acc =
      let n = get store id in
      match n.parent with
      | None ->
        if n.kind = Document then "/" ^ String.concat "/" acc
        else
          String.concat "/"
            (Printf.sprintf "%s#%d" (path_segment store id) id :: acc)
      | Some pid -> up pid (path_segment store id :: acc)
    in
    up id []
  end
