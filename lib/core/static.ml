(* Static analyses over the core language:

   - variable-scope checking (undefined variables are a static error,
     XPST0008);
   - the *updating / effecting* classification sketched in §5: "the
     signature of functions coming from other modules should contain
     an updating flag, with the 'monadic' rule that a function that
     calls an updating function is updating as well." We compute it as
     a fixpoint over the call graph. The three-way classification is
     what the optimizer's rewrite guards consume (§4.2-4.3):

     Pure      — no update operations, no snap: freely reorderable;
     Updating  — emits update requests but contains no snap: the store
                 is untouched during evaluation, so the expression is
                 still "side-effects free" in the paper's sense and
                 lazy/algebraic evaluation applies, subject to
                 cardinality guards;
     Effecting — contains a snap (or calls a function that does): the
                 store may change mid-evaluation; evaluation order is
                 pinned. *)

module C = Core_ast
module Qname = Xqb_xml.Qname

exception Static_error = Normalize.Static_error

type purity = Pure | Updating | Effecting

let purity_to_string = function
  | Pure -> "pure"
  | Updating -> "updating"
  | Effecting -> "effecting"

let join a b =
  match a, b with
  | Effecting, _ | _, Effecting -> Effecting
  | Updating, _ | _, Updating -> Updating
  | Pure, Pure -> Pure

(* Purity of an expression, given a classification for user
   functions. *)
let rec purity_with lookup (e : C.expr) : purity =
  let sub = List.fold_left (fun acc e -> join acc (purity_with lookup e)) Pure in
  match e with
  | C.Insert _ | C.Delete _ | C.Replace _ | C.Replace_value _ | C.Rename _ ->
    join Updating (sub (C.sub_exprs e))
  | C.Snap _ -> Effecting
  | C.Call_user (f, args) ->
    join (lookup f (List.length args)) (sub args)
  | _ -> sub (C.sub_exprs e)

(* Fixpoint classification of the declared functions. *)
let classify_functions (funcs : Normalize.func list) :
    (Qname.t * int * purity) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Normalize.func) ->
      Hashtbl.replace tbl
        (Qname.to_string f.Normalize.fname, List.length f.Normalize.params)
        Pure)
    funcs;
  let lookup f n =
    match Hashtbl.find_opt tbl (Qname.to_string f, n) with
    | Some p -> p
    | None -> Pure  (* unknown functions are assumed pure; builtins are *)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Normalize.func) ->
        let key = (Qname.to_string f.Normalize.fname, List.length f.Normalize.params) in
        let old = Hashtbl.find tbl key in
        let nu = purity_with lookup f.Normalize.body in
        if nu <> old then begin
          Hashtbl.replace tbl key nu;
          changed := true
        end)
      funcs
  done;
  List.map
    (fun (f : Normalize.func) ->
      let n = List.length f.Normalize.params in
      ( f.Normalize.fname,
        n,
        Hashtbl.find tbl (Qname.to_string f.Normalize.fname, n) ))
    funcs

(* A reusable purity oracle for a program: the function-classification
   fixpoint runs once, not per query expression. *)
let purity_oracle (prog : Normalize.prog) : C.expr -> purity =
  let classified = classify_functions prog.Normalize.functions in
  let tbl = Hashtbl.create (List.length classified * 2) in
  List.iter
    (fun (f, n, p) -> Hashtbl.replace tbl (Qname.to_string f, n) p)
    classified;
  let lookup f n =
    Option.value ~default:Pure (Hashtbl.find_opt tbl (Qname.to_string f, n))
  in
  fun e -> purity_with lookup e

(* Purity of an expression in the context of a normalized program. *)
let purity_in_prog (prog : Normalize.prog) (e : C.expr) : purity =
  purity_oracle prog e

(* -- Node allocation --------------------------------------------------

   [Pure] means "emits no update requests and contains no snap" — but
   a pure expression may still *allocate* fresh nodes in the store
   (constructors, [Copy]). Allocation mutates the shared node table,
   so the footprint below records it as a write to the fresh-node
   region; for user functions it needs the fixpoint judgement here. *)

(* Does the expression allocate store nodes, given a judgement for
   user functions? Builtins never allocate: fn:doc only loads via the
   context's resolver, which {!Context.fork_read} drops. *)
let rec allocates_with lookup (e : C.expr) : bool =
  let sub = List.exists (allocates_with lookup) in
  match e with
  | C.Elem _ | C.Attr _ | C.Text_node _ | C.Comment_node _ | C.Pi_node _
  | C.Doc_node _ | C.Copy _ ->
    true
  (* update requests carry Copy-wrapped payloads; conservatively
     allocating (they are never Pure anyway) *)
  | C.Insert _ | C.Replace _ -> true
  | C.Call_user (f, args) -> lookup f (List.length args) || sub args
  | _ -> sub (C.sub_exprs e)

(* Fixpoint: a function that calls an allocating function allocates. *)
let classify_alloc_functions (funcs : Normalize.func list) :
    (Qname.t * int * bool) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Normalize.func) ->
      Hashtbl.replace tbl
        (Qname.to_string f.Normalize.fname, List.length f.Normalize.params)
        false)
    funcs;
  let lookup f n =
    Option.value ~default:false (Hashtbl.find_opt tbl (Qname.to_string f, n))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Normalize.func) ->
        let key = (Qname.to_string f.Normalize.fname, List.length f.Normalize.params) in
        let old = Hashtbl.find tbl key in
        let nu = allocates_with lookup f.Normalize.body in
        if nu <> old then begin
          Hashtbl.replace tbl key nu;
          changed := true
        end)
      funcs
  done;
  List.map
    (fun (f : Normalize.func) ->
      let n = List.length f.Normalize.params in
      ( f.Normalize.fname,
        n,
        Hashtbl.find tbl (Qname.to_string f.Normalize.fname, n) ))
    funcs

(* -- Variable scoping ------------------------------------------------ *)

module SSet = Set.Make (String)

(* Free variables of a core expression (used by the optimizer's
   independence guards, §4.3: "a form of query independence"). *)
let rec free_vars (e : C.expr) : SSet.t =
  match e with
  | C.Var v -> SSet.singleton v
  | C.For (v, posvar, e1, body) ->
    let bound = SSet.add v (match posvar with Some p -> SSet.singleton p | None -> SSet.empty) in
    SSet.union (free_vars e1) (SSet.diff (free_vars body) bound)
  | C.Let (v, e1, body) | C.Some_sat (v, e1, body) | C.Every_sat (v, e1, body) ->
    SSet.union (free_vars e1) (SSet.remove v (free_vars body))
  | C.Sort_flwor (clauses, specs, ret) ->
    let bound, acc =
      List.fold_left
        (fun (bound, acc) c ->
          match c with
          | C.S_for (v, posvar, e) ->
            let acc = SSet.union acc (SSet.diff (free_vars e) bound) in
            let bound = SSet.add v bound in
            let bound =
              match posvar with Some p -> SSet.add p bound | None -> bound
            in
            (bound, acc)
          | C.S_let (v, e) ->
            let acc = SSet.union acc (SSet.diff (free_vars e) bound) in
            (SSet.add v bound, acc)
          | C.S_where e -> (bound, SSet.union acc (SSet.diff (free_vars e) bound)))
        (SSet.empty, SSet.empty) clauses
    in
    let inner =
      List.fold_left
        (fun acc (k, _) -> SSet.union acc (free_vars k))
        (free_vars ret) specs
    in
    SSet.union acc (SSet.diff inner bound)
  | _ ->
    List.fold_left
      (fun acc sub -> SSet.union acc (free_vars sub))
      SSet.empty (C.sub_exprs e)

let is_independent_of e vars =
  SSet.disjoint (free_vars e) (SSet.of_list vars)

let rec check_scopes (bound : SSet.t) (e : C.expr) : unit =
  match e with
  | C.Var v ->
    if not (SSet.mem v bound) then
      raise (Static_error (Printf.sprintf "undefined variable $%s" v))
  | C.For (v, posvar, e1, body) ->
    check_scopes bound e1;
    let bound = SSet.add v bound in
    let bound = match posvar with Some p -> SSet.add p bound | None -> bound in
    check_scopes bound body
  | C.Let (v, e1, body) ->
    check_scopes bound e1;
    check_scopes (SSet.add v bound) body
  | C.Some_sat (v, e1, body) | C.Every_sat (v, e1, body) ->
    check_scopes bound e1;
    check_scopes (SSet.add v bound) body
  | C.Sort_flwor (clauses, specs, ret) ->
    let bound =
      List.fold_left
        (fun bound c ->
          match c with
          | C.S_for (v, posvar, e) ->
            check_scopes bound e;
            let bound = SSet.add v bound in
            (match posvar with Some p -> SSet.add p bound | None -> bound)
          | C.S_let (v, e) ->
            check_scopes bound e;
            SSet.add v bound
          | C.S_where e ->
            check_scopes bound e;
            bound)
        bound clauses
    in
    List.iter (fun (k, _) -> check_scopes bound k) specs;
    check_scopes bound ret
  | _ -> List.iter (check_scopes bound) (C.sub_exprs e)

let check_prog ?(initial = []) (prog : Normalize.prog) =
  (* Globals are visible to later globals, to all functions and the
     body; function parameters shadow globals. [initial] holds names
     bound by the host (e.g. [Engine.bind]). *)
  let globals =
    List.fold_left
      (fun seen (v, _, e) ->
        check_scopes seen e;
        SSet.add v seen)
      (SSet.of_list initial) prog.Normalize.global_vars
  in
  List.iter
    (fun (f : Normalize.func) ->
      let bound =
        List.fold_left
          (fun acc (p, _) -> SSet.add p acc)
          globals f.Normalize.params
      in
      check_scopes bound f.Normalize.body)
    prog.Normalize.functions;
  Option.iter (check_scopes globals) prog.Normalize.body

(* -- Document-order analysis and ddo elision --------------------------

   Normalization wraps every path step in the "%ddo" builtin (sort
   into document order, drop duplicates). For a large class of paths
   the input is already provably sorted and duplicate-free — children
   of a single node, a descendant walk from unrelated sorted roots —
   and the sort is pure overhead. The judgement below computes, per
   expression, what can be promised about its result's order; the
   [elide_ddo] pass rewrites certified "%ddo" nodes to "%ddo-elided"
   (the identity, plus an instrumentation counter).

   Soundness leans on the paper's §3.3 purity observation: update
   requests only apply at snap boundaries, so as long as the
   expression under the ddo contains no snap (purity <> Effecting),
   the tree is frozen for the whole evaluation of that expression and
   structural facts ("the subtrees of unrelated nodes are disjoint
   document-order intervals") compose across its iterations. *)

type order_info = {
  o_sorted : bool;  (* items are in document order *)
  o_nodup : bool;  (* no duplicate nodes *)
  o_unrelated : bool;  (* no item is an ancestor of another *)
  o_single : bool;  (* at most one item *)
  o_node_only : bool;  (* every item is a node (ddo would not raise) *)
}

let o_bottom =
  { o_sorted = false; o_nodup = false; o_unrelated = false; o_single = false;
    o_node_only = false }

(* One item of unknown kind: trivially sorted/distinct/unrelated. *)
let o_one =
  { o_sorted = true; o_nodup = true; o_unrelated = true; o_single = true;
    o_node_only = false }

(* Exactly one node (constructors, doc()). *)
let o_one_node = { o_one with o_node_only = true }

let o_meet a b =
  { o_sorted = a.o_sorted && b.o_sorted;
    o_nodup = a.o_nodup && b.o_nodup;
    o_unrelated = a.o_unrelated && b.o_unrelated;
    o_single = a.o_single && b.o_single;
    o_node_only = a.o_node_only && b.o_node_only }

(* A sorted sequence of unrelated duplicate-free nodes distributes
   through downward axes: their subtrees are disjoint intervals in
   document order, so per-node results concatenate in order. A single
   node qualifies trivially. *)
let good_in i = i.o_single || (i.o_sorted && i.o_nodup && i.o_unrelated)

(* Does every result of [e] lie inside the subtree of [v]'s binding?
   (Conservative syntactic check: chains of self/child/attribute/
   descendant steps and predicates from $v.) This is what lets a
   [for] over unrelated sorted roots keep its blocks disjoint. *)
let rec downward v (e : C.expr) =
  match e with
  | C.Var x -> String.equal x v
  | C.Step
      ( b,
        ( C.Axes.Self | C.Axes.Child | C.Axes.Attribute | C.Axes.Descendant
        | C.Axes.Descendant_or_self ),
        _ ) ->
    downward v b
  | C.Predicate (b, _) -> downward v b
  | C.Call_builtin (("%ddo" | "%ddo-elided"), [ b ]) -> downward v b
  | C.For (w, _, b, body) -> downward v b && downward w body
  | _ -> false

(* [singles] holds variables known to be bound to at most one item:
   for/some/every binders (one item at a time, by construction),
   positional variables, and lets of provably-single expressions. *)
let rec order_of (singles : SSet.t) (e : C.expr) : order_info =
  let step_out = { o_bottom with o_node_only = true } in
  match e with
  | C.Empty -> { o_one with o_node_only = true }  (* vacuously *)
  | C.Scalar _ | C.Param _ | C.Context_item -> o_one
  | C.Var x -> if SSet.mem x singles then o_one else o_bottom
  | C.Elem _ | C.Attr _ | C.Text_node _ | C.Comment_node _ | C.Pi_node _
  | C.Doc_node _ | C.Copy _ ->
    o_one_node
  (* updating expressions evaluate to the empty sequence *)
  | C.Insert _ | C.Delete _ | C.Replace _ | C.Replace_value _ | C.Rename _ ->
    { o_one with o_node_only = true }
  | C.Call_builtin ("doc", _) -> o_one_node
  | C.Call_builtin (("%ddo" | "%ddo-elided"), [ arg ]) ->
    let i = order_of singles arg in
    { o_sorted = true; o_nodup = true; o_unrelated = i.o_unrelated;
      o_single = i.o_single; o_node_only = true }
  | C.Step (b, axis, _) -> (
    let i = order_of singles b in
    match axis with
    | C.Axes.Self -> { i with o_node_only = true }
    | C.Axes.Child | C.Axes.Attribute ->
      if good_in i then
        { o_sorted = true; o_nodup = true; o_unrelated = true;
          o_single = false; o_node_only = true }
      else step_out
    | C.Axes.Descendant | C.Axes.Descendant_or_self ->
      (* subtrees of unrelated sorted roots are disjoint intervals;
         the result contains ancestor/descendant pairs, so
         [o_unrelated] is lost *)
      if good_in i then
        { o_sorted = true; o_nodup = true; o_unrelated = false;
          o_single = false; o_node_only = true }
      else step_out
    | C.Axes.Following_sibling ->
      if i.o_single then
        { o_sorted = true; o_nodup = true; o_unrelated = true;
          o_single = false; o_node_only = true }
      else step_out
    | C.Axes.Following ->
      if i.o_single then
        { o_sorted = true; o_nodup = true; o_unrelated = false;
          o_single = false; o_node_only = true }
      else step_out
    | C.Axes.Parent -> if i.o_single then o_one_node else step_out
    (* reverse axes emit reverse document order *)
    | C.Axes.Ancestor | C.Axes.Ancestor_or_self | C.Axes.Preceding_sibling
    | C.Axes.Preceding ->
      step_out)
  (* Key_step concatenates per-key bucket lookups: not sorted across
     multiple keys *)
  | C.Key_step _ -> step_out
  | C.Predicate (b, _) -> order_of singles b  (* filtering preserves all *)
  | C.For (v, posvar, e1, body) ->
    let i1 = order_of singles e1 in
    let singles_body =
      SSet.add v
        (match posvar with Some p -> SSet.add p singles | None -> singles)
    in
    let ib = order_of singles_body body in
    if i1.o_single then ib
    else if
      i1.o_sorted && i1.o_nodup && i1.o_unrelated && ib.o_sorted && ib.o_nodup
      && downward v body
    then
      { o_sorted = true; o_nodup = true; o_unrelated = ib.o_unrelated;
        o_single = false; o_node_only = ib.o_node_only }
    else o_bottom
  | C.Let (v, e1, body) ->
    let i1 = order_of singles e1 in
    let singles' =
      if i1.o_single then SSet.add v singles else SSet.remove v singles
    in
    order_of singles' body
  | C.Some_sat _ | C.Every_sat _ -> o_one  (* a boolean *)
  | C.If (_, t, e) -> o_meet (order_of singles t) (order_of singles e)
  | C.Treat_as (e1, _) -> order_of singles e1
  | C.Instance_of _ | C.Castable_as _ | C.Cast_as _ | C.Unary_minus _ -> o_one
  | C.Binop (op, _, _) -> (
    match op with
    | Xqb_syntax.Ast.Union | Xqb_syntax.Ast.Intersect | Xqb_syntax.Ast.Except ->
      (* the evaluator sorts set-operation results *)
      { o_sorted = true; o_nodup = true; o_unrelated = false;
        o_single = false; o_node_only = true }
    | Xqb_syntax.Ast.To -> o_bottom  (* a range: many integers *)
    | _ -> o_one (* comparisons, logic, arithmetic: one atomic *))
  | C.Seq _ | C.Map _ | C.Sort_flwor _ | C.Call_builtin _ | C.Call_user _
  | C.Snap _ ->
    o_bottom

(* Rewrite certified "%ddo" applications to "%ddo-elided" (identity +
   counter). Gated per-site on the purity of the sorted expression:
   a snap inside it would mutate the tree mid-evaluation and void the
   structural reasoning above. Returns the rewritten expression and
   the number of sites elided. *)
let elide_ddo ~purity (e : C.expr) : C.expr * int =
  let count = ref 0 in
  let rec go singles e =
    match e with
    | C.Call_builtin ("%ddo", [ arg ]) ->
      let arg' = go singles arg in
      let i = order_of singles arg' in
      if i.o_sorted && i.o_nodup && i.o_node_only && purity arg' <> Effecting
      then begin
        incr count;
        C.Call_builtin ("%ddo-elided", [ arg' ])
      end
      else C.Call_builtin ("%ddo", [ arg' ])
    | C.For (v, posvar, e1, body) ->
      let e1' = go singles e1 in
      let singles_body =
        SSet.add v
          (match posvar with Some p -> SSet.add p singles | None -> singles)
      in
      C.For (v, posvar, e1', go singles_body body)
    | C.Let (v, e1, body) ->
      let e1' = go singles e1 in
      let singles' =
        if (order_of singles e1').o_single then SSet.add v singles
        else SSet.remove v singles
      in
      C.Let (v, e1', go singles' body)
    | C.Some_sat (v, e1, body) ->
      C.Some_sat (v, go singles e1, go (SSet.add v singles) body)
    | C.Every_sat (v, e1, body) ->
      C.Every_sat (v, go singles e1, go (SSet.add v singles) body)
    | C.Sort_flwor (clauses, specs, ret) ->
      let singles', rev_clauses =
        List.fold_left
          (fun (singles, acc) c ->
            match c with
            | C.S_for (v, posvar, e) ->
              let e' = go singles e in
              let singles =
                SSet.add v
                  (match posvar with
                  | Some p -> SSet.add p singles
                  | None -> singles)
              in
              (singles, C.S_for (v, posvar, e') :: acc)
            | C.S_let (v, e) ->
              let e' = go singles e in
              let singles =
                if (order_of singles e').o_single then SSet.add v singles
                else SSet.remove v singles
              in
              (singles, C.S_let (v, e') :: acc)
            | C.S_where e -> (singles, C.S_where (go singles e) :: acc))
          (singles, []) clauses
      in
      C.Sort_flwor
        ( List.rev rev_clauses,
          List.map (fun (k, d) -> (go singles' k, d)) specs,
          go singles' ret )
    | C.Scalar _ | C.Param _ | C.Var _ | C.Context_item | C.Empty -> e
    | C.Seq (a, b) -> C.Seq (go singles a, go singles b)
    | C.If (c, t, el) -> C.If (go singles c, go singles t, go singles el)
    | C.Step (b, ax, t) -> C.Step (go singles b, ax, t)
    | C.Key_step (b, elem, attr, rhs) ->
      C.Key_step (go singles b, elem, attr, go singles rhs)
    | C.Map (a, b) -> C.Map (go singles a, go singles b)
    | C.Predicate (a, b) -> C.Predicate (go singles a, go singles b)
    | C.Binop (op, a, b) -> C.Binop (op, go singles a, go singles b)
    | C.Unary_minus a -> C.Unary_minus (go singles a)
    | C.Call_builtin (f, args) -> C.Call_builtin (f, List.map (go singles) args)
    | C.Call_user (f, args) -> C.Call_user (f, List.map (go singles) args)
    | C.Instance_of (a, t) -> C.Instance_of (go singles a, t)
    | C.Cast_as (a, t) -> C.Cast_as (go singles a, t)
    | C.Castable_as (a, t) -> C.Castable_as (go singles a, t)
    | C.Treat_as (a, t) -> C.Treat_as (go singles a, t)
    | C.Elem (ns, c) -> C.Elem (go_ns singles ns, go singles c)
    | C.Attr (ns, c) -> C.Attr (go_ns singles ns, go singles c)
    | C.Text_node a -> C.Text_node (go singles a)
    | C.Comment_node a -> C.Comment_node (go singles a)
    | C.Pi_node (ns, a) -> C.Pi_node (go_ns singles ns, go singles a)
    | C.Doc_node a -> C.Doc_node (go singles a)
    | C.Insert (tgt, payload, dest, loc) ->
      C.Insert (tgt, go singles payload, go singles dest, loc)
    | C.Delete (a, loc) -> C.Delete (go singles a, loc)
    | C.Replace (a, b, loc) -> C.Replace (go singles a, go singles b, loc)
    | C.Replace_value (a, b, loc) ->
      C.Replace_value (go singles a, go singles b, loc)
    | C.Rename (a, b, loc) -> C.Rename (go singles a, go singles b, loc)
    | C.Copy a -> C.Copy (go singles a)
    | C.Snap (m, a) -> C.Snap (m, go singles a)
  and go_ns singles = function
    | C.Static q -> C.Static q
    | C.Dynamic e -> C.Dynamic (go singles e)
  in
  let e' = go SSet.empty e in
  (e', !count)

(* -- Effects footprints ------------------------------------------------

   A conservative static over-approximation of the store regions a
   program may read and may write, in the spirit of type-based
   query-update independence (Bidoit/Colazzo/Ulliana) and FLUX's
   static update analysis (Cheney). A region is a subtree of one
   document, addressed by a root-to-node chain of name labels; the
   scheduler runs two jobs concurrently when neither's writes may
   overlap the other's reads or writes. Precision falls back to
   "whole document" on upward axes and to "any document" on dynamic
   fn:doc URIs, unknown host bindings and user function calls — the
   runtime R1-R7 conflict check (§4.1) remains the safety net for
   anything the lattice widens.

   The footprint is the service's only concurrency judgement. Node
   allocation (constructors, [Copy], calls to allocating functions)
   is a write to the job's own fresh-node region. The write set and
   whether the program emits update requests route a job: nothing
   shared written (no writes, or only fresh allocation by a program
   that emits no updates) = a read that runs on a fork, allocating
   into a job-private scratch store; any document = exclusive
   (whole-job rollback); anything else = a concurrent writer. *)

module Footprint = struct
  (* [Fresh] is the job's own freshly allocated nodes: unreachable
     from every document until a snap copies them in, so it overlaps
     no document region and no other job's fresh region. *)
  type doc = Named of string | Any_doc | Fresh

  (* [rpath] is a chain of child labels from the document root ("*"
     for a step whose name is statically unknown, "@n" for attributes,
     "#text" etc. for non-element kinds); the region denotes the whole
     subtree below any node matching the chain — [] is the document
     itself. [ranchored] records whether the region's nodes sit
     exactly at [rpath] (so a child step may append a label) or merely
     somewhere inside that subtree (descendant results, unknown
     bindings); overlap semantics are identical either way. *)
  type region = { rdoc : doc; rpath : string list; ranchored : bool }

  (* [updates]: the program emits update requests (its body or a
     global is not Pure), so even a write set of fresh nodes only is
     one a snap applies. *)
  type t = { reads : region list; writes : region list; updates : bool }

  let any_region = { rdoc = Any_doc; rpath = []; ranchored = false }
  let fresh_region = { rdoc = Fresh; rpath = []; ranchored = false }
  let empty = { reads = []; writes = []; updates = false }
  let top = { reads = [ any_region ]; writes = [ any_region ]; updates = true }
  let read_all = { reads = [ any_region ]; writes = []; updates = false }

  let docs_may_equal a b =
    match a, b with
    | Fresh, _ | _, Fresh -> false
    | Any_doc, _ | _, Any_doc -> true
    | Named u, Named v -> String.equal u v

  (* Subtree regions overlap iff one path is a prefix of the other,
     up to "*" wildcards. *)
  let rec paths_may_overlap p q =
    match p, q with
    | [], _ | _, [] -> true
    | x :: p', y :: q' ->
      (String.equal x "*" || String.equal y "*" || String.equal x y)
      && paths_may_overlap p' q'

  let regions_overlap a b =
    docs_may_equal a.rdoc b.rdoc && paths_may_overlap a.rpath b.rpath

  let sets_overlap rs qs =
    List.exists (fun r -> List.exists (regions_overlap r) qs) rs

  (* May [a] and [b] run concurrently? Read/read always; any write
     must be disjoint from the other side entirely. *)
  let independent a b =
    (not (sets_overlap a.writes b.writes))
    && (not (sets_overlap a.writes b.reads))
    && not (sets_overlap b.writes a.reads)

  let writes_nothing fp = fp.writes = []

  let is_any r = r.rdoc = Any_doc

  (* Did the analysis stay conclusive, or did some part widen to
     "any document"? (The scheduler doesn't need this — ⊤ regions
     conflict with everything on their own — but EXPLAIN shows it.) *)
  let conclusive fp = not (List.exists is_any (fp.reads @ fp.writes))

  (* The execution route: a program that writes nothing shared runs
     on a fork — its fresh nodes are its own until a snap applies an
     update, and it emits none. *)
  type route = Fork | Concurrent | Exclusive

  let route fp =
    if List.exists is_any fp.writes then Exclusive
    else if fp.updates || List.exists (fun r -> r.rdoc <> Fresh) fp.writes then
      Concurrent
    else Fork

  let region_to_string r =
    let d = match r.rdoc with Named u -> u | Any_doc -> "*" | Fresh -> "#fresh" in
    match r.rpath with
    | [] -> d
    | p ->
      d ^ "/" ^ String.concat "/" p ^ (if r.ranchored then "" else "//")

  let set_to_string = function
    | [] -> "{}"
    | rs -> "{" ^ String.concat ", " (List.map region_to_string rs) ^ "}"

  let to_string fp =
    Printf.sprintf "reads %s writes %s" (set_to_string fp.reads)
      (set_to_string fp.writes)

  (* Normalization: clip over-deep paths (a prefix denotes a superset,
     so clipping is sound), drop regions covered by another, and cap
     the region count by widening. *)
  let max_depth = 8
  let max_regions = 12

  let rec take n = function
    | [] -> []
    | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

  let clip r =
    if List.length r.rpath <= max_depth then r
    else { r with rpath = take max_depth r.rpath; ranchored = false }

  (* Does subtree [w] definitely contain subtree [r]? *)
  let covers w r =
    (match w.rdoc, r.rdoc with
    | Any_doc, _ | Fresh, Fresh -> true
    | Named u, Named v -> String.equal u v
    | _ -> false)
    &&
    let rec pref p q =
      match p, q with
      | [], _ -> true
      | _, [] -> false
      | x :: p', y :: q' ->
        (String.equal x "*" || String.equal x y) && pref p' q'
    in
    pref w.rpath r.rpath

  let norm rs =
    let rs = List.sort_uniq compare (List.map clip rs) in
    let rs =
      List.filter
        (fun r -> not (List.exists (fun w -> w <> r && covers w r) rs))
        rs
    in
    if List.length rs <= max_regions then rs
    else
      let docs =
        List.sort_uniq compare
          (List.map (fun r -> { r with rpath = []; ranchored = false }) rs)
      in
      if List.length docs <= max_regions then docs else [ any_region ]

  let normalize fp = { fp with reads = norm fp.reads; writes = norm fp.writes }

  module SMap = Map.Make (String)

  (* Footprint inference over a normalized program. [var_docs] lets
     the host declare that a free variable is bound to the root of a
     named catalog document (the service binds each loaded document
     under its URI). *)
  let of_prog ?(var_docs = fun _ -> None) (prog : Normalize.prog) : t =
    let purity = purity_oracle prog in
    let alloc_tbl = Hashtbl.create 16 in
    List.iter
      (fun (f, n, a) -> Hashtbl.replace alloc_tbl (Qname.to_string f, n) a)
      (classify_alloc_functions prog.Normalize.functions);
    let allocates f n =
      Option.value ~default:false (Hashtbl.find_opt alloc_tbl (Qname.to_string f, n))
    in
    let rd = ref [] and wr = ref [] in
    let add_rd rs = rd := rs @ !rd in
    let add_wr rs = wr := rs @ !wr in
    let allocate () = add_wr [ fresh_region ] in
    (* an update target with no document region can only be a node
       this job allocated (an atomic target is a dynamic error) *)
    let write_targets rs = if rs = [] then allocate () else add_wr rs in
    let widen_doc r = { r with rpath = []; ranchored = false } in
    let parent_region r =
      match r.rpath with
      | [] -> r
      | p -> { r with rpath = take (List.length p - 1) p }
    in
    let label_of_test (t : C.Axes.node_test) =
      match t with
      | C.Axes.Name q -> Qname.to_string q
      | C.Axes.Kind_element (Some q) -> Qname.to_string q
      | C.Axes.Kind_attribute (Some q) -> "@" ^ Qname.to_string q
      | C.Axes.Kind_text -> "#text"
      | C.Axes.Kind_comment -> "#comment"
      | C.Axes.Kind_pi _ -> "#pi"
      | C.Axes.Wildcard | C.Axes.Kind_node | C.Axes.Kind_element None
      | C.Axes.Kind_attribute None | C.Axes.Kind_document ->
        "*"
    in
    let child_region lbl r =
      if r.ranchored then { r with rpath = r.rpath @ [ lbl ] } else r
    in
    (* [infer env focus e] returns the regions the *result nodes* of
       [e] may inhabit. Reads are recorded where results are
       *observed*, not where navigation happens: value contexts
       (comparisons, most builtins, conditions, sort keys) consume
       the regions of node arguments they atomize, and
       cardinality-observing sites (FLWOR input sequences,
       quantifiers, cardinality-checked coercions) consume their
       input regions. Navigation steps only *compute* their result
       region without recording it — an intermediate step's reads
       (child lists, sibling names) are already protected because
       every mutation that can disturb them carries a parent-widened
       write region, and that region is a path prefix of whatever
       final region the consumer records. This is what makes sibling
       subtrees of one document independent: doc(u)/r/x and
       doc(u)/r/y read only their own subtrees, not /r. *)
    let rec infer env focus (e : C.expr) : region list =
      (* a value context: whatever nodes flow in get read *)
      let consume e =
        let rs = infer env focus e in
        add_rd rs
      in
      match e with
      | C.Scalar _ | C.Param _ | C.Empty -> []
      | C.Context_item -> focus
      | C.Var v -> (
        match SMap.find_opt v env with
        | Some rs -> rs
        | None -> (
          match var_docs v with
          | Some uri -> [ { rdoc = Named uri; rpath = []; ranchored = true } ]
          | None -> [ any_region ]))
      | C.Seq (a, b) -> infer env focus a @ infer env focus b
      | C.For (v, posvar, e1, body) ->
        let r1 = infer env focus e1 in
        (* iteration count (and positions) observe e1's cardinality *)
        add_rd r1;
        let env = SMap.add v r1 env in
        let env =
          match posvar with Some p -> SMap.add p [] env | None -> env
        in
        infer env focus body
      | C.Let (v, e1, body) ->
        infer (SMap.add v (infer env focus e1) env) focus body
      | C.Some_sat (v, e1, body) | C.Every_sat (v, e1, body) ->
        let r1 = infer env focus e1 in
        (* the truth value observes e1's cardinality *)
        add_rd r1;
        let rs = infer (SMap.add v r1 env) focus body in
        add_rd rs;
        []
      | C.If (c, t, el) ->
        consume c;
        infer env focus t @ infer env focus el
      | C.Sort_flwor (clauses, specs, ret) ->
        let env =
          List.fold_left
            (fun env cl ->
              match cl with
              | C.S_for (v, posvar, e) ->
                let r1 = infer env focus e in
                add_rd r1;
                let env = SMap.add v r1 env in
                (match posvar with
                | Some p -> SMap.add p [] env
                | None -> env)
              | C.S_let (v, e) -> SMap.add v (infer env focus e) env
              | C.S_where e ->
                add_rd (infer env focus e);
                env)
            env clauses
        in
        List.iter (fun (k, _) -> add_rd (infer env focus k)) specs;
        infer env focus ret
      | C.Step (b, axis, test) -> (
        let rb = infer env focus b in
        match axis with
        | C.Axes.Self -> rb
        | C.Axes.Child | C.Axes.Attribute ->
          List.map (child_region (label_of_test test)) rb
        | C.Axes.Descendant | C.Axes.Descendant_or_self ->
          List.map (fun r -> { r with ranchored = false }) rb
        | C.Axes.Parent | C.Axes.Ancestor | C.Axes.Ancestor_or_self
        | C.Axes.Following_sibling | C.Axes.Preceding_sibling
        | C.Axes.Following | C.Axes.Preceding ->
          (* upward / sideways: widen to the whole document *)
          List.sort_uniq compare (List.map widen_doc rb))
      | C.Key_step (b, _, _, rhs) ->
        let rb = infer env focus b in
        add_rd (infer env focus rhs);
        List.map (fun r -> { r with ranchored = false }) rb
      | C.Map (a, b) ->
        let ra = infer env focus a in
        (* result cardinality observes a's cardinality *)
        add_rd ra;
        infer env ra b
      | C.Predicate (b, p) ->
        let rb = infer env focus b in
        add_rd (infer env rb p);
        rb
      | C.Binop (op, a, b) -> (
        match op with
        | Xqb_syntax.Ast.Union | Xqb_syntax.Ast.Intersect
        | Xqb_syntax.Ast.Except ->
          infer env focus a @ infer env focus b
        | _ ->
          consume a;
          consume b;
          [])
      | C.Unary_minus a ->
        consume a;
        []
      | C.Instance_of (a, _) | C.Castable_as (a, _) | C.Cast_as (a, _) ->
        consume a;
        []
      | C.Treat_as (a, _) ->
        (* the cardinality check observes the sequence even when the
           result is discarded *)
        let ra = infer env focus a in
        add_rd ra;
        ra
      | C.Call_builtin ("doc", args) -> (
        List.iter consume args;
        match args with
        | [ C.Scalar (Xqb_xdm.Atomic.String u) ]
        | [ C.Scalar (Xqb_xdm.Atomic.Untyped u) ] ->
          [ { rdoc = Named u; rpath = []; ranchored = true } ]
        | _ ->
          (* dynamic URI: any document, and reading it *)
          add_rd [ any_region ];
          [ any_region ])
      | C.Call_builtin (("%ddo" | "%ddo-elided"), [ a ]) -> infer env focus a
      | C.Call_builtin ("trace", a :: label) ->
        List.iter consume label;
        infer env focus a
      | C.Call_builtin
          (("exactly-one" | "zero-or-one" | "one-or-more"), args) ->
        (* cardinality-checked: may raise on the input's cardinality
           even when the result is discarded *)
        let rs = List.concat_map (infer env focus) args in
        add_rd rs;
        rs
      | C.Call_builtin
          (("reverse" | "subsequence" | "remove" | "insert-before"), args) ->
        (* node-preserving sequence combinators: result nodes come
           from the arguments, nothing is atomized *)
        List.concat_map (infer env focus) args
      | C.Call_builtin (("root" | "id"), args) ->
        (* escapes to the whole document of the argument nodes *)
        let rs =
          List.sort_uniq compare
            (List.concat_map
               (fun a -> List.map widen_doc (infer env focus a))
               args)
        in
        add_rd rs;
        rs
      | C.Call_builtin (_, args) ->
        (* value builtins: atomize their node arguments *)
        List.iter consume args;
        []
      | C.Call_user (f, args) ->
        List.iter consume args;
        (* unknown function body: reads anywhere; writes too unless
           provably pure, and allocates if its body does *)
        add_rd [ any_region ];
        if purity e <> Pure then add_wr [ any_region ];
        if allocates f (List.length args) then allocate ();
        [ any_region ]
      | C.Elem (ns, c) | C.Attr (ns, c) | C.Pi_node (ns, c) ->
        (match ns with C.Dynamic n -> consume n | C.Static _ -> ());
        (* construction deep-copies its content *)
        consume c;
        allocate ();
        []
      | C.Text_node a | C.Comment_node a | C.Doc_node a | C.Copy a ->
        consume a;
        allocate ();
        []
      | C.Insert (tgt, payload, dest, _) ->
        consume payload;
        let rdst = infer env focus dest in
        add_rd rdst;
        (match tgt with
        | C.T_first | C.T_last -> write_targets rdst
        | C.T_before | C.T_after -> write_targets (List.map parent_region rdst));
        []
      | C.Delete (a, _) ->
        let ra = infer env focus a in
        add_rd ra;
        write_targets (List.map parent_region ra);
        []
      | C.Replace (a, b, _) ->
        consume b;
        let ra = infer env focus a in
        add_rd ra;
        write_targets (List.map parent_region ra);
        []
      | C.Replace_value (a, b, _) ->
        consume b;
        let ra = infer env focus a in
        add_rd ra;
        write_targets ra;
        []
      | C.Rename (a, b, _) ->
        consume b;
        let ra = infer env focus a in
        add_rd ra;
        write_targets (List.map parent_region ra);
        []
      | C.Snap (_, a) ->
        (* updates apply mid-evaluation: nested snap semantics need
           the whole store, hence ⊤ and the exclusive route *)
        add_rd [ any_region ];
        add_wr [ any_region ];
        ignore (infer env focus a);
        []
    in
    let env =
      List.fold_left
        (fun env (v, _, e) -> SMap.add v (infer env [] e) env)
        SMap.empty prog.Normalize.global_vars
    in
    (match prog.Normalize.body with
    | None -> ()
    | Some b ->
      (* the final result is serialized: its subtrees are read *)
      add_rd (infer env [] b));
    let updates =
      List.exists
        (fun e -> purity e <> Pure)
        (Option.to_list prog.Normalize.body
        @ List.map (fun (_, _, e) -> e) prog.Normalize.global_vars)
    in
    normalize { reads = !rd; writes = !wr; updates }
end
