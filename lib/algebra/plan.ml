(* The tuple algebra of §4 — a simplified version of the Galax
   nested-relational algebra ([20, 21] in the paper). Tuple plans
   ([tplan]) produce streams of variable-binding tuples; value plans
   ([vplan]) produce XDM values.

   The shape mirrors the paper's optimized plan for the XMark Q8
   variant:

     Snap {
       MapFromItem { <person ...>{count(Input#a)}</person> }
       (GroupBy [Input#p, {...}]
         (LeftOuterJoin (MapFromItem{[p:Input]}(...),
                         MapFromItem{[t:Input]}(...))
           on {...}))
     }

   [Outer_join_group] fuses the LeftOuterJoin + GroupBy pair — the
   grouping key is the (preserved) left tuple, which is how Galax's
   unnesting uses it, so fusing loses no generality for this pattern
   and keeps the executor O(|L| + |R| + |matches|). *)

module C = Core.Core_ast

type tplan =
  | Unit  (* a single empty tuple *)
  | For_tuple of tplan * string * string option * C.expr
    (* MapConcat: for each input tuple, bind var (and position var)
       from the expression's items *)
  | Let_tuple of tplan * string * C.expr
  | Select of tplan * C.expr  (* keep tuples where the EBV holds *)
  | Join of {
      left : tplan;
      right : tplan;
      lkey : C.expr;  (* evaluated in left-tuple scope *)
      rkey : C.expr;  (* evaluated in right-tuple scope *)
    }
    (* typed hash join on general-= of the keys *)
  | Outer_join_group of {
      left : tplan;
      right : tplan;
      lkey : C.expr;
      rkey : C.expr;
      ret : C.expr;  (* evaluated per matching right tuple (+ left scope) *)
      out : string;  (* variable receiving the grouped sequence *)
    }
  | Sort of tplan * (C.expr * Xqb_syntax.Ast.sort_dir) list
    (* stable sort of the tuple stream by per-tuple keys (order by) *)

type vplan =
  | Direct of C.expr  (* fallback: direct interpretation *)
  | Map_from_tuple of tplan * C.expr  (* MapFromItem *)
  | Seq_v of vplan * vplan
  | Snap_v of C.snap_mode * vplan
  | Ddo_v of { elided : bool; body : vplan }
    (* distinct-document-order over the body's value; [elided] =
       statically certified already sorted/duplicate-free (the
       identity at runtime, counted by the executor) *)

(* -- Node numbering --------------------------------------------------

   Plans are identified per-node by their *pre-order index*: the root
   is 0 and a node at index i has its first child at i+1, the next at
   i+1+size(first child), and so on. A [Map_from_tuple]'s embedded
   tuple plan continues the same numbering. The executor's profiler
   and the annotated renderer both derive the numbering structurally,
   so the ids agree without storing them in the tree. *)

let rec size_t = function
  | Unit -> 1
  | For_tuple (p, _, _, _) | Let_tuple (p, _, _) | Select (p, _) | Sort (p, _) ->
    1 + size_t p
  | Join { left; right; _ } | Outer_join_group { left; right; _ } ->
    1 + size_t left + size_t right

let rec size_v = function
  | Direct _ -> 1
  | Map_from_tuple (t, _) -> 1 + size_t t
  | Seq_v (a, b) -> 1 + size_v a + size_v b
  | Snap_v (_, p) -> 1 + size_v p
  | Ddo_v { body; _ } -> 1 + size_v body

(* Child pre-order ids of each node, as an alist over the whole tree
   (the profiler uses this to compute self times). *)
let child_ids (p : vplan) : (int * int list) list =
  let acc = ref [] in
  let rec go_t id p =
    (match p with
    | Unit -> acc := (id, []) :: !acc
    | For_tuple (i, _, _, _) | Let_tuple (i, _, _) | Select (i, _) | Sort (i, _)
      ->
      acc := (id, [ id + 1 ]) :: !acc;
      go_t (id + 1) i
    | Join { left; right; _ } | Outer_join_group { left; right; _ } ->
      let rid = id + 1 + size_t left in
      acc := (id, [ id + 1; rid ]) :: !acc;
      go_t (id + 1) left;
      go_t rid right);
    ()
  in
  let rec go_v id p =
    match p with
    | Direct _ -> acc := (id, []) :: !acc
    | Map_from_tuple (t, _) ->
      acc := (id, [ id + 1 ]) :: !acc;
      go_t (id + 1) t
    | Seq_v (a, b) ->
      let bid = id + 1 + size_v a in
      acc := (id, [ id + 1; bid ]) :: !acc;
      go_v (id + 1) a;
      go_v bid b
    | Snap_v (_, q) ->
      acc := (id, [ id + 1 ]) :: !acc;
      go_v (id + 1) q
    | Ddo_v { body; _ } ->
      acc := (id, [ id + 1 ]) :: !acc;
      go_v (id + 1) body
  in
  go_v 0 p;
  List.rev !acc

(* [p] with [f] applied to every embedded core expression. *)
let rec map_exprs_t f = function
  | Unit -> Unit
  | For_tuple (p, v, pos, e) -> For_tuple (map_exprs_t f p, v, pos, f e)
  | Let_tuple (p, v, e) -> Let_tuple (map_exprs_t f p, v, f e)
  | Select (p, e) -> Select (map_exprs_t f p, f e)
  | Join { left; right; lkey; rkey } ->
    Join { left = map_exprs_t f left; right = map_exprs_t f right; lkey = f lkey; rkey = f rkey }
  | Outer_join_group { left; right; lkey; rkey; ret; out } ->
    Outer_join_group
      {
        left = map_exprs_t f left;
        right = map_exprs_t f right;
        lkey = f lkey;
        rkey = f rkey;
        ret = f ret;
        out;
      }
  | Sort (p, specs) -> Sort (map_exprs_t f p, List.map (fun (k, d) -> (f k, d)) specs)

let rec map_exprs f = function
  | Direct e -> Direct (f e)
  | Map_from_tuple (t, e) -> Map_from_tuple (map_exprs_t f t, f e)
  | Seq_v (a, b) -> Seq_v (map_exprs f a, map_exprs f b)
  | Snap_v (m, p) -> Snap_v (m, map_exprs f p)
  | Ddo_v { elided; body } -> Ddo_v { elided; body = map_exprs f body }

(* -- Explain --------------------------------------------------------

   The renderers take an [annot] callback from pre-order node id to a
   suffix string; the plain [explain] passes the empty annotation,
   EXPLAIN ANALYZE passes per-operator counters. *)

let rec pp_tplan_a annot id ppf (p : tplan) =
  let open Format in
  match p with
  | Unit -> fprintf ppf "Unit%s" (annot id)
  | For_tuple (input, v, _, e) ->
    fprintf ppf "@[<v 2>MapConcat [%s := %s]%s@,(%a)@]" v
      (abbrev (C.to_string e))
      (annot id)
      (pp_tplan_a annot (id + 1))
      input
  | Let_tuple (input, v, e) ->
    fprintf ppf "@[<v 2>MapLet [%s := %s]%s@,(%a)@]" v (abbrev (C.to_string e))
      (annot id)
      (pp_tplan_a annot (id + 1))
      input
  | Select (input, e) ->
    fprintf ppf "@[<v 2>Select {%s}%s@,(%a)@]" (abbrev (C.to_string e)) (annot id)
      (pp_tplan_a annot (id + 1))
      input
  | Join { left; right; lkey; rkey } ->
    fprintf ppf "@[<v 2>HashJoin on {%s = %s}%s@,(%a,@, %a)@]"
      (abbrev (C.to_string lkey))
      (abbrev (C.to_string rkey))
      (annot id)
      (pp_tplan_a annot (id + 1))
      left
      (pp_tplan_a annot (id + 1 + size_t left))
      right
  | Outer_join_group { left; right; lkey; rkey; ret; out } ->
    fprintf ppf
      "@[<v 2>GroupBy [%s := {%s}]%s@,(@[<v 2>LeftOuterJoin on {%s = %s}@,(%a,@, %a)@])@]"
      out
      (abbrev (C.to_string ret))
      (annot id)
      (abbrev (C.to_string lkey))
      (abbrev (C.to_string rkey))
      (pp_tplan_a annot (id + 1))
      left
      (pp_tplan_a annot (id + 1 + size_t left))
      right
  | Sort (input, specs) ->
    fprintf ppf "@[<v 2>OrderBy [%s]%s@,(%a)@]"
      (String.concat ", "
         (List.map
            (fun (k, d) ->
              abbrev (C.to_string k)
              ^ match d with Xqb_syntax.Ast.Ascending -> "" | Descending -> " desc")
            specs))
      (annot id)
      (pp_tplan_a annot (id + 1))
      input

and pp_vplan_a annot id ppf (p : vplan) =
  let open Format in
  match p with
  | Direct e -> fprintf ppf "Eval {%s}%s" (abbrev (C.to_string e)) (annot id)
  | Map_from_tuple (t, e) ->
    fprintf ppf "@[<v 2>MapFromItem {%s}%s@,(%a)@]" (abbrev (C.to_string e))
      (annot id)
      (pp_tplan_a annot (id + 1))
      t
  | Seq_v (a, b) ->
    fprintf ppf "@[<v 2>Sequence%s@,(%a,@, %a)@]" (annot id)
      (pp_vplan_a annot (id + 1))
      a
      (pp_vplan_a annot (id + 1 + size_v a))
      b
  | Snap_v (m, q) ->
    let ms = Xqb_syntax.Ast.snap_mode_to_string m in
    fprintf ppf "@[<v 2>Snap %s{%s@,%a@,}@]"
      (if ms = "" then "" else ms ^ " ")
      (annot id)
      (pp_vplan_a annot (id + 1))
      q
  | Ddo_v { elided; body } ->
    fprintf ppf "@[<v 2>DDO%s%s@,(%a)@]"
      (if elided then " (elided)" else "")
      (annot id)
      (pp_vplan_a annot (id + 1))
      body

and abbrev s = if String.length s <= 60 then s else String.sub s 0 57 ^ "..."

let no_annot _ = ""
let pp_tplan ppf p = pp_tplan_a no_annot 0 ppf p
let pp_vplan ppf p = pp_vplan_a no_annot 0 ppf p

let explain (p : vplan) = Format.asprintf "%a" pp_vplan p

(* The same tree with a per-node annotation (EXPLAIN ANALYZE). *)
let explain_annotated ~annot (p : vplan) =
  Format.asprintf "%a" (pp_vplan_a annot 0) p

(* Is any part of the plan more than a Direct fallback? (E7 counts
   this as "rewrites fired".) *)
let rec uses_algebra = function
  | Direct _ -> false
  | Map_from_tuple _ -> true
  | Seq_v (a, b) -> uses_algebra a || uses_algebra b
  | Snap_v (_, p) -> uses_algebra p
  | Ddo_v { body; _ } -> uses_algebra body

let rec has_join_t = function
  | Unit -> false
  | For_tuple (p, _, _, _) | Let_tuple (p, _, _) | Select (p, _) | Sort (p, _) ->
    has_join_t p
  | Join _ | Outer_join_group _ -> true

let rec has_join = function
  | Direct _ -> false
  | Map_from_tuple (t, _) -> has_join_t t
  | Seq_v (a, b) -> has_join a || has_join b
  | Snap_v (_, p) -> has_join p
  | Ddo_v { body; _ } -> has_join body
