(* The pre/post order-key layer (Store.Order_key): keyed comparator
   and containment vs the naive chain walks, key invalidation under
   mutation and transaction rollback, and the R7 subtree conflict
   rule that rides on the keys. *)

open Helpers
module Update = Core.Update

(* Hand-built deltas: ops wrapped into requests (no provenance). *)
let rqs = List.map Update.make
module Conflict = Core.Conflict
module Apply = Core.Apply

let nth l n = List.nth l (n mod List.length l)

let sign n = compare n 0

(* Reference implementation of strict subtree containment. *)
let naive_inside store ~ancestor id =
  let rec up i =
    match Store.parent store i with
    | Some p -> p = ancestor || up p
    | None -> false
  in
  id <> ancestor && up id

(* Keyed comparator and containment agree with the chain walks on
   every pair of nodes ever allocated (attached or detached). *)
let agree store =
  let n = Store.node_count store in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if
        sign (Store.compare_order store i j)
        <> sign (Store.compare_order_naive store i j)
      then ok := false;
      if
        Store.is_descendant store ~ancestor:i j
        <> naive_inside store ~ancestor:i j
      then ok := false
    done
  done;
  !ok

let all_ids store = List.init (Store.node_count store) Fun.id

let build_keys store = ignore (Store.sort_doc_order store (all_ids store))

let sort_matches_naive store =
  let ids = all_ids store in
  Store.sort_doc_order store ids
  = List.sort_uniq (Store.compare_order_naive store) ids

(* -- random trees ------------------------------------------------- *)

(* Grow a tree from an int script: each step hangs a fresh element,
   text or attribute off a script-chosen existing element. Attribute
   names and values come from small sets, so key lookups have
   repeated (name, value) pairs to find; a duplicate name on one
   element is skipped. *)
let build script =
  let store = Store.create () in
  let doc = Store.make_document store in
  let r = Store.make_element store (qn "r") in
  Store.insert store ~parent:doc ~position:Store.Last [ r ];
  let elems = ref [ r ] in
  List.iteri
    (fun i n ->
      let parent = nth !elems n in
      match n mod 3 with
      | 0 ->
        let e = Store.make_element store (qn (Printf.sprintf "e%d" (i mod 5))) in
        let position = if n mod 2 = 0 then Store.Last else Store.First in
        Store.insert store ~parent ~position [ e ];
        elems := e :: !elems
      | 1 ->
        let t = Store.make_text store "t" in
        Store.insert store ~parent ~position:Store.Last [ t ]
      | _ ->
        let a =
          Store.make_attribute store
            (qn (Printf.sprintf "a%d" (i mod 3)))
            (Printf.sprintf "v%d" (n mod 2))
        in
        (try Store.insert store ~parent ~position:Store.Last [ a ]
         with Store.Update_error _ -> ()))
    script;
  (store, doc)

(* Apply script-chosen ∆s through the snap application machinery
   (Apply → transactionally), so key invalidation is exercised on the
   same paths real queries use. [n mod 8 = 1] and [= 7] build a ∆
   whose last request always fails, forcing a rollback through the
   undo journal. The value edits cover each kind the index
   invalidation tells apart: text only, an attribute value, and an
   element whose element children it detaches. *)
let mutate store muts =
  List.iteri
    (fun i n ->
      let of_kind k =
        List.filter (fun x -> Store.kind store x = k) (all_ids store)
      in
      let elems = of_kind Store.Element in
      let v = nth elems n in
      (* a cycle error: fails after the requests before it applied *)
      let fail = Update.Insert { nodes = [ v ]; parent = v; position = Update.Last } in
      let pick_in = function [] -> v | l -> nth l n in
      let pick k = pick_in (of_kind k) in
      let delta =
        match n mod 8 with
        | 0 ->
          let e = Store.make_element store (qn (Printf.sprintf "m%d" i)) in
          [ Update.Insert { nodes = [ e ]; parent = v; position = Update.Last } ]
        | 1 -> [ Update.Delete v; fail ]
        | 2 -> [ Update.Rename (v, qn "z") ]
        | 3 -> [ Update.Set_value (v, "w") ]
        | 4 -> [ Update.Set_value (pick Store.Text, "w") ]
        | 5 -> [ Update.Set_value (pick Store.Attribute, Printf.sprintf "v%d" (n mod 3)) ]
        | 6 ->
          let has_element_child e =
            List.exists
              (fun c -> Store.kind store c = Store.Element)
              (Store.children store e)
          in
          [ Update.Set_value (pick_in (List.filter has_element_child elems), "w") ]
        | _ -> [ Update.Set_value (pick Store.Text, "w"); fail ]
      in
      match Apply.apply store Apply.Ordered (rqs delta) with
      | () -> ()
      | exception _ -> ())
    muts

let gen_scripts =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 40) (int_range 0 9999))
      (list_size (int_range 0 12) (int_range 0 9999)))

let prop_keyed_eq_naive (script, muts) =
  let store, _doc = build script in
  build_keys store;
  agree store
  && sort_matches_naive store
  &&
  (mutate store muts;
   (* first without rebuilding: stale keys must fall back, not lie *)
   agree store
   &&
   (build_keys store;
    agree store && sort_matches_naive store
    && Store.sorted_strict store (Store.sort_doc_order store (all_ids store))))

(* -- deterministic invalidation scenarios ------------------------- *)

(* Keys built on a detached subtree must not resurface as valid after
   the subtree is re-attached, reordered in place (which only bumps
   the enclosing root), and detached again. *)
let test_stale_subtree_keys () =
  let store = Store.create () in
  let b = Store.make_element store (qn "b") in
  let t = Store.make_text store "t" in
  let d2 = Store.make_element store (qn "d") in
  Store.insert store ~parent:b ~position:Store.Last [ t ];
  Store.insert store ~parent:b ~position:Store.Last [ d2 ];
  (* build keys while [b] is a detached root: t before d2 *)
  check Alcotest.(list int) "detached order" [ t; d2 ]
    (Store.sort_doc_order store [ d2; t ]);
  (* attach, swap the children, detach again *)
  let doc = Store.make_document store in
  Store.insert store ~parent:doc ~position:Store.Last [ b ];
  Store.detach store d2;
  Store.insert store ~parent:b ~position:Store.First [ d2 ];
  Store.detach store b;
  (* [b] is a root again; the old root=b keys claimed t < d2 *)
  check Alcotest.(list int) "reordered" [ d2; t ]
    (Store.sort_doc_order store [ d2; t ]);
  check Alcotest.bool "keyed = naive" true (agree store)

(* Rolling back a transaction that detached a subtree and built keys
   on it must leave no stale-valid keys behind (the undo path bumps
   the re-attached child as well as the parent). *)
let test_rollback_invalidation () =
  let f = fixture () in
  build_keys f.store;
  (try
     Store.transactionally f.store (fun () ->
         Store.detach f.store f.b2;
         ignore (Store.sort_doc_order f.store [ f.d1; f.t2 ]);
         raise Exit)
   with Exit -> ());
  check Alcotest.bool "keyed = naive after rollback" true (agree f.store);
  build_keys f.store;
  check Alcotest.bool "keyed = naive after rebuild" true (agree f.store);
  check Alcotest.(list int) "order restored" [ f.c1; f.t2; f.d1 ]
    (Store.sort_doc_order f.store [ f.d1; f.t2; f.c1 ])

(* -- unit coverage ------------------------------------------------ *)

let test_sort_fixture () =
  let f = fixture () in
  check Alcotest.(list int) "full order"
    [ f.doc; f.a; f.b1; f.x1; f.t1; f.c1; f.b2; f.t2; f.d1 ]
    (Store.sort_doc_order f.store
       [ f.d1; f.t2; f.doc; f.c1; f.b2; f.x1; f.a; f.t1; f.b1 ]);
  check Alcotest.(list int) "dups dropped" [ f.a; f.b2 ]
    (Store.sort_doc_order f.store [ f.b2; f.b2; f.a ])

let test_sorted_strict () =
  let f = fixture () in
  check Alcotest.bool "sorted" true
    (Store.sorted_strict f.store [ f.doc; f.a; f.b1 ]);
  check Alcotest.bool "empty" true (Store.sorted_strict f.store []);
  check Alcotest.bool "dup" false (Store.sorted_strict f.store [ f.a; f.a ]);
  check Alcotest.bool "swapped" false (Store.sorted_strict f.store [ f.b2; f.b1 ])

let test_is_descendant () =
  let f = fixture () in
  build_keys f.store;
  check Alcotest.bool "a/t2" true (Store.is_descendant f.store ~ancestor:f.a f.t2);
  check Alcotest.bool "doc/x1" true
    (Store.is_descendant f.store ~ancestor:f.doc f.x1);
  check Alcotest.bool "b1/t2" false
    (Store.is_descendant f.store ~ancestor:f.b1 f.t2);
  check Alcotest.bool "strict" false (Store.is_descendant f.store ~ancestor:f.a f.a)

let test_builds_counter () =
  let f = fixture () in
  check Alcotest.int "fresh" 0 (Store.order_key_builds f.store);
  build_keys f.store;
  check Alcotest.int "one build" 1 (Store.order_key_builds f.store);
  build_keys f.store;
  check Alcotest.int "cached" 1 (Store.order_key_builds f.store);
  (* names and values are not part of the shape the keys encode *)
  Store.rename f.store f.a (qn "a2");
  Store.set_content f.store f.t2 "w";
  build_keys f.store;
  check Alcotest.int "kept across rename and value edit" 1
    (Store.order_key_builds f.store);
  (* any insert moves the shape, a text node's included *)
  Store.insert f.store ~parent:f.b2 ~position:Store.Last
    [ Store.make_text f.store "n" ];
  build_keys f.store;
  check Alcotest.int "rebuild after insert" 2 (Store.order_key_builds f.store)

let test_keys_disabled () =
  let f = fixture () in
  Store.set_order_keys f.store false;
  check Alcotest.(list int) "sort without keys" [ f.a; f.c1; f.t2 ]
    (Store.sort_doc_order f.store [ f.t2; f.c1; f.a ]);
  check Alcotest.bool "agree without keys" true (agree f.store);
  check Alcotest.int "no builds" 0 (Store.order_key_builds f.store)

(* -- R7: set-value vs structural work inside the subtree ---------- *)

let expect_conflict name store delta =
  tc name `Quick (fun () ->
      match Conflict.check ~store (rqs delta) with
      | () -> Alcotest.failf "%s: expected an R7 conflict" name
      | exception Conflict.Conflict_error _ -> ())

let expect_ok name store delta =
  tc name `Quick (fun () -> Conflict.check ~store (rqs delta))

let r7_tests =
  let f = fixture () in
  let fresh () = Store.make_element f.store (qn "n") in
  [ expect_conflict "R7 set-value vs inner delete" f.store
      [ Update.Set_value (f.b2, "v"); Update.Delete f.d1 ];
    expect_conflict "R7 set-value vs inner insert parent" f.store
      [ Update.Set_value (f.b2, "v");
        Update.Insert
          { nodes = [ fresh () ]; parent = f.d1; position = Update.Last }
      ];
    expect_conflict "R7 set-value vs inner anchor" f.store
      [ Update.Set_value (f.b2, "v");
        Update.Insert
          { nodes = [ fresh () ]; parent = f.b2; position = Update.After f.t2 }
      ];
    expect_ok "R7 is strict: anchor on the node itself" f.store
      [ Update.Set_value (f.b2, "v");
        Update.Insert
          { nodes = [ fresh () ]; parent = f.a; position = Update.After f.b2 }
      ];
    expect_ok "R7 skips non-element targets" f.store
      [ Update.Set_value (f.t2, "v"); Update.Delete f.d1 ];
    expect_ok "R7 disjoint subtrees" f.store
      [ Update.Set_value (f.b1, "v"); Update.Delete f.d1 ];
    tc "R7 needs the store" `Quick (fun () ->
        check Alcotest.bool "storeless check passes" true
          (Conflict.is_conflict_free
             (rqs [ Update.Set_value (f.b2, "v"); Update.Delete f.d1 ])))
  ]

let suite =
  [ ( "order keys",
      [ tc "sort_doc_order fixture" `Quick test_sort_fixture;
        tc "sorted_strict" `Quick test_sorted_strict;
        tc "is_descendant" `Quick test_is_descendant;
        tc "builds counter" `Quick test_builds_counter;
        tc "keys disabled" `Quick test_keys_disabled;
        tc "stale subtree keys" `Quick test_stale_subtree_keys;
        tc "rollback invalidation" `Quick test_rollback_invalidation;
        qtest ~count:80 "keyed order = naive order (random trees + snaps)"
          gen_scripts prop_keyed_eq_naive
      ]
      @ r7_tests )
  ]
