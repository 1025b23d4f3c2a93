(* S2: the twelve XPath axes and node tests, plus document order. *)

open Helpers
module Store = Xqb_store.Store
module Axes = Xqb_store.Axes

let ids = Alcotest.(list int)

let axis_tests =
  [
    tc "child" `Quick (fun () ->
        let f = fixture () in
        check ids "a" [ f.b1; f.c1; f.b2 ] (Axes.apply f.store Axes.Child f.a));
    tc "attribute" `Quick (fun () ->
        let f = fixture () in
        check ids "b1" [ f.x1 ] (Axes.apply f.store Axes.Attribute f.b1);
        check ids "c1" [] (Axes.apply f.store Axes.Attribute f.c1));
    tc "self / parent" `Quick (fun () ->
        let f = fixture () in
        check ids "self" [ f.b1 ] (Axes.apply f.store Axes.Self f.b1);
        check ids "parent" [ f.a ] (Axes.apply f.store Axes.Parent f.b1);
        check ids "parent of attr" [ f.b1 ] (Axes.apply f.store Axes.Parent f.x1);
        check ids "parent of root" [] (Axes.apply f.store Axes.Parent f.doc));
    tc "descendant in document order" `Quick (fun () ->
        let f = fixture () in
        check ids "a" [ f.b1; f.t1; f.c1; f.b2; f.t2; f.d1 ]
          (Axes.apply f.store Axes.Descendant f.a);
        check ids "dos" (f.a :: [ f.b1; f.t1; f.c1; f.b2; f.t2; f.d1 ])
          (Axes.apply f.store Axes.Descendant_or_self f.a));
    tc "ancestor nearest-first" `Quick (fun () ->
        let f = fixture () in
        check ids "d1" [ f.b2; f.a; f.doc ] (Axes.apply f.store Axes.Ancestor f.d1);
        check ids "aos" [ f.d1; f.b2; f.a; f.doc ]
          (Axes.apply f.store Axes.Ancestor_or_self f.d1));
    tc "siblings" `Quick (fun () ->
        let f = fixture () in
        check ids "after b1" [ f.c1; f.b2 ]
          (Axes.apply f.store Axes.Following_sibling f.b1);
        check ids "before b2 nearest-first" [ f.c1; f.b1 ]
          (Axes.apply f.store Axes.Preceding_sibling f.b2);
        check ids "attr has none" []
          (Axes.apply f.store Axes.Following_sibling f.x1));
    tc "following excludes descendants" `Quick (fun () ->
        let f = fixture () in
        check ids "b1" [ f.c1; f.b2; f.t2; f.d1 ]
          (Axes.apply f.store Axes.Following f.b1);
        check ids "t1 follows up" [ f.c1; f.b2; f.t2; f.d1 ]
          (Axes.apply f.store Axes.Following f.t1);
        check ids "t2" [ f.d1 ] (Axes.apply f.store Axes.Following f.t2));
    tc "preceding excludes ancestors" `Quick (fun () ->
        let f = fixture () in
        let p = Axes.apply f.store Axes.Preceding f.d1 in
        check Alcotest.bool "no ancestors" true
          (not (List.mem f.a p) && not (List.mem f.b2 p));
        check Alcotest.bool "has b1 c1 t1 t2" true
          (List.for_all (fun n -> List.mem n p) [ f.b1; f.c1; f.t1; f.t2 ]));
  ]

let test_tests =
  [
    tc "name test vs principal kind" `Quick (fun () ->
        let f = fixture () in
        check ids "child b" [ f.b1; f.b2 ]
          (Axes.step f.store Axes.Child (Axes.Name (qn "b")) Fun.id f.a);
        check ids "attr x" [ f.x1 ]
          (Axes.step f.store Axes.Attribute (Axes.Name (qn "x")) Fun.id f.b1);
        (* a name test on the child axis never matches attributes *)
        check ids "child x empty" []
          (Axes.step f.store Axes.Child (Axes.Name (qn "x")) Fun.id f.b1));
    tc "wildcard" `Quick (fun () ->
        let f = fixture () in
        (* elements only, not text *)
        check ids "b2/*" [ f.d1 ] (Axes.step f.store Axes.Child Axes.Wildcard Fun.id f.b2));
    tc "kind tests" `Quick (fun () ->
        let f = fixture () in
        check ids "text()" [ f.t2 ]
          (Axes.step f.store Axes.Child Axes.Kind_text Fun.id f.b2);
        check ids "node()" [ f.t2; f.d1 ]
          (Axes.step f.store Axes.Child Axes.Kind_node Fun.id f.b2);
        check ids "element()" [ f.d1 ]
          (Axes.step f.store Axes.Child (Axes.Kind_element None) Fun.id f.b2);
        check ids "element(d)" [ f.d1 ]
          (Axes.step f.store Axes.Child (Axes.Kind_element (Some (qn "d"))) Fun.id f.b2);
        check ids "element(z)" []
          (Axes.step f.store Axes.Child (Axes.Kind_element (Some (qn "z"))) Fun.id f.b2);
        check ids "document-node()" [ f.doc ]
          (Axes.step f.store Axes.Self Axes.Kind_document Fun.id f.doc));
  ]

let order_tests =
  [
    tc "document order basics" `Quick (fun () ->
        let f = fixture () in
        check Alcotest.bool "b1 < c1" true (Store.compare_order f.store f.b1 f.c1 < 0);
        check Alcotest.bool "ancestor first" true
          (Store.compare_order f.store f.a f.t1 < 0);
        check Alcotest.bool "attr before children" true
          (Store.compare_order f.store f.x1 f.t1 < 0);
        check Alcotest.bool "attr after element" true
          (Store.compare_order f.store f.b1 f.x1 < 0);
        check Alcotest.int "reflexive" 0 (Store.compare_order f.store f.d1 f.d1));
    tc "sort_doc_order sorts and dedupes" `Quick (fun () ->
        let f = fixture () in
        check ids "sorted" [ f.a; f.b1; f.t1; f.c1 ]
          (Store.sort_doc_order f.store [ f.c1; f.a; f.t1; f.b1; f.c1; f.a ]));
    tc "cross-tree order is stable" `Quick (fun () ->
        let f = fixture () in
        let g = Store.load_string f.store "<z/>" in
        (* earlier-created tree first *)
        check Alcotest.bool "doc < g" true (Store.compare_order f.store f.d1 g < 0));
    qtest ~count:100 "order is a strict total order"
      QCheck2.Gen.(triple small_nat small_nat small_nat)
      (fun (i, j, k) ->
        let f = fixture () in
        let all =
          List.init (Store.node_count f.store) Fun.id
        in
        let n = List.length all in
        let a = List.nth all (i mod n)
        and b = List.nth all (j mod n)
        and c = List.nth all (k mod n) in
        let cmp = Store.compare_order f.store in
        (* antisymmetry *)
        (compare (cmp a b) (-(cmp b a)) = 0 || a = b)
        (* transitivity *)
        && (not (cmp a b < 0 && cmp b c < 0) || cmp a c < 0));
  ]

let suite =
  [ ("axes:apply", axis_tests); ("axes:tests", test_tests); ("axes:order", order_tests) ]
