(* S2: the XDM store — constructors, accessors, mutations with
   preconditions, detach semantics, deep copy, journal/transactions,
   and invariant preservation under random mutation sequences. *)

open Helpers
module Store = Xqb_store.Store
module Vec = Xqb_store.Vec

let no_errors store =
  check (Alcotest.list Alcotest.string) "invariants" [] (Store.validate store)

let vec_tests =
  [
    tc "push/get/length" `Quick (fun () ->
        let v = Vec.create () in
        for i = 0 to 99 do
          Vec.push v i
        done;
        check Alcotest.int "len" 100 (Vec.length v);
        check Alcotest.int "get" 42 (Vec.get v 42));
    tc "insert shifts" `Quick (fun () ->
        let v = Vec.of_list [ 1; 2; 4 ] in
        Vec.insert v 2 3;
        check (Alcotest.list Alcotest.int) "list" [ 1; 2; 3; 4 ] (Vec.to_list v));
    tc "insert at ends" `Quick (fun () ->
        let v = Vec.of_list [ 2 ] in
        Vec.insert v 0 1;
        Vec.insert v 2 3;
        check (Alcotest.list Alcotest.int) "list" [ 1; 2; 3 ] (Vec.to_list v));
    tc "remove_at" `Quick (fun () ->
        let v = Vec.of_list [ 1; 2; 3 ] in
        Vec.remove_at v 1;
        check (Alcotest.list Alcotest.int) "list" [ 1; 3 ] (Vec.to_list v));
    tc "remove by value" `Quick (fun () ->
        let v = Vec.of_list [ 5; 6; 7 ] in
        check Alcotest.bool "hit" true (Vec.remove v 6);
        check Alcotest.bool "miss" false (Vec.remove v 99);
        check (Alcotest.list Alcotest.int) "list" [ 5; 7 ] (Vec.to_list v));
    tc "bounds checked" `Quick (fun () ->
        let v = Vec.of_list [ 1 ] in
        (match Vec.get v 1 with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
        match Vec.insert v 3 0 with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    qtest "vec models list" QCheck2.Gen.(small_list (int_bound 100)) (fun ops ->
        let v = Vec.create () in
        let model = ref [] in
        List.iter
          (fun x ->
            if x mod 7 = 0 && Vec.length v > 0 then begin
              Vec.remove_at v 0;
              model := List.tl !model
            end
            else begin
              Vec.push v x;
              model := !model @ [ x ]
            end)
          ops;
        Vec.to_list v = !model);
  ]

let store_basic =
  [
    tc "load and accessors" `Quick (fun () ->
        let f = fixture () in
        check Alcotest.bool "doc kind" true (Store.kind f.store f.doc = Store.Document);
        check Alcotest.string "a name" "a"
          (Xqb_xml.Qname.to_string (Option.get (Store.name f.store f.a)));
        check Alcotest.int "a children" 3 (List.length (Store.children f.store f.a));
        check Alcotest.string "attr value" "1" (Store.content f.store f.x1);
        check (Alcotest.option Alcotest.int) "parent" (Some f.a)
          (Store.parent f.store f.b1);
        no_errors f.store);
    tc "string_value concatenates descendants" `Quick (fun () ->
        let f = fixture () in
        check Alcotest.string "a" "onetwo" (Store.string_value f.store f.a);
        check Alcotest.string "b2" "two" (Store.string_value f.store f.b2);
        check Alcotest.string "attr" "1" (Store.string_value f.store f.x1));
    tc "serialize" `Quick (fun () ->
        let f = fixture () in
        check Alcotest.string "xml"
          "<a><b x=\"1\">one</b><c></c><b>two<d></d></b></a>"
          (Store.serialize f.store f.doc));
    tc "root and ancestry" `Quick (fun () ->
        let f = fixture () in
        check Alcotest.int "root" f.doc (Store.root f.store f.d1);
        check Alcotest.bool "anc" true (Store.is_ancestor f.store ~ancestor:f.a f.d1);
        check Alcotest.bool "not anc" false
          (Store.is_ancestor f.store ~ancestor:f.b1 f.d1));
  ]

let store_mutation =
  [
    tc "insert last" `Quick (fun () ->
        let f = fixture () in
        let e = Store.make_element f.store (qn "new") in
        Store.insert f.store ~parent:f.a ~position:Store.Last [ e ];
        check Alcotest.int "4 children" 4 (List.length (Store.children f.store f.a));
        check (Alcotest.option Alcotest.int) "parent set" (Some f.a)
          (Store.parent f.store e);
        no_errors f.store);
    tc "insert first and after" `Quick (fun () ->
        let f = fixture () in
        let e1 = Store.make_element f.store (qn "first") in
        let e2 = Store.make_element f.store (qn "mid") in
        Store.insert f.store ~parent:f.a ~position:Store.First [ e1 ];
        Store.insert f.store ~parent:f.a ~position:(Store.After f.c1) [ e2 ];
        let names =
          List.map
            (fun c ->
              match Store.name f.store c with
              | Some q -> Xqb_xml.Qname.to_string q
              | None -> "?")
            (Store.children f.store f.a)
        in
        check (Alcotest.list Alcotest.string) "order"
          [ "first"; "b"; "c"; "mid"; "b" ] names;
        no_errors f.store);
    tc "insert multiple keeps order" `Quick (fun () ->
        let f = fixture () in
        let es = List.map (fun n -> Store.make_element f.store (qn n)) [ "p"; "q"; "r" ] in
        Store.insert f.store ~parent:f.c1 ~position:Store.Last es;
        check Alcotest.int "3 children" 3 (List.length (Store.children f.store f.c1));
        no_errors f.store);
    tc "insert attribute" `Quick (fun () ->
        let f = fixture () in
        let at = Store.make_attribute f.store (qn "y") "2" in
        Store.insert f.store ~parent:f.b1 ~position:Store.Last [ at ];
        check Alcotest.int "2 attrs" 2 (List.length (Store.attributes f.store f.b1));
        no_errors f.store);
    tc "insert node with parent rejected" `Quick (fun () ->
        let f = fixture () in
        match Store.insert f.store ~parent:f.c1 ~position:Store.Last [ f.b1 ] with
        | _ -> Alcotest.fail "expected Update_error"
        | exception Store.Update_error _ -> no_errors f.store);
    tc "cycle rejected" `Quick (fun () ->
        let f = fixture () in
        Store.detach f.store f.b2;
        (* b2 is now a root; inserting its ancestor-to-be under its own
           descendant d1 must fail *)
        match Store.insert f.store ~parent:f.d1 ~position:Store.Last [ f.b2 ] with
        | _ -> Alcotest.fail "expected Update_error"
        | exception Store.Update_error _ -> no_errors f.store);
    tc "duplicate attribute rejected" `Quick (fun () ->
        let f = fixture () in
        let at = Store.make_attribute f.store (qn "x") "dup" in
        match Store.insert f.store ~parent:f.b1 ~position:Store.Last [ at ] with
        | _ -> Alcotest.fail "expected Update_error"
        | exception Store.Update_error _ -> ());
    tc "two same-named attributes in one insert rejected" `Quick (fun () ->
        let f = fixture () in
        let a1 = Store.make_attribute f.store (qn "n1") "1" in
        let a2 = Store.make_attribute f.store (qn "n1") "2" in
        (match Store.insert f.store ~parent:f.b1 ~position:Store.Last [ a1; a2 ] with
        | _ -> Alcotest.fail "expected Update_error"
        | exception Store.Update_error _ -> ());
        check Alcotest.bool "nothing inserted" true
          (Store.parent f.store a1 = None && Store.parent f.store a2 = None);
        no_errors f.store);
    tc "attribute into non-element rejected" `Quick (fun () ->
        let f = fixture () in
        let at = Store.make_attribute f.store (qn "z") "v" in
        match Store.insert f.store ~parent:f.doc ~position:Store.Last [ at ] with
        | _ -> Alcotest.fail "expected Update_error"
        | exception Store.Update_error _ -> ());
    tc "insert into text rejected" `Quick (fun () ->
        let f = fixture () in
        let e = Store.make_element f.store (qn "e") in
        match Store.insert f.store ~parent:f.t1 ~position:Store.Last [ e ] with
        | _ -> Alcotest.fail "expected Update_error"
        | exception Store.Update_error _ -> ());
    tc "bad anchor rejected" `Quick (fun () ->
        let f = fixture () in
        let e = Store.make_element f.store (qn "e") in
        (* t1 is a child of b1, not of a *)
        match Store.insert f.store ~parent:f.a ~position:(Store.After f.t1) [ e ] with
        | _ -> Alcotest.fail "expected Update_error"
        | exception Store.Update_error _ -> ());
    tc "detach is the paper's delete" `Quick (fun () ->
        let f = fixture () in
        Store.detach f.store f.b1;
        check Alcotest.int "2 children" 2 (List.length (Store.children f.store f.a));
        check (Alcotest.option Alcotest.int) "no parent" None (Store.parent f.store f.b1);
        (* the detached subtree is still fully readable (§3.1) *)
        check Alcotest.string "still queryable" "one" (Store.string_value f.store f.b1);
        check Alcotest.int "detached count" 1 (Store.detached_count f.store);
        no_errors f.store);
    tc "detach attribute" `Quick (fun () ->
        let f = fixture () in
        Store.detach f.store f.x1;
        check Alcotest.int "no attrs" 0 (List.length (Store.attributes f.store f.b1));
        no_errors f.store);
    tc "detach twice is a no-op" `Quick (fun () ->
        let f = fixture () in
        Store.detach f.store f.b1;
        Store.detach f.store f.b1;
        no_errors f.store);
    tc "reinsert detached elsewhere" `Quick (fun () ->
        let f = fixture () in
        Store.detach f.store f.b1;
        Store.insert f.store ~parent:f.b2 ~position:Store.First [ f.b1 ];
        check (Alcotest.option Alcotest.int) "new parent" (Some f.b2)
          (Store.parent f.store f.b1);
        check Alcotest.string "value moved" "onetwo" (Store.string_value f.store f.b2);
        no_errors f.store);
    tc "rename element and attribute" `Quick (fun () ->
        let f = fixture () in
        Store.rename f.store f.c1 (qn "renamed");
        Store.rename f.store f.x1 (qn "attr2");
        check Alcotest.string "elem" "renamed"
          (Xqb_xml.Qname.to_string (Option.get (Store.name f.store f.c1)));
        check Alcotest.string "attr" "attr2"
          (Xqb_xml.Qname.to_string (Option.get (Store.name f.store f.x1)));
        no_errors f.store);
    tc "rename text rejected" `Quick (fun () ->
        let f = fixture () in
        match Store.rename f.store f.t1 (qn "nope") with
        | _ -> Alcotest.fail "expected Update_error"
        | exception Store.Update_error _ -> ());
    tc "set_content on text" `Quick (fun () ->
        let f = fixture () in
        Store.set_content f.store f.t1 "uno";
        check Alcotest.string "value" "uno" (Store.string_value f.store f.b1));
  ]

let store_copy =
  [
    tc "deep copy is isomorphic and fresh" `Quick (fun () ->
        let f = fixture () in
        let c = Store.deep_copy f.store f.a in
        check Alcotest.bool "different id" true (c <> f.a);
        check (Alcotest.option Alcotest.int) "no parent" None (Store.parent f.store c);
        check Alcotest.string "same serialization"
          (Store.serialize f.store f.a)
          (Store.serialize f.store c);
        no_errors f.store);
    tc "copy is disjoint from original" `Quick (fun () ->
        let f = fixture () in
        let c = Store.deep_copy f.store f.a in
        (* mutate the copy; the original must be untouched *)
        let kid = List.hd (Store.children f.store c) in
        Store.detach f.store kid;
        check Alcotest.int "original intact" 3
          (List.length (Store.children f.store f.a));
        no_errors f.store);
  ]

let store_txn =
  [
    tc "rollback on exception" `Quick (fun () ->
        let f = fixture () in
        let before = Store.serialize f.store f.doc in
        (match
           Store.transactionally f.store (fun () ->
               Store.detach f.store f.b1;
               Store.rename f.store f.c1 (qn "zz");
               let e = Store.make_element f.store (qn "new") in
               Store.insert f.store ~parent:f.a ~position:Store.First [ e ];
               Store.set_content f.store f.t2 "changed";
               failwith "boom")
         with
        | _ -> Alcotest.fail "expected failure"
        | exception Failure _ -> ());
        check Alcotest.string "restored" before (Store.serialize f.store f.doc);
        no_errors f.store);
    tc "commit keeps changes" `Quick (fun () ->
        let f = fixture () in
        Store.transactionally f.store (fun () -> Store.detach f.store f.b1);
        check Alcotest.int "2 children" 2 (List.length (Store.children f.store f.a)));
    tc "nested transactions" `Quick (fun () ->
        let f = fixture () in
        let before = Store.serialize f.store f.doc in
        (match
           Store.transactionally f.store (fun () ->
               Store.detach f.store f.b1;
               (* inner commits, outer still rolls everything back *)
               Store.transactionally f.store (fun () ->
                   Store.rename f.store f.c1 (qn "inner"));
               failwith "outer boom")
         with
        | _ -> Alcotest.fail "expected failure"
        | exception Failure _ -> ());
        check Alcotest.string "all restored" before (Store.serialize f.store f.doc);
        no_errors f.store);
    tc "inner rollback, outer commit" `Quick (fun () ->
        let f = fixture () in
        Store.transactionally f.store (fun () ->
            Store.rename f.store f.c1 (qn "keep");
            match
              Store.transactionally f.store (fun () ->
                  Store.detach f.store f.b1;
                  failwith "inner boom")
            with
            | _ -> Alcotest.fail "expected failure"
            | exception Failure _ -> ());
        check Alcotest.string "rename kept" "keep"
          (Xqb_xml.Qname.to_string (Option.get (Store.name f.store f.c1)));
        check Alcotest.int "detach undone" 3
          (List.length (Store.children f.store f.a));
        no_errors f.store);
  ]

(* Random mutation sequences preserve the store invariants and roll
   back exactly. *)
let mutation_gen =
  QCheck2.Gen.(list_size (int_bound 40) (pair (int_bound 5) (pair small_nat small_nat)))

let random_mutations =
  [
    qtest ~count:100 "random mutations keep invariants" mutation_gen (fun ops ->
        let f = fixture () in
        let nodes () =
          List.init (Store.node_count f.store) (fun i -> i)
          |> List.filter (fun n -> Store.kind f.store n <> Store.Attribute)
        in
        List.iter
          (fun (op, (i, j)) ->
            let ns = nodes () in
            let pick k = List.nth ns (k mod List.length ns) in
            try
              match op with
              | 0 -> Store.detach f.store (pick i)
              | 1 ->
                let e = Store.make_element f.store (qn "r") in
                Store.insert f.store ~parent:(pick i) ~position:Store.Last [ e ]
              | 2 -> Store.rename f.store (pick i) (qn "m")
              | 3 ->
                ignore (Store.deep_copy f.store (pick i))
              | 4 ->
                Store.insert f.store ~parent:(pick i)
                  ~position:Store.First [ Store.make_text f.store "t" ]
              | _ ->
                let a = pick i and b = pick j in
                Store.detach f.store a;
                Store.insert f.store ~parent:b ~position:Store.Last [ a ]
            with Store.Update_error _ -> ())
          ops;
        Store.validate f.store = []);
    qtest ~count:100 "random transaction rolls back exactly" mutation_gen (fun ops ->
        let f = fixture () in
        let before = Store.serialize f.store f.doc in
        let before_count = Store.node_count f.store in
        ignore before_count;
        (match
           Store.transactionally f.store (fun () ->
               List.iter
                 (fun (op, (i, _)) ->
                   let n = i mod Store.node_count f.store in
                   try
                     match op mod 3 with
                     | 0 -> Store.detach f.store n
                     | 1 ->
                       Store.insert f.store ~parent:n ~position:Store.Last
                         [ Store.make_element f.store (qn "x") ]
                     | _ -> Store.rename f.store n (qn "y")
                   with Store.Update_error _ -> ())
                 ops;
               failwith "rollback")
         with
        | _ -> false
        | exception Failure _ -> true)
        && Store.serialize f.store f.doc = before
        && Store.validate f.store = []);
  ]

(* The scratch overlay and constructor wiring. *)
let store_scratch =
  [
    tc "an overlay allocates above its base and reads through" `Quick (fun () ->
        let base = Store.create () in
        let doc = Store.load_string base "<r><a>1</a><a>2</a></r>" in
        let n = Store.node_count base in
        let sc = Store.scratch base in
        let r = List.hd (Store.children sc doc) in
        let b = Store.make_element sc (qn "b") in
        check Alcotest.bool "own id range" true (b >= Store.scratch_first_id);
        let c = Store.deep_copy sc r in
        Store.wire sc ~parent:b [ c ];
        check Alcotest.string "copy of a base subtree" "<b><r><a>1</a><a>2</a></r></b>"
          (Store.serialize sc b);
        check Alcotest.int "base reads through the overlay" 2
          (List.length (Store.descendants_by_name sc doc (qn "a")));
        check Alcotest.int "overlay trees are indexed too" 2
          (List.length (Store.descendants_by_name sc b (qn "a")));
        check Alcotest.int "base gained nothing" n (Store.node_count base);
        check Alcotest.int "overlay count is its own (b + a copy of 5)" 6
          (Store.node_count sc);
        no_errors base;
        no_errors sc);
    tc "document order puts base trees before overlay trees" `Quick (fun () ->
        let base = Store.create () in
        let doc = Store.load_string base "<r><a/></r>" in
        let sc = Store.scratch base in
        let x = Store.make_element sc (qn "x") in
        let y = Store.make_element sc (qn "y") in
        let a = List.hd (Store.children sc (List.hd (Store.children sc doc))) in
        check (Alcotest.list Alcotest.int) "sorted" [ doc; a; x; y ]
          (Store.sort_doc_order sc [ y; a; x; doc; a ]);
        check Alcotest.bool "keyed = naive" true
          (Store.compare_order sc a x < 0 && Store.compare_order_naive sc a x < 0);
        check Alcotest.bool "not inside" false (Store.is_descendant sc ~ancestor:doc x));
    tc "an overlay never mutates its base" `Quick (fun () ->
        let base = Store.create () in
        let doc = Store.load_string base "<r/>" in
        let sc = Store.scratch base in
        let r = List.hd (Store.children sc doc) in
        let e = Store.make_element sc (qn "e") in
        List.iter
          (fun (what, f) ->
            match f () with
            | () -> Alcotest.failf "%s: expected Invalid_argument" what
            | exception Invalid_argument _ -> ())
          [
            ("insert under a base node", fun () ->
                Store.insert sc ~parent:r ~position:Store.Last [ e ]);
            ("wire a base node", fun () -> Store.wire sc ~parent:e [ r ]);
            ("detach", fun () -> Store.detach sc r);
            ("rename", fun () -> Store.rename sc r (qn "s"));
          ];
        check Alcotest.string "base intact" "<r></r>" (Store.serialize base doc));
    tc "wire keeps the duplicate-attribute error and wires nothing" `Quick (fun () ->
        let store = Store.create () in
        let e = Store.make_element store (qn "e") in
        let a1 = Store.make_attribute store (qn "x") "1" in
        let a2 = Store.make_attribute store (qn "x") "2" in
        let t = Store.make_text store "t" in
        (match Store.wire store ~parent:e [ a1; t; a2 ] with
        | () -> Alcotest.fail "expected Update_error"
        | exception Store.Update_error _ -> ());
        check Alcotest.int "nothing wired" 0 (Store.child_count store e);
        Store.wire store ~parent:e [ a1; t ];
        check Alcotest.string "wired" {|<e x="1">t</e>|} (Store.serialize store e);
        no_errors store);
  ]

(* The store's serializer walks the tree through the same markup
   primitives as the event writer, so a loaded stream serializes to
   exactly the writer's text — in a plain store and in a scratch
   overlay alike. *)
let serialize_tests =
  [
    qtest ~count:300 "serialize (load_events evs) = Xml_writer.to_string evs"
      Test_xml.gen_tree (fun t ->
        let evs = Test_xml.merge_texts (List.rev (Test_xml.emit_tree [] t)) in
        let expected = Xqb_xml.Xml_writer.to_string evs in
        let base = Store.create () in
        let in_base = Store.serialize base (Store.load_events base evs) in
        let sc = Store.scratch base in
        let in_overlay = Store.serialize sc (Store.load_events sc evs) in
        if in_base = expected && in_overlay = expected then true
        else
          QCheck2.Test.fail_reportf "writer: %S@.store: %S@.overlay: %S" expected in_base
            in_overlay);
    tc "a lone attribute serializes as name=\"value\"" `Quick (fun () ->
        let store = Store.create () in
        let a = Store.make_attribute store (qn "p:k") "a\"<\r\n" in
        check Alcotest.string "attribute" {|p:k="a&quot;&lt;&#13;&#10;"|}
          (Store.serialize store a);
        let buf = Buffer.create 16 in
        Buffer.add_string buf "OK ";
        Store.add_xml store buf a;
        check Alcotest.string "appended" {|OK p:k="a&quot;&lt;&#13;&#10;"|}
          (Buffer.contents buf));
  ]

let suite =
  [
    ("store:vec", vec_tests);
    ("store:basic", store_basic);
    ("store:mutation", store_mutation);
    ("store:copy", store_copy);
    ("store:transaction", store_txn);
    ("store:scratch", store_scratch);
    ("store:random", random_mutations);
    ("store:serialize", serialize_tests);
  ]
