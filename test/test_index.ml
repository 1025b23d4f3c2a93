(* The element-name index and the descendant-step rewrites that feed
   it: correctness vs the naive axis walk, invalidation on mutation,
   and the positional-predicate guard. *)

open Helpers
module Store = Xqb_store.Store
module Axes = Xqb_store.Axes
module R = Core.Rewrite

let naive_descendants store root q =
  List.filter
    (fun n ->
      Store.kind store n = Store.Element
      && match Store.name store n with Some nm -> Xqb_xml.Qname.equal nm q | None -> false)
    (Axes.descendants store root)

let store_tests =
  [
    tc "index agrees with the naive walk" `Quick (fun () ->
        let store = Store.create () in
        let doc =
          Store.load_string store
            "<r><a/><b><a/><c><a/><b/></c></b><a><a/></a></r>"
        in
        List.iter
          (fun name ->
            let q = qn name in
            check (Alcotest.list Alcotest.int) name
              (naive_descendants store doc q)
              (Store.descendants_by_name store doc q))
          [ "a"; "b"; "c"; "zzz" ]);
    tc "index invalidates on mutation" `Quick (fun () ->
        let store = Store.create () in
        let doc = Store.load_string store "<r><a/></r>" in
        check Alcotest.int "one a" 1
          (List.length (Store.descendants_by_name store doc (qn "a")));
        let r = List.hd (Store.children store doc) in
        Store.insert store ~parent:r ~position:Store.Last
          [ Store.make_element store (qn "a") ];
        check Alcotest.int "two a after insert" 2
          (List.length (Store.descendants_by_name store doc (qn "a")));
        Store.detach store (List.hd (Store.children store r));
        check Alcotest.int "one a after detach" 1
          (List.length (Store.descendants_by_name store doc (qn "a"))));
    tc "rename invalidates" `Quick (fun () ->
        let store = Store.create () in
        let doc = Store.load_string store "<r><a/></r>" in
        ignore (Store.descendants_by_name store doc (qn "a"));
        let a = List.hd (Store.children store (List.hd (Store.children store doc))) in
        Store.rename store a (qn "z");
        check Alcotest.int "a gone" 0
          (List.length (Store.descendants_by_name store doc (qn "a")));
        check Alcotest.int "z there" 1
          (List.length (Store.descendants_by_name store doc (qn "z"))));
    tc "attached context nodes bypass the cache" `Quick (fun () ->
        let store = Store.create () in
        let doc = Store.load_string store "<r><s><a/></s><a/></r>" in
        let r = List.hd (Store.children store doc) in
        let s = List.hd (Store.children store r) in
        check Alcotest.int "subtree only" 1
          (List.length (Store.descendants_by_name store s (qn "a")));
        check Alcotest.int "whole doc" 2
          (List.length (Store.descendants_by_name store doc (qn "a"))));
    tc "disabling the index gives identical results" `Quick (fun () ->
        let q = "string-join(for $n in $d//a return name($n/..), ',')" in
        let run indexing =
          let eng = Core.Engine.create () in
          Store.set_indexing (Core.Engine.store eng) indexing;
          let d =
            Core.Engine.load_document eng ~uri:"d"
              "<r><a/><b><a/></b><c><a/></c></r>"
          in
          Core.Engine.bind_node eng "d" d;
          Core.Engine.serialize eng (Core.Engine.run eng q)
        in
        check Alcotest.string "same" (run false) (run true));
  ]

let normalize_body src =
  let prog =
    Core.Normalize.normalize_prog ~is_builtin:Core.Functions.is_builtin
      (Xqb_syntax.Parser.parse_prog src)
  in
  (prog, Option.get prog.Core.Normalize.body)

let simplify src =
  let prog, body = normalize_body src in
  let purity e = Core.Static.purity_in_prog prog e in
  R.simplify ~purity body

let fired rule stats = List.mem_assoc rule stats

let rewrite_tests =
  [
    tc "plain //name rewrites to descendant" `Quick (fun () ->
        let _, s = simplify "declare variable $x := 1; $x//a" in
        check Alcotest.bool "fired" true (fired "descendant-step" s));
    tc "//T[boolean predicate] rewrites" `Quick (fun () ->
        let _, s = simplify "declare variable $x := 1; $x//a[@k = 'v']" in
        check Alcotest.bool "fired" true (fired "descendant-step-pred" s));
    tc "numeric predicate blocks the rewrite" `Quick (fun () ->
        let _, s = simplify "declare variable $x := 1; $x//a[1]" in
        check Alcotest.bool "not fired" false (fired "descendant-step-pred" s));
    tc "position() blocks the rewrite" `Quick (fun () ->
        let _, s = simplify "declare variable $x := 1; $x//a[position() = last()]" in
        check Alcotest.bool "not fired" false (fired "descendant-step-pred" s));
    tc "user function in predicate blocks the rewrite" `Quick (fun () ->
        let _, s =
          simplify
            "declare variable $x := 1; declare function f() { 1 }; $x//a[f()]"
        in
        check Alcotest.bool "not fired" false (fired "descendant-step-pred" s));
    (* positional semantics preserved where the guard blocks *)
    expect "//a[1] selects per parent"
      "let $x := <r><p><a i='1'/><a i='2'/></p><p><a i='3'/></p></r> return string-join($x//a[1]/@i, ',')"
      "1,3";
    expect "//a[boolean] equals the flattened form"
      "let $x := <r><a k='v'/><b><a/></b><c><a k='v'/></c></r> return count($x//a[@k = 'v'])"
      "2";
  ]

let suite = [ ("index:store", store_tests); ("index:rewrites", rewrite_tests) ]

(* -- attribute-value key index ------------------------------------- *)

let key_simplify = simplify

let key_tests =
  [
    tc "//e[@a = pure-string] rewrites to a key step" `Quick (fun () ->
        let _, s = key_simplify "declare variable $x := 1; $x//person[@id = 'p7']" in
        check Alcotest.bool "fired" true (fired "key-step" s));
    tc "key on either side of =" `Quick (fun () ->
        let _, s = key_simplify "declare variable $x := 1; $x//person['p7' = @id]" in
        check Alcotest.bool "fired" true (fired "key-step" s));
    tc "variable keys are allowed (pure, focus-free)" `Quick (fun () ->
        let _, s =
          key_simplify
            "declare variable $x := 1; declare variable $u := 'p7'; $x//person[@id = $u]"
        in
        check Alcotest.bool "fired" true (fired "key-step" s));
    tc "updating keys are blocked" `Quick (fun () ->
        let _, s =
          key_simplify
            "declare variable $x := <x/>; $x//person[@id = (insert {<l/>} into {$x}, 'p')]"
        in
        check Alcotest.bool "not fired" false (fired "key-step" s));
    tc "focus-dependent keys are blocked" `Quick (fun () ->
        let _, s = key_simplify "declare variable $x := 1; $x//person[@id = string(.)]" in
        check Alcotest.bool "not fired" false (fired "key-step" s));
    expect "key lookup result matches scan"
      ~pre:(fun eng ->
        let d =
          Core.Engine.load_document eng ~uri:"d"
            "<r><p id='a'/><q><p id='b'/><p id='a'/></q><p/></r>"
        in
        Core.Engine.bind_node eng "d" d)
      "(count($d//p[@id = 'a']), count($d//p[@id = 'zzz']), count($d//p[@id = ('a','b')]))"
      "2 0 3";
    expect "non-string keys fall back to general comparison"
      ~pre:(fun eng ->
        let d =
          Core.Engine.load_document eng ~uri:"d"
            "<r><p n='07'/><p n='7'/><p n='8'/></r>"
        in
        Core.Engine.bind_node eng "d" d)
      (* numeric 7 compares numerically with untyped: both 07 and 7 match *)
      "count($d//p[@n = 7])"
      "2";
    expect "string keys compare stringly (index path)"
      ~pre:(fun eng ->
        let d =
          Core.Engine.load_document eng ~uri:"d"
            "<r><p n='07'/><p n='7'/></r>"
        in
        Core.Engine.bind_node eng "d" d)
      "count($d//p[@n = '7'])"
      "1";
    expect "rhs not evaluated when no candidates exist"
      "let $x := <r/> return (count($x//nothing[@k = error('E','boom')]), 'survived')"
      "0 survived";
    tc "store-level key lookup and invalidation" `Quick (fun () ->
        let store = Store.create () in
        let doc = Store.load_string store "<r><p id='a'/><p id='b'/></r>" in
        check Alcotest.int "a" 1
          (List.length (Store.lookup_by_key store doc ~elem:(qn "p") ~attr:(qn "id") "a"));
        let r = List.hd (Store.children store doc) in
        let p = Store.make_element store (qn "p") in
        Store.insert store ~parent:p ~position:Store.Last
          [ Store.make_attribute store (qn "id") "a" ];
        Store.insert store ~parent:r ~position:Store.Last [ p ];
        check Alcotest.int "a after insert" 2
          (List.length (Store.lookup_by_key store doc ~elem:(qn "p") ~attr:(qn "id") "a")));
  ]

let suite = suite @ [ ("index:key", key_tests) ]

(* -- invalidation per index kind ----------------------------------- *)

(* The indexes are dropped only by edits to what they read (element
   and attribute names, attribute values). The oracle for everything
   below is the same store with indexing off, which walks the tree on
   every call. *)

module OK = Test_order_keys

let without_index store f =
  Store.set_indexing store false;
  Fun.protect ~finally:(fun () -> Store.set_indexing store true) f

(* Every element name and every (elem, attr, value) in the store,
   asked of every parentless root: the indexed answers equal the
   direct walk's. *)
let index_agrees store =
  let ids = OK.all_ids store in
  let name x = Option.map Xqb_xml.Qname.to_string (Store.name store x) in
  let elems = List.filter (fun x -> Store.kind store x = Store.Element) ids in
  let names = List.sort_uniq compare ("absent" :: List.filter_map name elems) in
  let keys =
    List.concat_map
      (fun e ->
        List.concat_map
          (fun a ->
            match name e, name a with
            | Some en, Some an ->
              [ (en, an, Store.content store a); (en, an, "absent") ]
            | _ -> [])
          (Store.attributes store e))
      elems
    |> List.sort_uniq compare
  in
  let roots = List.filter (fun x -> Store.parent store x = None) ids in
  let answers () =
    List.concat_map
      (fun r ->
        List.map (fun q -> Store.descendants_by_name store r (qn q)) names
        @ List.map
            (fun (e, a, v) -> Store.lookup_by_key store r ~elem:(qn e) ~attr:(qn a) v)
            keys)
      roots
  in
  let indexed = answers () in
  indexed = without_index store answers

(* After each generated edit the first check is served by whatever
   records survived it; the second by records the first rebuilt. *)
let prop_index_eq_walk (script, muts) =
  let store, _doc = OK.build script in
  index_agrees store
  && List.for_all
       (fun n ->
         OK.mutate store [ n ];
         index_agrees store && index_agrees store)
       muts

(* A loaded document bound to $d, its index warmed by [warm]. *)
let engine_with xml warm =
  let eng = Core.Engine.create () in
  let d = Core.Engine.load_document eng ~uri:"d" xml in
  Core.Engine.bind_node eng "d" d;
  ignore (Core.Engine.run eng warm);
  eng

let answer eng q = Core.Engine.serialize eng (Core.Engine.run eng q)

let kind_tests =
  [
    tc "attribute value edit changes the next key lookup" `Quick (fun () ->
        let eng =
          engine_with {|<r><a k="v"/><a k="v"/></r>|} {|count($d//a[@k = "v"])|}
        in
        ignore (Core.Engine.run eng {|snap { replace value of node ($d//a)[1]/@k with "w" }|});
        check Alcotest.string "v" "1" (answer eng {|count($d//a[@k = "v"])|});
        check Alcotest.string "w" "1" (answer eng {|count($d//a[@k = "w"])|}));
    tc "element value edit drops its element children from //child" `Quick
      (fun () ->
        let eng = engine_with "<r><p><c/><c/></p><c/></r>" "count($d//c)" in
        ignore (Core.Engine.run eng {|snap { replace value of node $d/r/p with "x" }|});
        check Alcotest.string "one c left" "1" (answer eng "count($d//c)");
        check Alcotest.bool "oracle" true (index_agrees (Core.Engine.store eng)));
    tc "text edits keep the index; snap atomic rollback leaves it exact" `Quick
      (fun () ->
        let eng =
          engine_with {|<r><a k="v">t</a><a k="w">u</a></r>|}
            {|count($d//a[@k = "v"])|}
        in
        let store = Core.Engine.store eng in
        let builds = Store.index_builds store in
        ignore (Core.Engine.run eng {|snap { replace value of node $d/r/a[2]/text() with "x" }|});
        (match
           Core.Engine.run eng
             {|snap atomic {
                 snap { replace value of node $d/r/a[1]/text() with "y" },
                 error('E', 'abort')
               }|}
         with
        | _ -> Alcotest.fail "expected error"
        | exception Xqb_xdm.Errors.Dynamic_error ("E", _) -> ());
        check Alcotest.string "rolled back" "tx" (answer eng "string($d/r)");
        check Alcotest.string "key lookup" "t" (answer eng {|string($d//a[@k = "v"])|});
        check Alcotest.int "no rebuild" builds (Store.index_builds store);
        check Alcotest.bool "oracle" true (index_agrees store));
    qtest ~count:80 "indexed answers = direct walk (random trees + snaps)"
      OK.gen_scripts prop_index_eq_walk;
  ]
  (* An edit applied by an inner snap, the index read (and rebuilt)
     before the atomic snap fails: the undo must drop that record. *)
  @ List.map
      (fun (what, edit) ->
        tc ("rollback after a mid-snap read: " ^ what) `Quick (fun () ->
            let eng = engine_with {|<r><a k="v"/><a k="v"/></r>|} "count($d//a)" in
            (match
               Core.Engine.run eng
                 (Printf.sprintf
                    {|snap atomic {
                        snap { %s },
                        if (count($d//a[@k = "v"]) != 2) then error('E', 'abort') else ()
                      }|}
                    edit)
             with
            | _ -> Alcotest.fail "expected error"
            | exception Xqb_xdm.Errors.Dynamic_error ("E", _) -> ());
            check Alcotest.string "both back" "2" (answer eng {|count($d//a[@k = "v"])|});
            check Alcotest.bool "oracle" true (index_agrees (Core.Engine.store eng))))
      [
        ("element insert", {|insert {<a k="v"/>} into {$d/r}|});
        ("element delete", "delete { ($d//a)[1] }");
        ("attribute value", {|replace value of node ($d//a)[1]/@k with "w"|});
        ("element rename", "rename node ($d//a)[1] as 'b'");
      ]

let suite = suite @ [ ("index:kinds", kind_tests) ]
