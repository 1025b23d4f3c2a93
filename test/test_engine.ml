(* S5/S8: the engine API end-to-end — documents, globals, modules
   compiled incrementally, serialization, error surfaces, and the
   engine-level snap-mode switch. *)

open Helpers

let engine_api =
  [
    tc "load_document + fn:doc + variable binding" `Quick (fun () ->
        let eng = Core.Engine.create () in
        let d = Core.Engine.load_document eng ~uri:"inv" "<inv><i/><i/></inv>" in
        Core.Engine.bind_node eng "inv" d;
        check Alcotest.string "via var" "2"
          (Core.Engine.serialize eng (Core.Engine.run eng "count($inv//i)"));
        check Alcotest.string "via doc()" "2"
          (Core.Engine.serialize eng (Core.Engine.run eng "count(doc('inv')//i)")));
    tc "doc resolver callback" `Quick (fun () ->
        let eng = Core.Engine.create () in
        Core.Engine.set_doc_resolver eng (fun uri ->
            Printf.sprintf "<from uri=\"%s\"/>" uri);
        check Alcotest.string "resolved" "dyn"
          (Core.Engine.serialize eng
             (Core.Engine.run eng "string(doc('dyn')/from/@uri)")));
    tc "bind values" `Quick (fun () ->
        let eng = Core.Engine.create () in
        Core.Engine.bind eng "n" (Xqb_xdm.Value.of_int 20);
        check Alcotest.string "read" "21"
          (Core.Engine.serialize eng (Core.Engine.run eng "$n + 1")));
    tc "state persists across runs" `Quick (fun () ->
        let eng = Core.Engine.create () in
        let d = Core.Engine.load_document eng ~uri:"d" "<d/>" in
        Core.Engine.bind_node eng "d" d;
        ignore (Core.Engine.run eng "snap insert {<a/>} into {$d/d}");
        check Alcotest.string "second run sees it" "1"
          (Core.Engine.serialize eng (Core.Engine.run eng "count($d/d/a)")));
    tc "functions persist across compiles" `Quick (fun () ->
        let eng = Core.Engine.create () in
        let m = Core.Engine.compile eng "declare function inc($x) { $x + 1 }; ()" in
        ignore (Core.Engine.run_compiled eng m);
        check Alcotest.string "callable later" "8"
          (Core.Engine.serialize eng (Core.Engine.run eng "inc(7)")));
    tc "serialize mixes nodes and atomics" `Quick (fun () ->
        let eng = Core.Engine.create () in
        check Alcotest.string "mixed" "1 2<a></a>3"
          (Core.Engine.serialize eng (Core.Engine.run eng "(1, 2, <a/>, 3)")));
    tc "compile errors carry positions" `Quick (fun () ->
        let eng = Core.Engine.create () in
        match Core.Engine.run eng "1 +" with
        | _ -> Alcotest.fail "expected compile error"
        | exception Core.Engine.Compile_error msg ->
          check Alcotest.bool "mentions parse" true
            (Re.execp (Re.compile (Re.str "parse error")) msg));
    tc "store is intact after a failed query" `Quick (fun () ->
        let eng = Core.Engine.create () in
        let d = Core.Engine.load_document eng ~uri:"d" "<d><k/></d>" in
        Core.Engine.bind_node eng "d" d;
        (match
           Core.Engine.run eng "(snap delete {$d/d/k}, error('E1','late failure'))"
         with
        | _ -> Alcotest.fail "expected error"
        | exception Xqb_xdm.Errors.Dynamic_error _ -> ());
        (* The inner snap applied before the failure: k is gone, and
           the store is still structurally valid. *)
        check Alcotest.string "k deleted" "0"
          (Core.Engine.serialize eng (Core.Engine.run eng "count($d/d/k)"));
        check
          (Alcotest.list Alcotest.string)
          "invariants" []
          (Xqb_store.Store.validate (Core.Engine.store eng)));
    tc "top-level failure keeps pending updates unapplied" `Quick (fun () ->
        let eng = Core.Engine.create () in
        let d = Core.Engine.load_document eng ~uri:"d" "<d><k/></d>" in
        Core.Engine.bind_node eng "d" d;
        (match Core.Engine.run eng "(delete {$d/d/k}, error('E2','fail'))" with
        | _ -> Alcotest.fail "expected error"
        | exception Xqb_xdm.Errors.Dynamic_error _ -> ());
        check Alcotest.string "k survives" "1"
          (Core.Engine.serialize eng (Core.Engine.run eng "count($d/d/k)")));
  ]

let engine_modes =
  [
    tc "default mode is ordered" `Quick (fun () ->
        let eng = Core.Engine.create () in
        let v =
          Core.Engine.run eng
            "let $x := <x/> return (insert {<a/>} into {$x}, insert {<b/>} into {$x}, $x)"
        in
        check Alcotest.string "ab" "<x><a></a><b></b></x>"
          (Core.Engine.serialize eng v));
    tc "nondeterministic mode at top level" `Quick (fun () ->
        (* independent renames: same result under any seed *)
        let run seed =
          let eng = Core.Engine.create ~seed () in
          let v =
            Core.Engine.run ~mode:Core.Core_ast.Snap_nondeterministic eng
              "let $x := <x><a/><b/></x> return (delete {$x/a}, rename {$x/b} to {'c'}, $x)"
          in
          Core.Engine.serialize eng v
        in
        check Alcotest.string "agree" (run 1) (run 2));
    tc "conflict mode rejects at top level" `Quick (fun () ->
        let eng = Core.Engine.create () in
        match
          Core.Engine.run ~mode:Core.Core_ast.Snap_conflict eng
            "let $x := <x/> return (insert {<a/>} into {$x}, insert {<b/>} into {$x})"
        with
        | _ -> Alcotest.fail "expected conflict"
        | exception Core.Conflict.Conflict_error _ -> ());
  ]

let serializer_output =
  [
    tc "store serializer escapes" `Quick (fun () ->
        let eng = Core.Engine.create () in
        check Alcotest.string "escaped" "<a k=\"&quot;v&quot;\">1 &lt; 2</a>"
          (Core.Engine.serialize eng
             (Core.Engine.run eng {|<a k="{'"v"'}">{'1 < 2'}</a>|})));
  ]

let suite =
  [
    ("engine:api", engine_api);
    ("engine:modes", engine_modes);
    ("engine:serialize", serializer_output);
  ]
