(* S5: static analyses — scoping, free variables, and the §5
   pure/updating/effecting classification with its call-graph
   fixpoint ("a function that calls an updating function is updating
   as well"). *)

open Helpers
module C = Core.Core_ast
module N = Core.Normalize
module Static = Core.Static

let normalize_prog src =
  N.normalize_prog ~is_builtin:Core.Functions.is_builtin
    (Xqb_syntax.Parser.parse_prog src)

let body src = Option.get (normalize_prog src).N.body

let scoping =
  [
    expect_error "unbound variable" "$nope" compile_error;
    expect_error "for variable does not leak" "(for $x in (1) return $x, $x)"
      compile_error;
    expect_error "let body scope only" "(let $x := 1 return 2, $x)" compile_error;
    expect_error "posvar scope" "(for $x at $i in (1) return $i, $i)" compile_error;
    expect_error "quantifier scope" "(some $q in (1) satisfies $q, $q)" compile_error;
    expect_error "function params are local"
      "declare function f($p) { $p }; $p" compile_error;
    expect_error "later global not visible earlier"
      "declare variable $a := $b; declare variable $b := 1; $a" compile_error;
    expect "earlier global visible later"
      "declare variable $a := 1; declare variable $b := $a + 1; $b" "2";
    expect "order-by keys are in scope"
      "for $x in (2,1) order by $x return $x" "1 2";
  ]

let free_vars_tests =
  let fv src = Static.SSet.elements (Static.free_vars (body src)) in
  [
    tc "simple var" `Quick (fun () ->
        check (Alcotest.list Alcotest.string) "fv" [ "x" ] (fv "declare variable $x := 1; $x"));
    tc "bound for-var excluded" `Quick (fun () ->
        check (Alcotest.list Alcotest.string) "fv" [ "s" ]
          (fv "declare variable $s := 1; for $x in $s return $x"));
    tc "inner flwor over outer var" `Quick (fun () ->
        check (Alcotest.list Alcotest.string) "fv" [ "a"; "b" ]
          (fv
             "declare variable $a := 1; declare variable $b := 1; for $p in $a return (for $t in $b return ($p, $t))"));
    tc "shadowing" `Quick (fun () ->
        check (Alcotest.list Alcotest.string) "fv" [ "x" ]
          (fv "declare variable $x := 1; ($x, for $x in (1) return $x)"));
  ]

let purity_lookup_pure _ _ = Static.Pure

let purity =
  let p src = Static.purity_with purity_lookup_pure (body src) in
  [
    tc "pure expressions" `Quick (fun () ->
        check Alcotest.string "arith" "pure" (Static.purity_to_string (p "1 + 2"));
        check Alcotest.string "flwor" "pure"
          (Static.purity_to_string (p "for $x in (1,2) return $x * 2"));
        check Alcotest.string "ctor" "pure"
          (Static.purity_to_string (p "<a>{1}</a>")));
    tc "updating expressions" `Quick (fun () ->
        check Alcotest.string "insert" "updating"
          (Static.purity_to_string
             (p "declare variable $x := 1; insert {<a/>} into {$x}"));
        check Alcotest.string "delete in flwor" "updating"
          (Static.purity_to_string
             (p "declare variable $x := 1; for $i in (1) return delete {$x}"));
        check Alcotest.string "rename" "updating"
          (Static.purity_to_string
             (p "declare variable $x := 1; rename {$x} to {'y'}"));
        check Alcotest.string "replace" "updating"
          (Static.purity_to_string
             (p "declare variable $x := 1; replace {$x} with {1}")));
    tc "effecting expressions" `Quick (fun () ->
        check Alcotest.string "snap" "effecting"
          (Static.purity_to_string
             (p "declare variable $x := 1; snap { insert {<a/>} into {$x} }"));
        check Alcotest.string "snap in branch" "effecting"
          (Static.purity_to_string
             (p "declare variable $x := 1; if (1) then snap { delete {$x} } else ()")));
    tc "copy alone is pure" `Quick (fun () ->
        check Alcotest.string "copy" "pure"
          (Static.purity_to_string (p "declare variable $x := 1; copy {$x}")));
  ]

let fixpoint =
  [
    tc "function classification fixpoint" `Quick (fun () ->
        let prog =
          normalize_prog
            {|declare variable $x := <x/>;
              declare function pure_fn($a) { $a + 1 };
              declare function upd_fn() { insert {<a/>} into {$x} };
              declare function calls_upd() { upd_fn() };
              declare function calls_calls() { calls_upd() };
              declare function eff_fn() { snap { upd_fn() } };
              declare function calls_eff() { eff_fn() };
              declare function rec_pure($n) { if ($n = 0) then 0 else rec_pure($n - 1) };
              1|}
        in
        let classes = Static.classify_functions prog.N.functions in
        let find name =
          let _, _, p =
            List.find (fun (f, _, _) -> Xqb_xml.Qname.to_string f = name) classes
          in
          Static.purity_to_string p
        in
        check Alcotest.string "pure_fn" "pure" (find "pure_fn");
        check Alcotest.string "upd_fn" "updating" (find "upd_fn");
        check Alcotest.string "calls_upd" "updating" (find "calls_upd");
        check Alcotest.string "calls_calls" "updating" (find "calls_calls");
        check Alcotest.string "eff_fn" "effecting" (find "eff_fn");
        check Alcotest.string "calls_eff" "effecting" (find "calls_eff");
        check Alcotest.string "rec_pure" "pure" (find "rec_pure"));
    tc "purity_in_prog sees function classes" `Quick (fun () ->
        let prog =
          normalize_prog
            {|declare variable $x := <x/>;
              declare function upd() { insert {<a/>} into {$x} };
              upd()|}
        in
        check Alcotest.string "body" "updating"
          (Static.purity_to_string
             (Static.purity_in_prog prog (Option.get prog.N.body))));
    tc "mutually recursive updating pair" `Quick (fun () ->
        let prog =
          normalize_prog
            {|declare variable $x := <x/>;
              declare function f($n) { if ($n = 0) then delete {$x} else g($n - 1) };
              declare function g($n) { f($n) };
              1|}
        in
        let classes = Static.classify_functions prog.N.functions in
        check Alcotest.bool "both updating" true
          (List.for_all (fun (_, _, p) -> p = Static.Updating) classes));
  ]

let join_meet =
  [
    tc "purity join" `Quick (fun () ->
        check Alcotest.bool "pure+updating" true
          (Static.join Static.Pure Static.Updating = Static.Updating);
        check Alcotest.bool "updating+effecting" true
          (Static.join Static.Updating Static.Effecting = Static.Effecting);
        check Alcotest.bool "pure+pure" true
          (Static.join Static.Pure Static.Pure = Static.Pure));
  ]

(* -- qcheck: Pure programs never touch the store ---------------------

   The property behind the service layer's fork route
   (docs/SERVICE.md): if the §5 analysis classifies a program's body
   as Pure, evaluating it leaves every pre-existing document
   bit-identical and the store invariants intact. (A Pure program may
   still *allocate* fresh nodes — constructors are pure — so the
   check compares the serialized documents, not store size; the
   footprint records allocation as a write to the fresh-node region,
   which keeps such programs off the fork route.)
   Reuses the fuzz generator, whose samples mix reads and updates, so
   a good fraction exercise the Pure branch. *)

let pure_leaves_store_intact =
  let snapshot eng =
    String.concat "|"
      (List.map
         (fun v -> Core.Engine.serialize eng (Core.Engine.run eng v))
         [ "$d0"; "$d1"; "$d2" ])
  in
  qtest ~count:300 "Pure-classified programs leave documents bit-identical"
    Test_fuzz.seeds (fun seed ->
      let src = Test_fuzz.gen_program seed in
      let eng = Core.Engine.create ~seed:1234 () in
      List.iteri
        (fun i xml ->
          let d =
            Core.Engine.load_document eng ~uri:(Printf.sprintf "d%d" i) xml
          in
          Core.Engine.bind_node eng (Printf.sprintf "d%d" i) d)
        Test_fuzz.docs;
      match Core.Engine.compile eng src with
      | exception _ -> true  (* ill-typed sample: nothing to check *)
      | c ->
        if Core.Engine.body_purity c <> Static.Pure then true
        else begin
          let before = snapshot eng in
          (* a Pure program may still fail dynamically; the store must
             be untouched either way *)
          (try ignore (Core.Engine.run_compiled eng c) with _ -> ());
          let after = snapshot eng in
          let health = Xqb_store.Store.validate (Core.Engine.store eng) in
          if before = after && health = [] then true
          else
            QCheck2.Test.fail_reportf
              "Pure program mutated the store:@.%s@.before %s@.after  %s@.%s"
              src before after (String.concat "; " health)
        end)

let suite =
  [
    ("static:scoping", scoping);
    ("static:free-vars", free_vars_tests);
    ("static:purity", purity);
    ("static:fixpoint", fixpoint);
    ("static:join", join_meet);
    ("static:pure-no-writes", [ pure_leaves_store_intact ]);
  ]
