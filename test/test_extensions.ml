(* Language extensions beyond the minimal paper core: typeswitch,
   treat as, the transactional [snap atomic] (§5's failure-control
   sketch), and the extra builtins. *)

open Helpers

let typeswitch_tests =
  [
    expect "typeswitch picks the first matching case"
      {|typeswitch (<a/>)
        case element(b) return 'b'
        case element(a) return 'a'
        default return 'other'|}
      "a";
    expect "typeswitch case binds its variable"
      {|typeswitch ((1, 2, 3))
        case $n as xs:integer+ return sum($n)
        default return -1|}
      "6";
    expect "typeswitch default binds its variable"
      {|typeswitch ('s')
        case xs:integer return 0
        default $d return concat($d, '!')|}
      "s!";
    expect "typeswitch on empty"
      {|typeswitch (())
        case empty-sequence() return 'empty'
        default return 'nonempty'|}
      "empty";
    expect "typeswitch evaluates scrutinee once"
      {|declare variable $x := <x/>;
        (typeswitch ((snap insert {<a/>} into {$x}, $x/a))
         case element(a)+ return 'inserted'
         default return 'missing',
         count($x/a))|}
      "inserted 1";
    expect_error "typeswitch needs a case"
      "typeswitch (1) default return 2" compile_error;
  ]

let treat_tests =
  [
    expect "treat as passes matching values" "(1, 2) treat as xs:integer+" "1 2";
    expect_error "treat as fails on mismatch" "('a') treat as xs:integer"
      (dynamic_error "XPDY0050");
    expect "treat as element" "(<a/> treat as element(a))/name(.)" "a";
    expect "cast as T? accepts the question mark" "'3' cast as xs:integer? + 1" "4";
  ]

(* Each case runs on the tree interpreter and on the plan executor,
   whose Snap operator shares the interpreter's snap implementation. *)
let engines =
  [
    ("", fun eng src -> Core.Engine.run eng src);
    ( " (plan path)",
      fun eng src -> (Xqb_algebra.Runner.run eng src).Xqb_algebra.Runner.value );
  ]

let snap_atomic_tests =
  List.concat_map
    (fun (suffix, run) ->
      let serialize eng src = Core.Engine.serialize eng (run eng src) in
      [
        tc ("snap atomic applies like ordered on success" ^ suffix) `Quick
          (fun () ->
            check Alcotest.string "result" "<x><a></a><b></b></x>"
              (serialize (Core.Engine.create ())
                 {|let $x := <x/>
                   return (snap atomic { insert {<a/>} into {$x}, insert {<b/>} into {$x} }, $x)|}));
        tc ("snap atomic rolls back applied inner snaps on failure" ^ suffix)
          `Quick (fun () ->
            let eng = Core.Engine.create () in
            (match
               run eng
                 {|declare variable $x := <x><keep/></x>;
                   snap atomic {
                     snap delete { $x/keep },
                     error('E', 'abort')
                   }|}
             with
            | _ -> Alcotest.fail "expected error"
            | exception Xqb_xdm.Errors.Dynamic_error ("E", _) -> ());
            check Alcotest.string "keep survives" "1"
              (serialize eng "count($x/keep)"));
        tc ("snap atomic commits on success" ^ suffix) `Quick (fun () ->
            let eng = Core.Engine.create () in
            ignore
              (run eng
                 {|declare variable $x := <x><keep/></x>;
                   snap atomic { snap delete { $x/keep } }|});
            check Alcotest.string "keep gone" "0" (serialize eng "count($x/keep)"));
        tc ("failed conflict snap inside atomic rolls back cleanly" ^ suffix)
          `Quick (fun () ->
            let eng = Core.Engine.create () in
            (match
               run eng
                 {|declare variable $x := <x/>;
                   snap atomic {
                     snap { insert {<applied/>} into {$x} },
                     snap conflict { insert {<a/>} into {$x}, insert {<b/>} into {$x} }
                   }|}
             with
            | _ -> Alcotest.fail "expected conflict"
            | exception Core.Conflict.Conflict_error _ -> ());
            check Alcotest.string "all rolled back" "0" (serialize eng "count($x/*)");
            check (Alcotest.list Alcotest.string) "invariants" []
              (Xqb_store.Store.validate (Core.Engine.store eng)));
      ])
    engines

let builtin_tests =
  [
    expect "fn:compare" "(compare('a','b'), compare('b','a'), compare('a','a'))"
      "-1 1 0";
    expect "fn:compare with empty" "count(compare((), 'a'))" "0";
    expect "string-to-codepoints" "string-to-codepoints('AB')" "65 66";
    expect "codepoints-to-string" "codepoints-to-string((72, 105))" "Hi";
    expect "codepoints round-trip"
      "codepoints-to-string(string-to-codepoints('caf\xc3\xa9'))" "caf\xc3\xa9";
    expect "round-half-to-even"
      "(round-half-to-even(0.5), round-half-to-even(1.5), round-half-to-even(2.5), round-half-to-even(-0.5))"
      "0 2 2 0";
    expect "doc-available" ~pre:(fun eng ->
        ignore (Core.Engine.load_document eng ~uri:"known" "<a/>"))
      "(doc-available('known'), doc-available('unknown'))" "true false";
    expect "fn:id" ~pre:(fun eng ->
        let d =
          Core.Engine.load_document eng ~uri:"d"
            "<r><e id=\"x\"/><e id=\"y\"><f id=\"z\"/></e></r>"
        in
        Core.Engine.bind_node eng "d" d)
      "(count(id('x', $d)), count(id(('x', 'z'), $d)), count(id('nope', $d)))"
      "1 2 0";
  ]

let suite =
  [
    ("ext:typeswitch", typeswitch_tests);
    ("ext:treat", treat_tests);
    ("ext:snap-atomic", snap_atomic_tests);
    ("ext:builtins", builtin_tests);
  ]
