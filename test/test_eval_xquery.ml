(* S5: dynamic semantics of the XQuery 1.0 fragment (Fig. 3 and the
   standard rules): sequences, FLWOR, paths, predicates, comparisons,
   arithmetic, constructors, casts. *)

open Helpers

let doc_pre xml var eng =
  let d = Core.Engine.load_document eng ~uri:var xml in
  Core.Engine.bind_node eng var d

let site =
  {|<site>
      <people>
        <person id="p1"><name>Anna</name><age>30</age></person>
        <person id="p2"><name>Bob</name><age>20</age></person>
        <person id="p3"><name>Cleo</name><age>25</age></person>
      </people>
      <items><item n="1"/><item n="2"/><item n="3"/><item n="4"/></items>
    </site>|}

let pre = doc_pre site "s"

let basics =
  [
    expect "integer literal" "42" "42";
    expect "decimal literal" "1.5" "1.5";
    expect "double literal" "2e3" "2000";
    expect "string literal" "'hi'" "hi";
    expect "sequence flattens" "(1, (2, 3), ())" "1 2 3";
    expect "arith precedence" "2 + 3 * 4" "14";
    expect "idiv and mod" "(7 idiv 2, 7 mod 2)" "3 1";
    expect "unary minus" "-(2 + 3)" "-5";
    expect "unary minus on empty" "-()" "";
    expect "arith with empty operand is empty" "1 + ()" "";
    expect "range" "1 to 4" "1 2 3 4";
    expect "empty range" "3 to 1" "";
    expect "nested parens" "((((7))))" "7";
  ]

let comparisons =
  [
    expect "general eq existential" "(1, 2) = (2, 3)" "true";
    expect "general ne existential" "(1, 2) != (1, 2)" "true";
    expect "general empty is false" "() = 1" "false";
    expect "value comparison" "2 lt 3" "true";
    expect "value comparison empty" "() eq 1" "";
    expect "string comparison" "'abc' < 'abd'" "true";
    expect "and or with short circuit" "(false() and error(), true() or error())"
      "false true";
    expect "untyped attr compares numerically with number" ~pre
      "exists($s//person[@id = 'p2'])" "true";
    expect_error "value comparison on sequence" "(1,2) eq 1" any_dynamic_error;
    expect "node identity" ~pre
      "let $p := ($s//person)[1] return ($p is $p, $p is ($s//person)[2])"
      "true false";
    expect "node order comparisons" ~pre
      "(($s//person)[1] << ($s//person)[2], ($s//person)[1] >> ($s//person)[2])"
      "true false";
    expect "is on empty is empty" ~pre "(() is ($s//person)[1])" "";
  ]

let paths =
  [
    expect "child steps" ~pre "count($s/site/people/person)" "3";
    expect "descendant shorthand" ~pre "count($s//person)" "3";
    expect "attribute axis" ~pre "string(($s//person)[2]/@id)" "p2";
    expect "wildcard" ~pre "count($s/site/*)" "2";
    expect "text()" ~pre "($s//name/text())[1]/string(.)" "Anna";
    expect "parent axis" ~pre
      "string(($s//name)[1]/parent::person/@id)" "p1";
    expect "ancestor (person, people, site, document)" ~pre
      "count(($s//name)[1]/ancestor::node())" "4";
    expect "following-sibling" ~pre
      "count(($s//item)[1]/following-sibling::item)" "3";
    expect "preceding-sibling predicate counts from nearest" ~pre
      "string(($s//item)[4]/preceding-sibling::item[1]/@n)" "3";
    expect "parenthesized reverse-axis result is in doc order" ~pre
      "string((($s//item)[4]/preceding-sibling::item)[1]/@n)" "1";
    expect "self axis with test" ~pre "count($s//person/self::person)" "3";
    expect "doc order and dedup across overlapping steps" ~pre
      "count(($s//node(), $s//person)/.)" "22";
    expect "predicates are per-step" ~pre "count($s//person[1])" "1";
    expect "numeric predicate" ~pre "string($s//person[2]/name)" "Bob";
    expect "boolean predicate" ~pre "count($s//person[@id = 'p1'])" "1";
    expect "position()" "(10, 20, 30)[position() ge 2]" "20 30";
    expect "last()" "(10, 20, 30)[last()]" "30";
    expect "predicate position in filter" "('a','b','c')[2]" "b";
    expect "chained predicates" ~pre "count($s//person[age > 21][2])" "1";
    expect "general rhs: string()" ~pre "($s//name/string())[1]" "Anna";
    expect_error "mixed path result" "let $x := <a><b/></a> return $x/(1, b)"
      (dynamic_error "XPTY0018");
    expect "root via fn:root" ~pre "count($s//name/root(.))" "1";
    expect "union dedupes and orders" ~pre
      "count(($s//person | $s//person | $s//name))" "6";
    expect "intersect" ~pre "count(($s//person intersect ($s//person)[2]))" "1";
    expect "except" ~pre "count(($s//person except ($s//person)[2]))" "2";
  ]

let flwor =
  [
    expect "for over sequence" "for $x in (1,2,3) return $x * 2" "2 4 6";
    expect "for flattens" "for $x in (1,2) return ($x, $x)" "1 1 2 2";
    expect "let binds once" "let $x := (1,2) return count($x)" "2";
    expect "where filters" "for $x in 1 to 6 where $x mod 2 = 0 return $x" "2 4 6";
    expect "at position" "for $x at $i in ('a','b') return $i" "1 2";
    expect "nested for" "for $x in (1,2) for $y in (10,20) return $x + $y"
      "11 21 12 22";
    expect "order by ascending" "for $x in (3,1,2) order by $x return $x" "1 2 3";
    expect "order by descending" "for $x in (3,1,2) order by $x descending return $x"
      "3 2 1";
    expect "order by string key" ~pre
      "for $p in $s//person order by string($p/name) descending return string($p/@id)"
      "p3 p2 p1";
    expect "order by two keys"
      "for $x in (2,1) for $y in (1,2) order by $x, $y descending return concat($x,'-',$y)"
      "1-2 1-1 2-2 2-1";
    expect "order by is stable"
      "for $x in ('b1','a1','b2','a2') order by substring($x,1,1) return $x"
      "a1 a2 b1 b2";
    expect "order by with empty key sorts first"
      "for $p in (<a><k>2</k></a>, <a/>, <a><k>1</k></a>) order by $p/k return concat('[', string($p), ']')"
      "[] [1] [2]";
    expect "where before order by" ~pre
      "for $p in $s//person where $p/age > 21 order by string($p/name) return string($p/@id)"
      "p1 p3";
    expect "some satisfies" "some $x in (1,2,3) satisfies $x > 2" "true";
    expect "every satisfies" "every $x in (1,2,3) satisfies $x > 0" "true";
    expect "some over empty is false" "some $x in () satisfies true()" "false";
    expect "every over empty is true" "every $x in () satisfies false()" "true";
    expect "if then else" "if (1 < 2) then 'y' else 'n'" "y";
    expect "if on node sequence ebv" ~pre "if ($s//person) then 'has' else 'none'"
      "has";
    expect "variable shadowing" "let $x := 1 return (for $x in (9) return $x, $x)"
      "9 1";
  ]

let constructors =
  [
    expect "direct element" "<a>hi</a>" "<a>hi</a>";
    expect "nested content with exprs" "<a>{1 + 1}<b/>{'t'}</a>" "<a>2<b></b>t</a>";
    expect "adjacent atomics space-joined" "<a>{1, 2, 3}</a>" "<a>1 2 3</a>";
    expect "attribute avt" "let $v := 7 return <a x=\"v={$v}!\"/>" "<a x=\"v=7!\"></a>";
    expect "computed element dynamic name" "element {concat('a','b')} {1}" "<ab>1</ab>";
    expect "computed attribute" "<e>{attribute who {'me'}}</e>" "<e who=\"me\"></e>";
    expect "text constructor" "<e>{text {'t1'}}</e>" "<e>t1</e>";
    expect "text of empty is empty" "count(text {()})" "0";
    expect "document constructor" "count(document { <a/> }/a)" "1";
    expect "construction copies content" ~pre
      "let $e := <wrap>{($s//person)[1]}</wrap> return (count($s//person), count($e/person))"
      "3 1";
    expect "construction copy is deep" ~pre
      "string(<w>{($s//person)[1]}</w>/person/name)" "Anna";
    expect_error "attribute after content" "<a>{'t', attribute x {1}}</a>"
      (dynamic_error "XQTY0024");
    expect "constructed nodes have doc order"
      "let $e := <a><b/><c/></a> return ($e/b << $e/c)" "true";
    expect "escaped text serializes" "<a>{'x &lt; y &amp; z'}</a>" "<a>x &lt; y &amp; z</a>";
    expect "comment content in constructor" "<a><!--note--></a>" "<a><!--note--></a>";
  ]

let casts =
  [
    expect "instance of" "(1 instance of xs:integer, 'x' instance of xs:integer)"
      "true false";
    expect "occurrence indicators"
      "((1,2) instance of xs:integer+, () instance of xs:integer?, (1,2) instance of xs:integer)"
      "true true false";
    expect "node kind instance" "(<a/> instance of element(), <a/> instance of element(a), <a/> instance of element(b))"
      "true true false";
    expect "cast as" "('3' cast as xs:integer) + 1" "4";
    expect "castable as" "('3' castable as xs:integer, 'x' castable as xs:integer)"
      "true false";
    expect_error "failed cast" "'x' cast as xs:integer" any_dynamic_error;
    expect "untyped content casts" ~pre "(($s//age)[1] cast as xs:integer) + 1" "31";
  ]

let functions_calls =
  [
    expect "user function" "declare function f($x) { $x * 2 }; f(21)" "42";
    expect "recursion"
      "declare function fact($n as xs:integer) as xs:integer { if ($n le 1) then 1 else $n * fact($n - 1) }; fact(6)"
      "720";
    expect "mutual recursion"
      {|declare function is_even($n) { if ($n = 0) then true() else is_odd($n - 1) };
        declare function is_odd($n) { if ($n = 0) then false() else is_even($n - 1) };
        (is_even(10), is_odd(10))|}
      "true false";
    expect "globals visible in functions"
      "declare variable $g := 5; declare function f() { $g + 1 }; f()" "6";
    expect "parameter type check passes"
      "declare function f($x as xs:integer) { $x }; f(3)" "3";
    expect_error "parameter type check fails"
      "declare function f($x as xs:integer) { $x }; f('a')" any_dynamic_error;
    expect_error "return type check fails"
      "declare function f($x) as xs:integer { 'nope' }; f(1)" any_dynamic_error;
    expect "numeric predicate through a function"
      "declare function f() { 1 }; (1,2)[f()]" "1";
  ]

let suite =
  [
    ("eval:basics", basics);
    ("eval:comparisons", comparisons);
    ("eval:paths", paths);
    ("eval:flwor", flwor);
    ("eval:constructors", constructors);
    ("eval:casts", casts);
    ("eval:functions", functions_calls);
  ]

(* -- computed comment / processing-instruction constructors ---------- *)

let comment_pi_ctors =
  [
    expect "computed comment" "<a>{comment {'note'}}</a>" "<a><!--note--></a>";
    expect "computed pi with static target" "<a>{processing-instruction t {'d'}}</a>"
      "<a><?t d?></a>";
    expect "computed pi with dynamic target"
      "<a>{processing-instruction {concat('t', 1)} {'d'}}</a>" "<a><?t1 d?></a>";
    expect "comment node kind" "comment {'c'} instance of comment()" "true";
    expect "pi node kind"
      "processing-instruction x {'c'} instance of processing-instruction()" "true";
    expect "comment constructor still a path step name"
      "let $x := <r><comment/></r> return count($x/comment)" "1";
    expect "a lone hyphen is allowed" "<a>{comment {'x-y'}}</a>" "<a><!--x-y--></a>";
    expect "? and > apart are allowed" "<a>{processing-instruction p {'x?y>'}}</a>"
      "<a><?p x?y>?></a>";
    expect "replace value of a comment with a lone hyphen"
      "let $x := <a>{comment {'c'}}</a> return (snap { replace value of node $x/comment() with 'x-y' }, $x)"
      "<a><!--x-y--></a>";
  ]
  (* content the serializer cannot write back is rejected on both
     routes, the interpreter and the algebra plan, whether a
     constructor or "replace value of node" supplies it *)
  @ List.concat_map
      (fun (name, src, code) ->
        [
          expect_error name src (dynamic_error code);
          tc (name ^ " (plan)") `Quick (fun () ->
              match Xqb_algebra.Runner.run (Core.Engine.create ()) src with
              | _ -> Alcotest.failf "%s: expected %s" name code
              | exception e ->
                if not (dynamic_error code e) then
                  Alcotest.failf "%s: unexpected %s" name (Printexc.to_string e));
        ])
      [
        ("comment containing --", "comment {'x--y'}", "XQDY0072");
        ("comment ending in -", "<a>{comment {concat('x', '-')}}</a>", "XQDY0072");
        ("pi containing ?>", "processing-instruction p {'x?>y'}", "XQDY0026");
        ("pi with a dynamic target containing ?>",
         "<a>{processing-instruction {'t'} {'?>'}}</a>", "XQDY0026");
        ("replace value of a comment with --",
         "let $c := comment {'a'} return snap { replace value of node $c with 'x--y' }",
         "XQDY0072");
        ("replace value of a comment with a trailing -",
         "let $x := <a>{comment {'c'}}</a> return snap { replace value of node $x/comment() with 'x-' }",
         "XQDY0072");
        ("replace value of a pi with ?>",
         "let $p := processing-instruction p {'a'} return snap { replace value of node $p with 'x?>y' }",
         "XQDY0026");
      ]

let suite = suite @ [ ("eval:comment-pi", comment_pi_ctors) ]
