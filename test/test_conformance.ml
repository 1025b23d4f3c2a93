(* A mini conformance corpus for the XQuery 1.0 fragment: one-line
   (query, expected-serialization) pairs in the spirit of XQTS. Each
   case pins a distinct behaviour; goldens were checked against the
   spec by hand. *)

open Helpers

let cases_arithmetic =
  [
    ("integer addition", "1 + 2", "3");
    ("left assoc subtraction", "10 - 3 - 2", "5");
    ("mixed precedence", "2 + 3 * 4 - 1", "13");
    ("integer division exact", "8 div 4", "2");
    ("integer division inexact", "1 div 2", "0.5");
    ("idiv truncates toward zero", "(-7) idiv 2", "-3");
    ("mod sign follows dividend", "(-7) mod 2, 7 mod -2", "-1 1");
    ("decimal arithmetic", "0.1 + 0.2 < 0.4", "true");
    ("double exponent literal", "1e2 + 1", "101");
    ("double overflow to INF", "1e308 * 10", "INF");
    ("double division by zero", "1e0 div 0", "INF");
    ("negative double division", "-1e0 div 0", "-INF");
    ("NaN from 0 div 0 double", "string(0e0 div 0)", "NaN");
    ("unary minus binds tighter than sub", "5 - -3", "8");
    ("double unary minus", "- -4", "4");
    ("untyped arithmetic via double", "<a>4</a> + 1", "5");
    ("promotion int+decimal", "1 + 0.5", "1.5");
    ("arith over singleton node", "<n>6</n> * 7", "42");
    ("to range single", "(5 to 5)", "5");
    ("count of range", "count(1 to 100)", "100");
    ("range with arith bounds", "(1+1) to (2*2)", "2 3 4");
  ]

let cases_comparison =
  [
    ("string inequality", "'a' != 'b'", "true");
    ("numeric general le", "(3, 4) <= 3", "true");
    ("general eq needs one pair", "(1, 2) = (3, 2)", "true");
    ("general against empty", "1 = ()", "false");
    ("general both empty", "() = ()", "false");
    ("untyped node vs string", "<a>x</a> = 'x'", "true");
    ("untyped node vs number", "<a>07</a> = 7", "true");
    ("two untyped nodes compare stringly", "<a>07</a> = <b>7</b>", "false");
    ("value lt on strings", "'abc' lt 'b'", "true");
    ("value ge", "3 ge 3", "true");
    ("ne on numeric tower", "1 ne 1.0", "false");
    ("boolean eq", "true() = true()", "true");
    ("boolean lt", "false() lt true()", "true");
    ("is on same node", "let $a := <a/> return $a is $a", "true");
    ("is on equal but distinct nodes", "<a/> is <a/>", "false");
    ("precedes within tree", "let $a := <a><b/><c/></a> return $a/b << $a/c", "true");
  ]

let cases_logic =
  [
    ("and true", "true() and 1", "true");
    ("or false", "false() or 0", "false");
    ("ebv of string", "'false' and true()", "true");
    ("ebv of zero string is false?", "boolean('')", "false");
    ("not of node seq", "not(<a/>)", "false");
    ("nested boolean ops", "(true() or false()) and not(false())", "true");
    ("if with empty condition", "if (()) then 1 else 2", "2");
    ("if with node condition", "if (<a/>) then 1 else 2", "1");
  ]

let cases_sequences =
  [
    ("empty flattening", "((), (), ())", "");
    ("deep nesting flattens", "(1, (2, (3, (4))))", "1 2 3 4");
    ("count nested", "count((1, (2, 3)))", "3");
    ("reverse of empty", "count(reverse(()))", "0");
    ("subsequence beyond end", "subsequence((1,2), 5)", "");
    ("subsequence negative start", "subsequence((1,2,3), -1, 3)", "1");
    ("remove out of range", "remove((1,2), 9)", "1 2");
    ("insert-before position 1", "insert-before((2,3), 1, 1)", "1 2 3");
    ("index-of no match", "count(index-of((1,2), 9))", "0");
    ("index-of with untyped", "index-of((<a>5</a>, 5), 5)", "1 2");
    ("distinct preserves first occurrence order",
     "distinct-values(('b', 'a', 'b', 'c'))", "b a c");
    ("empty() and exists()", "(empty(()), exists(0))", "true true");
  ]

let cases_strings =
  [
    ("concat coerces", "concat(1, '-', 2.5)", "1-2.5");
    ("string-join empty sep", "string-join(('a','b'), '')", "ab");
    ("string-join singleton", "string-join('x', ',')", "x");
    ("substring fractional start", "substring('12345', 1.5)", "2345");
    ("substring fractional length", "substring('12345', 2, 2.5)", "234");
    ("substring-before no match", "substring-before('abc', 'z')", "");
    ("substring-after full match", "substring-after('abc', 'abc')", "");
    ("string-length of empty seq via arg", "string-length('')", "0");
    ("normalize-space all ws", "normalize-space('   ')", "");
    ("contains empty needle", "contains('abc', '')", "true");
    ("translate deletes", "translate('abcd', 'bd', '')", "ac");
    ("upper-case non-letters", "upper-case('a1b')", "A1B");
    ("starts-with empty", "starts-with('abc', '')", "true");
    ("matches anchors", "(matches('abc', '^abc$'), matches('xabc', '^abc$'))",
     "true false");
    ("replace with groups", "replace('a1b2', '[0-9]', '#')", "a#b#");
    ("tokenize collapses nothing", "count(tokenize('a b  c', ' '))", "4");
    ("string of number", "string(1.5)", "1.5");
    ("string of boolean", "string(true())", "true");
  ]

let cases_numeric_fns =
  [
    ("sum mixed tower", "sum((1, 2.5))", "3.5");
    ("sum of untyped nodes", "sum((<a>1</a>, <a>2</a>))", "3");
    ("avg preserves decimal", "avg((1, 2))", "1.5");
    ("min over mixed", "min((3, 1.5))", "1.5");
    ("max of strings", "max(('a', 'c', 'b'))", "c");
    ("floor of negative", "floor(-1.5)", "-2");
    ("ceiling of negative", "ceiling(-1.5)", "-1");
    ("round half up", "round(2.5)", "3");
    ("round negative half", "round(-2.5)", "-2");
    ("abs of integer keeps type", "abs(-3) instance of xs:integer", "true");
    ("number of unparseable", "string(number('abc'))", "NaN");
  ]

let cases_nodes_paths =
  [
    ("name of attribute", "let $a := <e k='v'/> return name($a/@k)", "k");
    ("string of attribute", "string(<e k='v'/>/@k)", "v");
    ("data of attribute", "data(<e k='3'/>/@k) + 1", "4");
    ("text node string", "string((<a>x<b/>y</a>/text())[1])", "x");
    ("two text nodes around element", "count(<a>x<b/>y</a>/text())", "2");
    ("wildcard attribute", "count(<e a='1' b='2'/>/@*)", "2");
    ("parent of attribute", "let $e := <e k='v'/> return $e/@k/.. is $e", "true");
    ("descendant-or-self from element",
     "count(<a><b><c/></b></a>/descendant-or-self::*)", "3");
    ("path over empty input", "count(()/a)", "0");
    ("predicate false for all", "count((1,2,3)[. > 5])", "0");
    ("predicate on path result order",
     "let $d := <d><x>1</x><y>2</y><x>3</x></d> return string-join($d/*/name(.), ',')",
     "x,y,x");
    ("positional on reversed", "reverse((1,2,3))[1]", "3");
    ("last in predicate arithmetic", "(1,2,3,4)[last() - 1]", "3");
    ("comma in predicate needs parens", "(1,2,3)[(1,2) = position()]", "1 2");
    ("attribute of constructed element",
     "element e { attribute k {'v'}, 'body' }/@k/string(.)", "v");
    ("self axis filters kind", "count(<a/>/self::text())", "0");
    ("union of attributes and elements sorted",
     "let $e := <e k='v'><c/></e> return string-join(($e/c | $e/@k)/name(.), ',')",
     "k,c");
  ]

let cases_flwor_quant =
  [
    ("let over empty", "let $x := () return count($x)", "0");
    ("for over single item", "for $x in 5 return $x * $x", "25");
    ("nested lets shadow", "let $x := 1 return let $x := $x + 1 return $x", "2");
    ("where with position var",
     "for $x at $i in ('a','b','c') where $i mod 2 = 1 return $x", "a c");
    ("order by numeric vs string",
     "for $x in ('10', '9') order by xs:integer($x) return $x", "9 10");
    ("order by on doubles", "for $x in (1.5, 0.5, 2.5) order by $x return $x",
     "0.5 1.5 2.5");
    ("some short data", "some $x in (1, 'a') satisfies $x instance of xs:string",
     "true");
    ("every fails on one", "every $x in (1, 'a') satisfies $x instance of xs:integer",
     "false");
    ("quantifier over path", "some $b in <a><b>1</b><b>2</b></a>/b satisfies $b = 2",
     "true");
    ("for in for expression", "for $x in (for $y in (1,2) return $y * 10) return $x + 1",
     "11 21");
  ]

let cases_constructors =
  [
    ("empty element self-closes in AST", "count(<a/>/node())", "0");
    ("attribute value normalizes entity", "string(<a k=\"&lt;\"/>/@k)", "<");
    ("numeric enclosed in attribute", "string(<a k=\"{1+1}\"/>/@k)", "2");
    ("sequence in attribute joins with space", "string(<a k=\"{1,2,3}\"/>/@k)",
     "1 2 3");
    ("nested constructor inherits nothing", "count(<a><b/></a>/b/@*)", "0");
    ("text in computed element", "element x {'a', 'b'}/string(.)", "a b");
    ("computed element with node content", "count(element x {<y/>, <z/>}/*)", "2");
    ("document node children", "count(document {(<a/>, <b/>)}/*)", "2");
    ("constructed attr then query it", "<e>{attribute q {1+2}}</e>/@q = 3", "true");
    ("deep construction", "string(<a><b><c>{40+2}</c></b></a>)", "42");
    ("comment node has no children", "count(<a><!--x--></a>/comment())", "1");
    ("pi in constructor", "count(<a><?t d?></a>/processing-instruction())", "1");
    ("boundary whitespace dropped", "count(<a> <b/> </a>/text())", "0");
    ("explicit whitespace kept via enclosed", "string-length(<a>{' '}</a>)", "1");
  ]

let cases_types =
  [
    ("instance of anyAtomicType", "'x' instance of xs:anyAtomicType", "true");
    ("integer is decimal", "1 instance of xs:decimal", "true");
    ("decimal literal is not integer", "1.5 instance of xs:integer", "false");
    ("node not atomic", "<a/> instance of xs:anyAtomicType", "false");
    ("empty matches star", "() instance of item()*", "true");
    ("cast untyped to boolean", "xs:boolean(<a>true</a>)", "true");
    ("cast boolean to integer", "xs:integer(true())", "1");
    ("cast to untypedAtomic", "xs:untypedAtomic(3) instance of xs:untypedAtomic",
     "true");
    ("castable rejects bad qname", "'1bad' castable as xs:QName", "false");
    ("cast integer to string round trip", "xs:integer(xs:string(42))", "42");
  ]

let cases_edge =
  [
    ("count of a large range", "count(1 to 100000)", "100000");
    ("sum of a large range", "sum(1 to 1000)", "500500");
    ("deeply nested arithmetic", "((((((1+2)*3)-4) idiv 2)+5)*2)", "14");
    ("deep recursion",
     "declare function down($n) { if ($n = 0) then 0 else down($n - 1) }; down(2000)",
     "0");
    ("long filter chain", "(1 to 100)[. mod 2 = 0][. mod 3 = 0][. > 50]",
     "54 60 66 72 78 84 90 96");
    ("nested constructors 6 deep",
     "string(<a><b><c><d><e><f>x</f></e></d></c></b></a>)", "x");
    ("unicode through the pipeline", "string-length('caf\xc3\xa9')", "4");
    ("unicode entity in constructor", "string(<a>&#233;</a>)", "\xc3\xa9");
    ("empty string operations",
     "(concat('', ''), string-length(''), substring('', 1))", " 0 ");
    ("negative literal in sequence", "(-1, - 2, -(3))", "-1 -2 -3");
    ("integer bounds", "(4611686018427387903 - 1) + 1", "4611686018427387903");
    ("many attributes",
     "count(<e a='1' b='2' c='3' d='4' f='5' g='6' h='7' i='8'/>/@*)", "8");
    ("predicate over attributes", "count(<e a='1' b='2'/>/@*[. = '1'])", "1");
    ("boolean of nested empties", "boolean(((), (), ()))", "false");
    ("if chains", "if (0) then 1 else if (0) then 2 else if (1) then 3 else 4",
     "3");
    ("quantifier over large range", "every $x in 1 to 5000 satisfies $x > 0",
     "true");
    ("distinct over many duplicates",
     "count(distinct-values(for $i in 1 to 1000 return $i mod 7))", "7");
    ("string-join of a computed sequence",
     "string-join(for $i in 1 to 5 return string($i), '')", "12345");
    ("shadowing across scopes",
     "let $x := 1 return ((for $x in (10, 20) return $x + 1), $x)", "11 21 1");
    ("comparison chains need parens",
     "(1 < 2) = (3 < 4)", "true");
    ("mod of decimals", "5.5 mod 2", "1.5");
    ("whitespace handling in constructors",
     "string-length(string(<a> {'x'} </a>))", "1");
    ("text nodes do not merge on detach-reinsert",
     {|let $x := <a>one<b/>two</a>
       return (snap delete {$x/b}, count($x/text()))|},
     "2");
    ("copy of a copy", "string(copy { copy { <a>v</a> } })", "v");
    ("snap returning nodes",
     "count(snap { (<a/>, <b/>) })", "2");
    ("update in both quantifier and body",
     {|let $x := <x/>
       return (some $i in (insert {<q/>} into {$x}, 1) satisfies $i = 1,
               count($x/q))|},
     "true 0");
  ]

let all_cases =
  [
    ("conformance:edge", cases_edge);
    ("conformance:arithmetic", cases_arithmetic);
    ("conformance:comparison", cases_comparison);
    ("conformance:logic", cases_logic);
    ("conformance:sequences", cases_sequences);
    ("conformance:strings", cases_strings);
    ("conformance:numeric-fns", cases_numeric_fns);
    ("conformance:nodes-paths", cases_nodes_paths);
    ("conformance:flwor-quant", cases_flwor_quant);
    ("conformance:constructors", cases_constructors);
    ("conformance:types", cases_types);
  ]

(* Semantic pretty-printer round-trip: for every corpus query,
   [run (pretty (parse q))] must equal [run q]. This checks the
   printer *semantically* (the structural qcheck round-trip lives in
   test_pretty.ml) and doubles the corpus' value. *)
let pretty_semantic_roundtrip =
  List.map
    (fun (group, cases) ->
      tc (group ^ " round-trips semantically") `Quick (fun () ->
          List.iter
            (fun (name, q, expected) ->
              let printed =
                Xqb_syntax.Pretty.prog_to_string (Xqb_syntax.Parser.parse_prog q)
              in
              match run printed with
              | got ->
                check Alcotest.string
                  (Printf.sprintf "%s via %s" name printed)
                  expected got
              | exception e ->
                Alcotest.failf "%s: reprinted %S failed: %s" name printed
                  (Printexc.to_string e))
            cases))
    all_cases

let suite =
  List.map
    (fun (group, cases) ->
      (group, List.map (fun (name, q, expected) -> expect name q expected) cases))
    all_cases
  @ [ ("conformance:pretty-roundtrip", pretty_semantic_roundtrip) ]
