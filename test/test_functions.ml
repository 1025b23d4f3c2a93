(* S5: the builtin function library (F&O subset). *)

open Helpers

let pre eng =
  let d =
    Core.Engine.load_document eng ~uri:"d"
      "<r><a>1</a><a>2</a><b>x</b><c/></r>"
  in
  Core.Engine.bind_node eng "d" d

let sequences =
  [
    expect "count/empty/exists" "(count((1,2,3)), empty(()), exists(()))" "3 true false";
    expect "not and boolean" "(not(0), boolean('x'))" "true true";
    expect "true false" "(true(), false())" "true false";
    expect "distinct-values" "distinct-values((1, 2, 1, 1.0, 'a', 'a'))" "1 2 a";
    expect "distinct-values numeric tower" "count(distinct-values((1, 1.0, 2e0)))" "2";
    expect "reverse" "reverse((1,2,3))" "3 2 1";
    expect "subsequence/2" "subsequence((1,2,3,4), 3)" "3 4";
    expect "subsequence/3" "subsequence((1,2,3,4), 2, 2)" "2 3";
    expect "insert-before" "insert-before((1,2,3), 2, (9,9))" "1 9 9 2 3";
    expect "insert-before at end" "insert-before((1,2), 9, 0)" "1 2 0";
    expect "remove" "remove((1,2,3), 2)" "1 3";
    expect "index-of" "index-of((5,6,5), 5)" "1 3";
    expect "exactly-one ok" "exactly-one((42))" "42";
    expect_error "exactly-one fails" "exactly-one((1,2))" any_dynamic_error;
    expect "zero-or-one" "zero-or-one(())" "";
    expect_error "one-or-more fails" "one-or-more(())" any_dynamic_error;
  ]

let strings =
  [
    expect "concat" "concat('a', 1, 'b')" "a1b";
    expect "string-join" "string-join(('a','b','c'), '-')" "a-b-c";
    expect "string-length" "string-length('hello')" "5";
    expect "contains"
      "(contains('abc','b'), contains('abc','z'), contains('abc',''), contains('',''), \
       contains('ab','abc'), contains('abc','bc'), contains('abcab','abd'), \
       contains('caf\xc3\xa9s','\xc3\xa9'), contains('cafe','\xc3\xa9'))"
      "true false true true false true false true false";
    expect "starts/ends-with" "(starts-with('abc','ab'), ends-with('abc','bc'))"
      "true true";
    expect "substring" "(substring('12345', 2), substring('12345', 2, 2))" "2345 23";
    expect "substring clamps" "(substring('abc', 0), substring('abc', 9))" "abc ";
    expect "substring-before/after"
      "(substring-before('a=b','='), substring-after('a=b','='), \
       substring-before('abc','z'), substring-after('abc',''), substring-after('abc','bc'))"
      "a b  abc ";
    expect "upper/lower" "(upper-case('aBc'), lower-case('aBc'))" "ABC abc";
    expect "translate" "translate('abcabc', 'abc', 'AB')" "ABAB";
    expect "normalize-space" "normalize-space('  a  b ')" "a b";
    expect "matches" "(matches('abc','b.'), matches('abc','^c'))" "true false";
    expect "replace" "replace('banana', 'an', '*')" "b**a";
    expect "tokenize" "tokenize('a,b,,c', ',')" "a b  c";
    expect "string on node" ~pre "string(($d//a)[1])" "1";
    expect "string-length of context" "('abc')[string-length() = 3]" "abc";
  ]

(* Every fn:substring example of F&O 3.1 §5.4.3, plus a negative
   start that fn:round takes to -0 (Float.round would give -1). *)
let substring_table =
  [
    ({|substring("motor car", 6)|}, " car");
    ({|substring("metadata", 4, 3)|}, "ada");
    ({|substring("12345", 1.5, 2.6)|}, "234");
    ({|substring("12345", 0, 3)|}, "12");
    ({|substring("12345", 5, -3)|}, "");
    ({|substring("12345", -3, 5)|}, "1");
    ({|substring("12345", 0 div 0E0, 3)|}, "");
    ({|substring("12345", 1, 0 div 0E0)|}, "");
    ({|substring((), 1, 3)|}, "");
    ({|substring("12345", -42, 1 div 0E0)|}, "12345");
    ({|substring("12345", -1 div 0E0, 1 div 0E0)|}, "");
    ({|substring("12345", -0.5, 3)|}, "12");
  ]

let substring_examples =
  [
    tc "F&O substring examples" `Quick (fun () ->
        List.iter
          (fun (src, want) -> check Alcotest.string src want (run src))
          substring_table);
    expect "fn:round ties toward +INF"
      "(round(2.5), round(-2.5), round(-0.5) = 0, round(0.49999999999999994))" "3 -2 true 0";
    (* in-place comparisons: empty needle, needle longer than the
       haystack, multibyte text (UTF-8 bytes compare as code points do) *)
    expect "starts-with edges"
      "(starts-with('abc',''), starts-with('',''), starts-with('ab','abc'), \
       starts-with('caf\xc3\xa9','caf'), starts-with('\xc3\xa9t\xc3\xa9','\xc3\xa9'), \
       starts-with('cafe','caf\xc3\xa9'), starts-with((),'a'))"
      "true true false true true false false";
    tc "F&O string-length and translate examples" `Quick (fun () ->
        List.iter
          (fun (src, want) -> check Alcotest.string src want (run src))
          [
            (* the spec prints 32; the string has 33 characters *)
            ({|string-length("Harp not on that string, my lord!")|}, "33");
            ({|string-length(())|}, "0");
            ({|translate("bar", "abc", "ABC")|}, "BAr");
            ({|translate("--aaa--", "abc-", "ABC")|}, "AAA");
            ({|translate("abcdabc", "abc", "AB")|}, "ABdAB");
          ]);
    (* characters are code points: a two- and a four-byte UTF-8
       character each count once, and a substring never splits one *)
    tc "non-ASCII strings count code points" `Quick (fun () ->
        List.iter
          (fun (src, want) -> check Alcotest.string src want (run src))
          [
            ("string-length('caf\xc3\xa9')", "4");
            ("string-length('\xf0\x9d\x84\x9e')", "1");
            ("substring('caf\xc3\xa9', 4, 1)", "\xc3\xa9");
            ("substring('caf\xc3\xa9', 4)", "\xc3\xa9");
            ("substring('na\xc3\xafve caf\xc3\xa9', 3, 4)", "\xc3\xafve ");
            ("substring('a\xf0\x9d\x84\x9eb', 2, 1)", "\xf0\x9d\x84\x9e");
            ("substring('\xc3\xa9t\xc3\xa9', 0, 3)", "\xc3\xa9t");
            ("substring('\xc3\xa9t\xc3\xa9', 2, 1 div 0E0)", "t\xc3\xa9");
            ("translate('caf\xc3\xa9', '\xc3\xa9', 'e')", "cafe");
            ("translate('abc', 'b', '\xce\xb2')", "a\xce\xb2c");
            ("translate('a\xc3\xa9b', 'a\xc3\xa9', '\xc3\xa9')", "\xc3\xa9b");
            ("translate('\xc3\xa9\xc3\xa8', '\xc3\xa8\xc3\xa9', 'xy')", "yx");
            ("('\xc3\xa9t\xc3\xa9')[string-length() = 3]", "\xc3\xa9t\xc3\xa9");
          ]);
    expect "ends-with edges"
      "(ends-with('abc',''), ends-with('',''), ends-with('bc','abc'), \
       ends-with('caf\xc3\xa9','\xc3\xa9'), ends-with('\xc3\xa9t\xc3\xa9','t\xc3\xa9'), \
       ends-with('cafe','\xc3\xa9'), ends-with((),''))"
      "true true false true true false true";
  ]

let numerics =
  [
    expect "sum" "sum((1, 2, 3))" "6";
    expect "sum of empty" "sum(())" "0";
    expect "sum with zero value" "sum((), 100)" "100";
    expect "avg" "avg((1, 2, 3))" "2";
    expect "avg of empty" "count(avg(()))" "0";
    expect "max min" "(max((3,1,2)), min((3,1,2)))" "3 1";
    expect "max over untyped" ~pre "max($d//a)" "2";
    expect "abs" "(abs(-3), abs(3.5))" "3 3.5";
    expect "floor ceiling round" "(floor(1.7), ceiling(1.2), round(1.5))" "1 2 2";
    expect "number" "(number('3'), number('x'))" "3 NaN";
    expect "sum promotes" "sum((1, 0.5))" "1.5";
  ]

let nodes =
  [
    expect "name and local-name" ~pre "(name(($d//a)[1]), local-name(($d//a)[1]))" "a a";
    expect "name of empty" "name(())" "";
    expect "node-name" ~pre "count(node-name(($d//c)[1]))" "1";
    expect "root" ~pre "(root(($d//a)[1]) is $d)" "true";
    expect "data" ~pre "data($d//a)" "1 2";
    expect "deep-equal same" "deep-equal(<a x='1'>t<b/></a>, <a x='1'>t<b/></a>)" "true";
    expect "deep-equal attr order" "deep-equal(<a x='1' y='2'/>, <a y='2' x='1'/>)"
      "true";
    expect "deep-equal differs" "deep-equal(<a>1</a>, <a>2</a>)" "false";
    expect "deep-equal atomics" "(deep-equal((1,'a'), (1,'a')), deep-equal(1, 2))"
      "true false";
    expect "doc function" ~pre "count(doc('d')//a)" "2";
    expect_error "doc unknown" "doc('missing')" (dynamic_error "FODC0002");
  ]

let errors_and_misc =
  [
    expect_error "fn:error" "error()" (dynamic_error "FOER0000");
    expect_error "fn:error with code" "error('MYERR', 'boom')" (dynamic_error "MYERR");
    expect "position/last" "(1,2,3)[position() = last()]" "3";
    expect_error "position without context" "position()" (dynamic_error "XPDY0002");
    expect "xs constructors" "(xs:integer('7'), xs:string(7), xs:boolean('1'), xs:double('1.5'))"
      "7 7 true 1.5";
    expect "trace passes value" "trace((1,2), 'lbl')" "1 2";
  ]

let suite =
  [
    ("functions:sequences", sequences);
    ("functions:strings", strings);
    ("functions:substring", substring_examples);
    ("functions:numerics", numerics);
    ("functions:nodes", nodes);
    ("functions:misc", errors_and_misc);
  ]
