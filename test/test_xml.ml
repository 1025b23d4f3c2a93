(* S1: QNames, escaping and the XML parser/writer. *)

open Helpers
module Qname = Xqb_xml.Qname
module Escape = Xqb_xml.Escape
module Event = Xqb_xml.Event
module P = Xqb_xml.Xml_parser
module W = Xqb_xml.Xml_writer

let qname_tests =
  [
    tc "of_string plain" `Quick (fun () ->
        let q = Qname.of_string "foo" in
        check Alcotest.string "local" "foo" (Qname.local q);
        check Alcotest.string "prefix" "" (Qname.prefix q));
    tc "of_string prefixed" `Quick (fun () ->
        let q = Qname.of_string "xs:integer" in
        check Alcotest.string "prefix" "xs" (Qname.prefix q);
        check Alcotest.string "local" "integer" (Qname.local q);
        check Alcotest.string "round" "xs:integer" (Qname.to_string q));
    tc "equality and compare" `Quick (fun () ->
        check Alcotest.bool "eq" true (Qname.equal (qn "a:b") (qn "a:b"));
        check Alcotest.bool "neq prefix" false (Qname.equal (qn "a:b") (qn "c:b"));
        check Alcotest.bool "order" true (Qname.compare (qn "a") (qn "b") < 0));
    tc "names are interned" `Quick (fun () ->
        check Alcotest.bool "make == of_string" true
          (Qname.make ~prefix:"p" "a" == Qname.of_string "p:a");
        check Alcotest.bool "unprefixed" true (Qname.make "a" == Qname.of_string "a");
        check Alcotest.bool "built from fresh strings" true
          (Qname.make (String.concat "" [ "pe"; "rson" ]) == Qname.make "person");
        check Alcotest.bool "prefix is part of the name" false
          (Qname.make "a" == Qname.of_string "p:a");
        (* names decoded by the XML parser are the interned records *)
        match P.parse "<p:a q:b=\"1\"/>" with
        | Event.Start_element (n, [ (an, _) ]) :: _ ->
          check Alcotest.bool "element name" true (n == Qname.of_string "p:a");
          check Alcotest.bool "attribute name" true (an == Qname.make ~prefix:"q" "b")
        | _ -> Alcotest.fail "unexpected events");
    tc "interning is domain-safe" `Quick (fun () ->
        let names () =
          List.init 200 (fun i -> Qname.make ~prefix:"d" (string_of_int (i * 7 mod 200)))
        in
        let others = Domain.spawn names in
        let mine = names () in
        List.iter2
          (fun a b -> check Alcotest.bool (Qname.to_string a) true (a == b))
          mine (Domain.join others));
    qtest ~count:500 "equal agrees with structural equality"
      QCheck2.Gen.(
        let part = string_size ~gen:(oneofl [ 'a'; 'b'; ':' ]) (int_range 0 3) in
        pair (pair part part) (pair part part))
      (fun ((p1, l1), (p2, l2)) ->
        let a = Qname.make ~prefix:p1 l1 and b = Qname.make ~prefix:p2 l2 in
        let c = Qname.of_string (p2 ^ ":" ^ l2) in
        Qname.equal a b = (p1 = p2 && l1 = l2)
        && Qname.equal a b = (Qname.compare a b = 0)
        && Qname.equal c (Qname.make ~prefix:(Qname.prefix c) (Qname.local c)));
    tc "validity" `Quick (fun () ->
        check Alcotest.bool "valid" true (Qname.valid (qn "foo-bar.baz"));
        check Alcotest.bool "digit start" false (Qname.valid (qn "1foo"));
        check Alcotest.bool "empty" false (Qname.valid (qn ""));
        check Alcotest.bool "underscore" true (Qname.valid (qn "_x")));
  ]

(* The escapers append to a buffer; these return the text. *)
let escaped add s =
  let buf = Buffer.create 16 in
  add buf s;
  Buffer.contents buf

let escape_text = escaped Escape.add_escaped_text
let escape_attr = escaped Escape.add_escaped_attr

let escape_tests =
  [
    tc "text escaping" `Quick (fun () ->
        check Alcotest.string "amp" "a&amp;b&lt;c&gt;d" (escape_text "a&b<c>d"));
    tc "attr escaping" `Quick (fun () ->
        check Alcotest.string "quot" "say &quot;hi&quot;&#10;" (escape_attr "say \"hi\"\n"));
    tc "unescape entities" `Quick (fun () ->
        check Alcotest.string "five" "<>&\"'" (Escape.unescape "&lt;&gt;&amp;&quot;&apos;"));
    tc "unescape charrefs" `Quick (fun () ->
        check Alcotest.string "dec" "A" (Escape.unescape "&#65;");
        check Alcotest.string "hex" "A" (Escape.unescape "&#x41;");
        check Alcotest.string "utf8" "\xc3\xa9" (Escape.unescape "&#233;"));
    tc "unknown entity" `Quick (fun () ->
        match Escape.unescape "&nope;" with
        | _ -> Alcotest.fail "expected Unknown_entity"
        | exception Escape.Unknown_entity _ -> ());
    tc "CR is a character reference in text and attributes" `Quick (fun () ->
        check Alcotest.string "text" "a&#13;b" (escape_text "a\rb");
        check Alcotest.string "attr" "a&#13;b&#10;c&#9;d" (escape_attr "a\rb\nc\td");
        (* a raw CR would reparse as LF in text and a space in an
           attribute value *)
        match P.parse "<a b=\"a&#13;b\">a&#13;b</a>" with
        | [ Event.Start_element (_, [ (_, v) ]); Event.Text t; Event.End_element _ ] ->
          check Alcotest.string "attr value" "a\rb" v;
          check Alcotest.string "text" "a\rb" t
        | _ -> Alcotest.fail "unexpected events");
    tc "round trip" `Quick (fun () ->
        let s = "a<b>&c\"d'e\r\nf" in
        check Alcotest.string "text rt" s (Escape.unescape (escape_text s));
        check Alcotest.string "attr rt" s (Escape.unescape (escape_attr s)));
  ]

let ev_pp =
  Alcotest.testable (fun ppf e -> Format.pp_print_string ppf (W.to_string [ e ])) Event.equal

let parser_tests =
  [
    tc "simple element" `Quick (fun () ->
        check (Alcotest.list ev_pp) "events"
          [ Event.Start_element (qn "a", []); Event.End_element (qn "a") ]
          (P.parse "<a/>"));
    tc "attributes" `Quick (fun () ->
        match P.parse {|<a x="1" y='two'/>|} with
        | [ Event.Start_element (_, attrs); _ ] ->
          check
            (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
            "attrs"
            [ ("x", "1"); ("y", "two") ]
            (List.map (fun (k, v) -> (Qname.to_string k, v)) attrs)
        | _ -> Alcotest.fail "unexpected events");
    tc "text and nesting" `Quick (fun () ->
        check (Alcotest.list ev_pp) "events"
          [
            Event.Start_element (qn "a", []);
            Event.Text "x";
            Event.Start_element (qn "b", []);
            Event.End_element (qn "b");
            Event.Text "y";
            Event.End_element (qn "a");
          ]
          (P.parse "<a>x<b/>y</a>"));
    tc "whitespace-only text dropped by default" `Quick (fun () ->
        check Alcotest.int "count" 4 (List.length (P.parse "<a>\n  <b/>\n</a>")));
    tc "keep_ws keeps it" `Quick (fun () ->
        check Alcotest.int "count" 6
          (List.length (P.parse ~keep_ws:true "<a>\n  <b/>\n</a>")));
    tc "entities in text and attrs" `Quick (fun () ->
        match P.parse {|<a t="&lt;&#65;">x&amp;y</a>|} with
        | [ Event.Start_element (_, [ (_, v) ]); Event.Text t; _ ] ->
          check Alcotest.string "attr" "<A" v;
          check Alcotest.string "text" "x&y" t
        | _ -> Alcotest.fail "unexpected events");
    tc "cdata" `Quick (fun () ->
        match P.parse "<a><![CDATA[<not>&parsed;]]></a>" with
        | [ _; Event.Text t; _ ] -> check Alcotest.string "cdata" "<not>&parsed;" t
        | _ -> Alcotest.fail "unexpected events");
    tc "comments and pis" `Quick (fun () ->
        check (Alcotest.list ev_pp) "events"
          [
            Event.Comment " c ";
            Event.Start_element (qn "a", []);
            Event.Pi ("target", "data");
            Event.End_element (qn "a");
          ]
          (P.parse "<!-- c --><a><?target data?></a>"));
    tc "xml decl and doctype skipped" `Quick (fun () ->
        check Alcotest.int "count" 2
          (List.length (P.parse "<?xml version=\"1.0\"?><!DOCTYPE a><a/>")));
    tc "mismatched tag rejected" `Quick (fun () ->
        match P.parse "<a></b>" with
        | _ -> Alcotest.fail "expected error"
        | exception P.Error _ -> ());
    tc "unclosed rejected" `Quick (fun () ->
        match P.parse "<a><b></b>" with
        | _ -> Alcotest.fail "expected error"
        | exception P.Error _ -> ());
    tc "duplicate attribute rejected" `Quick (fun () ->
        match P.parse {|<a x="1" x="2"/>|} with
        | _ -> Alcotest.fail "expected error"
        | exception P.Error _ -> ());
    tc "two roots rejected" `Quick (fun () ->
        match P.parse "<a/><b/>" with
        | _ -> Alcotest.fail "expected error"
        | exception P.Error _ -> ());
    tc "text outside root rejected" `Quick (fun () ->
        match P.parse "hello<a/>" with
        | _ -> Alcotest.fail "expected error"
        | exception P.Error _ -> ());
    tc "error position reported" `Quick (fun () ->
        match P.parse "<a>\n  <b x=></b></a>" with
        | _ -> Alcotest.fail "expected error"
        | exception P.Error (pos, _) ->
          check Alcotest.int "line" 2 pos.P.line);
  ]

(* Random well-formed event streams round-trip through write+parse. *)
let gen_tree =
  let open QCheck2.Gen in
  let name = oneofl [ "a"; "b"; "c"; "ns:d" ] in
  let text = oneofl [ "x"; "a<b"; "4 & 2"; "\"q\""; "tail "; "cr\rlf\r\n"; "t\tn\n>" ] in
  let rec tree depth =
    if depth = 0 then map (fun t -> `Text t) text
    else
      frequency
        [
          (2, map (fun t -> `Text t) text);
          (1, map (fun s -> `Comment s) (oneofl [ "c"; "note"; " a<b & c " ]));
          (1, map (fun c -> `Pi ("p", c)) (oneofl [ ""; "x y"; "a<b>&" ]));
          ( 3,
            map3
              (fun n attrs kids -> `Elem (n, attrs, kids))
              name
              (small_list (pair (oneofl [ "k"; "l" ]) text))
              (list_size (int_bound 3) (tree (depth - 1))) );
        ]
  in
  map3 (fun n attrs kids -> `Elem (n, attrs, kids)) name
    (small_list (pair (oneofl [ "k"; "l" ]) text))
    (list_size (int_bound 4) (tree 3))

let rec emit_tree acc t =
  match t with
  | `Text s -> Event.Text s :: acc
  | `Comment s -> Event.Comment s :: acc
  | `Pi (t, c) -> Event.Pi (t, c) :: acc
  | `Elem (n, attrs, kids) ->
    (* dedupe attribute names to keep the stream well-formed *)
    let attrs =
      List.fold_left
        (fun seen (k, v) ->
          if List.mem_assoc k seen then seen else seen @ [ (k, v) ])
        [] attrs
    in
    let acc =
      Event.Start_element (qn n, List.map (fun (k, v) -> (qn k, v)) attrs) :: acc
    in
    let acc = List.fold_left emit_tree acc kids in
    Event.End_element (qn n) :: acc

(* Adjacent text events merge on reparse, so compare *normalized*
   streams: merge adjacent texts before comparing. *)
let rec merge_texts = function
  | Event.Text a :: Event.Text b :: rest -> merge_texts (Event.Text (a ^ b) :: rest)
  | e :: rest -> e :: merge_texts rest
  | [] -> []

let roundtrip_prop =
  qtest ~count:300 "write/parse round-trip" gen_tree (fun t ->
      let events = merge_texts (List.rev (emit_tree [] t)) in
      let xml = W.to_string events in
      let back = P.parse ~keep_ws:true xml in
      if List.length events = List.length back
         && List.for_all2 Event.equal events back
      then true
      else
        QCheck2.Test.fail_reportf "xml: %s@.expected %d events, got %d" xml
          (List.length events) (List.length back))

let suite =
  [
    ("xml:qname", qname_tests);
    ("xml:escape", escape_tests);
    ("xml:parser", parser_tests @ [ roundtrip_prop ]);
  ]
