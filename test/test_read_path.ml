(* The allocation-lean read path: the fused child/attribute step
   against the unfused reference (result and budget charge, on every
   node, axis and node-test kind, base store and scratch overlay),
   the single-text-child [string_value] shortcut against the buffer
   walk, and a deterministic allocation guard on the served route. *)

open Helpers
module Axes = Xqb_store.Axes
module Budget = Xqb_governor.Budget
module Qname = Xqb_xml.Qname
module E = Core.Engine
module R = Xqb_algebra.Runner

let axes =
  Axes.
    [ Child; Descendant; Descendant_or_self; Attribute; Self; Parent; Ancestor;
      Ancestor_or_self; Following_sibling; Preceding_sibling; Following; Preceding ]

(* Every node-test kind, with names that occur in the store below:
   unprefixed and prefixed element and attribute names. *)
let tests =
  let q = Qname.of_string in
  Axes.
    [ Name (q "person"); Name (q "id"); Name (q "p:item"); Name (q "p:key"); Wildcard;
      Kind_node; Kind_text; Kind_element None; Kind_element (Some (q "name"));
      Kind_element (Some (q "p:item")); Kind_attribute None;
      Kind_attribute (Some (q "id")); Kind_attribute (Some (q "p:key")); Kind_comment;
      Kind_pi None; Kind_pi (Some "t"); Kind_document ]

(* A small XMark document, and a scratch overlay of it holding
   constructed trees: prefixed names, every node kind, mixed content
   and a deep copy of a base subtree. *)
let stores () =
  let base = Store.create () in
  let doc = Xqb_xmark.Generator.generate base (Xqb_xmark.Generator.scaled 0.02) in
  let ov = Store.scratch base in
  let q = Qname.of_string in
  let el name kids =
    let e = Store.make_element ov (q name) in
    Store.wire ov ~parent:e kids;
    e
  in
  let person = List.hd (Store.descendants_by_name base doc (q "person")) in
  let tree =
    el "p:item"
      [ Store.make_attribute ov (q "id") "i1"; Store.make_attribute ov (q "p:key") "k";
        Store.make_text ov "one "; el "name" [ Store.make_text ov "n" ];
        Store.make_comment ov "c"; Store.make_pi ov "t" "pi"; Store.make_text ov " two";
        el "p:item" [ Store.make_attribute ov (q "p:key") "k2" ];
        Store.deep_copy ov person ]
  in
  let d = Store.make_document ov in
  Store.wire ov ~parent:d [ tree ];
  let ids s first = List.init (Store.node_count s) (fun i -> first + i) in
  (ov, ids base 0 @ ids ov Store.scratch_first_id)

let charged f =
  let b = Budget.create () in
  let r = Budget.with_current (Some b) f in
  (r, Budget.steps_used b)

let step_equivalence =
  [
    tc "fused step = filter of apply, result and charge" `Quick (fun () ->
        let store, ids = stores () in
        let cases = ref 0 in
        List.iter
          (fun id ->
            List.iter
              (fun axis ->
                List.iter
                  (fun test ->
                    let fused, fused_steps =
                      charged (fun () -> Axes.step store axis test Fun.id id)
                    in
                    let reference, reference_steps =
                      charged (fun () ->
                          List.filter (Axes.test_matches store axis test)
                            (Axes.apply store axis id))
                    in
                    let what =
                      Printf.sprintf "%d %s::%s" id (Axes.axis_to_string axis)
                        (Axes.node_test_to_string test)
                    in
                    if fused <> reference then Alcotest.failf "%s: results differ" what;
                    if fused_steps <> reference_steps then
                      Alcotest.failf "%s: charged %d, reference %d" what fused_steps
                        reference_steps;
                    incr cases)
                  tests)
              axes)
          ids;
        check Alcotest.bool "covered both stores" true (!cases > 1000));
    tc "the mapping function is applied once per match" `Quick (fun () ->
        let f = fixture () in
        let seen = ref [] in
        let items =
          Axes.step f.store Axes.Child Axes.Kind_node
            (fun id ->
              seen := id :: !seen;
              Item.Node id)
            f.a
        in
        check Alcotest.(list int) "results" [ f.b1; f.c1; f.b2 ]
          (List.map Item.as_node items);
        check Alcotest.(list int) "calls" [ f.b1; f.c1; f.b2 ] (List.sort compare !seen));
  ]

(* The string value by the buffer walk over text descendants, the
   reference for [Store.string_value]'s shortcut. *)
let rec text_descendants store id =
  match Store.kind store id with
  | Store.Text -> Store.content store id
  | Store.Element | Store.Document ->
    String.concat "" (List.map (text_descendants store) (Store.children store id))
  | Store.Attribute | Store.Comment | Store.Pi -> ""

let reference_string_value store id =
  match Store.kind store id with
  | Store.Text | Store.Comment | Store.Pi | Store.Attribute -> Store.content store id
  | Store.Element | Store.Document -> text_descendants store id

let string_values =
  [
    tc "string_value = buffer walk on every node" `Quick (fun () ->
        let store, ids = stores () in
        let mixed =
          Store.load_string store
            "<r>a<b>b<c/>c</b><!--x-->d<?p q?><e>only</e><f/><g><h>deep</h></g>\
             <i><!--c-->t</i></r>"
        in
        let mixed_ids =
          mixed :: Xqb_store.Axes.descendants store mixed
          @ List.concat_map (Store.attributes store) (Xqb_store.Axes.descendants store mixed)
        in
        List.iter
          (fun id ->
            check Alcotest.string (Store.node_path store id)
              (reference_string_value store id) (Store.string_value store id))
          (ids @ mixed_ids);
        check Alcotest.string "mixed root" "abcdonlydeept" (Store.string_value store mixed));
  ]

(* -- Allocation guard ------------------------------------------------ *)

(* Words one served run of each template allocates — the route a
   fork-routed QUERY takes: [Runner.prepare], [Engine.run_fork] with
   the plan executor, [serialize_with] — on the seed-1 XMark document
   at scale 1.0 (xqbench's xmark-read document), after a warm-up run
   that builds the indexes and order keys. A word is counted whether
   it is allocated on the minor heap ([Gc.minor_words]) or straight
   on the major heap, as blocks over the minor-heap size are (the
   major words [Gc.counters] reports less the promoted ones; its minor
   figure lags on OCaml 5.1 and is not used). Each bound is about 5%
   above the count the read path allocates; CHANGES.md records the
   counts before and after. A stray allocation per node visited trips
   it; CPU time on a shared host could not. *)
let templates =
  [
    ("person lookup", {|doc("auction")//person[@id="person7"]/name/string()|}, 445);
    ("contains scan", {|count(doc("auction")//item[contains(description/text, "golden")])|},
     13_630);
    ("bidder count", {|count(doc("auction")//open_auction[count(bidder) >= 2])|}, 10_880);
    ( "Q8",
      {|for $p in doc("auction")//person let $a := for $t in doc("auction")//closed_auction where $t/buyer/@person = $p/@id return $t return <item person="{$p/name}">{count($a)}</item>|},
      134_700 );
  ]

(* [f ()] and the words it allocated, minor and direct-major. The
   counters are read outside the window they bound, so reading them
   allocates nothing inside it. *)
let with_words f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, int_of_float (minor1 -. minor0 +. (major1 -. promoted1) -. (major0 -. promoted0)))

let alloc_guard =
  [
    tc "served-route words per run stay under their bounds" `Quick (fun () ->
        let e = E.create () in
        let cfg = { (Xqb_xmark.Generator.scaled 1.0) with seed = 1 } in
        ignore (E.load_document e ~uri:"auction" (Xqb_xmark.Generator.to_xml cfg));
        List.iter
          (fun (name, src, bound) ->
            let p = R.prepare e src in
            let run () =
              let store, v =
                E.run_fork ~exec:(R.exec p.R.algebra.Xqb_algebra.Compile.plan) e p.R.compiled
              in
              E.serialize_with store v
            in
            let answer = run () in
            if name = "Q8" then begin
              (* the served Q8 payload, pinned to its bytes *)
              check Alcotest.int "Q8 payload bytes" 9_276 (String.length answer);
              check Alcotest.string "Q8 payload md5" "cfba9713af33cf2bbea860dbf88cfa5b"
                (Digest.to_hex (Digest.string answer))
            end;
            for _ = 1 to 3 do
              let again, words = with_words run in
              check Alcotest.string (name ^ ": same answer") answer again;
              if words > bound then
                Alcotest.failf "%s: %d words per run, bound %d" name words bound
            done)
          templates);
  ]

let suite =
  [
    ("read-path:step", step_equivalence);
    ("read-path:string-value", string_values);
    ("read-path:alloc", alloc_guard);
  ]
