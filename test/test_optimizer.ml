(* S6/E1/E7: the algebraic compiler — join and outer-join/group-by
   detection, the purity guards of §4.2-4.3, and naive-vs-optimized
   equivalence on values *and* side effects. *)

open Helpers
module Plan = Xqb_algebra.Plan
module Runner = Xqb_algebra.Runner
module Compile = Xqb_algebra.Compile

let xmark_engine ?(persons = 40) ?(closed = 80) () =
  let eng = Core.Engine.create () in
  let cfg =
    { Xqb_xmark.Generator.default with persons; closed_auctions = closed }
  in
  let doc = Xqb_xmark.Generator.generate (Core.Engine.store eng) cfg in
  Core.Engine.bind_node eng "auction" doc;
  eng

let plan_for ?pre src =
  let eng = Core.Engine.create () in
  (match pre with Some f -> f eng | None -> ());
  (Runner.prepare eng src).Runner.algebra

let bind_x eng =
  Core.Engine.bind_node eng "x"
    (Xqb_store.Store.load_string (Core.Engine.store eng) "<x/>")

let q8 =
  {|for $p in $auction//person
    let $a :=
      for $t in $auction//closed_auction
      where $t/buyer/@person = $p/@id
      return (insert { <buyer person="{$t/buyer/@person}"
                       itemid="{$t/itemref/@item}" /> }
              into { $purchasers }, $t)
    return <item person="{ $p/name }">{ count($a) }</item>|}

(* The served benchmark's Q8 (xqbench/workload.ml), verbatim: the
   fn:doc form, with an element-constructing return. *)
let served_q8 =
  {|for $p in doc("auction")//person let $a := for $t in doc("auction")//closed_auction where $t/buyer/@person = $p/@id return $t return <item person="{$p/name}">{count($a)}</item>|}

let detection =
  [
    tc "plain join is detected" `Quick (fun () ->
        let cres =
          plan_for ~pre:bind_x
            "for $a in $x/a for $b in $x/b where $a/@k = $b/@k return ($a, $b)"
        in
        check (Alcotest.list Alcotest.string) "fired" [ "hash-join" ]
          cres.Compile.fired;
        check Alcotest.bool "join in plan" true (Plan.has_join cres.Compile.plan));
    tc "outer-join/group-by is detected on the paper's Q8 variant" `Quick (fun () ->
        List.iter
          (fun src ->
            let cres =
              plan_for
                ~pre:(fun eng ->
                  Core.Engine.bind_node eng "auction"
                    (Core.Engine.load_document eng ~uri:"auction" "<site/>");
                  Core.Engine.bind_node eng "purchasers"
                    (Xqb_store.Store.load_string (Core.Engine.store eng) "<p/>"))
                src
            in
            check (Alcotest.list Alcotest.string) "fired" [ "outer-join-groupby" ]
              cres.Compile.fired)
          [ q8; served_q8 ]);
    tc "join key can be on either side" `Quick (fun () ->
        let cres =
          plan_for ~pre:bind_x
            "for $a in $x/a for $b in $x/b where $b/@k = $a/@k return 1"
        in
        check (Alcotest.list Alcotest.string) "fired" [ "hash-join" ]
          cres.Compile.fired);
    tc "dependent inner branch is not joined" `Quick (fun () ->
        let cres =
          plan_for ~pre:bind_x
            "for $a in $x/a for $b in $a/b where $a/@k = $b/@k return 1"
        in
        check (Alcotest.list Alcotest.string) "no fire" [] cres.Compile.fired);
    tc "non-equality predicate is not joined" `Quick (fun () ->
        let cres =
          plan_for ~pre:bind_x
            "for $a in $x/a for $b in $x/b where $a/@k < $b/@k return 1"
        in
        check (Alcotest.list Alcotest.string) "no fire" [] cres.Compile.fired);
    tc "explain shows the paper's plan shape" `Quick (fun () ->
        let eng = Core.Engine.create () in
        Core.Engine.bind_node eng "auction"
          (Xqb_store.Store.load_string (Core.Engine.store eng) "<site/>");
        Core.Engine.bind_node eng "purchasers"
          (Xqb_store.Store.load_string (Core.Engine.store eng) "<p/>");
        let s = Runner.explain eng q8 in
        List.iter
          (fun needle ->
            if not (Re.execp (Re.compile (Re.str needle)) s) then
              Alcotest.failf "explain misses %S:\n%s" needle s)
          [ "Snap"; "MapFromItem"; "GroupBy"; "LeftOuterJoin" ]);
  ]

let guards =
  [
    tc "updating inner branch blocks the join (cardinality guard)" `Quick
      (fun () ->
        let cres =
          plan_for ~pre:bind_x
            {|for $a in $x/a
              for $b in (insert {<l/>} into {$x}, $x/b)
              where $a/@k = $b/@k return 1|}
        in
        check Alcotest.bool "rejected" true
          (List.exists (fun (r, _) -> r = "hash-join") cres.Compile.rejected);
        check (Alcotest.list Alcotest.string) "not fired" [] cres.Compile.fired);
    tc "updating join key blocks the join" `Quick (fun () ->
        let cres =
          plan_for ~pre:bind_x
            {|for $a in $x/a
              for $b in $x/b
              where (insert {<l/>} into {$x}, $a/@k) = $b/@k return 1|}
        in
        check (Alcotest.list Alcotest.string) "not fired" [] cres.Compile.fired);
    tc "snap in the block pins evaluation (Effecting guard)" `Quick (fun () ->
        let cres =
          plan_for ~pre:bind_x
            {|for $a in $x/a
              for $b in $x/b
              where $a/@k = $b/@k
              return snap insert {<l/>} into {$x}|}
        in
        (match cres.Compile.plan with
        | Plan.Direct _ -> ()
        | p -> Alcotest.failf "expected Direct fallback, got %s" (Plan.explain p));
        check Alcotest.bool "reason recorded" true
          (List.exists (fun (_, why) -> why = "block contains a snap")
             cres.Compile.rejected));
    tc "updating return clause is allowed (the paper's point)" `Quick (fun () ->
        let cres =
          plan_for ~pre:bind_x
            {|for $a in $x/a
              for $b in $x/b
              where $a/@k = $b/@k
              return insert {<l/>} into {$x}|}
        in
        check (Alcotest.list Alcotest.string) "fired" [ "hash-join" ]
          cres.Compile.fired);
    tc "snap inside inner return blocks group-by" `Quick (fun () ->
        let cres =
          plan_for ~pre:bind_x
            {|for $a in $x/a
              let $g := for $b in $x/b where $a/@k = $b/@k
                        return snap insert {<l/>} into {$x}
              return count($g)|}
        in
        (* the whole block classifies Effecting, so the guard fires at
           the block level before group-by detection is even tried *)
        check Alcotest.bool "rejected for snap" true
          (List.exists
             (fun (_, why) ->
               why = "block contains a snap" || why = "inner return contains a snap")
             cres.Compile.rejected));
  ]

(* -- Equivalence: naive vs optimized ------------------------------- *)

let serialize_global eng name =
  Core.Engine.serialize eng (Option.get (Core.Engine.lookup_global eng name))

let equivalence_case name ?(persons = 30) ?(closed = 60) src =
  tc name `Quick (fun () ->
      let eng1 = xmark_engine ~persons ~closed () in
      Core.Engine.bind_node eng1 "sink"
        (Xqb_store.Store.load_string (Core.Engine.store eng1) "<sink/>");
      let v1 = Core.Engine.run eng1 src in
      let eng2 = xmark_engine ~persons ~closed () in
      Core.Engine.bind_node eng2 "sink"
        (Xqb_store.Store.load_string (Core.Engine.store eng2) "<sink/>");
      let r = Runner.run eng2 src in
      check Alcotest.string "values"
        (Core.Engine.serialize eng1 v1)
        (Core.Engine.serialize eng2 r.Runner.value);
      check Alcotest.string "effects"
        (serialize_global eng1 "sink")
        (serialize_global eng2 "sink"))

let equivalence =
  [
    equivalence_case "pure join"
      {|for $p in $auction//person
        for $t in $auction//closed_auction
        where $t/buyer/@person = $p/@id
        return concat($p/@id, ':', $t/itemref/@item)|};
    equivalence_case "join with updating return"
      {|for $p in $auction//person
        for $t in $auction//closed_auction
        where $t/buyer/@person = $p/@id
        return insert { <pair p="{$p/@id}" i="{$t/itemref/@item}"/> } into { $sink }|};
    equivalence_case "outer join group-by with count"
      {|for $p in $auction//person
        let $a := for $t in $auction//closed_auction
                  where $t/buyer/@person = $p/@id
                  return $t
        return <r id="{$p/@id}" n="{count($a)}"/>|};
    equivalence_case "the paper's Q8 variant (value + effects)"
      {|for $p in $auction//person
        let $a := for $t in $auction//closed_auction
                  where $t/buyer/@person = $p/@id
                  return (insert { <buyer person="{$t/buyer/@person}"/> }
                          into { $sink }, $t)
        return <item person="{ $p/name }">{ count($a) }</item>|};
    equivalence_case "sellers join (different key)"
      {|for $p in $auction//person
        for $t in $auction//closed_auction
        where $t/seller/@person = $p/@id
        return string($p/name)|};
    equivalence_case "pipeline without join still agrees"
      {|for $p in $auction//person
        where starts-with($p/name, 'A')
        return string($p/name)|};
  ]

(* qcheck: random small join queries agree between naive evaluation
   and the optimizer. Keys are chosen so matches actually occur. *)
let gen_join_query =
  let open QCheck2.Gen in
  let key = oneofl [ "@k"; "@j"; "text()" ] in
  let ret = oneofl [ "1"; "($a, $b)"; "concat($a/@k, '-', $b/@k)"; "name($b)" ] in
  let extra_where = oneofl [ ""; " where $a/@j = 'x'" ] in
  map3
    (fun k r w -> (k, r, w))
    key ret extra_where

let random_equivalence =
  qtest ~count:60 "random join queries agree" gen_join_query (fun (k, r, w) ->
      let src =
        Printf.sprintf
          "for $a in $x/a %s for $b in $x/b where $a/%s = $b/%s return %s" w k k r
      in
      let data =
        "<x><a k=\"1\" j=\"x\">1</a><a k=\"2\" j=\"y\">2</a><a k=\"1\" j=\"x\">3</a>\
         <b k=\"1\" j=\"x\">1</b><b k=\"3\" j=\"y\">2</b><b k=\"2\" j=\"x\">1</b></x>"
      in
      let mk () =
        let eng = Core.Engine.create () in
        Core.Engine.bind_node eng "x"
          (Xqb_store.Store.load_string (Core.Engine.store eng) data);
        eng
      in
      let eng1 = mk () in
      let v1 = Core.Engine.serialize eng1 (Core.Engine.run eng1 src) in
      let eng2 = mk () in
      let res = Runner.run eng2 src in
      let v2 = Core.Engine.serialize eng2 res.Runner.value in
      if v1 = v2 then true
      else QCheck2.Test.fail_reportf "query %s:@.naive: %s@.opt:   %s" src v1 v2)

(* Complexity: the optimized plan's probe count is linear, while the
   naive nested loop's work is quadratic. We assert the plan executes
   at most c*(L+R+matches) hash probes. *)
let complexity =
  [
    tc "join executes O(L + R + matches) probes" `Quick (fun () ->
        let eng = xmark_engine ~persons:60 ~closed:120 () in
        let r =
          Runner.run eng
            {|for $p in $auction//person
              for $t in $auction//closed_auction
              where $t/buyer/@person = $p/@id
              return 1|}
        in
        let stats = r.Runner.stats in
        (* each probe corresponds to one left-tuple key variant *)
        check Alcotest.bool "probes bounded" true
          (stats.Xqb_algebra.Exec.probes <= 2 * (60 + 120 + stats.Xqb_algebra.Exec.matches));
        check Alcotest.bool "found matches" true (stats.Xqb_algebra.Exec.matches > 0));
  ]

let suite =
  [
    ("optimizer:detection", detection);
    ("optimizer:guards", guards);
    ("optimizer:equivalence", equivalence);
    ("optimizer:random", [ random_equivalence ]);
    ("optimizer:complexity", complexity);
  ]

(* -- order-by through the algebra ------------------------------------ *)

let orderby_tests =
  [
    tc "order-by FLWOR with a join compiles to Sort over HashJoin" `Quick
      (fun () ->
        let cres =
          plan_for ~pre:bind_x
            {|for $a in $x/a
              for $b in $x/b
              where $a/@k = $b/@k
              order by string($a/@k) descending
              return concat($a/@k, $b/@k)|}
        in
        check (Alcotest.list Alcotest.string) "fired" [ "hash-join" ]
          cres.Compile.fired;
        (match cres.Compile.plan with
        | Plan.Map_from_tuple (Plan.Sort (t, [ _ ]), _) ->
          check Alcotest.bool "join below sort" true (Plan.has_join_t t)
        | p -> Alcotest.failf "unexpected plan: %s" (Plan.explain p)));
    equivalence_case "order-by join agrees with direct evaluation"
      {|for $p in $auction//person
        for $t in $auction//closed_auction
        where $t/buyer/@person = $p/@id
        order by string($p/name), string($t/itemref/@item) descending
        return concat($p/name, ':', $t/itemref/@item)|};
    equivalence_case "order-by with updating return agrees"
      {|for $p in $auction//person
        for $t in $auction//closed_auction
        where $t/buyer/@person = $p/@id
        order by string($p/name)
        return insert { <hit p="{$p/@id}"/> } into { $sink }|};
    equivalence_case "order-by without a join agrees"
      {|for $p in $auction//person
        order by string($p/name) descending
        return string($p/name)|};
    tc "snap inside an order-by block falls back to Direct" `Quick (fun () ->
        let cres =
          plan_for ~pre:bind_x
            {|for $a in $x/a
              order by name($a)
              return snap insert {<l/>} into {$x}|}
        in
        match cres.Compile.plan with
        | Plan.Direct _ -> ()
        | p -> Alcotest.failf "expected Direct, got %s" (Plan.explain p));
  ]

let suite = suite @ [ ("optimizer:order-by", orderby_tests) ]
