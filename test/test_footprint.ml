(* The static effects footprint (Core.Static.Footprint) and the
   footprint gate (Xqb_service.Rwlock) behind the scheduler.

   The contract under test, end to end:

   - inference: literal-doc plans get precise (document, path-prefix)
     regions; dynamic [fn:doc] URIs, upward axes and user functions
     widen to "any document" (inconclusive);
   - routing: the write set and whether the program emits updates
     pick the service route (fork / concurrent writer / exclusive) for
     every template the benchmark workloads send — constructing reads
     fork;
   - independence is *sound*: if two programs' footprints are
     independent, running them in either order produces identical
     stores (commutativity — the behavioral form of "no R1–R7
     conflict on any interleaving", checked by qcheck below);
   - inconclusive footprints fall back to exclusion: an any-document
     write region conflicts with every reader and writer, so the gate
     degrades to the old single-writer lock;
   - the gate itself: under 8 domains hammering two documents, no two
     conflicting footprints are ever admitted concurrently, while
     independent ones genuinely overlap. *)

open Helpers
module FP = Core.Static.Footprint
module RW = Xqb_service.Rwlock
module Engine = Core.Engine

(* Compile [src] against an engine with documents [da]/[db] loaded
   and return its inferred footprint. *)
let docs_xml = "<r><x><a>one</a></x><y><a>two</a></y></r>"

let fresh_engine () =
  let eng = Engine.create ~seed:77 () in
  List.iter
    (fun uri ->
      let d = Engine.load_document eng ~uri docs_xml in
      Engine.bind_node eng uri d)
    [ "da"; "db" ];
  eng

let fp_of src =
  let eng = fresh_engine () in
  let c = Engine.compile eng src in
  Engine.footprint
    ~var_docs:(fun v -> if v = "da" || v = "db" then Some v else None)
    c

let mentions_doc uri fp =
  List.exists (fun r -> r.FP.rdoc = FP.Named uri) fp.FP.reads

let route_t =
  Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt
        (match r with
        | FP.Fork -> "fork"
        | FP.Concurrent -> "concurrent writer"
        | FP.Exclusive -> "exclusive"))
    ( = )

(* The route the service takes for [src]: the judgement cached at
   compile time. *)
let route_of src =
  let c =
    Engine.compile
      ~var_docs:(fun v -> if v = "da" || v = "db" then Some v else None)
      (fresh_engine ()) src
  in
  let fp = c.Engine.footprint in
  let route = FP.route fp in
  (* a parallel-safe program forks; a forking one that is not
     parallel-safe writes only its own fresh nodes *)
  if Engine.parallel_safe c then check route_t ("parallel_safe forks: " ^ src) FP.Fork route;
  if route = FP.Fork && not (Engine.parallel_safe c) then
    check Alcotest.bool
      ("a fork that writes, writes only fresh nodes: " ^ src)
      true
      (List.for_all (fun r -> r.FP.rdoc = FP.Fresh) fp.FP.writes);
  route

(* Every request template the xqbench workloads send, plus the
   function-call and dynamic-URI edges of the judgement. *)
let routing_table =
  [
    (* xmark-read *)
    ({|doc("auction")//person[@id="person7"]/name/string()|}, FP.Fork);
    ({|doc("auction")//person[@id="person7"]/emailaddress/string()|}, FP.Fork);
    ({|doc("auction")//item[@id="item3"]/name/string()|}, FP.Fork);
    ({|count(doc("auction")//item[contains(description/text, "gold")])|}, FP.Fork);
    ({|doc("auction")//person[starts-with(name, "Kim ")]/name/string()|}, FP.Fork);
    ({|sum(doc("auction")//closed_auction[price >= 25]/price)|}, FP.Fork);
    ({|count(doc("auction")//open_auction[count(bidder) >= 2])|}, FP.Fork);
    ({|avg(doc("auction")//open_auction[count(bidder) = 2]/current)|}, FP.Fork);
    ( {|max(doc("auction")//open_auction[count(bidder) >= 1]/bidder/increase)|},
      FP.Fork );
    ( {|for $p in doc("auction")//person let $a := for $t in doc("auction")//closed_auction where $t/buyer/@person = $p/@id return $t return <item person="{$p/name}">{count($a)}</item>|},
      FP.Fork );
    (* weblog-write *)
    ( {|insert {<logentry id="c0-1" user="person3" itemid="item5"/>} into {doc("log0")/log}|},
      FP.Concurrent );
    ( {|(insert {<batch seq="c0-64" size="{count(doc("log0")/log/logentry)}"/>} into {doc("archive0")/archive}, delete {doc("log0")/log/logentry})|},
      FP.Concurrent );
    (* auction-mixed *)
    ( {|let $item := doc("auction")//item[@id="item3"] return (snap insert {<logentry user="{doc("auction")//person[@id="person5"]/name/string()}" itemid="item3"/>} into {doc("log")/log}, if (count(doc("log")/log/logentry) >= 64) then (snap insert {<batch size="{count(doc("log")/log/logentry)}"/>} into {doc("archive")/archive}, snap delete {doc("log")/log/logentry}) else (), $item/name/string())|},
      FP.Exclusive );
    ( {|replace value of node doc("auction")//open_auction[@id="open4"]/current with xs:integer(doc("auction")//open_auction[@id="open4"]/current) + 1|},
      FP.Concurrent );
    ({|doc("auction")//item[@id="item3"]/location/string()|}, FP.Fork);
    (* user functions: the callee's allocation and purity decide *)
    ( {|declare function local:twice($x) { 2 * $x }; local:twice(count(doc("da")//a))|},
      FP.Fork );
    ( {|declare function local:wrap($x) { <w>{$x}</w> }; local:wrap(count(doc("da")//a))|},
      FP.Fork );
    ( {|declare function local:hit() { insert {<hit/>} into {doc("da")/r} }; local:hit()|},
      FP.Exclusive );
    (* a URI known only at run time *)
    ( {|declare variable $u := "da"; insert {<hit/>} into {doc($u)/r}|},
      FP.Exclusive );
    (* an update on a node the job built itself *)
    ({|let $x := <x/> return insert {<a/>} into {$x}|}, FP.Concurrent);
  ]

let routing =
  tc "every served template takes its route" `Quick (fun () ->
      List.iter
        (fun (src, want) -> check route_t src want (route_of src))
        routing_table)

let inference =
  [
    tc "a literal-doc read is precise and write-free" `Quick (fun () ->
        let fp = fp_of "count(doc('da')//a)" in
        check Alcotest.bool "writes nothing" true (FP.writes_nothing fp);
        check Alcotest.bool "conclusive" true (FP.conclusive fp);
        check Alcotest.bool "names da" true (mentions_doc "da" fp));
    tc "host-bound $uri names its document" `Quick (fun () ->
        let fp = fp_of "count($da//a)" in
        check Alcotest.bool "conclusive" true (FP.conclusive fp);
        check Alcotest.bool "names da" true (mentions_doc "da" fp));
    tc "writers on distinct documents are independent" `Quick (fun () ->
        let w_a = fp_of "insert {<hit/>} into {doc('da')/r}" in
        let w_b = fp_of "insert {<hit/>} into {doc('db')/r}" in
        check Alcotest.bool "write regions present" false
          (FP.writes_nothing w_a);
        check Alcotest.bool "disjoint docs commute" true
          (FP.independent w_a w_b));
    tc "a writer conflicts with a reader of the same document" `Quick
      (fun () ->
        let w = fp_of "insert {<hit/>} into {doc('da')/r}" in
        let r = fp_of "count(doc('da')//a)" in
        check Alcotest.bool "same doc conflicts" false (FP.independent w r);
        let r' = fp_of "count(doc('db')//a)" in
        check Alcotest.bool "other doc is fine" true (FP.independent w r'));
    tc "disjoint subtrees of one document are independent" `Quick (fun () ->
        let w = fp_of "insert {<hit/>} into {doc('da')/r/x}" in
        let r = fp_of "string(doc('da')/r/y)" in
        check Alcotest.bool "sibling subtrees commute" true
          (FP.independent w r);
        let r_overlap = fp_of "string(doc('da')/r/x/a)" in
        check Alcotest.bool "nested read conflicts" false
          (FP.independent w r_overlap));
    tc "a dynamic doc URI is inconclusive" `Quick (fun () ->
        (* the URI comes out of the store, so no amount of constant
           propagation can name the document statically *)
        let fp = fp_of "count(doc(string(doc('da')/r/x/a))//a)" in
        check Alcotest.bool "not conclusive" false (FP.conclusive fp);
        let w = fp_of "insert {<hit/>} into {doc('db')/r}" in
        check Alcotest.bool "excludes every writer" false
          (FP.independent fp w));
    tc "a user function call widens to any document" `Quick (fun () ->
        let fp =
          fp_of
            "declare function local:f() { doc('da')//a }; count(local:f())"
        in
        check Alcotest.bool "not conclusive" false (FP.conclusive fp));
    tc "an inconclusive write excludes everything (fallback)" `Quick
      (fun () ->
        (* any-document write region: conflicts with every reader and
           writer, i.e. the gate degrades to the exclusive lock *)
        check Alcotest.bool "top vs read_all" false
          (FP.independent FP.top FP.read_all);
        check Alcotest.bool "top vs top" false (FP.independent FP.top FP.top);
        check Alcotest.bool "read/read always fine" true
          (FP.independent FP.read_all FP.read_all);
        let w = fp_of "insert {<hit/>} into {doc('da')/r}" in
        check Alcotest.bool "top vs a precise writer" false
          (FP.independent FP.top w));
    tc "node allocation writes only the job's fresh region" `Quick (fun () ->
        let c = fp_of "<a>{count(doc('da')//a)}</a>" in
        check Alcotest.bool "allocation is a write" false (FP.writes_nothing c);
        check Alcotest.bool "conclusive" true (FP.conclusive c);
        (* admission is unchanged: fresh regions overlap nothing *)
        check Alcotest.bool "vs a reader of the same doc" true
          (FP.independent c (fp_of "count(doc('da')//a)"));
        check Alcotest.bool "vs another allocating job" true
          (FP.independent c (fp_of "<b/>"));
        check Alcotest.bool "vs a writer elsewhere" true
          (FP.independent c (fp_of "insert {<hit/>} into {doc('db')/r}")));
    tc "trace passes its input through" `Quick (fun () ->
        let fp = fp_of "delete {trace(doc('da')/r/x, 'gone')}" in
        check Alcotest.bool "writes da" true
          (List.exists (fun r -> r.FP.rdoc = FP.Named "da") fp.FP.writes));
    routing;
  ]

(* -- soundness: independent footprints commute ----------------------- *)

(* A small pool of programs with statically analyzable and
   deliberately overlapping shapes: single-request updates and reads
   over two documents and two sibling subtrees, plus a dynamic-URI
   variant the analysis must refuse to approve. *)
let pool =
  [
    "insert {<hit/>} into {doc('da')/r/x}";
    "insert {<hit/>} into {doc('da')/r/y}";
    "insert {<hit/>} into {doc('db')/r/x}";
    "delete {doc('da')/r/x/a}";
    "delete {doc('db')/r/y}";
    "rename {(doc('da')/r/y)[1]} to {'z'}";
    "count(doc('da')//a)";
    "string(doc('da')/r/y)";
    "string(doc('db')/r/x)";
    "count(doc('db')//a)";
    "count(doc(string(doc('da')/r/x/a))//a)";
  ]

let state eng =
  String.concat "|"
    (List.map
       (fun uri -> Engine.serialize eng (Engine.run eng ("doc('" ^ uri ^ "')")))
       [ "da"; "db" ])

(* Run [a] then [b] on a fresh store; outcomes (including errors) and
   the final store state are both part of the observation. *)
let run_pair a b =
  let eng = fresh_engine () in
  let go src =
    match Engine.run eng src with
    | v -> Ok (Engine.serialize eng v)
    | exception e -> Error (Printexc.to_string e)
  in
  let oa = go a in
  let ob = go b in
  (oa, ob, state eng)

let var_docs v = if v = "da" || v = "db" then Some v else None

let fp_cache = Hashtbl.create 16

let footprint_of src =
  match Hashtbl.find_opt fp_cache src with
  | Some fp -> fp
  | None ->
    let eng = fresh_engine () in
    let fp = Engine.footprint ~var_docs (Engine.compile eng src) in
    Hashtbl.add fp_cache src fp;
    fp

let commute =
  qtest ~count:200 "independent footprints commute (both orders agree)"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 0 100000))
    (fun (i, j) ->
      let a = List.nth pool (i mod List.length pool) in
      let b = List.nth pool (j mod List.length pool) in
      if not (FP.independent (footprint_of a) (footprint_of b)) then true
        (* conflicting footprints serialize in the gate; nothing to
           check here *)
      else begin
        let oa1, ob1, s1 = run_pair a b in
        let ob2, oa2, s2 = run_pair b a in
        if oa1 = oa2 && ob1 = ob2 && s1 = s2 then true
        else
          QCheck2.Test.fail_reportf
            "independent plans did not commute:@.A: %s@.B: %s@.store A;B: \
             %s@.store B;A: %s"
            a b s1 s2
      end)

(* -- the gate under contention ---------------------------------------- *)

(* 8 domains over two documents: per-document reader/writer counters
   (guarded by a plain mutex) assert the gate's invariant — never two
   conflicting footprints admitted at once — while cross-document
   pairs are free to overlap. *)
let gate_smoke =
  tc "footprint gate linearizability smoke (8 domains)" `Slow (fun () ->
      let g = RW.create () in
      let reg d = { FP.rdoc = FP.Named d; rpath = []; ranchored = true } in
      let wfp d = { FP.reads = [ reg d ]; writes = [ reg d ]; updates = true } in
      let rfp d = { FP.reads = [ reg d ]; writes = []; updates = false } in
      let m = Mutex.create () in
      let writers = [| 0; 0 |] and readers = [| 0; 0 |] in
      let violations = ref [] in
      let enter i is_writer =
        Mutex.lock m;
        if is_writer then begin
          if writers.(i) > 0 then
            violations := "two writers on one doc" :: !violations;
          if readers.(i) > 0 then
            violations := "writer admitted over readers" :: !violations;
          writers.(i) <- writers.(i) + 1
        end
        else begin
          if writers.(i) > 0 then
            violations := "reader admitted over a writer" :: !violations;
          readers.(i) <- readers.(i) + 1
        end;
        Mutex.unlock m
      in
      let leave i is_writer =
        Mutex.lock m;
        if is_writer then writers.(i) <- writers.(i) - 1
        else readers.(i) <- readers.(i) - 1;
        Mutex.unlock m
      in
      let work (doc_idx, is_writer) () =
        let fp =
          let d = if doc_idx = 0 then "d0" else "d1" in
          if is_writer then wfp d else rfp d
        in
        for _ = 1 to 40 do
          RW.with_footprint g fp (fun () ->
              enter doc_idx is_writer;
              Unix.sleepf 0.0005;
              leave doc_idx is_writer)
        done
      in
      let roles =
        [
          (0, true); (1, true); (0, false); (1, false);
          (0, false); (1, false); (0, true); (1, true);
        ]
      in
      let ds = List.map (fun r -> Domain.spawn (work r)) roles in
      List.iter Domain.join ds;
      check
        Alcotest.(list string)
        "no admission violations" [] !violations;
      (* independent footprints really do overlap: with readers on
         both documents and writers on both documents, the peak must
         exceed one admitted job *)
      check Alcotest.bool "concurrency happened" true (RW.peak g > 1))

let suite =
  [
    ("footprint:inference", inference);
    ("footprint:soundness", [ commute ]);
    ("footprint:gate", [ gate_smoke ]);
  ]
