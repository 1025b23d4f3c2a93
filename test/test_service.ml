(* The query service layer (lib/service): sessions over a shared
   document catalog, the cross-session plan cache, and the
   purity-gated scheduler. Scheduler tests run the same workload with
   domains=0 (synchronous) and domains=4 and require identical
   results. *)

open Helpers
module Svc = Xqb_service.Service
module Catalog = Xqb_service.Catalog
module Metrics = Xqb_service.Metrics
module Sched = Xqb_service.Scheduler
module PC = Xqb_service.Plan_cache
module SE = Xqb_service.Service_error
module FP = Core.Static.Footprint

let ok = function
  | Ok s -> s
  | Error e -> Alcotest.failf "query failed: %s" (SE.to_string e)

let err = function
  | Ok s -> Alcotest.failf "expected an error, got %S" s
  | Error (e : SE.t) -> e

let kind_t =
  Alcotest.testable
    (fun fmt k -> Format.pp_print_string fmt (SE.kind_to_string k))
    ( = )

(* Expect a failure of the given taxonomy kind. *)
let errk name expected r = check kind_t name expected (err r).SE.kind

let with_service ?(domains = 0) ?cache_capacity ?deadline_ms ?fuel ?max_delta
    ?max_queue ?slow_apply_ms f =
  let svc =
    Svc.create ~domains ?cache_capacity ?deadline_ms ?fuel ?max_delta
      ?max_queue ?slow_apply_ms ()
  in
  Fun.protect ~finally:(fun () -> Svc.shutdown svc) (fun () -> f svc)

(* A few seconds of pure evaluation when ungoverned — long enough
   that deadlines and cancellation deterministically beat it, and it
   classifies parallel-safe (no construction), so it exercises the
   read side. *)
let slow_pure =
  "sum(for $i in 1 to 2000 return count(for $j in 1 to 2000 return $j))"

let doc_xml = "<r><a>1</a><a>2</a><b>x</b></r>"

let sessions =
  [
    tc "functions are per-session" `Quick (fun () ->
        with_service (fun svc ->
            let s1 = Svc.open_session svc and s2 = Svc.open_session svc in
            check Alcotest.string "declare+call" "42"
              (ok (Svc.query svc s1 "declare function fortytwo() { 42 }; fortytwo()"));
            (* s2 never saw the declaration *)
            ignore (err (Svc.query svc s2 "fortytwo()"))));
    tc "globals are per-session" `Quick (fun () ->
        with_service (fun svc ->
            let s1 = Svc.open_session svc and s2 = Svc.open_session svc in
            check Alcotest.string "declare" "7"
              (ok (Svc.query svc s1 "declare variable $g := 7; $g"));
            ignore (err (Svc.query svc s2 "$g"))));
    tc "documents load once and are shared" `Quick (fun () ->
        with_service (fun svc ->
            let s1 = Svc.open_session svc and s2 = Svc.open_session svc in
            Svc.load_document svc s1 ~uri:"d" doc_xml;
            (* second load of the same uri reuses the resident tree *)
            Svc.load_document svc s2 ~uri:"d" "<r><a>only-one</a></r>";
            check Alcotest.string "s2 sees the first load" "2"
              (ok (Svc.query svc s2 {|count($d//a)|}));
            check Alcotest.int "refcounted twice" 2
              (Catalog.refcount (Svc.catalog svc) "d");
            Svc.close_session svc s1;
            check Alcotest.int "release on close" 1
              (Catalog.refcount (Svc.catalog svc) "d");
            Svc.close_session svc s2;
            check Alcotest.bool "evicted at zero" true
              (Catalog.find (Svc.catalog svc) "d" = None)));
    tc "fn:doc resolves across sessions" `Quick (fun () ->
        with_service (fun svc ->
            let s1 = Svc.open_session svc in
            Svc.load_document svc s1 ~uri:"d" doc_xml;
            (* s2 never loaded anything: resolution goes through the
               shared catalog *)
            let s2 = Svc.open_session svc in
            check Alcotest.string "doc() from the catalog" "2"
              (ok (Svc.query svc s2 {|count(doc("d")//a)|}))));
    tc "unknown session is an error" `Quick (fun () ->
        with_service (fun svc ->
            match Svc.query svc 999 "1" with
            | exception Failure _ -> ()
            | _ -> Alcotest.fail "expected Failure"));
  ]

let plan_cache =
  [
    tc "whitespace-insensitive cross-session hits" `Quick (fun () ->
        with_service (fun svc ->
            let s1 = Svc.open_session svc and s2 = Svc.open_session svc in
            check Alcotest.string "miss" "2" (ok (Svc.query svc s1 "1 + 1"));
            check Alcotest.string "hit" "2"
              (ok (Svc.query svc s2 "1    +\n  1"));
            let st = Svc.cache_stats svc in
            check Alcotest.int "hits" 1 st.PC.hits;
            check Alcotest.int "misses" 1 st.PC.misses));
    tc "QUERY serves the cached algebra plan: Q8 runs as an outer join"
      `Quick (fun () ->
        let xml =
          Xqb_xmark.Generator.to_xml
            { Xqb_xmark.Generator.default with persons = 12; closed_auctions = 20 }
        in
        let q8 = Test_optimizer.served_q8 in
        let oracle =
          let eng = Core.Engine.create () in
          ignore (Core.Engine.load_document eng ~uri:"auction" xml);
          Core.Engine.serialize eng (Core.Engine.run eng q8)
        in
        with_service (fun svc ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"auction" xml;
            check Alcotest.string "served = interpreter" oracle
              (ok (Svc.query svc s q8));
            let hits = (Svc.cache_stats svc).PC.hits in
            let rendered = ok (Svc.explain svc s q8) in
            check Alcotest.int "EXPLAIN hits the served plan" (hits + 1)
              (Svc.cache_stats svc).PC.hits;
            List.iter
              (fun needle ->
                if not (Re.execp (Re.compile (Re.str needle)) rendered) then
                  Alcotest.failf "EXPLAIN misses %S:\n%s" needle rendered)
              [ "GroupBy"; "LeftOuterJoin"; "matches=" ]));
    tc "cached plans carry function declarations" `Quick (fun () ->
        with_service (fun svc ->
            let src = "declare function sq($x) { $x * $x }; sq(3)" in
            let s1 = Svc.open_session svc and s2 = Svc.open_session svc in
            check Alcotest.string "compile" "9" (ok (Svc.query svc s1 src));
            (* the hit installs sq into s2, so the cached body runs *)
            check Alcotest.string "cache hit" "9" (ok (Svc.query svc s2 src));
            check Alcotest.int "was a hit" 1 (Svc.cache_stats svc).PC.hits));
    tc "distinct string literals share a shape, never a value" `Quick (fun () ->
        (* Regression: normalize_key used to collapse whitespace
           inside literals, so string-length("a b") and
           string-length("a  b") shared a key and the second query
           was answered with the first one's plan — literal baked in.
           Shape keys share the plan on purpose, but the literal is a
           parameter whose value comes from each request. *)
        with_service (fun svc ->
            let s = Svc.open_session svc in
            check Alcotest.string "one space" "3"
              (ok (Svc.query svc s {|string-length("a b")|}));
            check Alcotest.string "two spaces" "4"
              (ok (Svc.query svc s {|string-length("a  b")|}));
            let st = Svc.cache_stats svc in
            check Alcotest.int "one compile" 1 st.PC.misses;
            check Alcotest.int "shape hit" 1 st.PC.hits;
            check Alcotest.int "one entry, holding a parameter" 1 st.PC.shapes));
    tc "normalize_key is literal- and comment-aware" `Quick (fun () ->
        let n = PC.normalize_key in
        check Alcotest.string "collapses code whitespace" "1 + 1"
          (n "1   +\n\t 1");
        check Alcotest.string "preserves single-quoted body" "'a  b'"
          (n "'a  b'");
        check Alcotest.string "code around a literal still collapses"
          "concat( 'a  b' , 'c' )"
          (n "concat( 'a  b' ,  'c' )");
        check Alcotest.string "double quotes too" {|x eq "a  b"|}
          (n {|x   eq  "a  b"|});
        check Alcotest.string "doubled-quote escape stays in the literal"
          {|"he said ""hi  there"""|}
          (n {|"he said ""hi  there"""|});
        check Alcotest.string "comments are preserved verbatim"
          "1 (: two  spaces (: nested :) kept :) + 1"
          (n "1  (: two  spaces (: nested :) kept :)  + 1");
        check Alcotest.string "lone paren is still code" "( 1 )"
          (n "(  1  )"));
    tc "bounded LRU evicts" `Quick (fun () ->
        with_service ~cache_capacity:2 (fun svc ->
            let s = Svc.open_session svc in
            ignore (ok (Svc.query svc s "1"));
            ignore (ok (Svc.query svc s "2"));
            ignore (ok (Svc.query svc s "3"));
            let st = Svc.cache_stats svc in
            check Alcotest.bool "evicted" true (st.PC.evictions >= 1);
            check Alcotest.bool "bounded" true (st.PC.size <= 2);
            (* "1" was least recently used: re-running it is a miss *)
            let misses = st.PC.misses in
            ignore (ok (Svc.query svc s "1"));
            check Alcotest.int "re-miss after eviction" (misses + 1)
              (Svc.cache_stats svc).PC.misses));
  ]

let reads =
  [|
    {|count(doc("d")//a)|};
    {|count(for $x in doc("d")//a where $x = "1" return $x)|};
    {|count(doc("d")//b) + count(doc("d")//a)|};
  |]

(* Pure-only workload: with no writers, results are independent of
   scheduling, so the 4-domain run must match the synchronous one
   exactly, entry for entry. *)
let pure_workload svc =
  let s1 = Svc.open_session svc and s2 = Svc.open_session svc in
  Svc.load_document svc s1 ~uri:"d" doc_xml;
  let jobs =
    List.init 20 (fun i ->
        ((if i mod 2 = 0 then s1 else s2), reads.(i mod 3)))
  in
  let futs = List.map (fun (sid, q) -> Svc.submit svc sid q) jobs in
  List.map (fun f -> ok (Sched.await_exn f)) futs

(* Mixed workload: one insert every 5th query. Read/write
   *interleaving* is scheduler-dependent (a read may run before or
   after a concurrent insert — exactly the latitude the paper's
   semantics give a store shared between clients), but the final
   store state is not: every insert must land. *)
let mixed_workload svc =
  let s1 = Svc.open_session svc and s2 = Svc.open_session svc in
  Svc.load_document svc s1 ~uri:"d" doc_xml;
  Svc.load_document svc s1 ~uri:"log" "<log/>";
  let jobs =
    List.init 20 (fun i ->
        let sid = if i mod 2 = 0 then s1 else s2 in
        if i mod 5 = 0 then
          (sid, Printf.sprintf {|insert {element hit {%d}} into {doc("log")/log}|} i)
        else (sid, reads.(i mod 3)))
  in
  let futs = List.map (fun (sid, q) -> Svc.submit svc sid q) jobs in
  List.iter (fun f -> ignore (ok (Sched.await_exn f))) futs;
  ok (Svc.query svc s1 {|count(doc("log")/log/hit)|})

let scheduler =
  [
    tc "reads take the fork route, constructing ones too; updates do not"
      `Quick (fun () ->
        with_service (fun svc ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"d" doc_xml;
            let nodes () = Xqb_store.Store.node_count (Catalog.store (Svc.catalog svc)) in
            ignore (ok (Svc.query svc s {|count(doc("d")//a)|}));
            let before = nodes () in
            (* Pure but allocating (constructor): writes nothing shared,
               so it forks, and its nodes live in a scratch overlay *)
            check Alcotest.string "constructed" "<a>2</a>"
              (ok (Svc.query svc s {|<a>{count(doc("d")//a)}</a>|}));
            check Alcotest.int "shared store unchanged" before (nodes ());
            ignore (ok (Svc.query svc s {|insert {<hit/>} into {doc("d")/r}|}));
            let c = Metrics.counts (Svc.metrics svc) in
            check Alcotest.int "fork" 2 c.Metrics.fork;
            check Alcotest.int "concurrent" 1 c.Metrics.concurrent;
            check Alcotest.int "exclusive" 0 c.Metrics.exclusive));
    tc "replica fence: constructor and pure function reads served, updates rejected"
      `Quick (fun () ->
        let svc = Svc.create ~domains:0 ~replica:true () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            let s = Svc.open_session svc in
            check Alcotest.string "constructor read" "<a></a>"
              (ok (Svc.query svc s "<a/>"));
            let e = err (Svc.query svc s "let $x := <x/> return insert {<a/>} into {$x}") in
            check Alcotest.bool "fence message" true
              (Re.execp (Re.compile (Re.str "read-only replica")) e.SE.message);
            check Alcotest.string "pure function read" "4"
              (ok
                 (Svc.query svc s
                    "declare function local:twice($x) { 2 * $x }; local:twice(2)"))));
    tc "concurrent pure queries match sequential results" `Quick (fun () ->
        let seq = with_service ~domains:0 pure_workload in
        let par = with_service ~domains:4 pure_workload in
        check Alcotest.(list string) "identical results" seq par);
    tc "every update lands under the 4-domain pool" `Quick (fun () ->
        with_service ~domains:4 (fun svc ->
            let final = mixed_workload svc in
            check Alcotest.string "4 inserts applied" "4" final;
            let c = Metrics.counts (Svc.metrics svc) in
            check Alcotest.int "queries" 21 c.Metrics.queries;
            check Alcotest.int "errors" 0 c.Metrics.errors;
            (* 4 inserts run as concurrent writers; reads + the final
               count fork *)
            check Alcotest.int "concurrent" 4 c.Metrics.concurrent;
            check Alcotest.int "exclusive" 0 c.Metrics.exclusive;
            check Alcotest.int "fork" 17 c.Metrics.fork));
    tc "errors are reported, service stays usable" `Quick (fun () ->
        with_service ~domains:2 (fun svc ->
            let s = Svc.open_session svc in
            ignore (err (Svc.query svc s "1 +"));  (* parse error *)
            ignore (err (Svc.query svc s "$nope"));  (* static error *)
            check Alcotest.string "still alive" "2"
              (ok (Svc.query svc s "1 + 1"))));
  ]

(* Resource governance: budgets (fuel / wall-clock deadline /
   pending-∆ cap) kill runaway queries with structured [Timeout]
   errors, cancellation kills them with [Cancelled], and in every
   case the store is left unchanged and the service stays usable. *)
let governance =
  [
    tc "fuel exhaustion is a timeout; service stays usable" `Quick (fun () ->
        (* the second program is served as a hash-join plan: its
           leaves burn the fuel *)
        let runaway =
          [
            slow_pure;
            "for $i in 1 to 20000 for $j in 1 to 20000 where $i = $j return $j";
          ]
        in
        with_service ~fuel:10_000 (fun svc ->
            let s = Svc.open_session svc in
            List.iter
              (fun src ->
                errk "fuel" SE.Timeout (Svc.query svc s src);
                check Alcotest.string "next query fine" "2"
                  (ok (Svc.query svc s "1 + 1")))
              runaway;
            let by_kind = Metrics.errors_by_kind (Svc.metrics svc) in
            check Alcotest.int "counted as timeout" (List.length runaway)
              (List.assoc SE.Timeout by_kind)));
    tc "wall-clock deadline fires well before the query would finish"
      `Quick (fun () ->
        with_service ~deadline_ms:100 (fun svc ->
            let s = Svc.open_session svc in
            let t0 = Unix.gettimeofday () in
            errk "deadline" SE.Timeout (Svc.query svc s slow_pure);
            let elapsed = Unix.gettimeofday () -. t0 in
            (* Ungoverned this runs for seconds; the 100ms budget plus
               generous scheduling slack must beat that. *)
            check Alcotest.bool "killed promptly" true (elapsed < 3.0);
            check Alcotest.string "still alive" "4"
              (ok (Svc.query svc s "2 + 2"))));
    tc "pending-delta cap rejects oversized snap frames, store unchanged"
      `Quick (fun () ->
        with_service ~max_delta:10 (fun svc ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"d" doc_xml;
            errk "delta cap" SE.Timeout
              (Svc.query svc s
                 {|snap { for $i in 1 to 100
                          return insert {<z/>} into {doc("d")/r} }|});
            check Alcotest.string "no partial insert" "0"
              (ok (Svc.query svc s {|count(doc("d")//z)|}))));
    tc "a timed-out update rolls back effects already applied" `Quick
      (fun () ->
        with_service ~deadline_ms:100 (fun svc ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"d" doc_xml;
            (* The snap closes (and applies the insert) long before
               the deadline kills the slow tail; the write side runs
               inside a store transaction, so the probe is undone. *)
            errk "killed after snap" SE.Timeout
              (Svc.query svc s
                 (Printf.sprintf
                    {|(snap insert {<probe/>} into {doc("d")/r}, %s)|}
                    slow_pure));
            check Alcotest.string "probe rolled back" "0"
              (ok (Svc.query svc s {|count(doc("d")//probe)|})));
        (* The same under a mix: poison updates (a never-matching
           nested loop whose every iteration would insert) submitted
           between tiny pure reads. Each poison dies as [Timeout],
           every read succeeds, and no poison insert survives. Four
           domains keep two free for the reads while the two poisons
           hold theirs. *)
        with_service ~domains:4 ~deadline_ms:100 (fun svc ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"d" doc_xml;
            Svc.load_document svc s ~uri:"log" "<log/>";
            let poison =
              {|for $i in 1 to 3000 for $j in 1 to 3000 where $j lt 0
                return insert {<z/>} into {doc("log")/log}|}
            in
            let poisons = ref [] in
            for i = 1 to 20 do
              if i mod 10 = 1 then
                poisons := Svc.submit svc s poison :: !poisons;
              check Alcotest.string "good read" "3"
                (ok (Svc.query svc s {|count(doc("d")//a) + count(doc("d")//b)|}))
            done;
            List.iter (fun f -> errk "poison" SE.Timeout (Svc.await f)) !poisons;
            check Alcotest.string "no poison insert" "0"
              (ok (Svc.query svc s {|count(doc("log")/log/z)|}))));
    tc "a dynamic-URI update killed after its first apply rolls back" `Quick
      (fun () ->
        (* No explicit snap, but the URI is only known at run time:
           a ⊤ footprint, so the job takes the exclusive route. Each
           global applies in its own implicit snap; fuel runs out in
           the second, and the whole-job transaction undoes the
           first's insert. *)
        with_service ~fuel:10_000 (fun svc ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"d" doc_xml;
            errk "fuel" SE.Timeout
              (Svc.query svc s
                 (Printf.sprintf
                    {|declare variable $u := "d";
                      declare variable $first := insert {<probe/>} into {doc($u)/r};
                      declare variable $second :=
                        (insert {<probe/>} into {doc($u)/r}, %s);
                      ()|}
                    slow_pure));
            check Alcotest.string "store unchanged" "0"
              (ok (Svc.query svc s {|count(doc("d")//probe)|}))));
    tc "cancel kills an in-flight job with [Cancelled]" `Quick (fun () ->
        with_service ~domains:2 (fun svc ->
            let s = Svc.open_session svc in
            let jid, fut = Svc.submit_job svc s slow_pure in
            check Alcotest.bool "job found" true (Svc.cancel svc jid);
            errk "cancelled" SE.Cancelled (Svc.await fut);
            check Alcotest.bool "idempotent miss after completion" false
              (Svc.cancel svc jid);
            check Alcotest.string "service survives" "2"
              (ok (Svc.query svc s "1 + 1"));
            let by_kind = Metrics.errors_by_kind (Svc.metrics svc) in
            check Alcotest.int "counted as cancelled" 1
              (List.assoc SE.Cancelled by_kind)));
    tc "cli-style budget: Engine.with_budget kills a bare engine query"
      `Quick (fun () ->
        (* What bin/xqbang --fuel does, without the service layer. *)
        let eng = Core.Engine.create () in
        let budget = Xqb_governor.Budget.create ~fuel:5_000 () in
        match
          Core.Engine.with_budget eng (Some budget) (fun () ->
              Core.Engine.run eng slow_pure)
        with
        | _ -> Alcotest.fail "expected Budget_exceeded"
        | exception Xqb_governor.Budget.Budget_exceeded
            Xqb_governor.Budget.Fuel ->
            ());
  ]

let wait_for_drain sched =
  (* Spin until the worker has picked up the queued job. *)
  let rec go n =
    if n = 0 then Alcotest.fail "queue never drained"
    else if Sched.queue_depth sched > 0 then (
      Thread.delay 0.005;
      go (n - 1))
  in
  go 1000

(* Admission control and shutdown semantics, at both the service and
   the raw scheduler level. *)
let admission =
  [
    tc "queue over the watermark is rejected as [Overloaded]" `Quick
      (fun () ->
        with_service ~domains:1 ~max_queue:1 (fun svc ->
            let s = Svc.open_session svc in
            let jid1, f1 = Svc.submit_job svc s slow_pure in
            (* Wait until the worker holds job 1, so job 2 is the only
               queued entry and job 3 trips the watermark. *)
            wait_for_drain (Svc.scheduler svc);
            let _, f2 = Svc.submit_job svc s "1 + 1" in
            let _, f3 = Svc.submit_job svc s "2 + 2" in
            errk "rejected" SE.Overloaded (Svc.await f3);
            (* Don't sit through the slow job: cancel it. *)
            check Alcotest.bool "cancelled the hog" true (Svc.cancel svc jid1);
            errk "hog dies cancelled" SE.Cancelled (Svc.await f1);
            check Alcotest.string "queued job still ran" "2"
              (ok (Svc.await f2));
            let by_kind = Metrics.errors_by_kind (Svc.metrics svc) in
            check Alcotest.int "overload counted" 1
              (List.assoc SE.Overloaded by_kind)));
    tc "submit after shutdown fails uniformly (service, domains 0 and 4)"
      `Quick (fun () ->
        List.iter
          (fun domains ->
            let svc = Svc.create ~domains () in
            let s = Svc.open_session svc in
            Svc.shutdown svc;
            errk
              (Printf.sprintf "domains=%d" domains)
              SE.Overloaded
              (Svc.query svc s "1 + 1"))
          [ 0; 4 ]);
    tc "submit after shutdown raises uniformly (scheduler, domains 0 and 4)"
      `Quick (fun () ->
        (* The domains=0 synchronous path used to ignore [stopping]
           and happily run jobs after shutdown; both configurations
           must now agree. *)
        List.iter
          (fun domains ->
            let sched = Sched.create ~domains () in
            Sched.shutdown sched;
            match Sched.submit sched ~footprint:FP.read_all (fun () -> 42) with
            | _ ->
                Alcotest.failf "domains=%d accepted work after shutdown"
                  domains
            | exception Sched.Shut_down -> ())
          [ 0; 4 ]);
    tc "queue-time deadline: expired jobs never run" `Quick (fun () ->
        let sched = Sched.create ~domains:1 () in
        Fun.protect
          ~finally:(fun () -> Sched.shutdown sched)
          (fun () ->
            let f1 =
              Sched.submit sched ~footprint:FP.read_all (fun () ->
                  Unix.sleepf 0.25;
                  "slow done")
            in
            wait_for_drain sched;
            let aborted = ref false in
            let f2 =
              Sched.submit sched
                ~deadline:(Xqb_obs.Clock.now_ns () + 50_000_000)
                ~on_abort:(fun _ -> aborted := true)
                ~footprint:FP.read_all
                (fun () -> "should never run")
            in
            (match Sched.await f2 with
            | Error Sched.Expired_in_queue -> ()
            | Ok s -> Alcotest.failf "expired job ran: %s" s
            | Error e -> raise e);
            check Alcotest.bool "on_abort fired" true !aborted;
            check Alcotest.string "first job unaffected" "slow done"
              (Sched.await_exn f1)));
    tc "queue-time deadline: domains=0 agrees with the pool" `Quick (fun () ->
        (* regression: the synchronous path used to ignore [deadline]
           entirely — an already-expired job still executed, diverging
           from the pool's [Expired_in_queue] abort *)
        let sched = Sched.create ~domains:0 () in
        Fun.protect
          ~finally:(fun () -> Sched.shutdown sched)
          (fun () ->
            let ran = ref false and aborted = ref false in
            let f =
              Sched.submit sched
                ~deadline:(Xqb_obs.Clock.now_ns () - 1)
                ~on_abort:(fun _ -> aborted := true)
                ~footprint:FP.read_all
                (fun () -> ran := true)
            in
            (match Sched.await f with
            | Error Sched.Expired_in_queue -> ()
            | Ok () -> Alcotest.fail "expired job executed on the sync path"
            | Error e -> raise e);
            check Alcotest.bool "job body never ran" false !ran;
            check Alcotest.bool "on_abort fired" true !aborted));
    tc "expired jobs get a tagged queue.wait span, not phantom execution"
      `Quick (fun () ->
        (* regression: worker_loop used to emit the plain queue.wait
           span for jobs it then aborted as expired, so traces showed
           execution of work that never ran *)
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        let sched = Sched.create ~domains:1 () in
        Fun.protect
          ~finally:(fun () -> Sched.shutdown sched)
          (fun () ->
            let tr_hog = Xqb_obs.Trace.create () in
            let f0 =
              Sched.submit sched
                ~stages:(Xqb_obs.Stage.create ~tracer:tr_hog ())
                ~footprint:FP.read_all (fun () ->
                  Unix.sleepf 0.15)
            in
            wait_for_drain sched;
            let tr = Xqb_obs.Trace.create () in
            let f =
              Sched.submit sched
                ~stages:(Xqb_obs.Stage.create ~tracer:tr ())
                ~deadline:(Xqb_obs.Clock.now_ns () + 20_000_000)
                ~footprint:FP.read_all
                (fun () -> ())
            in
            (match Sched.await f with
            | Error Sched.Expired_in_queue -> ()
            | Ok () -> Alcotest.fail "job should have expired behind the hog"
            | Error e -> raise e);
            ignore (Sched.await_exn f0);
            check Alcotest.bool "expired span is tagged" true
              (contains (Xqb_obs.Trace.to_chrome_json tr) "expired");
            check Alcotest.bool "a run job's span is untagged" false
              (contains (Xqb_obs.Trace.to_chrome_json tr_hog) "expired")));
    tc "deadlined shutdown abandons still-queued jobs" `Quick (fun () ->
        let sched = Sched.create ~domains:1 () in
        let f1 =
          Sched.submit sched ~footprint:FP.read_all (fun () ->
              Unix.sleepf 0.3;
              "ran")
        in
        wait_for_drain sched;
        let f2 = Sched.submit sched ~footprint:FP.read_all (fun () -> "queued") in
        let t0 = Unix.gettimeofday () in
        Sched.shutdown ~deadline:0.05 sched;
        check Alcotest.bool "did not drain-wait for the runner" true
          (Unix.gettimeofday () -. t0 < 2.0);
        (match Sched.await f2 with
        | Error Sched.Shut_down -> ()
        | Ok s -> Alcotest.failf "abandoned job ran: %s" s
        | Error e -> raise e);
        check Alcotest.string "running job completed" "ran"
          (Sched.await_exn f1));
  ]

(* -- effect observability: DELTA, SLOWLOG, METRICS PROM ------------- *)

module J = Xqb_obs.Json
module Proto = Xqb_service.Protocol

let num_at v path =
  match Option.bind (J.path v path) J.to_float_opt with
  | Some f -> int_of_float f
  | None -> Alcotest.failf "missing %s" (String.concat "." path)

(* A SLOWLOG entry's [stages_ns] object as (stage, ns) pairs. *)
let stage_split e =
  match J.member "stages_ns" e with
  | Some (J.Obj fields) ->
    List.map
      (fun (k, v) ->
        match J.to_float_opt v with
        | Some f -> (k, int_of_float f)
        | None -> Alcotest.failf "stages_ns.%s is not a number" k)
      fields
  | _ -> Alcotest.fail "stages_ns missing"

let updating_query =
  {|let $x := <x><a/></x>
    return (snap { insert {<b/>} into {$x},
                   insert {<c/>} into {$x},
                   delete {$x/a} },
            count($x/*))|}

let observability =
  [
    tc "index builds: a bid keeps the index, an element insert rebuilds it"
      `Quick (fun () ->
        let xml =
          Xqb_xmark.Generator.to_xml
            { Xqb_xmark.Generator.default with persons = 5; items = 4;
              open_auctions = 3; closed_auctions = 4 }
        in
        let read = {|doc("auction")//item[@id="item1"]/name/string()|} in
        let current = {|doc("auction")//open_auction[@id="open0"]/current|} in
        let bid =
          Printf.sprintf "replace value of node %s with xs:integer(%s) + 1"
            current current
        in
        with_service (fun svc ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"auction" xml;
            let store = Catalog.store (Svc.catalog svc) in
            let builds () = Store.index_builds store in
            let name = ok (Svc.query svc s read) in
            let after_read = builds () in
            let before = ok (Svc.query svc s (current ^ "/string()")) in
            ignore (ok (Svc.query svc s bid));
            check Alcotest.string "bid applied"
              (string_of_int (int_of_string before + 1))
              (ok (Svc.query svc s (current ^ "/string()")));
            check Alcotest.string "read after bid" name (ok (Svc.query svc s read));
            check Alcotest.int "no rebuild after a bid" after_read (builds ());
            ignore
              (ok (Svc.query svc s {|insert {<note/>} into {doc("auction")/site}|}));
            check Alcotest.string "read after insert" name (ok (Svc.query svc s read));
            check Alcotest.int "one rebuild after an element insert"
              (after_read + 1) (builds ());
            let v = check_json "stats" (Svc.stats_json svc) in
            check Alcotest.int "STATS store.index_builds" (builds ())
              (num_at v [ "store"; "index_builds" ]);
            check Alcotest.int "STATS store.order_key_builds"
              (Store.order_key_builds store)
              (num_at v [ "store"; "order_key_builds" ]);
            let prom = Svc.metrics_prometheus svc in
            List.iter
              (fun sample ->
                if not (Re.execp (Re.compile (Re.str sample)) prom) then
                  Alcotest.failf "METRICS PROM lacks %S" sample)
              [
                Printf.sprintf "xqbang_store_index_builds_total %d" (builds ());
                Printf.sprintf "xqbang_store_order_key_builds_total %d"
                  (Store.order_key_builds store);
              ]));
    tc "DELTA: last write-side job's ∆ statistics" `Quick (fun () ->
        with_service (fun svc ->
            let s = Svc.open_session svc in
            check Alcotest.bool "none before any write-side job" true
              (Svc.delta_json svc = None);
            check Alcotest.string "query result" "2"
              (ok (Svc.query svc s updating_query));
            match Svc.delta_json svc with
            | None -> Alcotest.fail "expected ∆ statistics"
            | Some j ->
              let v = check_json "delta" j in
              check Alcotest.int "inserts" 2 (num_at v [ "requests"; "insert" ]);
              check Alcotest.int "deletes" 1 (num_at v [ "requests"; "delete" ]);
              check Alcotest.int "total" 3 (num_at v [ "total_requests" ]);
              check Alcotest.bool "snaps counted" true (num_at v [ "snaps" ] >= 1);
              check Alcotest.bool "depth recorded" true
                (num_at v [ "max_snap_depth" ] >= 1)));
    tc "DELTA tracks the most recent write-side job" `Quick (fun () ->
        with_service (fun svc ->
            let s = Svc.open_session svc in
            ignore (ok (Svc.query svc s updating_query));
            let jid1 =
              num_at (check_json "d1" (Option.get (Svc.delta_json svc))) [ "jid" ]
            in
            ignore
              (ok (Svc.query svc s "snap { for $i in 1 to 3 return () }"));
            let v = check_json "d2" (Option.get (Svc.delta_json svc)) in
            check Alcotest.bool "newer jid" true (num_at v [ "jid" ] > jid1);
            check Alcotest.int "no requests this time" 0
              (num_at v [ "total_requests" ])));
    tc "SLOWLOG: threshold 0 catches every effecting job" `Quick (fun () ->
        with_service ~slow_apply_ms:0 (fun svc ->
            let s = Svc.open_session svc in
            check Alcotest.int "empty at start" 0 (Svc.slowlog_length svc);
            (* pure queries never enter the slowlog *)
            ignore (ok (Svc.query svc s "1 + 1"));
            check Alcotest.int "pure query skipped" 0 (Svc.slowlog_length svc);
            ignore (ok (Svc.query svc s updating_query));
            check Alcotest.int "one entry" 1 (Svc.slowlog_length svc);
            let v = check_json "slowlog" (Svc.slowlog_json svc) in
            match J.to_list v with
            | [ e ] ->
              check Alcotest.int "requests" 3 (num_at e [ "requests" ]);
              check Alcotest.int "session" s (num_at e [ "sid" ]);
              (* the stage split: every stage, none negative, summing
                 to the job's latency *)
              let stages = stage_split e in
              check Alcotest.int "every stage" 9 (List.length stages);
              List.iter
                (fun (k, n) ->
                  check Alcotest.bool ("stage " ^ k ^ " >= 0") true (n >= 0))
                stages;
              check Alcotest.int "stages sum to latency_ns"
                (num_at e [ "latency_ns" ])
                (List.fold_left (fun a (_, n) -> a + n) 0 stages);
              (match Option.bind (J.member "src" e) J.to_string_opt with
              | Some src ->
                check Alcotest.bool "src captured" true
                  (String.length src > 0)
              | None -> Alcotest.fail "src missing")
            | l -> Alcotest.failf "expected one entry, got %d" (List.length l)));
    tc "SLOWLOG: default threshold keeps fast jobs out" `Quick (fun () ->
        with_service (fun svc ->
            let s = Svc.open_session svc in
            ignore (ok (Svc.query svc s updating_query));
            check Alcotest.int "no entries" 0 (Svc.slowlog_length svc)));
    tc "METRICS PROM: exposition covers counters and summaries" `Quick
      (fun () ->
        with_service ~slow_apply_ms:0 (fun svc ->
            let s = Svc.open_session svc in
            ignore (ok (Svc.query svc s "1 + 1"));
            ignore (ok (Svc.query svc s updating_query));
            ignore (err (Svc.query svc s "1 +"));
            let body = Svc.metrics_prometheus svc in
            let has sub = Re.execp (Re.compile (Re.str sub)) body in
            List.iter
              (fun sub ->
                if not (has sub) then
                  Alcotest.failf "exposition lacks %S:\n%s" sub body)
              [
                "# TYPE xqbang_queries_total counter";
                "xqbang_queries_total 3";
                "xqbang_queries_by_purity_total{purity=\"pure\"}";
                "xqbang_query_errors_total 1";
                "xqbang_update_requests_total 3";
                "xqbang_deltas_applied_total";
                "xqbang_query_latency_ns{quantile=\"0.99\"}";
                (* failed queries record no latency sample *)
                "xqbang_query_latency_ns_count 2";
                "# TYPE xqbang_phase_ns summary";
              ];
            (* every line is a comment or "name[{labels}] value";
               summaries may legitimately emit +Inf/-Inf/NaN *)
            let line_re =
              Re.compile
                (Re.Perl.re
                   {|^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? ([-+0-9.eE]+|\+Inf|-Inf|NaN))$|})
            in
            List.iter
              (fun line ->
                if line <> "" && not (Re.execp line_re line) then
                  Alcotest.failf "malformed exposition line %S" line)
              (String.split_on_char '\n' body)));
    tc "METRICS PROM: page-wide exposition lint" `Quick (fun () ->
        (* parse the whole page back: every sample's family must have
           exactly one # HELP and one # TYPE line (before its first
           sample), and counter families must end in _total *)
        with_service (fun svc ->
            let s = Svc.open_session svc in
            ignore (ok (Svc.query svc s "1 + 1"));
            ignore (ok (Svc.query svc s updating_query));
            let body = Svc.metrics_prometheus svc in
            let helps = Hashtbl.create 32 and types = Hashtbl.create 32 in
            let bump tbl name =
              Hashtbl.replace tbl name
                (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))
            in
            let sample_re =
              Re.compile
                (Re.Perl.re {|^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? |})
            in
            let family name =
              (* _sum/_count belong to their summary family *)
              let strip suf =
                if Filename.check_suffix name suf then
                  Some (Filename.chop_suffix name suf)
                else None
              in
              match (strip "_sum", strip "_count") with
              | Some f, _ when Hashtbl.mem types f -> f
              | _, Some f when Hashtbl.mem types f -> f
              | _ -> name
            in
            List.iter
              (fun line ->
                match String.split_on_char ' ' line with
                | "#" :: "HELP" :: name :: _ -> bump helps name
                | "#" :: "TYPE" :: name :: kind :: _ ->
                  bump types name;
                  if
                    kind = "counter"
                    && not (Filename.check_suffix name "_total")
                  then
                    Alcotest.failf "counter %s does not end in _total" name
                | _ when line = "" -> ()
                | _ -> (
                  match Re.exec_opt sample_re line with
                  | None -> Alcotest.failf "unparseable line %S" line
                  | Some g ->
                    let f = family (Re.Group.get g 1) in
                    if not (Hashtbl.mem types f) then
                      Alcotest.failf "sample %S before any # TYPE for %s"
                        line f;
                    if not (Hashtbl.mem helps f) then
                      Alcotest.failf "family %s has no # HELP" f))
              (String.split_on_char '\n' body);
            Hashtbl.iter
              (fun name n ->
                if n <> 1 then
                  Alcotest.failf "family %s declared # TYPE %d times" name n)
              types;
            Hashtbl.iter
              (fun name n ->
                if n <> 1 then
                  Alcotest.failf "family %s declared # HELP %d times" name n)
              helps;
            (* the new telemetry families are on the page *)
            List.iter
              (fun f ->
                if not (Hashtbl.mem types f) then
                  Alcotest.failf "missing family %s" f)
              [
                "xqbang_window_rate"; "xqbang_window_p99_ns";
                "xqbang_slo_burn_rate"; "xqbang_trace_ring_size";
                "xqbang_trace_ring_evictions_total"; "xqbang_events_total";
                "xqbang_events_by_level_total"; "xqbang_health_status";
              ]));
    tc "wire protocol parses the observability verbs" `Quick (fun () ->
        let is_ok r = function
          | Ok x -> x = r
          | Error _ -> false
        in
        check Alcotest.bool "DELTA" true
          (is_ok Proto.Delta (Proto.parse "DELTA"));
        check Alcotest.bool "SLOWLOG" true
          (is_ok Proto.Slowlog (Proto.parse "SLOWLOG"));
        check Alcotest.bool "METRICS" true
          (is_ok Proto.Metrics_prom (Proto.parse "METRICS"));
        check Alcotest.bool "METRICS PROM" true
          (is_ok Proto.Metrics_prom (Proto.parse "METRICS PROM"));
        check Alcotest.bool "METRICS bogus rejected" true
          (match Proto.parse "METRICS JSONX" with Error _ -> true | _ -> false);
        check Alcotest.bool "HEALTH" true
          (is_ok Proto.Health (Proto.parse "HEALTH"));
        check Alcotest.bool "HEALTH takes no args" true
          (match Proto.parse "HEALTH NOW" with Error _ -> true | _ -> false);
        check Alcotest.bool "EVENTS default" true
          (is_ok (Proto.Events (50, None)) (Proto.parse "EVENTS"));
        check Alcotest.bool "EVENTS TAIL" true
          (is_ok (Proto.Events (10, None)) (Proto.parse "EVENTS TAIL 10"));
        check Alcotest.bool "EVENTS LEVEL" true
          (is_ok (Proto.Events (50, Some "warn")) (Proto.parse "EVENTS LEVEL warn"));
        check Alcotest.bool "EVENTS TAIL + LEVEL" true
          (is_ok
             (Proto.Events (5, Some "error"))
             (Proto.parse "EVENTS TAIL 5 LEVEL ERROR"));
        check Alcotest.bool "EVENTS bad level rejected" true
          (match Proto.parse "EVENTS LEVEL loud" with
          | Error _ -> true
          | _ -> false);
        check Alcotest.bool "EVENTS bad tail rejected" true
          (match Proto.parse "EVENTS TAIL 0" with Error _ -> true | _ -> false));
  ]

(* -- Health telemetry: HEALTH, EVENTS, the trace ring ---------------- *)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "xqbang-svc-health-%d-%d" (Unix.getpid ()) !tmp_counter)

let durable_cfg dir =
  { (Xqb_wal.Durable.default_config ~dir) with Xqb_wal.Durable.fsync = Always }

let status_of svc =
  let v = check_json "health" (Svc.health_json svc) in
  match Option.bind (J.member "status" v) J.to_string_opt with
  | Some s -> s
  | None -> Alcotest.fail "health_json has no status"

let reason_codes svc =
  let v = check_json "health" (Svc.health_json svc) in
  match J.member "reasons" v with
  | Some a ->
    List.filter_map
      (fun r -> Option.bind (J.member "code" r) J.to_string_opt)
      (J.to_list a)
  | None -> []

(* The value of the exposition sample [name] (exact line prefix,
   labels included). *)
let prom_value body name =
  let prefix = name ^ " " in
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix l)
      (String.split_on_char '\n' body)
  with
  | Some l ->
    float_of_string
      (String.sub l (String.length prefix) (String.length l - String.length prefix))
  | None -> Alcotest.failf "exposition lacks %S" name

let health =
  [
    tc "HEALTH: a quiet service is ok with no reasons" `Quick (fun () ->
        with_service (fun svc ->
            let s = Svc.open_session svc in
            ignore (ok (Svc.query svc s "1 + 1"));
            check Alcotest.string "status" "ok" (status_of svc);
            check Alcotest.int "no reasons" 0 (List.length (reason_codes svc));
            check Alcotest.string "accessor agrees" "ok"
              (Svc.health_status svc)));
    tc "HEALTH: sustained errors burn the availability SLO" `Quick (fun () ->
        with_service (fun svc ->
            let s = Svc.open_session svc in
            (* all-error traffic: err_frac 1.0 against a 1% budget is
               a 100x burn, far past the 4x fast-burn threshold *)
            for _ = 1 to 8 do
              ignore (err (Svc.query svc s "1 +"))
            done;
            check Alcotest.string "status" "critical" (status_of svc);
            check Alcotest.bool "error-burn reason" true
              (List.mem "error-burn" (reason_codes svc))));
    tc "HEALTH: latency SLO violations burn the latency budget" `Quick
      (fun () ->
        (* a 0ms p99 target makes every query "slow": slow_frac 1.0
           over the 1% latency budget *)
        let svc = Svc.create ~domains:0 ~slo_p99_ms:0.000001 () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            let s = Svc.open_session svc in
            for _ = 1 to 8 do
              ignore (ok (Svc.query svc s "1 + 1"))
            done;
            check Alcotest.string "status" "critical" (status_of svc);
            check Alcotest.bool "latency-burn reason" true
              (List.mem "latency-burn" (reason_codes svc))));
    tc "HEALTH: induced overload trips the queue-depth check" `Quick
      (fun () ->
        (* one worker, watermark 2: a long job plus two queued ones
           puts the depth at the critical line (2*9/10 -> 1) *)
        let svc = Svc.create ~domains:1 ~max_queue:2 () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            let s = Svc.open_session svc in
            let futs =
              List.init 3 (fun _ -> snd (Svc.submit_job svc s slow_pure))
            in
            (* the first job occupies the worker; the rest are queued *)
            let rec wait_depth n =
              if n = 0 then Alcotest.fail "queue never filled"
              else if Sched.queue_depth (Svc.scheduler svc) < 1 then begin
                Thread.delay 0.005;
                wait_depth (n - 1)
              end
            in
            wait_depth 400;
            check Alcotest.bool "queue-depth reason" true
              (List.mem "queue-depth" (reason_codes svc));
            check Alcotest.bool "not ok under overload" true
              (status_of svc <> "ok");
            List.iter (fun f -> ignore (Svc.await f)) futs;
            (* drained: health recovers *)
            check Alcotest.bool "queue-depth clears" true
              (not (List.mem "queue-depth" (reason_codes svc)))));
    tc "HEALTH: a stalled fsync degrades then recovers" `Quick (fun () ->
        let dir = fresh_dir () in
        let svc =
          Svc.create ~domains:0 ~durability:(durable_cfg dir)
            ~fsync_warn_ms:50 ()
        in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"d" "<r/>";
            (* boot fsyncs are real disk syncs: on a loaded box one can
               take a few ms, so the pre-check pins only the fsync
               reason, and the budget leaves a wide margin below the
               injected delay *)
            check Alcotest.bool "no fsync-latency before" true
              (not (List.mem "fsync-latency" (reason_codes svc)));
            (* every fsync now takes ~120ms against a 50ms p99 budget *)
            Svc.inject_fsync_delay svc 0.12;
            ignore (ok (Svc.query svc s {|snap { insert {<a/>} into {doc("d")/r} }|}));
            check Alcotest.string "degraded" "degraded" (status_of svc);
            check Alcotest.bool "fsync-latency reason" true
              (List.mem "fsync-latency" (reason_codes svc))));
    tc "EVENTS: one stall.fsync per stalled fsync" `Quick (fun () ->
        let dir = fresh_dir () in
        let svc =
          Svc.create ~domains:0 ~durability:(durable_cfg dir) ~stall_ms:50 ()
        in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"d" "<r/>";
            (* one fsync held 600ms: past the 50ms stall bound across at
               least two 250ms monitor ticks, one rising edge *)
            Svc.inject_fsync_delay svc 0.6;
            ignore (ok (Svc.query svc s {|insert {<a/>} into {doc("d")/r}|}));
            Svc.inject_fsync_delay svc 0.;
            (* let the monitor see the stall clear *)
            Thread.delay 0.3;
            let stalls =
              List.filter
                (fun e ->
                  Option.bind (J.member "kind" e) J.to_string_opt
                  = Some "stall.fsync")
                (J.to_list (check_json "events" (Svc.events_json svc 100)))
            in
            match stalls with
            | [ e ] ->
              check Alcotest.bool "in_progress_ms past the bound" true
                (match
                   Option.bind (J.path e [ "data"; "in_progress_ms" ]) J.to_float_opt
                 with
                | Some ms -> ms > 50.
                | None -> false)
            | l -> Alcotest.failf "expected one stall.fsync, got %d" (List.length l)));
    tc "HEALTH: a replica falling behind trips the leader's peer check"
      `Quick (fun () ->
        let dir = fresh_dir () in
        let svc =
          Svc.create ~domains:0 ~durability:(durable_cfg dir)
            ~lag_warn_frames:1 ()
        in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"d" "<r/>";
            for _ = 1 to 6 do
              ignore
                (ok (Svc.query svc s {|snap { insert {<a/>} into {doc("d")/r} }|}))
            done;
            (* a replica announces itself from LSN 1 and never acks
               further: stuck >= 4 frames behind the WAL head *)
            (match
               Svc.ship_frames ~replica_id:"r-test" svc ~from_lsn:1 ~max:1
             with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "ship failed: %s" e);
            check Alcotest.string "critical" "critical" (status_of svc);
            check Alcotest.bool "peer-lag reason" true
              (List.mem "peer-lag" (reason_codes svc));
            (* REPLICA STAT on the leader lists the peer *)
            let v = check_json "replica stat" (Svc.replica_stat_json svc) in
            let stat_lag =
              match Option.map J.to_list (J.member "peers" v) with
              | Some (p :: _) -> Option.bind (J.member "lag_frames" p) J.to_float_opt
              | _ -> Alcotest.fail "leader stat lists no peer"
            in
            (* HEALTH, REPLICA STAT and METRICS PROM read one lag *)
            let health_lag =
              let h = check_json "health" (Svc.health_json svc) in
              List.find_map
                (fun r ->
                  if Option.bind (J.member "code" r) J.to_string_opt = Some "peer-lag"
                  then Option.bind (J.member "lag_frames" r) J.to_float_opt
                  else None)
                (Option.fold ~none:[] ~some:J.to_list (J.member "reasons" h))
            in
            let prom_lag =
              prom_value (Svc.metrics_prometheus svc)
                {|xqbang_peer_lag_frames{replica="r-test"}|}
            in
            check Alcotest.bool "lag is at least 4 frames" true (prom_lag >= 4.);
            check
              Alcotest.(option (float 0.))
              "peer-lag reason = REPLICA STAT" health_lag stat_lag;
            check
              Alcotest.(option (float 0.))
              "REPLICA STAT = METRICS PROM" stat_lag (Some prom_lag)));
    tc "EVENTS: boot and commit events, level filter, wire shape" `Quick
      (fun () ->
        let dir = fresh_dir () in
        let svc = Svc.create ~domains:0 ~durability:(durable_cfg dir) () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"d" "<r/>";
            ignore (ok (Svc.query svc s {|snap { insert {<a/>} into {doc("d")/r} }|}));
            let kinds level =
              List.filter_map
                (fun e -> Option.bind (J.member "kind" e) J.to_string_opt)
                (J.to_list
                   (check_json "events" (Svc.events_json ?level svc 100)))
            in
            let all = kinds None in
            List.iter
              (fun k ->
                if not (List.mem k all) then
                  Alcotest.failf "events miss %S; have: %s" k
                    (String.concat "," all))
              [ "lifecycle.boot"; "lifecycle.recovery"; "wal.commit" ];
            (* wal.commit is Debug: filtered out at Info and above *)
            check Alcotest.bool "info filter drops wal.commit" true
              (not
                 (List.mem "wal.commit" (kinds (Some Xqb_obs.Events.Info))))));
    tc "EVENTS: telemetry off disables the log and monitor" `Quick (fun () ->
        let svc = Svc.create ~domains:0 ~telemetry:false () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            let s = Svc.open_session svc in
            ignore (ok (Svc.query svc s "1 + 1"));
            check Alcotest.string "no events" "[]" (Svc.events_json svc 100);
            (* health still answers (windows empty, no burn checks) *)
            check Alcotest.string "health still ok" "ok" (status_of svc)));
    tc "trace ring: --trace-ring caps retention and counts evictions"
      `Quick (fun () ->
        let svc = Svc.create ~domains:0 ~tracing:true ~trace_ring:2 () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            let s = Svc.open_session svc in
            let jids =
              List.init 3 (fun _ ->
                  let jid, fut = Svc.submit_job svc s "1 + 1" in
                  ignore (Svc.await fut);
                  jid)
            in
            let size, cap, ev = Svc.trace_ring_stats svc in
            check Alcotest.int "size" 2 size;
            check Alcotest.int "cap" 2 cap;
            check Alcotest.int "evictions" 1 ev;
            (* the oldest trace is gone, the newest two retrievable *)
            (match jids with
            | [ j1; j2; j3 ] ->
              check Alcotest.bool "oldest evicted" true
                (Svc.trace_json svc (Some j1) = None);
              check Alcotest.bool "second kept" true
                (Svc.trace_json svc (Some j2) <> None);
              check Alcotest.bool "newest kept" true
                (Svc.trace_json svc (Some j3) <> None)
            | _ -> assert false)));
    tc "trace_ring < 1 is rejected at create" `Quick (fun () ->
        match Svc.create ~domains:0 ~trace_ring:0 () with
        | svc ->
          Svc.shutdown svc;
          Alcotest.fail "trace_ring 0 accepted"
        | exception Invalid_argument _ -> ());
    tc "STATS embeds windows, health and telemetry gauges" `Quick (fun () ->
        with_service (fun svc ->
            let s = Svc.open_session svc in
            ignore (ok (Svc.query svc s "1 + 1"));
            let v = check_json "stats" (Svc.stats_json svc) in
            (match J.path v [ "health"; "status" ] with
            | Some (J.Str _) -> ()
            | _ -> Alcotest.fail "stats.health.status missing");
            (match J.path v [ "windows"; "10s" ] with
            | Some (J.Obj _) -> ()
            | _ -> Alcotest.fail "stats.windows.10s missing");
            match J.path v [ "telemetry"; "trace_ring" ] with
            | Some (J.Obj _) -> ()
            | _ -> Alcotest.fail "stats.telemetry.trace_ring missing"));
    tc "flight recorder: an unclean shutdown leaves a parseable dump"
      `Quick (fun () ->
        let dir = fresh_dir () in
        let svc = Svc.create ~domains:0 ~durability:(durable_cfg dir) () in
        let s = Svc.open_session svc in
        Svc.load_document svc s ~uri:"d" "<r/>";
        ignore (ok (Svc.query svc s {|snap { insert {<a/>} into {doc("d")/r} }|}));
        (* abandon svc without shutdown: the events sink never gets
           its lifecycle.shutdown line, exactly like a SIGKILL (the
           WAL fd stays open; recovery tolerates that) *)
        let svc2 = Svc.create ~domains:0 ~durability:(durable_cfg dir) () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc2)
          (fun () ->
            match Svc.boot_flight svc2 with
            | None -> Alcotest.fail "no flight dump after unclean shutdown"
            | Some path ->
              let ic = open_in_bin path in
              let body =
                Fun.protect
                  ~finally:(fun () -> close_in ic)
                  (fun () -> really_input_string ic (in_channel_length ic))
              in
              let v = check_json "flight dump" body in
              (match Option.bind (J.member "reason" v) J.to_string_opt with
              | Some r ->
                check Alcotest.string "reason" "unclean-shutdown" r
              | None -> Alcotest.fail "flight has no reason");
              (match J.member "events" v with
              | Some (J.Arr (_ :: _)) -> ()
              | _ -> Alcotest.fail "flight splices no prior events");
              match J.path v [ "recovery"; "lsn" ] with
              | Some (J.Num lsn) ->
                check Alcotest.bool "recovered lsn recorded" true (lsn > 0.)
              | _ -> Alcotest.fail "flight.recovery.lsn missing");
        (* a clean shutdown leaves no dump on the next boot *)
        let svc3 = Svc.create ~domains:0 ~durability:(durable_cfg dir) () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc3)
          (fun () ->
            check Alcotest.bool "clean boot has no flight" true
              (Svc.boot_flight svc3 = None)));
    tc "write_flight produces a dump on demand" `Quick (fun () ->
        let dir = fresh_dir () in
        let svc = Svc.create ~domains:0 ~durability:(durable_cfg dir) () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            match Svc.write_flight svc ~reason:"test" with
            | None -> Alcotest.fail "durable service refused a flight dump"
            | Some path ->
              check Alcotest.bool "file exists" true (Sys.file_exists path);
              let ic = open_in_bin path in
              let body =
                Fun.protect
                  ~finally:(fun () -> close_in ic)
                  (fun () -> really_input_string ic (in_channel_length ic))
              in
              let v = check_json "flight" body in
              (match J.path v [ "health"; "status" ] with
              | Some (J.Str _) -> ()
              | _ -> Alcotest.fail "flight.health.status missing")));
  ]

(* -- Stage split: every job's latency, stage by stage ----------------- *)

let stage_names = List.map Xqb_obs.Stage.name Xqb_obs.Stage.all

let stage_split_tests =
  [
    tc "stages sum exactly to the latency on every route, tracing on and off"
      `Quick (fun () ->
        List.iter
          (fun tracing ->
            let dir = fresh_dir () in
            let svc =
              Svc.create ~domains:1 ~tracing ~slow_apply_ms:0
                ~durability:(durable_cfg dir) ()
            in
            Fun.protect
              ~finally:(fun () -> Svc.shutdown svc)
              (fun () ->
                let s = Svc.open_session svc in
                Svc.load_document svc s ~uri:"d" "<r/>";
                (* every job's latency lies inside its caller's wall time *)
                let total_wall = ref 0 in
                let timed_query src =
                  let t0 = Unix.gettimeofday () in
                  ignore (ok (Svc.query svc s src));
                  let wall = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
                  total_wall := !total_wall + wall;
                  wall
                in
                (* the two write routes, one job each: per job through
                   SLOWLOG (threshold 0 keeps every write) *)
                List.iter
                  (fun (route, src) ->
                    let wall_ns = timed_query src in
                    let e =
                      match J.to_list (check_json "slowlog" (Svc.slowlog_json svc)) with
                      | e :: _ -> e
                      | [] -> Alcotest.failf "%s: no SLOWLOG entry" route
                    in
                    let stages = stage_split e in
                    check (Alcotest.list Alcotest.string) (route ^ ": stage names")
                      stage_names (List.map fst stages);
                    List.iter
                      (fun (k, n) ->
                        check Alcotest.bool
                          (Printf.sprintf "%s: %s >= 0" route k)
                          true (n >= 0))
                      stages;
                    let latency = num_at e [ "latency_ns" ] in
                    check Alcotest.int (route ^ ": sum = latency_ns") latency
                      (List.fold_left (fun a (_, n) -> a + n) 0 stages);
                    check Alcotest.bool (route ^ ": within the caller's wall time")
                      true
                      (latency > 0 && latency <= wall_ns);
                    List.iter
                      (fun k ->
                        check Alcotest.bool
                          (Printf.sprintf "%s: %s measured" route k)
                          true
                          (List.assoc k stages > 0))
                      [ "compile"; "run"; "snap-apply"; "wal"; "fsync"; "serialize" ])
                  [
                    ("concurrent writer", {|insert {<a/>} into {doc("d")/r}|});
                    ( "exclusive",
                      {|declare variable $u := "d"; insert {<b/>} into {doc($u)/r}|} );
                  ];
                (* the fork route, in aggregate: every job's stages add
                   up to its latency, so the stage sums add up to the
                   latency sum *)
                for i = 1 to 5 do
                  ignore (timed_query (Printf.sprintf {|count(doc("d")//*) + %d|} i))
                done;
                let body = Svc.metrics_prometheus svc in
                let latency_sum = prom_value body "xqbang_query_latency_ns_sum" in
                check Alcotest.bool "latency sum within the callers' wall time" true
                  (latency_sum > 0. && latency_sum <= float_of_int !total_wall);
                check Alcotest.(float 0.) "sum of stage sums = latency sum" latency_sum
                  (List.fold_left
                     (fun a k ->
                       a
                       +. prom_value body
                            (Printf.sprintf "xqbang_phase_ns_sum{phase=\"%s\"}" k))
                     0. stage_names);
                check Alcotest.(float 0.) "seven jobs" 7.
                  (prom_value body "xqbang_query_latency_ns_count")))
          [ false; true ]);
    tc "tracing off: one query fills every stage, nothing else" `Quick
      (fun () ->
        with_service (fun svc ->
            let s = Svc.open_session svc in
            ignore (ok (Svc.query svc s "1 + 1"));
            let v = check_json "stats" (Svc.stats_json svc) in
            (match J.member "phases_ns" v with
            | Some (J.Obj fields) ->
              check (Alcotest.list Alcotest.string) "phases_ns keys" stage_names
                (List.map fst fields);
              List.iter
                (fun (k, h) ->
                  match Option.bind (J.member "count" h) J.to_float_opt with
                  | Some c -> check Alcotest.(float 0.) (k ^ " count") 1. c
                  | None -> Alcotest.failf "phases_ns.%s has no count" k)
                fields
            | _ -> Alcotest.fail "phases_ns missing");
            let body = Svc.metrics_prometheus svc in
            List.iter
              (fun k ->
                check Alcotest.(float 0.) (k ^ " in METRICS PROM") 1.
                  (prom_value body
                     (Printf.sprintf "xqbang_phase_ns_count{phase=\"%s\"}" k)))
              stage_names;
            check Alcotest.bool "no plan.cache.hit phase" false
              (Re.execp (Re.compile (Re.str "plan.cache.hit")) body)));
  ]

(* Constructing reads run on the fork route against a job-private
   scratch overlay of the catalog store: the shared store gains no
   node, and the served answer is the one [Core.Engine.run] gives. *)
let scratch_tests =
  [
    tc "2,000 served Q8s leave the shared store as it was" `Quick (fun () ->
        let xml = Xqb_xmark.Generator.to_xml (Xqb_xmark.Generator.scaled 0.1) in
        let q8 =
          {|for $p in doc("auction")//person let $a := for $t in doc("auction")//closed_auction where $t/buyer/@person = $p/@id return $t return <item person="{$p/name}">{count($a)}</item>|}
        in
        let oracle =
          let eng = Core.Engine.create () in
          ignore (Core.Engine.load_document eng ~uri:"auction" xml);
          Core.Engine.serialize eng (Core.Engine.run eng q8)
        in
        with_service (fun svc ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"auction" xml;
            (* the warm-up builds the indexes and order keys Q8 reads *)
            check Alcotest.string "Q8 answer" oracle (ok (Svc.query svc s q8));
            let store_stats () =
              let v = check_json "stats" (Svc.stats_json svc) in
              List.map
                (fun k -> (k, num_at v [ "store"; k ]))
                [ "nodes"; "index_builds"; "mutations" ]
            in
            let before = store_stats () in
            check Alcotest.int "STATS store.nodes is the shared store's size"
              (Store.node_count (Catalog.store (Svc.catalog svc)))
              (List.assoc "nodes" before);
            for _ = 1 to 2000 do
              let r = ok (Svc.query svc s q8) in
              if r <> oracle then Alcotest.failf "Q8 answered %S" r
            done;
            check
              Alcotest.(list (pair string int))
              "nodes, index builds, mutations" before (store_stats ());
            check Alcotest.int "every Q8 forked" 2001
              (Metrics.counts (Svc.metrics svc)).Metrics.fork;
            let prom = Svc.metrics_prometheus svc in
            List.iter
              (fun sample ->
                if not (Re.execp (Re.compile (Re.str sample)) prom) then
                  Alcotest.failf "METRICS PROM lacks %S" sample)
              [
                Printf.sprintf "xqbang_store_nodes %d" (List.assoc "nodes" before);
                {|xqbang_queries_by_route_total{route="fork"} 2001|};
                {|xqbang_queries_by_route_total{route="concurrent"} 0|};
                {|xqbang_queries_by_route_total{route="exclusive"} 0|};
              ];
            let v = check_json "stats" (Svc.stats_json svc) in
            check Alcotest.int "STATS routes.fork" 2001 (num_at v [ "routes"; "fork" ])));
    tc "served constructing reads agree with Engine.run" `Quick (fun () ->
        let xml = "<r><a>1</a><b><a>2</a></b></r>" in
        let queries =
          [
            (* base and scratch nodes in one sequence *)
            {|(doc("d")//a, <c>{doc("d")//b}</c>, doc("d")/r/b)|};
            (* sorted together: every base node first *)
            {|for $n in ((<z/>, doc("d")//b, <y/>) | ()) return name($n)|};
            (* // over a constructed tree, and its order keys *)
            {|let $t := <t><a>x</a><u><a>y</a></u>{doc("d")//a}</t> return ($t//a, count($t//a), $t//a[3] << $t//a[4])|};
            {|<n>{count(<x><y><a/></y><a/></x>//a)}</n>|};
            (* identity and order between base and scratch nodes *)
            {|let $c := <c/> return (doc("d")/r << $c, $c << doc("d")/r, doc("d")/r is $c, $c is $c)|};
            (* a constructor under copy *)
            {|copy { <w k="v">{doc("d")//b}</w> }|};
            {|let $w := copy { <w><v/></w> } return ($w/v, $w/v/.. is $w)|};
            (* node identity stays unobservable *)
            {|let $a := <a/> return <b>{$a}</b>/a is $a|};
            {|declare function local:wrap($x) { <w>{$x}</w> }; local:wrap(doc("d")//a)|};
          ]
        in
        let oracle src =
          let eng = Core.Engine.create () in
          ignore (Core.Engine.load_document eng ~uri:"d" xml);
          Core.Engine.serialize eng (Core.Engine.run eng src)
        in
        with_service ~domains:2 (fun svc ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"d" xml;
            let nodes = Store.node_count (Catalog.store (Svc.catalog svc)) in
            List.iter
              (fun src -> check Alcotest.string src (oracle src) (ok (Svc.query svc s src)))
              queries;
            check Alcotest.string "is stays false" "false"
              (ok (Svc.query svc s {|let $a := <a/> return <b>{$a}</b>/a is $a|}));
            check Alcotest.int "all forked" (List.length queries + 1)
              (Metrics.counts (Svc.metrics svc)).Metrics.fork;
            check Alcotest.int "shared store unchanged" nodes
              (Store.node_count (Catalog.store (Svc.catalog svc)))));
    tc "an update of a constructed node still runs as a writer" `Quick (fun () ->
        with_service (fun svc ->
            let s = Svc.open_session svc in
            check Alcotest.string "applied"
              "<x><a></a></x>"
              (ok
                 (Svc.query svc s
                    "let $x := <x/> return (snap insert {<a/>} into {$x}, $x)"));
            ignore (ok (Svc.query svc s "let $x := <x/> return insert {<a/>} into {$x}"));
            let c = Metrics.counts (Svc.metrics svc) in
            check Alcotest.int "fork" 0 c.Metrics.fork;
            check Alcotest.int "concurrent" 1 c.Metrics.concurrent;
            check Alcotest.int "exclusive (nested snap)" 1 c.Metrics.exclusive));
  ]

let suite =
  [
    ("service:sessions", sessions);
    ("service:plan-cache", plan_cache);
    ("service:scheduler", scheduler);
    ("service:governance", governance);
    ("service:admission", admission);
    ("service:observability", observability);
    ("service:health", health);
    ("service:stages", stage_split_tests);
    ("service:scratch", scratch_tests);
  ]
