(* Shape-keyed plan reuse: the service caches one plan per query shape
   (string literals and literal attribute values holed) and runs it
   with each request's literals as parameter values. A shape hit must
   answer exactly as a fresh compile of the request's own text would:
   same value, same documents afterwards, and — at compile level —
   the same program, footprint and route once the values are bound
   into the holes. *)

open Helpers
module Svc = Xqb_service.Service
module PC = Xqb_service.Plan_cache
module SE = Xqb_service.Service_error
module Sched = Xqb_service.Scheduler
module Runner = Xqb_algebra.Runner
module FP = Core.Static.Footprint
module E = Core.Engine

(* -- literal bodies ---------------------------------------------------- *)

(* Source text between double quotes, valid both as a string literal
   and as a direct attribute value: doubled quotes, doubled braces,
   entity and character references, whitespace only, empty. *)
let bodies =
  [|
    "";
    "   ";
    "a b";
    "he said \"\"hi\"\"";
    "x &amp; y";
    "&lt;tag&gt;";
    "{{x}}";
    "tab\there";
    "caf&#233;";
    "person3";
    "item2";
    "open1";
    "c0-17";
  |]

let pick rng = bodies.(Random.State.int rng (Array.length bodies))

(* Two different tuples of [n] bodies. *)
let two_tuples rng n =
  let t () = Array.init n (fun _ -> pick rng) in
  let a = t () in
  let rec other () =
    let b = t () in
    if n > 0 && b = a then other () else b
  in
  (a, other ())

(* -- the corpus --------------------------------------------------------- *)

type template = {
  name : string;
  docs : (string * string) list;
  arity : int;
  text : string array -> string;
}

let auction =
  Xqb_xmark.Generator.to_xml
    { Xqb_xmark.Generator.default with persons = 8; items = 6; open_auctions = 4; closed_auctions = 4 }

let t name ?(docs = []) arity text = { name; docs; arity; text }
let auction_docs = [ ("auction", auction); ("log", "<log/>"); ("archive", "<archive/>") ]
let log_docs = [ ("log0", "<log/>"); ("archive0", "<archive/>") ]

let web_service_prolog =
  (* examples/web_service.ml's module, the paper's §2 get_item *)
  {|declare variable $log := <log/>;
declare variable $archive := <archive/>;
declare variable $maxlog := 4;
declare variable $d := element counter { 0 };
declare function nextid() as xs:integer {
  snap { replace { $d/text() } with { $d + 1 }, xs:integer($d) }
};
declare function get_item($itemid, $userid) {
  let $item := $auction//item[@id = $itemid]
  return (
    let $name := $auction//person[@id = $userid]/name
    return
      (snap insert { <logentry id="{nextid()}" user="{$name}" itemid="{$itemid}"/> }
        into { $log },
      if (count($log/logentry) >= $maxlog)
      then (snap insert { <batch size="{count($log/logentry)}"/> } into { $archive },
            snap delete { $log/logentry })
      else ()),
    $item
  )
};
|}

let templates =
  let p = Printf.sprintf in
  [
    (* xqbench xmark-read *)
    t "xmark-read person lookup" ~docs:auction_docs 1 (fun a ->
        p {|doc("auction")//person[@id="%s"]/name/string()|} a.(0));
    t "xmark-read item lookup" ~docs:auction_docs 1 (fun a ->
        p {|doc("auction")//item[@id="%s"]/name/string()|} a.(0));
    t "xmark-read contains scan" ~docs:auction_docs 1 (fun a ->
        p {|count(doc("auction")//item[contains(description/text, "%s")])|} a.(0));
    t "xmark-read starts-with scan" ~docs:auction_docs 1 (fun a ->
        p {|doc("auction")//person[starts-with(name, "%s ")]/name/string()|} a.(0));
    (* xqbench weblog-write *)
    t "weblog-write insert" ~docs:log_docs 3 (fun a ->
        p {|insert {<logentry id="%s" user="%s" itemid="%s"/>} into {doc("log0")/log}|}
          a.(0) a.(1) a.(2));
    t "weblog-write archive" ~docs:log_docs 1 (fun a ->
        p
          {|(insert {<batch seq="%s" size="{count(doc("log0")/log/logentry)}"/>} into {doc("archive0")/archive}, delete {doc("log0")/log/logentry})|}
          a.(0));
    (* xqbench auction-mixed *)
    t "auction-mixed get_item" ~docs:auction_docs 2 (fun a ->
        p
          {|let $item := doc("auction")//item[@id="%s"] return (snap insert {<logentry user="{doc("auction")//person[@id="person1"]/name/string()}" itemid="%s"/>} into {doc("log")/log}, if (count(doc("log")/log/logentry) >= 64) then (snap insert {<batch size="{count(doc("log")/log/logentry)}"/>} into {doc("archive")/archive}, snap delete {doc("log")/log/logentry}) else (), $item/name/string())|}
          a.(0) a.(1));
    t "auction-mixed bid" ~docs:auction_docs 2 (fun a ->
        p
          {|replace value of node doc("auction")//open_auction[@id="%s"]/current with xs:integer(doc("auction")//open_auction[@id="%s"]/current) + 1|}
          a.(0) a.(1));
    (* test/cli *)
    t "cli replace value" 1 (fun a ->
        p {|let $x := <x>old</x> return (snap { replace value of node $x with "%s" }, $x)|} a.(0));
    t "cli rename" 1 (fun a ->
        p {|let $x := <x><a/><b/></x> return (delete {$x/a}, rename {$x/b} to {"%s"}, $x)|} a.(0));
    t "cli conflict" 2 (fun a ->
        p
          {|let $x := <x><a/></x> return snap conflict { rename {$x/a} to {"%s"}, rename {$x/a} to {"%s"} }|}
          a.(0) a.(1));
    t "cli q8" ~docs:auction_docs 0 (fun _ ->
        {|for $p in doc("auction")//person let $a := for $t in doc("auction")//closed_auction where $t/buyer/@person = $p/@id return $t return <item person="{$p/name}">{count($a)}</item>|});
    (* examples/ *)
    t "web_service get_item" ~docs:auction_docs 2 (fun a ->
        p {|%sget_item("%s", "%s")/name/string()|} web_service_prolog a.(0) a.(1));
    t "quickstart-style constructor" 2 (fun a ->
        p {|<greeting lang="%s">{concat("%s", "!")}</greeting>|} a.(0) a.(1));
  ]

(* P4's generated programs, their 's<n>' literals turned into holes. *)
let fuzz_templates =
  let lit = Re.compile (Re.Perl.re "'s[0-9]'") in
  List.filter_map
    (fun seed ->
      let src = Test_fuzz.gen_program seed in
      let parts = Re.split_full lit src in
      let arity =
        List.length (List.filter (function `Delim _ -> true | `Text _ -> false) parts)
      in
      if arity = 0 then None
      else
        Some
          {
            name = Printf.sprintf "fuzz seed %d" seed;
            docs = List.mapi (fun i xml -> (Printf.sprintf "d%d" i, xml)) Test_fuzz.docs;
            arity;
            text =
              (fun a ->
                let k = ref 0 in
                String.concat ""
                  (List.map
                     (function
                       | `Text s -> s
                       | `Delim _ ->
                         incr k;
                         "\"" ^ a.(!k - 1) ^ "\"")
                     parts));
          })
    (List.init 150 Fun.id)

(* -- oracles ------------------------------------------------------------- *)

let outcome_of f =
  match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let same_outcome a b =
  match (a, b) with Ok x, Ok y -> x = y | Error _, Error _ -> true | _ -> false

let show = function Ok s -> s | Error e -> "ERR " ^ e

let fresh_engine docs =
  let eng = E.create () in
  List.iter
    (fun (uri, xml) -> E.bind_node eng uri (E.load_document eng ~uri xml))
    docs;
  eng

let docs_state_engine eng docs =
  String.concat "|"
    (List.map (fun (uri, _) -> E.serialize eng (E.run eng ("$" ^ uri))) docs)

(* Run the texts in order on a fresh engine, each by a plain compile of
   its own text: their outcomes and the documents afterwards. *)
let oracle docs srcs =
  let eng = fresh_engine docs in
  let outcomes =
    List.map
      (fun src ->
        outcome_of (fun () -> E.serialize eng (E.run_compiled eng (E.compile eng src))))
      srcs
  in
  (outcomes, docs_state_engine eng docs)

let svc_docs_state svc s docs =
  String.concat "|"
    (List.map
       (fun (uri, _) ->
         match Svc.query svc s ("$" ^ uri) with
         | Ok v -> v
         | Error e -> "ERR " ^ SE.to_string e)
       docs)

let svc_outcome = function Ok v -> Ok v | Error e -> Error (SE.to_string e)

(* -- compile-level agreement ---------------------------------------------- *)

(* Normalization numbers its fresh variables globally; rename them in
   order of appearance so two compiles of one program print alike. *)
let canon s =
  let re = Re.compile (Re.Perl.re "%[a-z]+[0-9]+") in
  let seen = Hashtbl.create 8 in
  Re.replace re s ~f:(fun g ->
      let v = Re.Group.get g 0 in
      match Hashtbl.find_opt seen v with
      | Some n -> n
      | None ->
        let n = Printf.sprintf "%%v%d" (Hashtbl.length seen) in
        Hashtbl.replace seen v n;
        n)

let var_docs docs v = if List.mem_assoc v docs then Some v else None

let render (p : Runner.prepared) =
  let body =
    match p.Runner.compiled.E.prog.Core.Normalize.body with
    | Some b -> Core.Core_ast.to_string b
    | None -> "()"
  in
  canon (body ^ "\n" ^ Xqb_algebra.Plan.explain p.Runner.algebra.Xqb_algebra.Compile.plan)

(* The service's compile of [src1] (holes as it asks them), bound with
   [src2]'s values, against a plain compile of [src2]. *)
let check_compile name docs src1 src2 =
  let sh1 = PC.shape src1 and sh2 = PC.shape src2 in
  check Alcotest.string (name ^ ": one shape") sh1.PC.key sh2.PC.key;
  let kinds = Array.make (Array.length sh1.PC.spans) None in
  let hole kind ~start ~stop =
    let i = PC.span_index sh1 ~start ~stop in
    Option.iter (fun i -> kinds.(i) <- Some kind) i;
    i
  in
  match
    ( outcome_of (fun () ->
          Runner.prepare ~var_docs:(var_docs docs) ~hole (fresh_engine docs) src1),
      outcome_of (fun () -> Runner.prepare ~var_docs:(var_docs docs) (fresh_engine docs) src2) )
  with
  | Ok shaped, Ok plain ->
    let values =
      Array.mapi
        (fun i k ->
          match k with
          | None -> ""
          | Some k -> (
            match Xqb_syntax.Parser.hole_value k (PC.span_text sh2 i) with
            | Some v -> v
            | None -> Alcotest.failf "%s: span %d of %S is not a literal" name i src2))
        kinds
    in
    let bound = Runner.bind_params values shaped in
    check Alcotest.string (name ^ ": program and plan") (render plain) (render bound);
    let fp p = p.Runner.compiled.E.footprint in
    check Alcotest.string (name ^ ": footprint") (FP.to_string (fp plain))
      (FP.to_string (fp shaped));
    check Alcotest.bool (name ^ ": route") true (FP.route (fp plain) = FP.route (fp shaped))
  | Error _, Error _ -> ()
  | a, b ->
    Alcotest.failf "%s: compiles disagree: shaped %s, plain %s" name
      (match a with Ok _ -> "ok" | Error e -> e)
      (match b with Ok _ -> "ok" | Error e -> e)

(* Serve [src1] then [src2] (a shape hit) and compare with the oracle. *)
let check_served name docs src1 src2 =
  let svc = Svc.create ~domains:0 () in
  Fun.protect ~finally:(fun () -> Svc.shutdown svc) @@ fun () ->
  let s = Svc.open_session svc in
  List.iter (fun (uri, xml) -> Svc.load_document svc s ~uri xml) docs;
  let resident = (Svc.cache_stats svc).PC.size in
  let served1 = svc_outcome (Svc.query svc s src1) in
  let st1 = Svc.cache_stats svc in
  let served = svc_outcome (Svc.query svc s src2) in
  let st2 = Svc.cache_stats svc in
  if st1.PC.size = resident + 1 then
    (* src1 compiled, so src2 reuses its plan *)
    check Alcotest.int (name ^ ": second text is a shape hit") (st1.PC.hits + 1) st2.PC.hits;
  let expected, expected_docs = oracle docs [ src1; src2 ] in
  List.iter2
    (fun (src, served) expected ->
      if not (same_outcome expected served) then
        Alcotest.failf "%s: served %s, fresh compile %s\n%s" name (show served)
          (show expected) src)
    [ (src1, served1); (src2, served) ]
    expected;
  (* a failed job's partial effects differ by route (the exclusive
     route rolls back, the interpreter does not): compare documents
     after clean runs *)
  if List.for_all Result.is_ok expected then
    check Alcotest.string (name ^ ": documents") expected_docs (svc_docs_state svc s docs)

let shape_case rng (tp : template) =
  let a, b = two_tuples rng tp.arity in
  let src1 = tp.text a and src2 = tp.text b in
  check_compile tp.name tp.docs src1 src2;
  check_served tp.name tp.docs src1 src2

let agreement =
  [
    tc "corpus: a shape hit answers as a fresh compile of its own text" `Quick
      (fun () ->
        let rng = Random.State.make [| 19 |] in
        List.iter (fun tp -> for _ = 1 to 3 do shape_case rng tp done) templates);
    tc "P4 programs with generated literals: hit = fresh compile" `Quick (fun () ->
        let rng = Random.State.make [| 23 |] in
        List.iter (shape_case rng) fuzz_templates);
  ]

(* -- what never shares ---------------------------------------------------- *)

let ok_q svc s q =
  match Svc.query svc s q with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" q (SE.to_string e)

let never_share =
  [
    tc "doc(\"a\") and doc(\"b\") never share an entry" `Quick (fun () ->
        let svc = Svc.create ~domains:0 () in
        Fun.protect ~finally:(fun () -> Svc.shutdown svc) @@ fun () ->
        let s = Svc.open_session svc in
        Svc.load_document svc s ~uri:"a" "<r><x>from a</x></r>";
        Svc.load_document svc s ~uri:"b" "<r><x>from b</x></r>";
        check Alcotest.string "a" "from a" (ok_q svc s {|doc("a")/r/x/string()|});
        check Alcotest.string "b" "from b" (ok_q svc s {|doc("b")/r/x/string()|});
        let st = Svc.cache_stats svc in
        check Alcotest.int "two compiles" 2 st.PC.misses;
        check Alcotest.int "no hit" 0 st.PC.hits;
        check Alcotest.int "no parameters" 0 st.PC.shapes;
        (* each one hits its own entry again *)
        check Alcotest.string "a again" "from a" (ok_q svc s {|doc("a")/r/x/string()|});
        check Alcotest.int "hit" 1 (Svc.cache_stats svc).PC.hits);
    tc "[2] and [3] never share an entry" `Quick (fun () ->
        let svc = Svc.create ~domains:0 () in
        Fun.protect ~finally:(fun () -> Svc.shutdown svc) @@ fun () ->
        let s = Svc.open_session svc in
        check Alcotest.string "[2]" "b" (ok_q svc s {|("a", "b", "c")[2]|});
        check Alcotest.string "[3]" "c" (ok_q svc s {|("a", "b", "c")[3]|});
        check Alcotest.int "two compiles" 2 (Svc.cache_stats svc).PC.misses;
        (* the strings are parameters: new letters, same entry *)
        check Alcotest.string "[3] again" "z" (ok_q svc s {|("x", "y", "z")[3]|});
        check Alcotest.int "hit" 1 (Svc.cache_stats svc).PC.hits;
        let stats = Xqb_obs.Json.parse_exn (Svc.stats_json svc) in
        check Alcotest.(option (float 0.)) "STATS plan_cache.shapes" (Some 2.)
          (Option.bind
             (Xqb_obs.Json.path stats [ "plan_cache"; "shapes" ])
             Xqb_obs.Json.to_float_opt));
    tc "prolog strings and namespace URIs stay verbatim" `Quick (fun () ->
        let svc = Svc.create ~domains:0 () in
        Fun.protect ~finally:(fun () -> Svc.shutdown svc) @@ fun () ->
        let s = Svc.open_session svc in
        check Alcotest.string "x" "x" (ok_q svc s {|declare variable $v := "x"; $v|});
        check Alcotest.string "y" "y" (ok_q svc s {|declare variable $v := "y"; $v|});
        check Alcotest.string "ns a" "1"
          (ok_q svc s {|count(<p:e xmlns:p="urn:a"/>)|});
        check Alcotest.string "ns b" "1"
          (ok_q svc s {|count(<p:e xmlns:p="urn:b"/>)|});
        check Alcotest.int "four compiles" 4 (Svc.cache_stats svc).PC.misses);
    tc "an attribute value that turns into a template gets its own entry" `Quick
      (fun () ->
        let svc = Svc.create ~domains:0 () in
        Fun.protect ~finally:(fun () -> Svc.shutdown svc) @@ fun () ->
        let s = Svc.open_session svc in
        let q v = Printf.sprintf {|string(<a b="%s"/>/@b)|} v in
        check Alcotest.string "literal" "lit" (ok_q svc s (q "lit"));
        check Alcotest.string "template" "2" (ok_q svc s (q "{1 + 1}"));
        check Alcotest.string "literal again" "x{y" (ok_q svc s (q "x{{y"));
        check Alcotest.string "template again" "2" (ok_q svc s (q "{1 + 1}"));
        let st = Svc.cache_stats svc in
        check Alcotest.int "two compiles" 2 st.PC.misses;
        check Alcotest.int "two hits" 2 st.PC.hits);
    tc "whitespace in direct element content is never collapsed" `Quick (fun () ->
        (* Regression: the key scan collapsed every whitespace run
           outside literals and comments, so <a>x  y</a> was served
           <a>x y</a>'s plan, text node included. *)
        let svc = Svc.create ~domains:0 () in
        Fun.protect ~finally:(fun () -> Svc.shutdown svc) @@ fun () ->
        let s = Svc.open_session svc in
        check Alcotest.string "two spaces" "x  y" (ok_q svc s "string(<a>x  y</a>)");
        check Alcotest.string "one space" "x y" (ok_q svc s "string(<a>x y</a>)");
        check Alcotest.string "newline" "x\ny" (ok_q svc s "string(<a>x\ny</a>)");
        check Alcotest.int "three compiles" 3 (Svc.cache_stats svc).PC.misses;
        (* code without constructors still shares across reformatting *)
        ignore (ok_q svc s "1 <  2");
        ignore (ok_q svc s "1\n<\t2");
        check Alcotest.int "comparison reformatted: a hit" 1 (Svc.cache_stats svc).PC.hits);
    tc "EXPLAIN on a shape hit renders the request's literals" `Quick (fun () ->
        let docs = [ ("auction", auction) ] in
        let q who = Printf.sprintf {|doc("auction")//person[@id="%s"]/name/string()|} who in
        let strip s =
          let s = Re.replace_string (Re.compile (Re.Perl.re "\n-- gc:.*")) ~by:"" s in
          canon (Re.replace_string (Re.compile (Re.Perl.re "[0-9]+\\.[0-9]+ ?ms")) ~by:"_ms" s)
        in
        let svc = Svc.create ~domains:0 () in
        Fun.protect ~finally:(fun () -> Svc.shutdown svc) @@ fun () ->
        let s = Svc.open_session svc in
        Svc.load_document svc s ~uri:"auction" auction;
        ignore (ok_q svc s (q "person1"));
        let hits = (Svc.cache_stats svc).PC.hits in
        let served =
          match Svc.explain svc s (q "person2") with
          | Ok r -> r
          | Error e -> Alcotest.failf "EXPLAIN: %s" (SE.to_string e)
        in
        check Alcotest.int "EXPLAIN hit the shape" (hits + 1) (Svc.cache_stats svc).PC.hits;
        let eng = fresh_engine docs in
        let fresh =
          Runner.render
            (Runner.execute ~profile:true eng
               (Runner.prepare ~var_docs:(var_docs docs) eng (q "person2")))
        in
        check Alcotest.string "text of a fresh compile" (strip fresh) (strip served));
  ]


(* -- values stay per job ------------------------------------------------------ *)

let await_ok q fut =
  match Svc.await fut with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" q (SE.to_string e)

let gate_peak svc key =
  let v = Xqb_obs.Json.parse_exn (Svc.stats_json svc) in
  match Option.bind (Xqb_obs.Json.path v [ "concurrency"; key ]) Xqb_obs.Json.to_float_opt with
  | Some f -> int_of_float f
  | None -> Alcotest.failf "STATS lacks concurrency.%s" key

(* Submit [n] jobs of one shape, literal [i] to job [i], all before
   awaiting any; every job must answer with its own literal. *)
let in_flight_at_once svc ~sessions ~text ~expect n =
  let jobs =
    List.init n (fun i ->
        let lit = Printf.sprintf "L%d" i in
        let q = text lit in
        (q, expect lit, Svc.submit svc sessions.(i mod Array.length sessions) q))
  in
  List.iter (fun (q, want, fut) -> check Alcotest.string q want (await_ok q fut)) jobs

let slow = "string(count(for $i in 1 to 20000 return $i))"

let per_job_values =
  [
    tc "two jobs of one shape in flight at once keep their own values (fork, writer)"
      `Quick (fun () ->
        let svc = Svc.create ~domains:4 () in
        Fun.protect ~finally:(fun () -> Svc.shutdown svc) @@ fun () ->
        let s1 = Svc.open_session svc and s2 = Svc.open_session svc in
        (* fork route: one session, the values ride on each job's fork *)
        in_flight_at_once svc ~sessions:[| s1 |]
          ~text:(fun l -> Printf.sprintf {|concat(%s, "-", "%s")|} slow l)
          ~expect:(fun l -> "20000-" ^ l)
          24;
        check Alcotest.bool "fork jobs overlapped" true (gate_peak svc "peak" >= 2);
        (* writer route (fresh-node writes): two sessions run at once,
           each with its job's values on its own engine *)
        in_flight_at_once svc ~sessions:[| s1; s2 |]
          ~text:(fun l ->
            Printf.sprintf
              {|let $x := <a v="%s"/> return (insert {<b/>} into {$x}, concat($x/@v, "/", "%s", "/", %s))|}
              l l slow)
          ~expect:(fun l -> Printf.sprintf "%s/%s/20000" l l)
          24;
        check Alcotest.bool "writers overlapped" true (gate_peak svc "writer_peak" >= 2);
        let st = Svc.cache_stats svc in
        check Alcotest.int "two shapes, two compiles" 2 st.PC.misses;
        check Alcotest.int "both hold parameters" 2 st.PC.shapes);
  ]

let suite =
  [
    ("shape-cache:agreement", agreement);
    ("shape-cache:keys", never_share);
    ("shape-cache:values", per_job_values);
  ]
