(* The §4.3 experiment as an application: run the XMark-Q8-with-
   updates query on the tree interpreter (the reference semantics,
   a nested loop) and through the algebra plan — the path `xqbang
   run` and the query service execute — check the results (value
   *and* side effects) agree and show the plan.

   Run with: dune exec examples/auction_report.exe *)

let query =
  {|
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return (insert { <buyer person="{$t/buyer/@person}"
                   itemid="{$t/itemref/@item}" /> }
          into { $purchasers }, $t)
return <item person="{ $p/name }">{ count($a) }</item>
|}

let setup () =
  let engine = Core.Engine.create () in
  let cfg =
    { Xqb_xmark.Generator.default with persons = 120; closed_auctions = 240 }
  in
  let doc = Xqb_xmark.Generator.generate (Core.Engine.store engine) cfg in
  Core.Engine.bind_node engine "auction" doc;
  ignore (Core.Engine.run engine "()");  (* warm the pipeline *)
  engine

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, (Unix.gettimeofday () -. t0) *. 1000.)

let () =
  print_endline "== XMark Q8 variant with logging inserts (paper §4.3) ==";

  let eng_naive = setup () in
  Core.Engine.bind eng_naive "purchasers"
    (Xqb_xdm.Value.of_node
       (Xqb_store.Store.load_string (Core.Engine.store eng_naive) "<purchasers/>"));
  let v_naive, ms_naive = time (fun () -> Core.Engine.run eng_naive query) in

  let eng_opt = setup () in
  Core.Engine.bind eng_opt "purchasers"
    (Xqb_xdm.Value.of_node
       (Xqb_store.Store.load_string (Core.Engine.store eng_opt) "<purchasers/>"));
  let r_opt, ms_opt = time (fun () -> Xqb_algebra.Runner.run eng_opt query) in

  Printf.printf "naive (nested loop): %4d items in %6.1f ms\n"
    (List.length v_naive) ms_naive;
  Printf.printf "optimized (join):    %4d items in %6.1f ms  (rewrites: %s)\n"
    (List.length r_opt.Xqb_algebra.Runner.value)
    ms_opt
    (String.concat ", " r_opt.Xqb_algebra.Runner.fired);

  let s1 = Core.Engine.serialize eng_naive v_naive in
  let s2 = Core.Engine.serialize eng_opt r_opt.Xqb_algebra.Runner.value in
  Printf.printf "values agree:  %b\n" (String.equal s1 s2);

  let purchasers eng =
    Core.Engine.serialize eng
      (Core.Engine.run eng "for $b in $purchasers/buyer return string($b/@person)")
  in
  Printf.printf "effects agree: %b\n"
    (String.equal (purchasers eng_naive) (purchasers eng_opt));

  print_endline "\n== optimized plan ==";
  print_endline (Xqb_algebra.Runner.explain eng_opt query)
