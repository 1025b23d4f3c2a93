(* §2.5 and §3.4 in miniature: nested snap scopes, the nextid()
   counter, and the three update-application semantics.

   Run with: dune exec examples/counter.exe *)

let () =
  let engine = Core.Engine.create () in

  (* The paper's §3.4 ordering example: the inner snap applies first,
     so the final child order is b, a, c. *)
  let v =
    Core.Engine.run engine
      {|let $x := <x/>
        return (snap ordered { insert {<a/>} into {$x},
                               snap { insert {<b/>} into {$x} },
                               insert {<c/>} into {$x} },
                $x)|}
  in
  Printf.printf "paper 3.4 example: %s (expected <x><b></b><a></a><c></c></x>)\n"
    (Core.Engine.serialize engine v);

  (* The nextid() counter: each call's snap closes before the next
     call starts, so ids increase. *)
  let v =
    Core.Engine.run engine
      {|declare variable $d := element counter { 0 };
        declare function nextid() as xs:integer {
          snap { replace { $d/text() } with { $d + 1 }, xs:integer($d) }
        };
        (nextid(), nextid(), nextid(), nextid())|}
  in
  Printf.printf "nextid() stream:   %s\n" (Core.Engine.serialize engine v);

  (* Conflict-detection semantics: two inserts into the same slot are
     rejected, and the failed snap leaves the store untouched. *)
  let v =
    Core.Engine.run engine
      {|let $x := <x><k/></x>
        return (
          (: two "as last into $x" requests conflict under the
             conflict-detection semantics :)
          snap conflict { rename {$x/k} to {"renamed"} },
          string(($x/*)[1]/node-name(.))
        )|}
  in
  Printf.printf "conflict-free snap applied: %s\n" (Core.Engine.serialize engine v);

  (match
     Core.Engine.run engine
       {|let $x := <x/>
         return snap conflict { insert {<a/>} into {$x}, insert {<b/>} into {$x} }|}
   with
  | _ -> print_endline "ERROR: conflicting snap was not rejected"
  | exception Core.Conflict.Conflict_error c ->
    Printf.printf "conflicting snap rejected: %s\n" (Core.Conflict.to_string c));

  (* Nondeterministic semantics: with independent updates, any
     application order yields the same store. *)
  let run_nondet seed =
    let e = Core.Engine.create ~seed () in
    let v =
      Core.Engine.run e
        {|let $x := <x><a/><b/><c/></x>
          return (snap nondeterministic {
                    for $c in $x/* return rename {$c} to {concat("n-", node-name($c))}
                  }, $x)|}
    in
    Core.Engine.serialize e v
  in
  let r1 = run_nondet 1 and r2 = run_nondet 99 in
  Printf.printf "nondet order-independent: %b\n" (String.equal r1 r2)
