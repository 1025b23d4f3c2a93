(* The store mutation journal (lib/store/journal.ml): replaying the
   journal against a fresh store must reproduce the original byte for
   byte — including loads, deep copies (composite entries), provenance
   notes, and committed/aborted transaction spans. The qcheck property
   drives random update-request sequences with random rollbacks. *)

open Helpers
module Journal = Xqb_store.Journal
module U = Core.Update

(* Fresh store with journaling on from the first allocation (replay
   is exact only from an empty store). *)
let fresh_with_doc xml =
  let store = Store.create () in
  Store.journal_start store;
  let doc = Store.load_string store xml in
  (store, doc)

let check_consistent name store =
  if not (Journal.consistent store) then
    Alcotest.failf "%s: replay diverged from the live store:\n%s" name
      (Journal.to_string ~store (Store.journal_entries store))

let first_elem store doc = List.hd (Store.children store doc)

let count_ops pred store =
  List.length
    (List.filter (fun (e : Journal.entry) -> pred e.op) (Store.journal_entries store))

let units =
  [
    tc "loading a document journals its construction" `Quick (fun () ->
        let store, _ = fresh_with_doc "<r><a/><b>t</b></r>" in
        check Alcotest.bool "non-empty" true (Store.journal_length store > 0);
        check_consistent "load" store);
    tc "plain mutations replay" `Quick (fun () ->
        let store, doc = fresh_with_doc "<r><a/><b>t</b></r>" in
        let r = first_elem store doc in
        let n = Store.make_element store (qn "new") in
        Store.insert store ~parent:r ~position:Store.First [ n ];
        Store.rename store n (qn "renamed");
        (match Store.children store r with
        | _ :: _ :: b :: _ ->
          Store.set_content store (List.hd (Store.children store b)) "t2"
        | _ -> Alcotest.fail "fixture shape");
        Store.detach store n;
        check_consistent "mutations" store);
    tc "deep copy is one composite entry" `Quick (fun () ->
        let store, doc = fresh_with_doc "<r><a><b/>t</a></r>" in
        let r = first_elem store doc in
        let before = Store.journal_length store in
        let c = Store.deep_copy store r in
        check Alcotest.int "inner allocations suppressed" (before + 1)
          (Store.journal_length store);
        Store.insert store ~parent:r ~position:Store.Last [ c ];
        check Alcotest.int "one M_deep_copy" 1
          (count_ops (function Store.M_deep_copy _ -> true | _ -> false) store);
        check_consistent "deep copy" store);
    tc "committed transaction replays" `Quick (fun () ->
        let store, doc = fresh_with_doc "<r/>" in
        let r = first_elem store doc in
        Store.transactionally store (fun () ->
            let n = Store.make_element store (qn "in-txn") in
            Store.insert store ~parent:r ~position:Store.Last [ n ]);
        check Alcotest.int "begin marker" 1
          (count_ops (function Store.M_txn_begin -> true | _ -> false) store);
        check Alcotest.int "commit marker" 1
          (count_ops (function Store.M_txn_commit -> true | _ -> false) store);
        check_consistent "committed txn" store);
    tc "aborted transaction rolls back in replay too" `Quick (fun () ->
        let store, doc = fresh_with_doc "<r><keep/></r>" in
        let r = first_elem store doc in
        let before = Journal.digest store in
        (try
           Store.transactionally store (fun () ->
               let n = Store.make_element store (qn "gone") in
               Store.insert store ~parent:r ~position:Store.Last [ n ];
               Store.rename store r (qn "other");
               failwith "abort")
         with Failure _ -> ());
        (* structure is restored (the allocation survives, detached) *)
        check Alcotest.int "one child again" 1 (Store.child_count store r);
        check Alcotest.bool "digest differs only by the allocation" true
          (before <> Journal.digest store);
        check Alcotest.int "abort marker" 1
          (count_ops (function Store.M_txn_abort -> true | _ -> false) store);
        check_consistent "aborted txn" store);
    tc "nested spans: inner abort inside outer commit" `Quick (fun () ->
        let store, doc = fresh_with_doc "<r/>" in
        let r = first_elem store doc in
        Store.transactionally store (fun () ->
            let a = Store.make_element store (qn "a") in
            Store.insert store ~parent:r ~position:Store.Last [ a ];
            try
              Store.transactionally store (fun () ->
                  let b = Store.make_element store (qn "b") in
                  Store.insert store ~parent:r ~position:Store.Last [ b ];
                  failwith "inner abort")
            with Failure _ -> ());
        check Alcotest.int "only the outer insert held" 1
          (Store.child_count store r);
        check_consistent "nested" store);
    tc "a rollback never strips constructed content" `Quick (fun () ->
        (* construction while a transaction is open — another job's
           snap apply on a shared store — is not part of that
           transaction: its rollback leaves the constructed tree
           whole, and replay (which redoes the rollback) agrees *)
        let store, _ = fresh_with_doc "<r/>" in
        let eng = Core.Engine.create ~store () in
        let v = ref [] in
        (try
           Store.transactionally store (fun () ->
               v := Core.Engine.run eng {|<x b="1"><y/></x>|};
               failwith "x")
         with Failure _ -> ());
        check Alcotest.string "constructed tree intact" {|<x b="1"><y></y></x>|}
          (Core.Engine.serialize eng !v);
        check Alcotest.int "one M_wire per constructor with content" 1
          (count_ops (function Store.M_wire _ -> true | _ -> false) store);
        check_consistent "construction under a rolled-back txn" store);
    tc "update requests journal provenance notes" `Quick (fun () ->
        let store, doc = fresh_with_doc "<r><a/></r>" in
        let r = first_elem store doc in
        let n = Store.make_element store (qn "p") in
        U.apply_request store
          (U.make
             ~prov:
               {
                 U.src_line = 3;
                 src_col = 12;
                 snap_depth = 1;
                 trace_id = Some "t9";
               }
             (U.Insert { nodes = [ n ]; parent = r; position = U.Last }));
        let notes =
          List.filter_map
            (fun (e : Journal.entry) ->
              match e.op with
              | Store.M_request _ -> Some (Journal.entry_to_string ~store e)
              | _ -> None)
            (Store.journal_entries store)
        in
        (match notes with
        | [ s ] ->
          List.iter
            (fun frag ->
              if
                not
                  (Re.execp (Re.compile (Re.str frag)) s)
              then Alcotest.failf "note %S lacks %S" s frag)
            [ "3:12"; "snap depth 1"; "trace t9" ]
        | _ -> Alcotest.failf "expected exactly one note, got %d" (List.length notes));
        check_consistent "provenance" store);
    tc "replay rejects an unmatched terminator" `Quick (fun () ->
        match Journal.replay [ { Journal.seq = 0; op = Store.M_txn_commit } ] with
        | _ -> Alcotest.fail "expected Replay_error"
        | exception Journal.Replay_error _ -> ());
    tc "digest separates distinguishable stores" `Quick (fun () ->
        let s1, _ = fresh_with_doc "<r><a/></r>" in
        let s2, d2 = fresh_with_doc "<r><a/></r>" in
        check Alcotest.string "same build, same digest" (Journal.digest s1)
          (Journal.digest s2);
        Store.rename s2 (first_elem s2 d2) (qn "z");
        check Alcotest.bool "mutation changes the digest" true
          (Journal.digest s1 <> Journal.digest s2));
    tc "engine queries with snap updates replay" `Quick (fun () ->
        let eng = Core.Engine.create () in
        let store = Core.Engine.store eng in
        Store.journal_start store;
        ignore
          (Core.Engine.run eng
             {|let $x := <x><a/></x>
               return (snap { insert {<b/>} into {$x},
                              rename {$x/a} to {'a2'} },
                       snap delete {$x/a2})|});
        check_consistent "engine" store);
  ]

(* -- qcheck: random request sequences with rollbacks ---------------- *)

type cmd =
  | C_insert of int * int * int  (* parent sel, position sel, name sel *)
  | C_delete of int
  | C_rename of int * int
  | C_set_value of int * int
  | C_copy of int * int  (* source sel, destination sel *)
  | C_txn of bool * cmd list  (* abort?, inner commands *)

let gen_cmds : cmd list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let sel = int_bound 40 in
  let base =
    oneof
      [
        map3 (fun a b c -> C_insert (a, b, c)) sel sel sel;
        map (fun a -> C_delete a) sel;
        map2 (fun a b -> C_rename (a, b)) sel sel;
        map2 (fun a b -> C_set_value (a, b)) sel sel;
        map2 (fun a b -> C_copy (a, b)) sel sel;
      ]
  in
  let cmd =
    oneof
      [ base; map2 (fun ab inner -> C_txn (ab, inner)) bool (list_size (int_range 1 4) base) ]
  in
  list_size (int_range 0 25) cmd

let names = [| "a"; "b"; "c"; "d" |]

(* Element-id pool: grows with every allocation; runtime guards make
   any selection valid or a cleanly-skipped Update_error. *)
let rec exec store pool cmd =
  let pick sel = List.nth !pool (sel mod List.length !pool) in
  let guard f = try f () with Store.Update_error _ -> () in
  let prov line col =
    { U.src_line = line; src_col = col; snap_depth = 0; trace_id = None }
  in
  match cmd with
  | C_insert (ps, pos_s, ns) ->
    let parent = pick ps in
    let n = Store.make_element store (qn names.(ns mod Array.length names)) in
    pool := !pool @ [ n ];
    guard (fun () ->
        let position =
          match Store.children store parent with
          | [] -> U.First
          | c :: _ -> (
            match pos_s mod 4 with
            | 0 -> U.First
            | 1 -> U.Last
            | 2 -> U.Before c
            | _ -> U.After c)
        in
        U.apply_request store
          (U.make ~prov:(prov (ps + 1) (ns + 1))
             (U.Insert { nodes = [ n ]; parent; position })))
  | C_delete s ->
    guard (fun () ->
        U.apply_request store (U.make ~prov:(prov (s + 1) 1) (U.Delete (pick s))))
  | C_rename (s, ns) ->
    guard (fun () ->
        U.apply_request store
          (U.make (U.Rename (pick s, qn names.(ns mod Array.length names)))))
  | C_set_value (s, v) ->
    guard (fun () ->
        U.apply_request store (U.make (U.Set_value (pick s, string_of_int v))))
  | C_copy (s, ds) ->
    let c = Store.deep_copy store (pick s) in
    pool := !pool @ [ c ];
    guard (fun () ->
        U.apply_request store
          (U.make (U.Insert { nodes = [ c ]; parent = pick ds; position = U.Last })))
  | C_txn (abort, inner) -> (
    try
      Store.transactionally store (fun () ->
          List.iter (exec store pool) inner;
          if abort then failwith "roll me back")
    with Failure _ -> ())

let rec elements store id acc =
  let acc = if Store.kind store id = Store.Element then id :: acc else acc in
  List.fold_left (fun a c -> elements store c a) acc (Store.children store id)

let replay_property =
  qtest ~count:150 "journal replay reproduces the store" gen_cmds (fun cmds ->
      let store, doc = fresh_with_doc "<r><a/><b>t</b></r>" in
      let pool = ref (elements store doc []) in
      List.iter (exec store pool) cmds;
      (match Store.validate store with
      | [] -> ()
      | errs ->
        QCheck2.Test.fail_reportf "store invariants broken:@.%s"
          (String.concat "\n" errs));
      Journal.consistent store
      || QCheck2.Test.fail_reportf "replay diverged:@.%s"
           (Journal.to_string ~store (Store.journal_entries store)))

let suite =
  [
    ("journal:units", units);
    ("journal:replay-property", [ replay_property ]);
  ]
