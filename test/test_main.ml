(* Aggregate test runner: every module contributes a list of
   (suite name, test cases). *)

let () =
  Alcotest.run "xquery_bang"
    (List.concat
       [
         Test_xml.suite;
         Test_store.suite;
         Test_axes.suite;
         Test_xdm.suite;
         Test_lexer.suite;
         Test_parser.suite;
         Test_pretty.suite;
         Test_normalize.suite;
         Test_eval_xquery.suite;
         Test_functions.suite;
         Test_eval_updates.suite;
         Test_snap.suite;
         Test_apply.suite;
         Test_types.suite;
         Test_static.suite;
         Test_optimizer.suite;
         Test_xmark.suite;
         Test_engine.suite;
         Test_usecase.suite;
         Test_extensions.suite;
         Test_conformance.suite;
         Test_update_matrix.suite;
         Test_xquf.suite;
         Test_rewrite.suite;
         Test_typing.suite;
         Test_fuzz.suite;
         Test_index.suite;
         Test_xmark_queries.suite;
         Test_service.suite;
         Test_obs.suite;
         Test_explain.suite;
         Test_order_keys.suite;
         Test_ddo_elision.suite;
         Test_journal.suite;
         Test_wal.suite;
         Test_footprint.suite;
         Test_edge.suite;
         Test_profile.suite;
         Test_shape_cache.suite;
         Test_group_commit.suite;
         Test_read_path.suite;
       ])
