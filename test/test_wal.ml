(* The durability subsystem (lib/wal) and its service integration:
   the binary frame codec (qcheck round-trip, torn-tail truncation at
   every byte offset), snapshots, the Durable manager (commit →
   recover digest equality, aborted/incomplete spans, checkpoints,
   shipping), the durable Service end-to-end (restart recovery,
   CHECKPOINT, metrics) and leader → replica convergence driven
   through the same ship/ingest path the network loop uses. *)

open Helpers
module S = Xqb_store.Store
module Codec = Xqb_wal.Codec
module Wal = Xqb_wal.Wal
module Durable = Xqb_wal.Durable
module B64 = Xqb_wal.B64
module Crc32 = Xqb_wal.Crc32
module Svc = Xqb_service.Service
module Catalog = Xqb_service.Catalog
module SE = Xqb_service.Service_error
module P = Xqb_service.Protocol

let ok = function
  | Ok s -> s
  | Error e -> Alcotest.failf "query failed: %s" (SE.to_string e)

let err = function
  | Ok s -> Alcotest.failf "expected an error, got %S" s
  | Error (e : SE.t) -> e

let okr what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what e

let digest_of svc = Codec.store_digest_hex (Catalog.store (Svc.catalog svc))

(* Fresh scratch directories (Durable.recover creates them). *)
let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "xqbang-wal-test-%d-%d" (Unix.getpid ()) !tmp_counter)

let cfg ?(fsync = Wal.Never) ?(checkpoint_bytes = 0) ?(checkpoint_secs = 0.)
    dir =
  { Durable.dir; fsync; checkpoint_bytes; checkpoint_secs }

let with_durable_svc ?fsync dir f =
  let svc = Svc.create ~domains:0 ~durability:(cfg ?fsync dir) () in
  Fun.protect ~finally:(fun () -> Svc.shutdown svc) (fun () -> f svc)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let wal_path dir = Filename.concat dir "wal.log"

let snap_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".snap")
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_bytes =
  (* arbitrary bytes, NULs and high bits included — the codec must be
     8-bit clean *)
  QCheck2.Gen.(string_size ~gen:char (0 -- 32))

let gen_qname =
  QCheck2.Gen.oneofl [ qn "a"; qn "b"; qn "ns:c"; qn "long-element-name" ]

let gen_op =
  let open QCheck2.Gen in
  let id = 0 -- 1000 in
  let pos =
    oneof [ return S.First; return S.Last; map (fun n -> S.After n) id ]
  in
  let kind =
    oneofl [ S.Document; S.Element; S.Attribute; S.Text; S.Comment; S.Pi ]
  in
  oneof
    [
      map3 (fun k q c -> S.M_make (k, q, c)) kind (option gen_qname) gen_bytes;
      map3 (fun p po ns -> S.M_insert (p, po, ns)) id pos (list_size (0 -- 4) id);
      map (fun n -> S.M_detach n) id;
      map2 (fun n q -> S.M_rename (n, q)) id gen_qname;
      map2 (fun n c -> S.M_set_content (n, c)) id gen_bytes;
      map (fun n -> S.M_deep_copy n) id;
      map2 (fun p ns -> S.M_wire (p, ns)) id (list_size (0 -- 4) id);
      return S.M_txn_begin;
      return S.M_txn_commit;
      return S.M_txn_abort;
      map3
        (fun (line, col) (snap_depth, trace_id) desc ->
          S.M_request { line; col; snap_depth; trace_id; desc })
        (pair (0 -- 9999) (0 -- 999))
        (pair (0 -- 5) (option gen_bytes))
        gen_bytes;
    ]

let gen_record =
  let open QCheck2.Gen in
  oneof
    [
      map2 (fun seq op -> Codec.R_entry { S.seq; op }) (0 -- 100000) gen_op;
      map3
        (fun uri root bytes -> Codec.R_doc { uri; root; bytes })
        gen_bytes (0 -- 1000) (0 -- 1000000);
    ]

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let codec =
  [
    tc "crc32 known vector" `Quick (fun () ->
        check Alcotest.int "123456789" 0xCBF43926 (Crc32.digest "123456789"));
    qtest ~count:300 "frame/scan round-trips any record"
      QCheck2.Gen.(pair (0 -- 1_000_000) gen_record)
      (fun (lsn, r) ->
        let f = Codec.frame ~lsn r in
        match Codec.scan f with
        | [ (lsn', r', n) ], valid ->
          lsn' = lsn && r' = r && n = String.length f
          && valid = String.length f
        | _ -> false);
    qtest ~count:300 "base64 round-trips arbitrary bytes" gen_bytes (fun s ->
        B64.decode (B64.encode s) = s);
    tc "scan of a cut log stops exactly at the last whole frame" `Quick
      (fun () ->
        (* three frames, then cut the concatenation at *every* byte
           offset: scan must decode exactly the frames that fit and
           report the valid prefix length as the truncation point *)
        let records =
          [
            Codec.R_entry { S.seq = 0; op = S.M_txn_begin };
            Codec.R_entry
              { S.seq = 1; op = S.M_make (S.Element, Some (qn "a"), "") };
            Codec.R_doc { uri = "d"; root = 1; bytes = 42 };
          ]
        in
        let frames = List.mapi (fun i r -> Codec.frame ~lsn:(i + 1) r) records in
        let log = String.concat "" frames in
        let sizes = List.map String.length frames in
        for cut = 0 to String.length log do
          let prefix = String.sub log 0 cut in
          let decoded, valid = Codec.scan prefix in
          (* how many whole frames fit in [cut] bytes? *)
          let rec fit acc off = function
            | sz :: rest when off + sz <= cut -> fit (acc + 1) (off + sz) rest
            | _ -> (acc, off)
          in
          let expect_n, expect_valid = fit 0 0 sizes in
          check Alcotest.int
            (Printf.sprintf "frames at cut %d" cut)
            expect_n (List.length decoded);
          check Alcotest.int
            (Printf.sprintf "valid offset at cut %d" cut)
            expect_valid valid
        done);
    tc "scan stops at a corrupt frame, keeps the good prefix" `Quick
      (fun () ->
        let f1 = Codec.frame ~lsn:1 (Codec.R_entry { S.seq = 0; op = S.M_txn_begin }) in
        let f2 =
          Codec.frame ~lsn:2
            (Codec.R_entry
               { S.seq = 1; op = S.M_set_content (3, "hello world") })
        in
        let log = Bytes.of_string (f1 ^ f2) in
        (* flip a payload byte inside the second frame: its CRC fails *)
        let off = String.length f1 + 8 + 2 in
        Bytes.set log off (Char.chr (Char.code (Bytes.get log off) lxor 0xff));
        let decoded, valid = Codec.scan (Bytes.to_string log) in
        check Alcotest.int "one frame survives" 1 (List.length decoded);
        check Alcotest.int "truncation point" (String.length f1) valid);
    tc "snapshot round-trips a populated store" `Quick (fun () ->
        let st = S.create () in
        let root = S.load_string st "<r a='1'><b>two</b><!--c--><?p i?></r>" in
        let blob = Codec.snapshot ~lsn:7 ~docs:[ ("d", root, 99) ] st in
        let st' = S.create () in
        let lsn, docs = Codec.restore st' blob in
        check Alcotest.int "lsn" 7 lsn;
        check
          Alcotest.(list (triple string int int))
          "docs" [ ("d", root, 99) ] docs;
        check Alcotest.string "digest" (Codec.store_digest_hex st)
          (Codec.store_digest_hex st'));
    tc "a damaged snapshot never boots" `Quick (fun () ->
        let st = S.create () in
        ignore (S.load_string st "<r><a/></r>");
        let blob = Bytes.of_string (Codec.snapshot ~lsn:1 ~docs:[] st) in
        let off = Bytes.length blob / 2 in
        Bytes.set blob off
          (Char.chr (Char.code (Bytes.get blob off) lxor 0x01));
        match Codec.restore (S.create ()) (Bytes.to_string blob) with
        | exception Codec.Corrupt _ -> ()
        | _ -> Alcotest.fail "expected Codec.Corrupt");
  ]

(* ------------------------------------------------------------------ *)
(* Durable manager                                                     *)
(* ------------------------------------------------------------------ *)

(* A live store with journal recording on, plus its entries. *)
let journaled_store xml =
  let st = S.create () in
  S.journal_start st;
  let root = S.load_string st xml in
  (st, root)

let durable =
  [
    tc "commit → recover reproduces the store byte for byte" `Quick
      (fun () ->
        let dir = fresh_dir () in
        let st, _ = journaled_store "<r><a>1</a><b>2</b></r>" in
        let d, r0 = Durable.recover (cfg dir) in
        check Alcotest.int "fresh boot" 0 r0.Durable.lsn;
        let entries = S.journal_entries_from st 0 in
        let lsn = Durable.commit_entries d entries in
        check Alcotest.int "one lsn per entry" (List.length entries) lsn;
        Durable.close d;
        let d2, r = Durable.recover (cfg dir) in
        check Alcotest.int "frames replayed" (List.length entries)
          r.Durable.wal_frames;
        check Alcotest.string "digest" (Codec.store_digest_hex st)
          (Codec.store_digest_hex r.Durable.store);
        check Alcotest.int "lsn restored" lsn r.Durable.lsn;
        (* LSNs keep increasing across restarts *)
        let lsn2 = Durable.commit_entries d2 [ { S.seq = 99; op = S.M_txn_begin };
                                               { S.seq = 100; op = S.M_txn_commit } ] in
        check Alcotest.bool "monotonic lsn" true (lsn2 = lsn + 2);
        Durable.close d2);
    tc "a trailing incomplete span is dropped on recovery" `Quick (fun () ->
        let dir = fresh_dir () in
        let st, _ = journaled_store "<r/>" in
        let d, _ = Durable.recover (cfg dir) in
        ignore (Durable.commit_entries d (S.journal_entries_from st 0));
        (* a span that begins but never commits: the writer died
           between append and the commit marker *)
        let n = S.journal_length st in
        ignore
          (Durable.commit_entries d
             [
               { S.seq = n; op = S.M_txn_begin };
               { S.seq = n + 1; op = S.M_make (S.Element, Some (qn "z"), "") };
             ]);
        Durable.close d;
        let d2, r = Durable.recover (cfg dir) in
        check Alcotest.string "half-written span ignored"
          (Codec.store_digest_hex st)
          (Codec.store_digest_hex r.Durable.store);
        Durable.close d2);
    tc "an aborted span replays through rollback" `Quick (fun () ->
        let dir = fresh_dir () in
        let st, root = journaled_store "<r><keep/></r>" in
        (try
           S.transactionally st (fun () ->
               let e = S.make_element st (qn "doomed") in
               S.insert st ~parent:root ~position:S.Last [ e ];
               failwith "boom")
         with Failure _ -> ());
        let d, _ = Durable.recover (cfg dir) in
        ignore (Durable.commit_entries d (S.journal_entries_from st 0));
        Durable.close d;
        let d2, r = Durable.recover (cfg dir) in
        check Alcotest.string "rollback reproduced"
          (Codec.store_digest_hex st)
          (Codec.store_digest_hex r.Durable.store);
        Durable.close d2);
    tc "a torn tail is truncated, committed prefix survives" `Quick
      (fun () ->
        let dir = fresh_dir () in
        let st, _ = journaled_store "<r><a/></r>" in
        let d, _ = Durable.recover (cfg dir) in
        ignore (Durable.commit_entries d (S.journal_entries_from st 0));
        Durable.close d;
        (* simulate a crash mid-write: half a frame, then garbage *)
        let frame =
          Codec.frame ~lsn:999
            (Codec.R_entry { S.seq = 0; op = S.M_set_content (1, "x") })
        in
        let torn = String.sub frame 0 (String.length frame - 3) ^ "\x01\xff" in
        let oc =
          open_out_gen [ Open_append; Open_binary ] 0o644 (wal_path dir)
        in
        output_string oc torn;
        close_out oc;
        let d2, r = Durable.recover (cfg dir) in
        check Alcotest.bool "tail dropped" true (r.Durable.truncated_bytes > 0);
        check Alcotest.string "digest" (Codec.store_digest_hex st)
          (Codec.store_digest_hex r.Durable.store);
        (* the truncation is physical: the torn bytes are gone and a
           re-opened WAL appends clean frames after the valid prefix *)
        ignore
          (Durable.commit_entries d2
             [ { S.seq = 0; op = S.M_txn_begin };
               { S.seq = 1; op = S.M_txn_commit } ]);
        Durable.close d2;
        let d3, _ = Durable.recover (cfg dir) in
        Durable.close d3);
    tc "checkpoint truncates the WAL and recovery uses the snapshot"
      `Quick (fun () ->
        let dir = fresh_dir () in
        let st, _ = journaled_store "<r><a>1</a></r>" in
        let d, _ = Durable.recover (cfg dir) in
        ignore (Durable.commit_entries d (S.journal_entries_from st 0));
        let ck = Durable.checkpoint d ~docs:[ ("d", 0, 17) ] st in
        check Alcotest.bool "covers the log" true (ck > 0);
        check Alcotest.int "wal truncated" 0
          (Unix.stat (wal_path dir)).Unix.st_size;
        check Alcotest.int "one snapshot" 1 (List.length (snap_files dir));
        Durable.close d;
        let d2, r = Durable.recover (cfg dir) in
        check Alcotest.int "booted from the snapshot" ck r.Durable.snapshot_lsn;
        check Alcotest.int "no wal frames" 0 r.Durable.wal_frames;
        check
          Alcotest.(list (triple string int int))
          "docs recovered" [ ("d", 0, 17) ] r.Durable.docs;
        check Alcotest.string "digest" (Codec.store_digest_hex st)
          (Codec.store_digest_hex r.Durable.store);
        Durable.close d2);
    tc "only the two newest snapshots are kept" `Quick (fun () ->
        let dir = fresh_dir () in
        let st, _ = journaled_store "<r/>" in
        let d, _ = Durable.recover (cfg dir) in
        ignore (Durable.commit_entries d (S.journal_entries_from st 0));
        for i = 1 to 3 do
          ignore
            (Durable.commit_entries d
               [
                 { S.seq = i * 2; op = S.M_txn_begin };
                 { S.seq = (i * 2) + 1; op = S.M_txn_commit };
               ]);
          ignore (Durable.checkpoint d ~docs:[] st)
        done;
        check Alcotest.int "retention" 2 (List.length (snap_files dir));
        Durable.close d);
    tc "ship before the last checkpoint demands a re-bootstrap" `Quick
      (fun () ->
        let dir = fresh_dir () in
        let st, _ = journaled_store "<r><a/></r>" in
        let d, _ = Durable.recover (cfg dir) in
        let lsn = Durable.commit_entries d (S.journal_entries_from st 0) in
        (match Durable.ship d ~from_lsn:1 ~max:1000 with
        | Ok (last, frames) ->
          check Alcotest.int "all frames" lsn (List.length frames);
          check Alcotest.int "last lsn" lsn last
        | Error `Too_old -> Alcotest.fail "tail should still be available");
        ignore (Durable.checkpoint d ~docs:[] st);
        (match Durable.ship d ~from_lsn:1 ~max:1000 with
        | Ok _ -> Alcotest.fail "frames before the checkpoint must be gone"
        | Error `Too_old -> ());
        (* at the tip: empty batch, not an error *)
        (match Durable.ship d ~from_lsn:(lsn + 1) ~max:1000 with
        | Ok (last, []) -> check Alcotest.int "tip" lsn last
        | Ok _ -> Alcotest.fail "expected an empty batch"
        | Error `Too_old -> Alcotest.fail "tip is never too old");
        Durable.close d);
    tc "a corrupted snapshot refuses to boot" `Quick (fun () ->
        let dir = fresh_dir () in
        let st, _ = journaled_store "<r><a/></r>" in
        let d, _ = Durable.recover (cfg dir) in
        ignore (Durable.commit_entries d (S.journal_entries_from st 0));
        ignore (Durable.checkpoint d ~docs:[] st);
        Durable.close d;
        let snap = Filename.concat dir (List.hd (snap_files dir)) in
        let b = Bytes.of_string (read_file snap) in
        let off = Bytes.length b / 2 in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
        write_file snap (Bytes.to_string b);
        match Durable.recover (cfg dir) with
        | exception Codec.Corrupt _ -> ()
        | d2, _ ->
          Durable.close d2;
          Alcotest.fail "expected Codec.Corrupt");
    tc "fsync always counts syncs; policy strings round-trip" `Quick
      (fun () ->
        let dir = fresh_dir () in
        let d, _ = Durable.recover (cfg ~fsync:Wal.Always dir) in
        ignore
          (Durable.commit_entries d [ { S.seq = 0; op = S.M_txn_begin };
                                      { S.seq = 1; op = S.M_txn_commit } ]);
        let j = check_json "durability stats" (Durable.stats_json d) in
        let num path =
          match
            Option.bind (Xqb_obs.Json.path j path) Xqb_obs.Json.to_float_opt
          with
          | Some f -> int_of_float f
          | None -> Alcotest.failf "missing %s" (String.concat "." path)
        in
        check Alcotest.bool "fsynced" true (num [ "fsyncs" ] >= 1);
        check Alcotest.int "lsn" 2 (num [ "last_lsn" ]);
        Durable.close d;
        List.iter
          (fun p ->
            match Wal.fsync_policy_of_string (Wal.fsync_policy_to_string p) with
            | Ok p' -> check Alcotest.bool "round-trip" true (p = p')
            | Error e -> Alcotest.fail e)
          [ Wal.Always; Wal.Never; Wal.Interval_ms 25 ];
        check Alcotest.bool "bad policy rejected" true
          (Result.is_error (Wal.fsync_policy_of_string "sometimes")));
  ]

(* ------------------------------------------------------------------ *)
(* Durable service end-to-end                                          *)
(* ------------------------------------------------------------------ *)

(* Concurrent writer threads, one per disjoint document, fsync=always:
   four inserts then one count per round. Per-document apply order is
   fixed by each thread's synchronous loop, so the final documents do
   not depend on how the scheduler interleaves the threads. Returns
   the documents, the live digest and the digest a restart recovers. *)
let disjoint_writers_pass ~clients ~rounds =
  let dir = fresh_dir () in
  let uri k = Printf.sprintf "x%d" k in
  let live, docs =
    let svc =
      Svc.create ~domains:clients ~durability:(cfg ~fsync:Wal.Always dir) ()
    in
    Fun.protect
      ~finally:(fun () -> Svc.shutdown svc)
      (fun () ->
        let sessions =
          Array.init clients (fun k ->
              let s = Svc.open_session svc in
              Svc.load_document svc s ~uri:(uri k)
                (Printf.sprintf "<site n=\"%d\"><regions><item/></regions></site>" k);
              s)
        in
        let failure = ref None in
        let check_ok = function
          | Ok _ -> ()
          | Error e -> failure := Some (SE.to_string e)
        in
        let client k () =
          for i = 0 to rounds - 1 do
            for j = 0 to 3 do
              check_ok
                (Svc.query svc sessions.(k)
                   (Printf.sprintf
                      {|insert {element hit {%d}} into {doc("%s")/site/regions}|}
                      ((4 * i) + j) (uri k)))
            done;
            check_ok
              (Svc.query svc sessions.(k)
                 (Printf.sprintf {|count(doc("%s")/site/regions/*)|} (uri k)))
          done
        in
        Array.iter Thread.join
          (Array.init clients (fun k -> Thread.create (client k) ()));
        Option.iter (Alcotest.failf "query rejected: %s") !failure;
        for k = 0 to clients - 1 do
          check Alcotest.string "every insert landed"
            (string_of_int (4 * rounds))
            (ok
               (Svc.query svc sessions.(0)
                  (Printf.sprintf {|count(doc("%s")/site/regions/hit)|} (uri k))))
        done;
        ( digest_of svc,
          List.init clients (fun k ->
              ok (Svc.query svc sessions.(0) (Printf.sprintf {|doc("%s")|} (uri k))))
        ))
  in
  let recovered = with_durable_svc ~fsync:Wal.Always dir digest_of in
  (docs, live, recovered)

let restart_case (name, fsync) =
  tc (Printf.sprintf "a durable service survives a restart (fsync=%s)" name)
    `Quick (fun () ->
      let dir = fresh_dir () in
      let d1 =
        with_durable_svc ~fsync dir (fun svc ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"d" "<r><a>1</a></r>";
            ignore
              (ok (Svc.query svc s {|snap insert {<b/>} into {doc("d")/r}|}));
            ignore
              (ok (Svc.query svc s {|snap rename {doc("d")/r/a} to {'z'}|}));
            digest_of svc)
      in
      with_durable_svc ~fsync dir (fun svc ->
          check Alcotest.string "digest after restart" d1 (digest_of svc);
          let s = Svc.open_session svc in
          check Alcotest.string "updates are visible" "<z>1</z>"
            (ok (Svc.query svc s {|doc("d")/r/z|}))))

let service =
  List.map restart_case
    [ ("never", Wal.Never); ("interval", Wal.Interval_ms 5);
      ("always", Wal.Always) ]
  @ [
    tc "concurrent writers on disjoint documents recover and repeat" `Quick
      (fun () ->
        let clients = 4 and rounds = 12 in
        let docs, live, recovered = disjoint_writers_pass ~clients ~rounds in
        check Alcotest.string "recovered digest = live digest" live recovered;
        let docs', _, _ = disjoint_writers_pass ~clients ~rounds in
        check Alcotest.(list string) "two passes give identical documents"
          docs docs');
    tc "a concurrent-writer plan's inserts reach the WAL" `Quick (fun () ->
        (* no explicit snap and named-document targets: the footprint
           routes it to the concurrent writer, and its FLWOR runs as an
           algebra plan whose top-level snap must commit through the
           WAL like the interpreter's *)
        let src =
          {|for $i in (1, 2) return insert {<b n="{$i}"/>} into {doc("d")/r}|}
        in
        let fp =
          (Core.Engine.compile (Core.Engine.create ()) src).Core.Engine.footprint
        in
        check Alcotest.bool "concurrent-writer route" true
          (Core.Static.Footprint.route fp = Core.Static.Footprint.Concurrent);
        let dir = fresh_dir () in
        let d1 =
          with_durable_svc dir (fun svc ->
              let s = Svc.open_session svc in
              Svc.load_document svc s ~uri:"d" "<r/>";
              ignore (ok (Svc.query svc s src));
              digest_of svc)
        in
        with_durable_svc dir (fun svc ->
            check Alcotest.string "digest after restart" d1 (digest_of svc);
            let s = Svc.open_session svc in
            check Alcotest.string "recovered inserts" "1 2"
              (ok (Svc.query svc s {|for $b in doc("d")/r/b return string($b/@n)|}))));
    tc "a failed update leaves the durable state untouched" `Quick
      (fun () ->
        let dir = fresh_dir () in
        let d1 =
          with_durable_svc dir (fun svc ->
              let s = Svc.open_session svc in
              Svc.load_document svc s ~uri:"d" "<r><a/></r>";
              let before = digest_of svc in
              ignore
                (err
                   (Svc.query svc s
                      {|snap conflict { rename {doc("d")/r} to {'p'},
                                        rename {doc("d")/r} to {'q'} }|}));
              check Alcotest.string "rolled back in memory" before
                (digest_of svc);
              before)
        in
        with_durable_svc dir (fun svc ->
            check Alcotest.string "rolled back on disk" d1 (digest_of svc)));
    tc "CHECKPOINT truncates the WAL, recovery boots from the snapshot"
      `Quick (fun () ->
        let dir = fresh_dir () in
        let d1 =
          with_durable_svc dir (fun svc ->
              let s = Svc.open_session svc in
              Svc.load_document svc s ~uri:"d" "<r><a/></r>";
              ignore
                (ok (Svc.query svc s {|snap insert {<b/>} into {doc("d")/r}|}));
              let ck = okr "checkpoint" (Svc.checkpoint_now svc) in
              check Alcotest.bool "positive lsn" true (ck > 0);
              check Alcotest.int "wal empty" 0
                (Unix.stat (wal_path dir)).Unix.st_size;
              (* post-checkpoint updates land in the fresh WAL *)
              ignore
                (ok (Svc.query svc s {|snap insert {<c/>} into {doc("d")/r}|}));
              digest_of svc)
        in
        with_durable_svc dir (fun svc ->
            check Alcotest.string "snapshot + tail" d1 (digest_of svc);
            let s = Svc.open_session svc in
            check Alcotest.string "both inserts" "2"
              (ok (Svc.query svc s {|count(doc("d")/r/(b|c))|}))));
    tc "JOURNAL STAT and durability gauges" `Quick (fun () ->
        let dir = fresh_dir () in
        with_durable_svc dir (fun svc ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"d" "<r/>";
            let j = check_json "journal stat" (Svc.journal_stat_json svc) in
            let get path = Xqb_obs.Json.path j path in
            check Alcotest.bool "recording" true
              (get [ "recording" ] = Some (Xqb_obs.Json.Bool true));
            check Alcotest.bool "has digest" true
              (match get [ "digest" ] with
              | Some (Xqb_obs.Json.Str h) -> String.length h = 32
              | _ -> false);
            check Alcotest.bool "durability in STATS" true
              (match
                 Xqb_obs.Json.path
                   (check_json "stats" (Svc.stats_json svc))
                   [ "durability"; "last_lsn" ]
               with
              | Some _ -> true
              | None -> false);
            let prom = Svc.metrics_prometheus svc in
            List.iter
              (fun needle ->
                check Alcotest.bool needle true
                  (Re.execp (Re.compile (Re.str needle)) prom))
              [
                "xqbang_wal_bytes_appended_total";
                "xqbang_wal_fsync_total";
                "xqbang_wal_last_lsn";
                "xqbang_checkpoint_age_seconds";
              ]));
    tc "constructing reads leave the WAL alone (fsync=never)" `Quick (fun () ->
        with_durable_svc ~fsync:Wal.Never (fresh_dir ()) (fun svc ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"d" "<r><x/><x/></r>";
            let stat () =
              let j = check_json "journal stat" (Svc.journal_stat_json svc) in
              let num k =
                match Xqb_obs.Json.path j [ k ] with
                | Some (Xqb_obs.Json.Num f) -> int_of_float f
                | _ -> Alcotest.failf "JOURNAL STAT lacks %s" k
              in
              (num "lsn", num "length", num "nodes")
            in
            let insert () =
              ignore (ok (Svc.query svc s {|insert {<e k="v"/>} into {doc("d")/r}|}))
            in
            let lsn0, _, nodes0 = stat () in
            insert ();
            let lsn1, len1, nodes1 = stat () in
            for _ = 1 to 100 do
              check Alcotest.string "answer" "<a>2</a>"
                (ok (Svc.query svc s {|<a>{count(doc("d")/r/x)}</a>|}))
            done;
            check
              Alcotest.(triple int int int)
              "LSN, journal length, nodes" (lsn1, len1, nodes1) (stat ());
            (* the next writer's append carries its own entries only *)
            insert ();
            let lsn2, _, nodes2 = stat () in
            check Alcotest.int "same LSN step as the first insert" (lsn1 - lsn0)
              (lsn2 - lsn1);
            check Alcotest.int "same node step" (nodes1 - nodes0) (nodes2 - nodes1)));
    tc "non-durable services still answer JOURNAL STAT" `Quick (fun () ->
        let svc = Svc.create ~domains:0 () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            let j = check_json "journal stat" (Svc.journal_stat_json svc) in
            check Alcotest.bool "not recording" true
              (Xqb_obs.Json.path j [ "recording" ]
              = Some (Xqb_obs.Json.Bool false));
            check Alcotest.bool "no durability block" true
              (Svc.durability_json svc = None)));
  ]

(* ------------------------------------------------------------------ *)
(* Replication (ship/ingest driven in-process)                         *)
(* ------------------------------------------------------------------ *)

(* Pump committed frames leader → replica the way the polling thread
   does, [max] frames per SHIP. Returns the next from_lsn. *)
let pump ?(max = 512) leader replica ~from_lsn =
  let rec go from_lsn =
    match Svc.ship_frames leader ~from_lsn ~max with
    | Error e -> Alcotest.failf "ship failed: %s" e
    | Ok (_, "") -> from_lsn
    | Ok (leader_lsn, blob) ->
      ignore (okr "ingest" (Svc.replica_ingest replica ~leader_lsn blob));
      let frames, _ = Codec.scan blob in
      let next =
        List.fold_left (fun acc (l, _, _) -> Stdlib.max acc l) 0 frames + 1
      in
      go next
  in
  go from_lsn

(* A leader under fsync=always whose insert failed its fsync (EIO):
   [f leader lsn] with the device still failing, where [lsn] is the last
   durable LSN (the load's). *)
let failed_insert f =
  with_durable_svc ~fsync:Wal.Always (fresh_dir ()) (fun leader ->
      let ls = Svc.open_session leader in
      Svc.load_document leader ls ~uri:"d" "<log/>";
      let lsn0 =
        match Svc.ship_frames leader ~from_lsn:1 ~max:512 with
        | Ok (l, _) -> l
        | Error e -> Alcotest.failf "ship: %s" e
      in
      Svc.inject_fsync_error leader true;
      Fun.protect ~finally:(fun () -> Svc.inject_fsync_error leader false)
      @@ fun () ->
      ignore (err (Svc.query leader ls {|insert {<e/>} into {doc("d")/log}|}));
      f leader lsn0)

(* Name steps and @id key lookups over a document whose names —
   prefixed ones too — reach a store through the WAL. Names are
   interned and compared by identity, so a decoder that built its own
   name records would make these answers come back empty. *)
let name_queries =
  [
    {|doc("d")//item/name/string()|};
    {|count(doc("d")//p:tag)|};
    {|doc("d")//p:tag/@p:k/string()|};
    {|doc("d")//item[@id="i2"]/name/string()|};
    {|doc("d")//item[@id="i3"]|};
    {|doc("d")//item[@id="i1"]/title/string()|};
    {|doc("d")/site/items/item/@q:flag/string()|};
  ]

let name_updates =
  [
    {|snap insert {<item id="i3"><name>three</name><p:tag p:k="z">n</p:tag></item>} into {doc("d")/site/items}|};
    {|snap rename {doc("d")//item[@id="i1"]/name} to {'title'}|};
    {|snap insert {attribute q:flag {"on"}} into {doc("d")//item[@id="i2"]}|};
  ]

let answers svc s = List.map (fun q -> ok (Svc.query svc s q)) name_queries

let replication =
  [
    tc "recovery and a shipped replica answer name steps and key lookups as the leader"
      `Quick (fun () ->
        let dir = fresh_dir () in
        let leader_answers =
          with_durable_svc dir (fun leader ->
              let replica = Svc.create ~domains:0 ~replica:true () in
              Fun.protect
                ~finally:(fun () -> Svc.shutdown replica)
                (fun () ->
                  let ls = Svc.open_session leader in
                  Svc.load_document leader ls ~uri:"d"
                    {|<site><items><item id="i1"><name>one</name><p:tag p:k="x">t</p:tag></item><item id="i2"><name>two</name></item></items></site>|};
                  let lsn0, blob = okr "snapshot" (Svc.snapshot_blob leader) in
                  ignore (okr "bootstrap" (Svc.replica_bootstrap replica blob));
                  List.iter (fun u -> ignore (ok (Svc.query leader ls u))) name_updates;
                  ignore (pump leader replica ~from_lsn:(lsn0 + 1));
                  let want = answers leader ls in
                  check Alcotest.(list string) "replica after SHIP" want
                    (answers replica (Svc.open_session replica));
                  want))
        in
        check Alcotest.(list string) "leader answers"
          [ "two three"; "2"; "x z"; "two"; {|<item id="i3"><name>three</name><p:tag p:k="z">n</p:tag></item>|};
            "one"; "on" ]
          leader_answers;
        with_durable_svc dir (fun svc ->
            check Alcotest.(list string) "after WAL recovery" leader_answers
              (answers svc (Svc.open_session svc))));
    tc "bootstrap + shipping converge the replica, byte for byte" `Quick
      (fun () ->
        let dir = fresh_dir () in
        with_durable_svc dir (fun leader ->
            let replica = Svc.create ~domains:0 ~replica:true () in
            Fun.protect
              ~finally:(fun () -> Svc.shutdown replica)
              (fun () ->
                let ls = Svc.open_session leader in
                Svc.load_document leader ls ~uri:"d" "<r><a>1</a></r>";
                ignore
                  (ok
                     (Svc.query leader ls
                        {|snap insert {<b/>} into {doc("d")/r}|}));
                let lsn0, blob = okr "snapshot" (Svc.snapshot_blob leader) in
                check Alcotest.int "bootstrap lsn"
                  lsn0
                  (okr "bootstrap" (Svc.replica_bootstrap replica blob));
                check Alcotest.string "converged at bootstrap"
                  (digest_of leader) (digest_of replica);
                (* live tail: two more spans, shipped one frame per
                   batch so cut transaction spans must buffer *)
                ignore
                  (ok
                     (Svc.query leader ls
                        {|snap insert {<c/>} into {doc("d")/r}|}));
                ignore
                  (ok
                     (Svc.query leader ls
                        {|snap rename {doc("d")/r/a} to {'renamed'}|}));
                ignore (pump ~max:1 leader replica ~from_lsn:(lsn0 + 1));
                check Alcotest.string "converged after shipping"
                  (digest_of leader) (digest_of replica);
                let rs = Svc.open_session replica in
                check Alcotest.string "replica serves the update" "1"
                  (ok (Svc.query replica rs {|count(doc("d")/r/renamed)|}));
                (* shipped documents resolve without a local load *)
                check Alcotest.string "doc is resident" "1"
                  (ok (Svc.query replica rs {|count(doc("d")/r/c)|}));
                let j =
                  check_json "replica stat" (Svc.replica_stat_json replica)
                in
                check Alcotest.bool "lag zero" true
                  (Xqb_obs.Json.path j [ "lag" ]
                  = Some (Xqb_obs.Json.Num 0.)))));
    tc "ingest is idempotent; replicas reject writes" `Quick (fun () ->
        let dir = fresh_dir () in
        with_durable_svc dir (fun leader ->
            let replica = Svc.create ~domains:0 ~replica:true () in
            Fun.protect
              ~finally:(fun () -> Svc.shutdown replica)
              (fun () ->
                let ls = Svc.open_session leader in
                Svc.load_document leader ls ~uri:"d" "<r/>";
                let lsn0, blob = okr "snapshot" (Svc.snapshot_blob leader) in
                ignore (okr "bootstrap" (Svc.replica_bootstrap replica blob));
                ignore
                  (ok
                     (Svc.query leader ls
                        {|snap insert {<b/>} into {doc("d")/r}|}));
                let leader_lsn, frames =
                  match Svc.ship_frames leader ~from_lsn:(lsn0 + 1) ~max:512 with
                  | Ok (l, f) -> (l, f)
                  | Error e -> Alcotest.failf "ship: %s" e
                in
                let n1 =
                  okr "first ingest"
                    (Svc.replica_ingest replica ~leader_lsn frames)
                in
                check Alcotest.bool "applied something" true (n1 > 0);
                check Alcotest.int "duplicate batch is a no-op" 0
                  (okr "second ingest"
                     (Svc.replica_ingest replica ~leader_lsn frames));
                check Alcotest.string "still converged" (digest_of leader)
                  (digest_of replica);
                (* purity gate as the write fence *)
                let rs = Svc.open_session replica in
                let e =
                  err
                    (Svc.query replica rs
                       {|snap insert {<z/>} into {doc("d")/r}|})
                in
                check Alcotest.bool "read-only error" true
                  (Re.execp
                     (Re.compile (Re.str "read-only replica"))
                     (SE.to_string e));
                let e2 = err (Svc.explain replica rs "1 + 1") in
                check Alcotest.bool "EXPLAIN rejected too" true
                  (Re.execp
                     (Re.compile (Re.str "read-only replica"))
                     (SE.to_string e2));
                (match
                   Svc.load_document replica rs ~uri:"fresh" "<x/>"
                 with
                | exception Failure _ -> ()
                | () -> Alcotest.fail "fresh load must fail on a replica"))));
    tc "a replica answers constructing reads" `Quick (fun () ->
        with_durable_svc (fresh_dir ()) (fun leader ->
            let replica = Svc.create ~domains:0 ~replica:true () in
            Fun.protect
              ~finally:(fun () -> Svc.shutdown replica)
              (fun () ->
                let ls = Svc.open_session leader in
                Svc.load_document leader ls ~uri:"d" "<r><x/><y><x/></y></r>";
                let _, blob = okr "snapshot" (Svc.snapshot_blob leader) in
                ignore (okr "bootstrap" (Svc.replica_bootstrap replica blob));
                let before = digest_of replica in
                let rs = Svc.open_session replica in
                check Alcotest.string "served" "<a>2</a>"
                  (ok (Svc.query replica rs {|<a>{count(doc("d")//x)}</a>|}));
                check Alcotest.string "replica store untouched" before
                  (digest_of replica))));
    tc "SHIP hands out only durable frames" `Quick (fun () ->
        failed_insert (fun leader lsn0 ->
            match Svc.ship_frames leader ~from_lsn:(lsn0 + 1) ~max:512 with
            | Error e -> Alcotest.failf "ship: %s" e
            | Ok (last, blob) ->
              check Alcotest.int "last LSN is the durable one" lsn0 last;
              check Alcotest.int "no frame of the failed insert" 0 (String.length blob)));
    tc "SNAPSHOT fails when the LSN it covers cannot be made durable" `Quick
      (fun () ->
        failed_insert (fun leader _ ->
            match Svc.snapshot_blob leader with
            | Error _ -> ()
            | Ok (lsn, _) -> Alcotest.failf "snapshot at LSN %d handed out" lsn));
    tc "corrupt frame batches are rejected before any apply" `Quick
      (fun () ->
        let replica = Svc.create ~domains:0 ~replica:true () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown replica)
          (fun () ->
            match Svc.replica_ingest replica ~leader_lsn:1 "garbage-bytes" with
            | Ok _ -> Alcotest.fail "expected a corrupt-batch error"
            | Error e ->
              check Alcotest.bool "says corrupt" true
                (Re.execp (Re.compile (Re.str "corrupt")) e)));
    tc "durability and replica mode are mutually exclusive" `Quick
      (fun () ->
        let dir = fresh_dir () in
        match Svc.create ~domains:0 ~durability:(cfg dir) ~replica:true () with
        | exception Failure _ -> ()
        | svc ->
          Svc.shutdown svc;
          Alcotest.fail "expected Failure");
  ]

(* ------------------------------------------------------------------ *)
(* Wire verbs                                                          *)
(* ------------------------------------------------------------------ *)

let protocol =
  [
    tc "durability verbs parse" `Quick (fun () ->
        let p line = P.parse line in
        check Alcotest.bool "JOURNAL STAT" true
          (p "JOURNAL STAT" = Ok P.Journal_stat);
        check Alcotest.bool "JOURNAL" true (p "JOURNAL" = Ok P.Journal_stat);
        check Alcotest.bool "REPLICA STAT" true
          (p "REPLICA STAT" = Ok P.Replica_stat);
        check Alcotest.bool "CHECKPOINT" true
          (p "CHECKPOINT" = Ok P.Checkpoint);
        check Alcotest.bool "SNAPSHOT" true (p "SNAPSHOT" = Ok P.Snapshot);
        check Alcotest.bool "SHIP from max" true
          (p "SHIP 5 10" = Ok (P.Ship (5, 10, None)));
        check Alcotest.bool "SHIP default max" true
          (p "SHIP 7" = Ok (P.Ship (7, 512, None)));
        check Alcotest.bool "SHIP with replica id" true
          (p "SHIP 5 10 r-42" = Ok (P.Ship (5, 10, Some "r-42")));
        check Alcotest.bool "SHIP needs a number" true
          (Result.is_error (p "SHIP x"));
        check Alcotest.bool "SHIP max must be positive" true
          (Result.is_error (p "SHIP 1 0")));
  ]

let suite =
  [
    ("wal:codec", codec);
    ("wal:durable", durable);
    ("wal:service", service);
    ("wal:replication", replication);
    ("wal:protocol", protocol);
  ]
