(* Pipelined group commit: a concurrent writer releases its session and
   the footprint gate once its WAL append is done, and its reply waits
   for the fsync that covers its LSN — sent by whichever thread led
   that fsync. Replies still never acknowledge what is not durable:
   reads wait for the LSNs they may have seen, and a failed fsync
   fails every parked commit. *)

open Helpers
module Wal = Xqb_wal.Wal
module Svc = Xqb_service.Service
module SE = Xqb_service.Service_error
module Sched = Xqb_service.Scheduler
module J = Xqb_obs.Json

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "xqbang-group-commit-%d-%d" (Unix.getpid ()) !tmp_counter)

let durable_cfg dir =
  { (Xqb_wal.Durable.default_config ~dir) with Xqb_wal.Durable.fsync = Wal.Always }

let with_durable ?(domains = 2) f =
  let svc = Svc.create ~domains ~durability:(durable_cfg (fresh_dir ())) () in
  Fun.protect
    ~finally:(fun () ->
      Svc.inject_fsync_delay svc 0.;
      Svc.inject_fsync_error svc false;
      Svc.shutdown svc)
    (fun () -> f svc)

let ok q = function
  | Ok s -> s
  | Error e -> Alcotest.failf "%s: %s" q (SE.to_string e)

let durability svc key =
  match Svc.durability_json svc with
  | None -> Alcotest.fail "service is not durable"
  | Some js -> (
    match Option.bind (J.path (J.parse_exn js) [ key ]) J.to_float_opt with
    | Some f -> int_of_float f
    | None -> Alcotest.failf "durability JSON lacks %s" key)

let now () = Unix.gettimeofday ()

(* [on_complete fut f]'s result, once the callback has run: a future's
   callbacks run after its waiters are released, so [await] can return
   first. *)
let observed fut f =
  let cell = Stdlib.Atomic.make None in
  Sched.on_complete fut (fun r -> Stdlib.Atomic.set cell (Some (f r)));
  fun () ->
    let rec get n =
      match Stdlib.Atomic.get cell with
      | Some v -> v
      | None when n > 0 ->
        Thread.delay 0.001;
        get (n - 1)
      | None -> Alcotest.fail "completion callback never ran"
    in
    get 5000
let insert k i = Printf.sprintf {|insert {<e n="%d"/>} into {doc("log%d")/log}|} i k

(* -- the WAL's pipelined wait -------------------------------------------- *)

let wal_tests =
  [
    tc "await_durable: a commit appended during an fsync is acked after the next"
      `Quick (fun () ->
        let dir = fresh_dir () in
        Unix.mkdir dir 0o755;
        let w = Wal.openw ~dir ~policy:Wal.Always ~next_lsn:1 ~tail:[] () in
        Fun.protect ~finally:(fun () -> Wal.close w) @@ fun () ->
        let record () = Xqb_wal.Codec.R_doc { uri = "u"; root = 1; bytes = 1 } in
        Wal.inject_fsync_delay w 0.1;
        let seen = Array.make 2 (-1) in
        let lsn1 = Wal.append w [ record () ] in
        (* the first commit leads the fsync on its own thread *)
        let leader =
          Thread.create
            (fun () ->
              Wal.await_durable w lsn1 ~commit:true (fun r ->
                  Result.get_ok r;
                  seen.(0) <- Wal.fsync_count w))
            ()
        in
        Thread.delay 0.03;
        (* appended while that fsync runs: parks and returns at once *)
        let lsn2 = Wal.append w [ record () ] in
        let t0 = now () in
        Wal.await_durable w lsn2 ~commit:true (fun r ->
            Result.get_ok r;
            seen.(1) <- Wal.fsync_count w);
        check Alcotest.bool "parked, not blocked" true (now () -. t0 < 0.05);
        Thread.join leader;
        check Alcotest.int "first acked after the first fsync" 1 seen.(0);
        check Alcotest.int "second acked after the fsync covering it" 2 seen.(1);
        check Alcotest.int "two commits" 2 (Wal.commit_count w);
        (* already durable: answered in the caller *)
        let answered = ref false in
        Wal.await_durable w lsn2 ~commit:false (fun _ -> answered := true);
        check Alcotest.bool "synced LSN answers at once" true !answered;
        check Alcotest.int "a read is not a commit" 2 (Wal.commit_count w));
    tc "wait_durable: a waiter fails with its group's fsync, without one of its own"
      `Quick (fun () ->
        let dir = fresh_dir () in
        Unix.mkdir dir 0o755;
        let w = Wal.openw ~dir ~policy:Wal.Always ~next_lsn:1 ~tail:[] () in
        Fun.protect
          ~finally:(fun () ->
            Wal.inject_fsync_error w false;
            Wal.inject_fsync_delay w 0.;
            Wal.close w)
        @@ fun () ->
        let record () = Xqb_wal.Codec.R_doc { uri = "u"; root = 1; bytes = 1 } in
        let delay = 0.2 in
        Wal.inject_fsync_delay w delay;
        Wal.inject_fsync_error w true;
        let waited lsn =
          let t0 = now () in
          match Wal.wait_durable w lsn with
          | () -> Alcotest.failf "LSN %d acked despite a failed fsync" lsn
          | exception Unix.Unix_error (Unix.EIO, _, _) -> now () -. t0
        in
        let lsn1 = Wal.append w [ record () ] in
        (* the first waiter leads the failing fsync on its own thread *)
        let leader = Thread.create (fun () -> ignore (waited lsn1)) () in
        Thread.delay 0.05;
        (* appended during that fsync: joins its group *)
        let dt = waited (Wal.append w [ record () ]) in
        Thread.join leader;
        check Alcotest.bool
          (Printf.sprintf "failed with the group after %.0f ms (< %.0f ms)" (dt *. 1e3)
             (delay *. 1e3))
          true (dt < delay);
        check Alcotest.int "no durable commit" 0 (Wal.commit_count w));
  ]

(* -- the service ---------------------------------------------------------- *)

let service_tests =
  [
    tc "a writer waiting out a 300 ms fsync holds neither the gate nor its session"
      `Quick (fun () ->
        (* both write routes: a concurrent writer, and an exclusive
           (nested-snap, ⊤ footprint) one *)
        List.iter
          (fun (route, w) ->
            with_durable (fun svc ->
                let s = Svc.open_session svc in
                Svc.load_document svc s ~uri:"log0" "<log/>";
                Svc.inject_fsync_delay svc 0.3;
                let _, w = Svc.submit_job svc s w in
                (* let the writer append and enter its fsync *)
                Thread.delay 0.1;
                let running =
                  Option.bind
                    (J.path (J.parse_exn (Svc.stats_json svc)) [ "concurrency"; "running" ])
                    J.to_float_opt
                in
                check Alcotest.(option (float 0.)) (route ^ ": gate empty 100 ms in")
                  (Some 0.) running;
                let t0 = now () in
                let _, r = Svc.submit_job svc s {|count(doc("log0")/log/e)|} in
                let dt = now () -. t0 in
                check Alcotest.bool
                  (Printf.sprintf "%s: submit took %.1f ms (< 20 ms)" route (dt *. 1e3))
                  true (dt < 0.02);
                check Alcotest.string (route ^ ": insert acked") "" (ok "insert" (Svc.await w));
                check Alcotest.string (route ^ ": read sees it") "1" (ok "read" (Svc.await r))))
          [
            ("concurrent", insert 0 1);
            ("exclusive", {|snap insert {<e n="1"/>} into {doc("log0")/log}|});
          ]);
    tc "16 pipelined inserts on 2 sessions share at most 4 fsyncs" `Quick (fun () ->
        with_durable (fun svc ->
            let s0 = Svc.open_session svc and s1 = Svc.open_session svc in
            List.iter
              (fun (s, uri) ->
                let before = durability svc "fsyncs" in
                Svc.load_document svc s ~uri "<log/>";
                check Alcotest.int "a durable LOAD pays one fsync" (before + 1)
                  (durability svc "fsyncs"))
              [ (s0, "log0"); (s1, "log1") ];
            let fsyncs0 = durability svc "fsyncs" and commits0 = durability svc "commits" in
            let delay = 0.05 in
            Svc.inject_fsync_delay svc delay;
            let jobs =
              List.init 16 (fun i ->
                  let k = i mod 2 in
                  let q = insert k i in
                  let t0 = now () in
                  let fut = Svc.submit svc (if k = 0 then s0 else s1) q in
                  (q, t0, fut, observed fut (fun _ -> now ())))
            in
            List.iter
              (fun (q, t0, fut, acked) ->
                ignore (ok q (Svc.await fut));
                (* its append came after its submit, and the fsync that
                   covers it began after the append *)
                check Alcotest.bool (q ^ ": acked after a covering fsync") true
                  (acked () -. t0 >= delay))
              jobs;
            let fsyncs = durability svc "fsyncs" - fsyncs0 in
            check Alcotest.bool (Printf.sprintf "%d fsyncs (<= 4)" fsyncs) true
              (fsyncs >= 1 && fsyncs <= 4);
            check Alcotest.int "16 durable commits" 16 (durability svc "commits" - commits0);
            check Alcotest.bool "METRICS PROM counts them" true
              (Re.execp
                 (Re.compile
                    (Re.Perl.re
                       (Printf.sprintf "\nxqbang_wal_commits_total %d\n"
                          (durability svc "commits"))))
                 (Svc.metrics_prometheus svc));
            check Alcotest.string "log0" "8"
              (ok "count" (Svc.query svc s0 {|count(doc("log0")/log/e)|}));
            check Alcotest.string "log1" "8"
              (ok "count" (Svc.query svc s1 {|count(doc("log1")/log/e)|}))));
    tc "a fork read after an unsynced insert replies only once it is durable"
      `Quick (fun () ->
        with_durable (fun svc ->
            let s = Svc.open_session svc in
            Svc.load_document svc s ~uri:"log0" "<log/>";
            Svc.inject_fsync_delay svc 0.3;
            let w = Svc.submit svc s (insert 0 1) in
            Thread.delay 0.05;
            let t0 = now () in
            let r = Svc.submit svc s {|count(doc("log0")/log/e)|} in
            let insert_done_first = observed r (fun _ -> Sched.peek w <> None) in
            check Alcotest.string "read sees the insert" "1" (ok "read" (Svc.await r));
            check Alcotest.bool "read waited for the fsync" true (now () -. t0 >= 0.2);
            check Alcotest.bool "the insert was acked first" true (insert_done_first ());
            ignore (ok "insert" (Svc.await w))));
    tc "a failed fsync fails every parked commit and acks none" `Quick (fun () ->
        with_durable (fun svc ->
            let s0 = Svc.open_session svc and s1 = Svc.open_session svc in
            Svc.load_document svc s0 ~uri:"log0" "<log/>";
            Svc.load_document svc s1 ~uri:"log1" "<log/>";
            let commits0 = durability svc "commits" in
            Svc.inject_fsync_delay svc 0.1;
            Svc.inject_fsync_error svc true;
            let futs =
              List.init 8 (fun i ->
                  let k = i mod 2 in
                  Svc.submit svc (if k = 0 then s0 else s1) (insert k i))
            in
            List.iteri
              (fun i f ->
                match Svc.await f with
                | Ok v -> Alcotest.failf "insert %d acked (%S) despite a failed fsync" i v
                | Error _ -> ())
              futs;
            check Alcotest.int "no durable commit" commits0 (durability svc "commits");
            (* the device recovers: commits are acked again *)
            Svc.inject_fsync_error svc false;
            Svc.inject_fsync_delay svc 0.;
            ignore (ok "after recovery" (Svc.query svc s0 (insert 0 99)))));
  ]

let traced_tests =
  [
    tc "a parked commit's wait is its fsync stage, in its split and its trace"
      `Quick (fun () ->
        let svc =
          Svc.create ~domains:2 ~tracing:true ~slow_apply_ms:0
            ~durability:(durable_cfg (fresh_dir ())) ()
        in
        Fun.protect
          ~finally:(fun () ->
            Svc.inject_fsync_delay svc 0.;
            Svc.shutdown svc)
        @@ fun () ->
        let s0 = Svc.open_session svc and s1 = Svc.open_session svc in
        Svc.load_document svc s0 ~uri:"log0" "<log/>";
        Svc.load_document svc s1 ~uri:"log1" "<log/>";
        Svc.inject_fsync_delay svc 0.1;
        let _, leader = Svc.submit_job svc s0 (insert 0 1) in
        Thread.delay 0.03;
        (* appends while the leader's fsync runs: parks *)
        let jid, parked = Svc.submit_job svc s1 (insert 1 2) in
        ignore (ok "leader" (Svc.await leader));
        ignore (ok "parked" (Svc.await parked));
        let entry =
          match
            List.find_opt
              (fun e -> Option.bind (J.member "jid" e) J.to_float_opt = Some (float_of_int jid))
              (J.to_list (J.parse_exn (Svc.slowlog_json svc)))
          with
          | Some e -> e
          | None -> Alcotest.fail "the parked commit has no SLOWLOG entry"
        in
        let num path = int_of_float (Option.get (Option.bind (J.path entry path) J.to_float_opt)) in
        let stages =
          List.map (fun st -> num [ "stages_ns"; Xqb_obs.Stage.name st ]) Xqb_obs.Stage.all
        in
        check Alcotest.int "stages sum to the latency" (num [ "latency_ns" ])
          (List.fold_left ( + ) 0 stages);
        check Alcotest.bool "the parked wait is fsync time" true
          (num [ "stages_ns"; "fsync" ] >= 50_000_000);
        match Svc.trace_json svc (Some jid) with
        | None -> Alcotest.fail "no trace for the parked commit"
        | Some (_, json) ->
          let names =
            List.filter_map
              (fun e -> Option.bind (J.member "name" e) J.to_string_opt)
              (match J.member "traceEvents" (J.parse_exn json) with
              | Some a -> J.to_list a
              | None -> [])
          in
          check Alcotest.bool "fsync.wait span" true (List.mem "fsync.wait" names));
  ]

let suite =
  [
    ("group-commit:wal", wal_tests);
    ("group-commit:service", service_tests);
    ("group-commit:traced", traced_tests);
  ]
