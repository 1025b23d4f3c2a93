(* The continuous sampling profiler (lib/obs/profile) and GC/runtime
   telemetry (lib/obs/gc_tel): folded-stack encoding round-trips,
   lifecycle idempotence, phase attribution under a real CPU-bound
   query, the PROFILE wire verb and the injected gc-pause health
   reason. The profiler is process-global, so every test that starts
   it stops and resets it in a [finally]. *)

open Helpers
module Profile = Xqb_obs.Profile
module Stage = Xqb_obs.Stage
module Gc_tel = Xqb_obs.Gc_tel
module Procstat = Xqb_obs.Procstat
module Svc = Xqb_service.Service
module P = Xqb_service.Protocol
module J = Xqb_obs.Json

(* -- folded-stack encoding ------------------------------------------ *)

let folded_tests =
  [
    tc "encode_line is root-first with a trailing count" `Quick (fun () ->
        check Alcotest.string "plain" "main;eval;mod 7"
          (Profile.Folded.encode_line [ "main"; "eval"; "mod" ] 7));
    tc "frames with separators are escaped" `Quick (fun () ->
        let f = "a;b c\td\ne\rf\\g" in
        let enc = Profile.Folded.encode_frame f in
        check Alcotest.string "frame round-trip" f
          (Profile.Folded.decode_frame enc);
        (* the separator bytes are escaped, so a line holding this
           frame still decodes as ONE frame, not several *)
        match Profile.Folded.decode_line (Profile.Folded.encode_line [ f ] 5) with
        | Some ([ f' ], 5) -> check Alcotest.string "line round-trip" f f'
        | Some (fs, n) ->
          Alcotest.failf "decoded %d frames, count %d" (List.length fs) n
        | None -> Alcotest.fail "line did not decode");
    tc "decode_line on specific escapes" `Quick (fun () ->
        match Profile.Folded.decode_line {|a\;b;c\sd 12|} with
        | Some ([ "a;b"; "c d" ], 12) -> ()
        | Some (fs, n) ->
          Alcotest.failf "decoded %d frames, count %d" (List.length fs) n
        | None -> Alcotest.fail "decode_line rejected a valid line");
    tc "decode_line rejects malformed lines" `Quick (fun () ->
        List.iter
          (fun l ->
            if Profile.Folded.decode_line l <> None then
              Alcotest.failf "accepted malformed line %S" l)
          [ ""; "nocount"; "stack x"; "stack -1.5" ]);
    qtest ~count:300 "encode_line/decode_line round-trip arbitrary frames"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 8)
             (string_size ~gen:(char_range '\000' '\255') (int_range 0 20)))
          (int_range 0 1_000_000))
      (fun (frames, count) ->
        match Profile.Folded.decode_line (Profile.Folded.encode_line frames count) with
        | Some (frames', count') -> frames' = frames && count' = count
        | None -> false);
    tc "dump of an idle profiler is empty, stat is JSON" `Quick (fun () ->
        Profile.reset ();
        check Alcotest.string "empty dump" "" (Profile.dump_folded ());
        ignore (check_json "stat" (Profile.stat_json ()));
        ignore (check_json "dump json" (Profile.dump_json ())));
    tc "diff_counts keeps positive deltas only" `Quick (fun () ->
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
          "delta"
          [ ("run", 3) ]
          (Profile.diff_counts
             [ ("run", 2); ("wal", 5) ]
             [ ("run", 5); ("wal", 5) ]));
  ]

(* -- lifecycle ------------------------------------------------------ *)

let lifecycle_tests =
  [
    tc "start is idempotent, stop restores" `Quick (fun () ->
        Fun.protect
          ~finally:(fun () ->
            ignore (Profile.stop ());
            Profile.reset ())
          (fun () ->
            check Alcotest.bool "not running initially" false
              (Profile.running ());
            check Alcotest.bool "first start" true (Profile.start ~hz:97 ());
            check Alcotest.bool "second start is a no-op" false
              (Profile.start ~hz:50 ());
            check Alcotest.int "rate unchanged by the no-op start" 97
              (Profile.hz ());
            check Alcotest.bool "running" true (Profile.running ());
            check Alcotest.bool "first stop" true (Profile.stop ());
            check Alcotest.bool "second stop is a no-op" false
              (Profile.stop ());
            check Alcotest.bool "stopped" false (Profile.running ())));
    tc "start rejects a non-positive rate" `Quick (fun () ->
        match Profile.start ~hz:0 () with
        | exception Invalid_argument _ -> ()
        | started ->
          if started then ignore (Profile.stop ());
          Alcotest.fail "hz:0 accepted");
    tc "stage labels nest and restore" `Quick (fun () ->
        (* the label is what samples are attributed to; read it back
           by swapping it out and in *)
        let label () =
          let l = Profile.swap_phase "" in
          ignore (Profile.swap_phase l);
          l
        in
        let outer = label () in
        let r =
          Stage.with_ ~stage:Stage.Compile None "compile" (fun () ->
              Stage.with_ ~stage:Stage.Run None "eval" (fun () ->
                  Profile.with_op 3 (fun () ->
                      check Alcotest.string "inner label" "run" (label ());
                      41 + 1)))
        in
        check Alcotest.int "result threads through" 42 r;
        check Alcotest.string "outer label restored" outer (label ()));
  ]

(* -- attribution under load (the wire verb end to end) -------------- *)

let busy = "sum(for $i in 1 to 400000 return $i mod 7)"

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let run_phase_samples () =
  Option.value ~default:0 (List.assoc_opt "run" (Profile.phase_counts ()))

let attribution_tests =
  [
    tc "PROFILE DUMP attributes samples to the run phase" `Slow (fun () ->
        let svc = Svc.create ~domains:1 () in
        Fun.protect
          ~finally:(fun () ->
            Svc.shutdown svc;
            ignore (Profile.stop ());
            Profile.reset ())
          (fun () ->
            Profile.reset ();
            let started = Svc.profile_command svc `Start in
            check Alcotest.bool "start reply names the rate" true
              (starts_with "started at " started);
            let sid = Svc.open_session svc in
            (* CPU-bound queries against a 97 Hz CPU-time timer: keep
               issuing until samples land in the run phase (a handful
               of queries on any machine; capped to stay bounded) *)
            let rec go n =
              if run_phase_samples () = 0 && n > 0 then begin
                (match Svc.query svc sid busy with
                | Ok _ -> ()
                | Error e ->
                  Alcotest.failf "busy query failed: %s"
                    (Xqb_service.Service_error.to_string e));
                go (n - 1)
              end
            in
            go 40;
            let run_samples = run_phase_samples () in
            if run_samples = 0 then
              Alcotest.fail "no samples attributed to the run phase";
            (* the folded dump carries the same attribution *)
            let dump = Svc.profile_command svc `Dump in
            check Alcotest.bool "dump has a run-phase stack" true
              (List.exists
                 (fun l -> starts_with "run" l)
                 (String.split_on_char '\n' dump));
            (match
               Profile.Folded.decode_line
                 (List.hd (String.split_on_char '\n' dump))
             with
            | Some (_frames, n) when n > 0 -> ()
            | _ -> Alcotest.fail "dump line does not round-trip");
            (* STAT reports the samples as strict JSON *)
            let stat = check_json "profile stat" (Svc.profile_command svc `Stat) in
            (match J.member "samples" stat with
            | Some (J.Num n) when n > 0. -> ()
            | _ -> Alcotest.fail "stat_json has no positive sample count");
            check Alcotest.string "stop" "stopped" (Svc.profile_command svc `Stop);
            check Alcotest.string "stop twice" "not running"
              (Svc.profile_command svc `Stop)));
  ]

(* -- PROFILE on the wire -------------------------------------------- *)

let parse_ok line =
  match P.parse line with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %S failed: %s" line e

let wire_tests =
  [
    tc "PROFILE parses: START, STOP, DUMP, DUMP JSON, STAT" `Quick (fun () ->
        check Alcotest.bool "start" true
          (parse_ok "PROFILE START" = P.Profile `Start);
        check Alcotest.bool "stop" true
          (parse_ok "profile stop" = P.Profile `Stop);
        check Alcotest.bool "dump" true
          (parse_ok "PROFILE DUMP" = P.Profile `Dump);
        check Alcotest.bool "dump json" true
          (parse_ok "PROFILE DUMP JSON" = P.Profile `Dump_json);
        check Alcotest.bool "stat" true
          (parse_ok "PROFILE STAT" = P.Profile `Stat);
        check Alcotest.bool "bare PROFILE is STAT" true
          (parse_ok "PROFILE" = P.Profile `Stat);
        match P.parse "PROFILE FLAME" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "unknown subcommand accepted");
    tc "profiler gauges are on the Prometheus page" `Quick (fun () ->
        let svc = Svc.create ~domains:0 () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            let page = Svc.metrics_prometheus svc in
            List.iter
              (fun m ->
                check Alcotest.bool m true
                  (Re.execp (Re.compile (Re.str m)) page))
              [
                "xqbang_profile_running";
                "xqbang_profile_samples_total";
                "xqbang_build_info";
                "xqbang_process_resident_memory_bytes";
                "xqbang_process_open_fds";
                "xqbang_process_uptime_seconds";
                "xqbang_gc_minor_collections_total";
              ]));
    tc "process gauges read sane values" `Quick (fun () ->
        check Alcotest.bool "rss positive" true (Procstat.rss_bytes () > 0);
        check Alcotest.bool "fds positive" true (Procstat.fd_count () > 0));
  ]

(* -- gc telemetry and the gc-pause health reason -------------------- *)

let health_reason_names svc =
  match J.member "reasons" (check_json "health" (Svc.health_json svc)) with
  | Some (J.Arr rs) ->
    List.filter_map
      (fun r ->
        match J.member "code" r with Some (J.Str s) -> Some s | _ -> None)
      rs
  | _ -> []

let gc_tests =
  [
    tc "injected gc pause degrades health; clearing restores it" `Quick
      (fun () ->
        let svc = Svc.create ~domains:0 ~gc_pause_warn_ms:50 () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            check Alcotest.bool "no gc-pause reason at rest" false
              (List.mem "gc-pause" (health_reason_names svc));
            (* degraded past warn, critical past 4x warn *)
            Svc.inject_gc_pause svc 80;
            check Alcotest.bool "gc-pause reason present" true
              (List.mem "gc-pause" (health_reason_names svc));
            Svc.inject_gc_pause svc 500;
            let v = check_json "health" (Svc.health_json svc) in
            (match J.member "status" v with
            | Some (J.Str "critical") -> ()
            | Some (J.Str s) -> Alcotest.failf "expected critical, got %s" s
            | _ -> Alcotest.fail "health_json has no status");
            Svc.clear_gc_pause_injection svc;
            check Alcotest.bool "cleared" false
              (List.mem "gc-pause" (health_reason_names svc))));
    tc "gc telemetry surfaces in STATS while enabled" `Quick (fun () ->
        let svc = Svc.create ~domains:0 () in
        Fun.protect
          ~finally:(fun () -> Svc.shutdown svc)
          (fun () ->
            let v = check_json "stats" (Svc.stats_json svc) in
            (match J.member "gc" v with
            | Some (J.Obj _) -> ()
            | _ -> Alcotest.fail "stats_json has no gc section");
            match J.member "profiler" v with
            | Some (J.Obj _) -> ()
            | _ -> Alcotest.fail "stats_json has no profiler section"));
  ]

let suite =
  [
    ("profile:folded", folded_tests);
    ("profile:lifecycle", lifecycle_tests);
    ("profile:attribution", attribution_tests);
    ("profile:wire", wire_tests);
    ("profile:gc", gc_tests);
  ]
