(* lib/obs: the strict JSON checker, the fixed-footprint histogram
   (nearest-rank percentiles, exact-then-bucketed, window merge), the
   per-query span tracer with its Chrome trace-event export, the
   rolling-window metrics ring and the structured event log. Also
   round-trips the service's Metrics JSON, including escaped document
   URIs. *)

open Helpers
module J = Xqb_obs.Json
module Hist = Xqb_obs.Hist
module Trace = Xqb_obs.Trace
module Window = Xqb_obs.Window
module Events = Xqb_obs.Events
module Stage = Xqb_obs.Stage
module Profile = Xqb_obs.Profile

(* -- Json: strict parser ------------------------------------------- *)

let parses name s =
  tc name `Quick (fun () -> ignore (check_json name s))

let rejects name s =
  tc name `Quick (fun () ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "%s: accepted %S" name s
      | Error _ -> ())

let json_tests =
  [
    parses "scalars and nesting"
      {|{"a":[1,2.5,-3e2,true,false,null],"b":{"c":""}}|};
    parses "bare literal" "true";
    parses "escapes" {|"quote \" backslash \\ slash \/ tab \t nul \u0000 bell \u0007"|};
    parses "surrogate pair" {|"😀"|};
    tc "surrogate pair decodes to UTF-8" `Quick (fun () ->
        match J.parse_exn {|"😀"|} with
        | J.Str s -> check Alcotest.string "emoji" "\xf0\x9f\x98\x80" s
        | _ -> Alcotest.fail "expected a string");
    tc "\\u0041 decodes" `Quick (fun () ->
        match J.parse_exn {|"A"|} with
        | J.Str s -> check Alcotest.string "A" "A" s
        | _ -> Alcotest.fail "expected a string");
    rejects "trailing garbage" "{} x";
    rejects "trailing comma in array" "[1,2,]";
    rejects "trailing comma in object" {|{"a":1,}|};
    rejects "unquoted key" "{a:1}";
    rejects "single quotes" "{'a':1}";
    rejects "unterminated string" {|"abc|};
    rejects "invalid escape" {|"\x41"|};
    rejects "lone surrogate" {|"\ud83d"|};
    rejects "raw control char in string" "\"a\nb\"";
    rejects "leading zero" "[01]";
    rejects "bare NaN" "NaN";
    rejects "empty input" "";
    tc "member and path" `Quick (fun () ->
        let v = J.parse_exn {|{"a":{"b":[10,20]}}|} in
        (match J.path v [ "a"; "b" ] with
        | Some (J.Arr [ J.Num x; J.Num y ]) ->
          check (Alcotest.pair (Alcotest.float 0.) (Alcotest.float 0.))
            "elements" (10., 20.) (x, y)
        | _ -> Alcotest.fail "path a.b should be [10,20]");
        check Alcotest.bool "missing member" true (J.member "z" v = None));
    tc "escape emits what parse accepts" `Quick (fun () ->
        let nasty = "q\"b\\s/n\nr\rt\tu\x01 \xf0\x9f\x98\x80 end" in
        match J.parse_exn ("\"" ^ J.escape nasty ^ "\"") with
        | J.Str s -> check Alcotest.string "round trip" nasty s
        | _ -> Alcotest.fail "expected a string");
  ]

(* -- Hist: exact and bucketed percentiles --------------------------- *)

let hist_tests =
  [
    tc "empty histogram reports zeros" `Quick (fun () ->
        let h = Hist.create () in
        check Alcotest.int "count" 0 (Hist.count h);
        check (Alcotest.float 0.) "p99" 0. (Hist.percentile h 0.99);
        check (Alcotest.float 0.) "mean" 0. (Hist.mean h));
    tc "nearest-rank percentile uses ceil, not truncation" `Quick (fun () ->
        (* 5 samples, p50: rank ceil(2.5)=3 -> 3.0; the old truncating
           definition picked rank 2 and under-reported *)
        let h = Hist.create () in
        List.iter (fun v -> Hist.record h v) [ 1.; 2.; 3.; 4.; 5. ];
        check (Alcotest.float 0.) "p50 of 5" 3. (Hist.percentile h 0.50);
        (* p95 of 10 must be the 10th sample, not the 9th *)
        let h = Hist.create () in
        for i = 1 to 10 do
          Hist.record h (float_of_int i)
        done;
        check (Alcotest.float 0.) "p95 of 10" 10. (Hist.percentile h 0.95));
    tc "exact regime: percentiles on 1..100" `Quick (fun () ->
        let h = Hist.create () in
        for i = 1 to 100 do
          Hist.record h (float_of_int i)
        done;
        check (Alcotest.float 0.) "p50" 50. (Hist.percentile h 0.50);
        check (Alcotest.float 0.) "p90" 90. (Hist.percentile h 0.90);
        check (Alcotest.float 0.) "p99" 99. (Hist.percentile h 0.99);
        check (Alcotest.float 0.) "max" 100. (Hist.max_value h);
        check (Alcotest.float 1e-9) "mean" 50.5 (Hist.mean h));
    tc "insertion order does not matter in the exact regime" `Quick (fun () ->
        let h = Hist.create () in
        List.iter (fun v -> Hist.record h v) [ 9.; 1.; 7.; 3.; 5. ];
        check (Alcotest.float 0.) "p50" 5. (Hist.percentile h 0.50));
    tc "bucketed regime: ~19% relative error, fixed footprint" `Quick
      (fun () ->
        (* 10_000 samples exceed the 512-sample exact prefix; the
           log-bucket estimate must land within one bucket ratio
           (2^(1/4) ~ 1.19x) of the true percentile *)
        let h = Hist.create () in
        for i = 1 to 10_000 do
          Hist.record h (float_of_int i)
        done;
        check Alcotest.int "count" 10_000 (Hist.count h);
        let within p truth =
          let v = Hist.percentile h p in
          let ratio = v /. truth in
          if ratio < 0.80 || ratio > 1.25 then
            Alcotest.failf "p%.0f: estimate %.1f vs true %.1f" (100. *. p) v
              truth
        in
        within 0.50 5000.;
        within 0.90 9000.;
        within 0.99 9900.;
        check (Alcotest.float 0.) "max exact" 10_000. (Hist.max_value h);
        check (Alcotest.float 0.) "min exact" 1. (Hist.min_value h));
    tc "bucket estimate is clamped to the observed range" `Quick (fun () ->
        (* constant samples: every percentile must equal the constant,
           not a bucket midpoint *)
        let h = Hist.create () in
        for _ = 1 to 1000 do
          Hist.record h 42.
        done;
        check (Alcotest.float 0.) "p99 of constant" 42.
          (Hist.percentile h 0.99));
    tc "reset empties the histogram" `Quick (fun () ->
        let h = Hist.create () in
        Hist.record h 5.;
        Hist.reset h;
        check Alcotest.int "count" 0 (Hist.count h);
        check (Alcotest.float 0.) "p50" 0. (Hist.percentile h 0.50));
    tc "to_json_fields is valid JSON with p99" `Quick (fun () ->
        let h = Hist.create () in
        List.iter (fun v -> Hist.record h v) [ 1.; 2.; 3. ];
        let v = check_json "hist" ("{" ^ Hist.to_json_fields h ^ "}") in
        match (J.member "p99" v, J.member "count" v) with
        | Some (J.Num p99), Some (J.Num n) ->
          check (Alcotest.float 1e-9) "p99" 3. p99;
          check (Alcotest.float 0.) "count" 3. n
        | _ -> Alcotest.fail "p99/count fields missing");
  ]

(* -- Hist.merge: the window-snapshot primitive ---------------------- *)

let record_all h vs = List.iter (fun v -> Hist.record h v) vs

let merge_tests =
  [
    tc "merging empties stays empty with zero percentiles" `Quick (fun () ->
        let a = Hist.create () and b = Hist.create () in
        Hist.merge ~into:a b;
        check Alcotest.int "count" 0 (Hist.count a);
        check (Alcotest.float 0.) "p50" 0. (Hist.percentile a 0.50);
        check (Alcotest.float 0.) "p99" 0. (Hist.percentile a 0.99);
        check (Alcotest.float 0.) "mean" 0. (Hist.mean a));
    tc "merging an empty window changes nothing" `Quick (fun () ->
        let a = Hist.create () in
        record_all a [ 3.; 1.; 2. ];
        Hist.merge ~into:a (Hist.create ());
        check Alcotest.int "count" 3 (Hist.count a);
        check (Alcotest.float 0.) "p50 still exact" 2.
          (Hist.percentile a 0.50));
    tc "single-sample windows merge to exact percentiles" `Quick (fun () ->
        (* every slot holding one sample is the worst case for a
           bucketed merge; small unions must stay sample-exact *)
        let into = Hist.create () in
        List.iter
          (fun v ->
            let s = Hist.create () in
            Hist.record s v;
            check (Alcotest.float 0.) "slot p99 = its sample" v
              (Hist.percentile s 0.99);
            Hist.merge ~into s)
          [ 5.; 1.; 4.; 2.; 3. ];
        check Alcotest.int "count" 5 (Hist.count into);
        check (Alcotest.float 0.) "p50" 3. (Hist.percentile into 0.50);
        check (Alcotest.float 0.) "max" 5. (Hist.max_value into);
        check (Alcotest.float 0.) "min" 1. (Hist.min_value into));
    tc "merge into self raises" `Quick (fun () ->
        let h = Hist.create () in
        Hist.record h 1.;
        match Hist.merge ~into:h h with
        | () -> Alcotest.fail "self-merge accepted"
        | exception Invalid_argument _ -> ());
    tc "overflowing merge degrades to estimates, counts stay exact" `Quick
      (fun () ->
        let into = Hist.create ~exact_cap:8 () in
        let src = Hist.create () in
        record_all into [ 1.; 2.; 3.; 4.; 5. ];
        record_all src [ 6.; 7.; 8.; 9.; 10. ];
        Hist.merge ~into src;
        check Alcotest.int "count" 10 (Hist.count into);
        check (Alcotest.float 1e-9) "sum" 55. (Hist.sum into);
        check (Alcotest.float 0.) "max" 10. (Hist.max_value into);
        let p99 = Hist.percentile into 0.99 in
        if p99 < 8. || p99 > 12.5 then
          Alcotest.failf "p99 estimate %.2f outside one bucket of 10" p99);
    qtest ~count:100 "merge of sub-windows equals the whole window"
      QCheck2.Gen.(
        pair
          (list_size (int_range 0 40)
             (list_size (int_range 0 30) (float_range 1. 1e6)))
          unit)
      (fun (slots, ()) ->
        (* split a population across N slot histograms and merge them
           back — exactly what Window.snapshot does — then compare to
           one histogram fed the whole population directly *)
        let whole = Hist.create () in
        let merged = Hist.create () in
        List.iter
          (fun slot ->
            let h = Hist.create () in
            List.iter
              (fun v ->
                Hist.record h v;
                Hist.record whole v)
              slot;
            Hist.merge ~into:merged h)
          slots;
        Hist.count merged = Hist.count whole
        && abs_float (Hist.sum merged -. Hist.sum whole) < 1e-6
        && Hist.max_value merged = Hist.max_value whole
        && Hist.min_value merged = Hist.min_value whole
        &&
        (* percentiles sample-exact while the union fits the exact
           prefix; both sides agree regardless of the split *)
        List.for_all
          (fun p ->
            let a = Hist.percentile merged p
            and b = Hist.percentile whole p in
            if Hist.count whole <= 512 then a = b
            else a = 0. = (b = 0.) && (b = 0. || a /. b < 1.5 && a /. b > 0.6))
          [ 0.5; 0.9; 0.99 ]);
  ]

(* -- Window: deterministic rolling-window behaviour ------------------ *)

(* 10 slots x 100ms = a 1s window, driven by a synthetic clock. *)
let mk_window () = Window.create ~slot_ms:100 ~slots:10 ()

let ms n = n * 1_000_000

let window_tests =
  [
    tc "empty window: zero rate, zero percentiles, zero fracs" `Quick
      (fun () ->
        let w = mk_window () in
        let s = Window.snapshot ~now_ns:(ms 50) w in
        check Alcotest.int "count" 0 s.Window.count;
        check (Alcotest.float 0.) "rate" 0. s.Window.rate;
        check (Alcotest.float 0.) "p99" 0. s.Window.p99_ns;
        check (Alcotest.float 0.) "err_frac" 0. s.Window.err_frac;
        check (Alcotest.float 0.) "slow_frac" 0. s.Window.slow_frac);
    tc "single-sample window reports that sample" `Quick (fun () ->
        let w = mk_window () in
        Window.record ~now_ns:(ms 10) w ~ok:true ~slow:false 5000;
        let s = Window.snapshot ~now_ns:(ms 20) w in
        check Alcotest.int "count" 1 s.Window.count;
        check (Alcotest.float 0.) "p50" 5000. s.Window.p50_ns;
        check (Alcotest.float 0.) "p99" 5000. s.Window.p99_ns;
        check (Alcotest.float 0.) "max" 5000. s.Window.max_ns;
        check (Alcotest.float 1e-9) "mean" 5000. s.Window.mean_ns);
    tc "errors and slow samples produce fracs" `Quick (fun () ->
        let w = mk_window () in
        Window.record ~now_ns:(ms 10) w ~ok:true ~slow:false 100;
        Window.record ~now_ns:(ms 20) w ~ok:false ~slow:false 100;
        Window.record ~now_ns:(ms 30) w ~ok:true ~slow:true 100;
        Window.record ~now_ns:(ms 40) w ~ok:true ~slow:false 100;
        let s = Window.snapshot ~now_ns:(ms 50) w in
        check Alcotest.int "count" 4 s.Window.count;
        check Alcotest.int "errors" 1 s.Window.errors;
        check Alcotest.int "slow" 1 s.Window.slow;
        check (Alcotest.float 1e-9) "err_frac" 0.25 s.Window.err_frac;
        check (Alcotest.float 1e-9) "slow_frac" 0.25 s.Window.slow_frac);
    tc "ring rollover: samples expire after the span" `Quick (fun () ->
        let w = mk_window () in
        Window.record ~now_ns:(ms 10) w ~ok:false ~slow:false 100;
        (* still visible within the 1s span *)
        check Alcotest.int "inside span" 1
          (Window.snapshot ~now_ns:(ms 900) w).Window.count;
        (* one full span later the slot has been recycled *)
        check Alcotest.int "expired" 0
          (Window.snapshot ~now_ns:(ms 1500) w).Window.count;
        (* and the recycled slot accepts new samples cleanly *)
        Window.record ~now_ns:(ms 1510) w ~ok:true ~slow:false 200;
        let s = Window.snapshot ~now_ns:(ms 1520) w in
        check Alcotest.int "fresh sample" 1 s.Window.count;
        check Alcotest.int "old error gone" 0 s.Window.errors);
    tc "rollover across many spans keeps the footprint fixed" `Quick
      (fun () ->
        let w = mk_window () in
        (* 10k samples spread over 100 spans: any leak of expired
           slots would show up as count > one window's worth *)
        for i = 1 to 10_000 do
          Window.record ~now_ns:(ms (i * 10)) w ~ok:true ~slow:false 100
        done;
        let s = Window.snapshot ~now_ns:(ms 100_000) w in
        check Alcotest.bool "at most one window retained" true
          (s.Window.count <= 100);
        check Alcotest.bool "rate ~ 100/s" true
          (s.Window.rate > 50. && s.Window.rate < 150.));
    qtest ~count:100 "windowed count never exceeds the cumulative count"
      QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 3000))
      (fun deltas_ms ->
        (* a random monotone sample schedule: whatever the window
           retains is a subset of everything recorded *)
        let w = mk_window () in
        let now = ref 0 in
        let total = ref 0 in
        List.iter
          (fun d ->
            now := !now + ms d;
            Window.record ~now_ns:!now w ~ok:true ~slow:false 100;
            incr total;
            let s = Window.snapshot ~now_ns:!now w in
            if s.Window.count > !total then
              QCheck2.Test.fail_reportf "window %d > cumulative %d"
                s.Window.count !total)
          deltas_ms;
        true);
    tc "burn rate: observed over budget" `Quick (fun () ->
        check (Alcotest.float 1e-9) "at budget" 1.
          (Window.burn ~frac:0.01 ~budget_frac:0.01);
        check (Alcotest.float 1e-9) "4x burn" 4.
          (Window.burn ~frac:0.04 ~budget_frac:0.01);
        check (Alcotest.float 0.) "no failures" 0.
          (Window.burn ~frac:0. ~budget_frac:0.01));
    tc "snap_json round-trips the strict parser" `Quick (fun () ->
        let w = mk_window () in
        Window.record ~now_ns:(ms 10) w ~ok:true ~slow:false 100;
        let v =
          check_json "window snap"
            (Window.snap_json (Window.snapshot ~now_ns:(ms 20) w))
        in
        match J.member "count" v with
        | Some (J.Num n) -> check (Alcotest.float 0.) "count" 1. n
        | _ -> Alcotest.fail "count missing");
  ]

(* -- Events: bounded ring, severity filter, JSONL sink --------------- *)

let event_tests =
  [
    tc "severity names round-trip, unknown rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            match Events.severity_of_string (Events.severity_to_string s) with
            | Some s' ->
              check Alcotest.int "rank" (Events.severity_rank s)
                (Events.severity_rank s')
            | None -> Alcotest.fail "round trip failed")
          [ Events.Debug; Info; Warn; Error; Critical ];
        check Alcotest.bool "unknown" true
          (Events.severity_of_string "loud" = None));
    tc "ring keeps the last cap events, total keeps counting" `Quick
      (fun () ->
        let t = Events.create ~cap:4 () in
        for i = 1 to 10 do
          Events.info t ~kind:"k" [ ("i", Events.I i) ]
        done;
        check Alcotest.int "total" 10 (Events.total t);
        let tl = Events.tail t 100 in
        check Alcotest.int "retained" 4 (List.length tl);
        check
          (Alcotest.list Alcotest.int)
          "oldest first, newest retained" [ 7; 8; 9; 10 ]
          (List.map
             (fun e ->
               match List.assoc "i" e.Events.data with
               | Events.I i -> i
               | _ -> -1)
             tl));
    tc "tail level filter and count_at_least agree" `Quick (fun () ->
        let t = Events.create () in
        Events.debug t ~kind:"d" [];
        Events.info t ~kind:"i" [];
        Events.warn t ~kind:"w" [];
        Events.error t ~kind:"e" [];
        Events.critical t ~kind:"c" [];
        check Alcotest.int "all" 5 (Events.count_at_least t Events.Debug);
        check Alcotest.int "warn+" 3 (Events.count_at_least t Events.Warn);
        check Alcotest.int "critical" 1
          (Events.count_at_least t Events.Critical);
        check
          (Alcotest.list Alcotest.string)
          "filtered tail" [ "w"; "e"; "c" ]
          (List.map
             (fun e -> e.Events.kind)
             (Events.tail ~level:Events.Warn t 100)));
    tc "events_json round-trips with escaped data" `Quick (fun () ->
        let t = Events.create () in
        Events.warn t ~kind:"q.slow"
          [
            ("uri", Events.S "doc\"with\\esc\napes");
            ("ms", Events.F 1.5);
            ("jid", Events.I 7);
            ("forced", Events.B true);
          ];
        let v = check_json "events" (Events.events_json (Events.tail t 10)) in
        match J.to_list v with
        | [ e ] -> (
          (match Option.bind (J.member "kind" e) J.to_string_opt with
          | Some k -> check Alcotest.string "kind" "q.slow" k
          | None -> Alcotest.fail "kind missing");
          match J.path e [ "data"; "uri" ] with
          | Some (J.Str u) ->
            check Alcotest.string "nasty value" "doc\"with\\esc\napes" u
          | _ -> Alcotest.fail "data.uri missing")
        | l -> Alcotest.failf "expected 1 event, got %d" (List.length l));
    tc "subscribers see each event and may log reentrantly" `Quick (fun () ->
        let t = Events.create () in
        let seen = ref [] in
        Events.subscribe t (fun e ->
            seen := e.Events.kind :: !seen;
            (* a subscriber that logs must not deadlock; its event
               reaches the ring but not the (already-running) hook *)
            if e.Events.kind = "outer" then Events.info t ~kind:"nested" []);
        Events.info t ~kind:"outer" [];
        check Alcotest.bool "outer seen" true (List.mem "outer" !seen);
        check Alcotest.int "both in ring" 2 (Events.total t));
    tc "disabled log is a no-op" `Quick (fun () ->
        let t = Events.disabled () in
        Events.critical t ~kind:"x" [];
        check Alcotest.bool "enabled" false (Events.enabled t);
        check Alcotest.int "total" 0 (Events.total t);
        check Alcotest.int "tail" 0 (List.length (Events.tail t 10)));
    tc "sink mirrors events as JSONL, Info+ flushed immediately" `Quick
      (fun () ->
        let dir = Filename.temp_file "xqb_events" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let path = Filename.concat dir "events.jsonl" in
        let t = Events.create ~sink_path:path () in
        Events.info t ~kind:"lifecycle.boot" [ ("domains", Events.I 2) ];
        Events.warn t ~kind:"sched.overload" [];
        (* Info and above flush per event: readable before close *)
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        close_in ic;
        Events.close t;
        let lines = List.rev !lines in
        check Alcotest.int "two lines" 2 (List.length lines);
        List.iter (fun l -> ignore (check_json "sink line" l)) lines;
        (match J.member "kind" (J.parse_exn (List.hd lines)) with
        | Some (J.Str k) -> check Alcotest.string "first kind" "lifecycle.boot" k
        | _ -> Alcotest.fail "kind missing in sink");
        Sys.remove path;
        Unix.rmdir dir);
  ]

(* -- Trace: spans, nesting, export ---------------------------------- *)

let span_names tr = List.map (fun s -> s.Trace.name) (Trace.spans tr)

(* A span through the one bracket: [Stage.with_] without a stage. *)
let with_span ?args tr name f =
  Stage.with_ ?args (Some (Stage.create ~tracer:tr ())) name f

let trace_tests =
  [
    tc "with_span nests via parent links" `Quick (fun () ->
        let tr = Trace.create () in
        with_span tr "outer" (fun () ->
            with_span tr "inner" (fun () -> ());
            with_span tr "inner2" (fun () -> ()));
        check (Alcotest.list Alcotest.string) "names"
          [ "outer"; "inner"; "inner2" ] (span_names tr);
        match Trace.spans tr with
        | [ outer; inner; inner2 ] ->
          check Alcotest.int "outer is a root" (-1) outer.Trace.parent;
          check Alcotest.int "inner under outer" outer.Trace.id
            inner.Trace.parent;
          check Alcotest.int "inner2 under outer" outer.Trace.id
            inner2.Trace.parent;
          check Alcotest.bool "inner closed" true (inner.Trace.dur_ns >= 0)
        | _ -> Alcotest.fail "expected 3 spans");
    tc "disabled tracer records nothing and returns -1" `Quick (fun () ->
        let tr = Trace.disabled in
        let id = Trace.begin_span tr "x" in
        Trace.end_span tr id;
        check Alcotest.int "id" (-1) id;
        check Alcotest.int "count" 0 (Trace.span_count tr);
        check Alcotest.bool "enabled" false (Trace.enabled tr));
    tc "with_span closes the span on exceptions" `Quick (fun () ->
        let tr = Trace.create () in
        (try with_span tr "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        (* the stack must be unwound: a new span is again a root *)
        with_span tr "after" (fun () -> ());
        match Trace.spans tr with
        | [ boom; after ] ->
          check Alcotest.bool "boom closed" true (boom.Trace.dur_ns >= 0);
          check Alcotest.int "after is a root" (-1) after.Trace.parent
        | _ -> Alcotest.fail "expected 2 spans");
    tc "add_span records retroactive cross-thread spans" `Quick (fun () ->
        let tr = Trace.create () in
        Trace.add_span ~cat:"sched" tr ~name:"queue.wait" ~start_ns:1000
          ~dur_ns:5000 ();
        match Trace.spans tr with
        | [ s ] ->
          check Alcotest.string "name" "queue.wait" s.Trace.name;
          check Alcotest.int "dur" 5000 s.Trace.dur_ns
        | _ -> Alcotest.fail "expected 1 span");
    tc "cap drops excess spans and counts them" `Quick (fun () ->
        let tr = Trace.create ~cap:4 () in
        for i = 1 to 10 do
          with_span tr (Printf.sprintf "s%d" i) (fun () -> ())
        done;
        check Alcotest.int "kept" 4 (Trace.span_count tr);
        check Alcotest.int "dropped" 6 (Trace.dropped tr));
    tc "chrome export is strict JSON with escaped args" `Quick (fun () ->
        let tr = Trace.create () in
        with_span tr
          ~args:[ ("uri", "he\"llo\\wo\nrld"); ("k\te y", "v") ]
          "load" (fun () -> ());
        Trace.add_span tr ~name:"mark" ~start_ns:(Xqb_obs.Clock.now_ns ())
          ~dur_ns:0 ();
        let v = check_json "chrome trace" (Trace.to_chrome_json tr) in
        let events =
          match J.member "traceEvents" v with
          | Some a -> J.to_list a
          | None -> Alcotest.fail "no traceEvents"
        in
        check Alcotest.int "two events" 2 (List.length events);
        let load = List.hd events in
        (match Option.bind (J.member "name" load) J.to_string_opt with
        | Some n -> check Alcotest.string "name" "load" n
        | None -> Alcotest.fail "event has no name");
        match
          Option.bind (J.member "args" load) (fun a -> J.member "uri" a)
        with
        | Some (J.Str u) ->
          check Alcotest.string "nasty uri round-trips" "he\"llo\\wo\nrld" u
        | _ -> Alcotest.fail "args.uri missing");
    tc "dropped count is reported in otherData" `Quick (fun () ->
        let tr = Trace.create ~cap:1 () in
        with_span tr "a" (fun () -> ());
        with_span tr "b" (fun () -> ());
        let v = check_json "trace" (Trace.to_chrome_json tr) in
        match J.path v [ "otherData"; "dropped" ] with
        | Some (J.Num d) -> check (Alcotest.float 0.) "dropped" 1. d
        | _ -> Alcotest.fail "otherData.dropped missing");
  ]

(* -- Stage: the per-job bracket --------------------------------------- *)

let ns_of ns s = ns.(Stage.index s)

(* The domain's profiler label, read by swapping it out and back. *)
let label () =
  let l = Profile.swap_phase "" in
  ignore (Profile.swap_phase l);
  l

let stage_tests =
  [
    tc "a nested stage's time is charged to it, not to the outer one" `Quick
      (fun () ->
        let st = Stage.create () in
        let inner = ref 0 in
        let outer =
          Stage.timed Stage.Run (Some st) "eval" (fun () ->
              Unix.sleepf 0.001;
              inner :=
                Stage.timed Stage.Snap_apply (Some st) "snap.apply" (fun () ->
                    Unix.sleepf 0.005))
        in
        let ns = Stage.finish st in
        check Alcotest.bool "inner slept" true (!inner >= 5_000_000);
        check Alcotest.int "snap-apply is the inner bracket" !inner
          (ns_of ns Stage.Snap_apply);
        check Alcotest.int "run is the outer bracket minus the inner" (outer - !inner)
          (ns_of ns Stage.Run);
        Array.iter (fun n -> check Alcotest.bool "non-negative" true (n >= 0)) ns;
        check Alcotest.bool "the slots cover both brackets" true
          (Array.fold_left ( + ) 0 ns >= outer));
    tc "an exception restores the outer stage and profiler label" `Quick
      (fun () ->
        let st = Stage.create () in
        let before = label () in
        Stage.with_ ~stage:Stage.Compile (Some st) "compile" (fun () ->
            (try
               Stage.with_ ~stage:Stage.Run (Some st) "eval" (fun () ->
                   check Alcotest.string "inner label" "run" (label ());
                   failwith "boom")
             with Failure _ -> ());
            check Alcotest.string "outer label back" "compile" (label ());
            (* charged to compile: the outer stage is current again *)
            Unix.sleepf 0.005);
        check Alcotest.string "label restored" before (label ());
        let ns = Stage.finish st in
        check Alcotest.bool "compile got the time after the exception" true
          (ns_of ns Stage.Compile >= 5_000_000);
        check Alcotest.bool "run got none of it" true
          (ns_of ns Stage.Run < ns_of ns Stage.Compile));
    tc "no tracer: no spans, time still accumulates" `Quick (fun () ->
        let bracket st =
          Stage.switch st Stage.Queue;
          Stage.switch st Stage.Gate;
          Stage.switch st Stage.Other;
          Stage.with_ ~stage:Stage.Run (Some st) "eval" (fun () ->
              Stage.with_ (Some st) "conflict.check" (fun () -> Unix.sleepf 0.002));
          Stage.finish st
        in
        let off = Trace.disabled in
        List.iter
          (fun st ->
            let ns = bracket st in
            check Alcotest.bool "run accumulated" true
              (ns_of ns Stage.Run >= 2_000_000))
          [ Stage.create (); Stage.create ~tracer:off () ];
        check Alcotest.int "disabled tracer recorded nothing" 0
          (Trace.span_count off);
        (* the same brackets with a tracer: every span, fuel on the
           bracket spans once a step counter is installed *)
        let tr = Trace.create () in
        let st = Stage.create ~tracer:tr () in
        let steps = ref 0 in
        Stage.set_steps st (fun () -> !steps);
        ignore
          (Stage.with_ (Some st) "parse" (fun () ->
               steps := 7;
               bracket st));
        let spans = Trace.spans tr in
        check
          (Alcotest.list Alcotest.string)
          "span names"
          [ "parse"; "queue.wait"; "lock.wait"; "eval"; "conflict.check" ]
          (List.map (fun s -> s.Trace.name) spans);
        match List.find_opt (fun s -> s.Trace.name = "parse") spans with
        | Some s ->
          check Alcotest.(option string) "fuel" (Some "7")
            (List.assoc_opt "fuel" s.Trace.args)
        | None -> Alcotest.fail "parse span missing");
  ]

(* -- Metrics / service JSON round-trips ----------------------------- *)

module Svc = Xqb_service.Service

let roundtrip_tests =
  [
    tc "stats_json round-trips, including escaped URIs" `Quick (fun () ->
        let svc = Svc.create ~domains:0 ~tracing:true () in
        let sid = Svc.open_session svc in
        (* a URI the emitter must escape: quote, backslash, newline *)
        let nasty = "doc\"with\\esc\napes" in
        Svc.load_document svc sid ~uri:nasty "<r><a/></r>";
        ignore (Svc.query svc sid "1+1");
        let v = check_json "stats_json" (Svc.stats_json svc) in
        (* the nasty URI must survive the parse intact *)
        let docs =
          match J.member "documents" v with Some a -> J.to_list a | None -> []
        in
        let uris =
          List.filter_map
            (fun d -> Option.bind (J.member "uri" d) J.to_string_opt)
            docs
        in
        if not (List.mem nasty uris) then
          Alcotest.failf "escaped URI lost; got: %s"
            (String.concat ", " uris);
        (* per-phase latency histograms appear once a query ran *)
        (match J.member "phases_ns" v with
        | Some (J.Obj fields) ->
          check Alcotest.bool "has at least one phase" true (fields <> [])
        | _ -> Alcotest.fail "phases_ns missing");
        (match J.path v [ "latency_ns"; "p99" ] with
        | Some (J.Num _) -> ()
        | _ -> Alcotest.fail "latency_ns.p99 missing");
        Svc.shutdown svc);
    tc "recorded job trace round-trips through the strict parser" `Quick
      (fun () ->
        (* domains>0 so jobs go through the queue (queue.wait) *)
        let svc = Svc.create ~domains:2 ~tracing:true () in
        let sid = Svc.open_session svc in
        Svc.load_document svc sid ~uri:"d" "<r><a/><a/></r>";
        (* updating: write side, snap application on the profile *)
        (match
           Svc.query svc sid
             {|(insert {<b/>} into {doc("d")/r}, snap { count(doc("d")//a) })|}
         with
        | Ok r -> check Alcotest.string "result" "2" r
        | Error e ->
          Alcotest.failf "query failed: %s"
            (Xqb_service.Service_error.to_string e));
        (match Svc.trace_json svc None with
        | None -> Alcotest.fail "no trace recorded with tracing on"
        | Some (_, json) ->
          let v = check_json "job trace" json in
          let names =
            List.filter_map
              (fun e -> Option.bind (J.member "name" e) J.to_string_opt)
              (match J.member "traceEvents" v with
              | Some a -> J.to_list a
              | None -> [])
          in
          List.iter
            (fun phase ->
              if not (List.mem phase names) then
                Alcotest.failf "trace misses %S; has: %s" phase
                  (String.concat "," names))
            [
              "queue.wait"; "lock.wait"; "compile"; "parse"; "normalize";
              "static.check"; "simplify"; "typing"; "eval"; "snap.apply";
            ]);
        Svc.shutdown svc);
    tc "tracing off: TRACE has nothing, queries still work" `Quick (fun () ->
        let svc = Svc.create ~domains:0 () in
        let sid = Svc.open_session svc in
        (match Svc.query svc sid "1+1" with
        | Ok r -> check Alcotest.string "result" "2" r
        | Error _ -> Alcotest.fail "query failed");
        check Alcotest.bool "no trace" true (Svc.trace_json svc None = None);
        Svc.shutdown svc);
  ]

let suite =
  [
    ("obs: json", json_tests);
    ("obs: hist", hist_tests);
    ("obs: hist-merge", merge_tests);
    ("obs: window", window_tests);
    ("obs: events", event_tests);
    ("obs: trace", trace_tests);
    ("obs: stage", stage_tests);
    ("obs: round-trips", roundtrip_tests);
  ]
