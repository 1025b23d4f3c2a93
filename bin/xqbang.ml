(* xqbang — command-line front end for the XQuery! engine.

   Examples:
     xqbang run query.xq --doc auction=data.xml
     xqbang run -e 'snap insert {<a/>} into {doc("d")}' --doc d=doc.xml
     xqbang explain query.xq --doc auction=data.xml
     xqbang xmark --factor 0.1 > auction.xml
*)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --doc name=path bindings: each document is loaded, registered for
   fn:doc("name") and bound to $name. *)
let setup_engine docs vars seed =
  let eng = Core.Engine.create ~seed () in
  Core.Engine.set_doc_resolver eng read_file;
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | None -> failwith (Printf.sprintf "--doc expects name=path, got %S" spec)
      | Some i ->
        let name = String.sub spec 0 i in
        let path = String.sub spec (i + 1) (String.length spec - i - 1) in
        let node = Core.Engine.load_document eng ~uri:name (read_file path) in
        Core.Engine.bind_node eng name node)
    docs;
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | None -> failwith (Printf.sprintf "--var expects name=value, got %S" spec)
      | Some i ->
        let name = String.sub spec 0 i in
        let v = String.sub spec (i + 1) (String.length spec - i - 1) in
        Core.Engine.bind eng name (Xqb_xdm.Value.of_string v))
    vars;
  eng

let get_source query expr =
  match expr, query with
  | Some e, _ -> e
  | None, Some path -> read_file path
  | None, None -> failwith "provide a query file or -e EXPR"

let mode_of_string = function
  | "ordered" -> Core.Core_ast.Snap_ordered
  | "nondeterministic" | "nondet" -> Core.Core_ast.Snap_nondeterministic
  | "conflict" -> Core.Core_ast.Snap_conflict
  | s -> failwith (Printf.sprintf "unknown snap mode %S" s)

open Cmdliner

let docs_arg =
  Arg.(value & opt_all string [] & info [ "doc" ] ~docv:"NAME=PATH"
         ~doc:"Load an XML document, bind it to \\$NAME and register it for fn:doc(\"NAME\").")

let vars_arg =
  Arg.(value & opt_all string [] & info [ "var" ] ~docv:"NAME=VALUE"
         ~doc:"Bind a string value to \\$NAME.")

let expr_arg =
  Arg.(value & opt (some string) None & info [ "e"; "expr" ] ~docv:"EXPR"
         ~doc:"Inline query text instead of a query file.")

let query_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY.xq")

let mode_arg =
  Arg.(value & opt string "ordered" & info [ "snap-mode" ] ~docv:"MODE"
         ~doc:"Semantics of the implicit top-level snap: ordered, nondeterministic or conflict.")

let seed_arg =
  Arg.(value & opt int 0x5eed & info [ "seed" ] ~docv:"N"
         ~doc:"Seed for the nondeterministic update-application order.")

let trace_arg =
  Arg.(value & flag & info [ "trace-updates" ]
         ~doc:"Print each pending-update list (Delta) to stderr as its snap scope closes, before application.")

let report_errors f =
  try f () with
  | Core.Engine.Compile_error m -> `Error (false, m)
  | Xqb_governor.Budget.Budget_exceeded r ->
    `Error (false, Xqb_governor.Budget.reason_to_string r)
  | Xqb_xdm.Errors.Dynamic_error (code, m) ->
    `Error (false, Printf.sprintf "dynamic error [%s] %s" code m)
  | Core.Conflict.Conflict_error c ->
    `Error (false, "update conflict: " ^ Core.Conflict.to_string c)
  | Xqb_store.Store.Update_error m -> `Error (false, "update error: " ^ m)
  | Failure m -> `Error (false, m)
  | Sys_error m -> `Error (false, m)

(* --show-delta: render each snap's ∆ before application with stable
   node paths, source locations and snap depths (store-aware, unlike
   the raw-id --trace-updates). *)
let enable_show_delta eng =
  (Core.Engine.context eng).Core.Context.on_apply <-
    Some
      (fun delta mode ->
        let store = Core.Engine.store eng in
        Printf.eprintf "snap(%s) Δ %d request(s):\n%s%!"
          (Core.Apply.mode_to_string mode)
          (List.length delta)
          (match delta with
          | [] -> ""
          | _ -> Core.Update.render_delta store delta ^ "\n"))

let enable_trace eng =
  (Core.Engine.context eng).Core.Context.on_apply <-
    Some
      (fun delta mode ->
        Printf.eprintf "snap(%s) applying %d request(s): %s\n%!"
          (Core.Apply.mode_to_string mode)
          (List.length delta)
          (Core.Update.delta_to_string delta))

(* Budget from the shared CLI flags; None when ungoverned. The
   deadline is anchored to the monotonic clock, same as the service
   path — a wall-clock step must not expire (or resurrect) a query. *)
let make_budget deadline_ms fuel =
  match (deadline_ms, fuel) with
  | None, None -> None
  | _ ->
    let deadline_ns =
      Option.map
        (fun ms -> Xqb_obs.Clock.now_ns () + (ms * 1_000_000))
        deadline_ms
    in
    Some (Xqb_governor.Budget.create ?deadline_ns ?fuel ())

let deadline_arg =
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Wall-clock budget per query; past it the query fails with a timeout error.")

let fuel_arg =
  Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N"
         ~doc:"Evaluation-step budget per query; past it the query fails with a timeout error.")

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let run_cmd =
  let run query expr docs vars mode seed trace quiet deadline_ms fuel
      explain_analyze trace_out show_delta explain_conflicts profile_out =
    report_errors (fun () ->
        let eng = setup_engine docs vars seed in
        if trace then enable_trace eng;
        if show_delta then enable_show_delta eng;
        let src = get_source query expr in
        let mode = mode_of_string mode in
        (* --profile PATH: sample the whole run with the continuous
           profiler and write the folded-stack aggregate (flamegraph
           collapsed format) on exit *)
        if profile_out <> None then ignore (Xqb_obs.Profile.start ());
        (* --trace PATH: record the whole run (compile phases,
           evaluation, snap application) and write Chrome trace JSON *)
        let job =
          Option.map
            (fun _ -> Xqb_obs.Stage.create ~tracer:(Xqb_obs.Trace.create ()) ())
            trace_out
        in
        (* Conflicts are reported with store-aware node paths; with
           --explain-conflicts both offending requests are also shown
           with their provenance. *)
        let on_conflict (c : Core.Conflict.conflict) =
          let store = Core.Engine.store eng in
          if explain_conflicts then
            Printf.eprintf "conflict %s:\n  first:  %s\n  second: %s\n%!"
              (Core.Conflict.rule_id c.Core.Conflict.rule)
              (Core.Update.render_request store c.Core.Conflict.first)
              (Core.Update.render_request store c.Core.Conflict.second);
          failwith ("update conflict: " ^ Core.Conflict.explain ~store c)
        in
        (try
        Core.Engine.with_job eng job (fun () ->
            let value =
              Core.Engine.with_budget eng (make_budget deadline_ms fuel)
                (fun () ->
                  (* the one execution path: the algebra plan of the
                     body, its leaves on the evaluator *)
                  let p = Xqb_algebra.Runner.prepare eng src in
                  if not quiet then
                    List.iter
                      (fun w -> Printf.eprintf "warning: %s\n%!" w)
                      p.Xqb_algebra.Runner.compiled.Core.Engine.type_warnings;
                  let r =
                    Xqb_algebra.Runner.execute ~mode ~profile:explain_analyze eng p
                  in
                  (* EXPLAIN ANALYZE: the annotated tree precedes the
                     result *)
                  if explain_analyze then
                    print_endline (Xqb_algebra.Runner.render r);
                  r.Xqb_algebra.Runner.value)
            in
            print_endline (Core.Engine.serialize eng value))
        with Core.Conflict.Conflict_error c -> on_conflict c);
        (match (trace_out, Option.bind job Xqb_obs.Stage.tracer) with
        | Some path, Some tr ->
          write_file path (Xqb_obs.Trace.to_chrome_json tr);
          Printf.eprintf "trace written to %s (%d spans)\n%!" path
            (Xqb_obs.Trace.span_count tr)
        | _ -> ());
        (match profile_out with
        | Some path ->
          ignore (Xqb_obs.Profile.stop ());
          Xqb_obs.Profile.write_folded path;
          Printf.eprintf "profile written to %s (%d samples)\n%!" path
            (Xqb_obs.Profile.samples ())
        | None -> ());
        `Ok ())
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ]
           ~doc:"Suppress static-typing warnings.")
  in
  let explain_analyze_arg =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"EXPLAIN ANALYZE: print the executed plan tree annotated with per-operator tuple counts and timings before the result.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH"
           ~doc:"Record a span trace of the run (compile phases, evaluation, snap application) and write Chrome trace-event JSON to PATH (loadable in chrome://tracing or Perfetto).")
  in
  let show_delta_arg =
    Arg.(value & flag & info [ "show-delta" ]
           ~doc:"Render each pending-update list (Delta) to stderr before its snap applies it: one line per request with stable node paths, the source location of the effecting expression and its snap depth.")
  in
  let explain_conflicts_arg =
    Arg.(value & flag & info [ "explain-conflicts" ]
           ~doc:"On an update conflict, also print both offending requests with their provenance (rule id, node paths, source locations).")
  in
  let profile_out_arg =
    Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"PATH"
           ~doc:"Sample the run with the continuous CPU profiler (SIGPROF, 97 Hz) and write the aggregated folded stacks to PATH — feed it to flamegraph.pl or speedscope.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Evaluate an XQuery! program")
    Term.(ret (const run $ query_arg $ expr_arg $ docs_arg $ vars_arg $ mode_arg
               $ seed_arg $ trace_arg $ quiet_arg $ deadline_arg
               $ fuel_arg $ explain_analyze_arg $ trace_out_arg $ show_delta_arg
               $ explain_conflicts_arg $ profile_out_arg))

let explain_cmd =
  let explain query expr docs vars mode seed =
    try
      let eng = setup_engine docs vars seed in
      let src = get_source query expr in
      let mode = mode_of_string mode in
      print_endline (Xqb_algebra.Runner.explain ~mode eng src);
      `Ok ()
    with
    | Core.Engine.Compile_error m -> `Error (false, m)
    | Failure m -> `Error (false, m)
  in
  Cmd.v (Cmd.info "explain" ~doc:"Print the optimized query plan")
    Term.(ret (const explain $ query_arg $ expr_arg $ docs_arg $ vars_arg
               $ mode_arg $ seed_arg))

let xmark_cmd =
  let gen factor seed =
    let cfg = { (Xqb_xmark.Generator.scaled factor) with seed } in
    print_endline (Xqb_xmark.Generator.to_xml cfg)
  in
  let factor_arg =
    Arg.(value & opt float 0.1 & info [ "factor"; "f" ] ~docv:"F"
           ~doc:"Scale factor (1.0 ~ 255 persons).")
  in
  let gseed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")
  in
  Cmd.v (Cmd.info "xmark" ~doc:"Generate an XMark-style auction document")
    Term.(const gen $ factor_arg $ gseed_arg)

let fmt_cmd =
  let fmt query expr =
    report_errors (fun () ->
        let src = get_source query expr in
        (match Xqb_syntax.Parser.parse_prog src with
        | prog -> print_endline (Xqb_syntax.Pretty.prog_to_string prog)
        | exception Xqb_syntax.Parser.Error (l, c, m) ->
          failwith (Printf.sprintf "parse error %d:%d: %s" l c m)
        | exception Xqb_syntax.Lexer.Error (l, c, m) ->
          failwith (Printf.sprintf "lex error %d:%d: %s" l c m));
        `Ok ())
  in
  Cmd.v
    (Cmd.info "fmt" ~doc:"Parse a program and reprint it canonically")
    Term.(ret (const fmt $ query_arg $ expr_arg))

(* A line-oriented REPL. Each line is a full query unless it ends with
   '\\'; ':'-prefixed lines are REPL commands. Engine state (loaded
   documents, declared variables and functions, applied updates)
   persists across inputs. *)
let repl_cmd =
  let repl docs vars mode seed trace =
    report_errors (fun () ->
        let eng = setup_engine docs vars seed in
        if trace then enable_trace eng;
        let mode = ref (mode_of_string mode) in
        let prompt () =
          print_string "xq! ";
          flush stdout
        in
        let rec read_input acc =
          match input_line stdin with
          | line ->
            let n = String.length line in
            if n > 0 && line.[n - 1] = '\\' then begin
              print_string "  > ";
              flush stdout;
              read_input (acc ^ String.sub line 0 (n - 1) ^ "\n")
            end
            else Some (acc ^ line)
          | exception End_of_file -> None
        in
        let handle_command line =
          match String.split_on_char ' ' (String.trim line) with
          | [ ":quit" ] | [ ":q" ] -> `Quit
          | [ ":mode"; m ] ->
            mode := mode_of_string m;
            Printf.printf "snap mode: %s\n" m;
            `Continue
          | [ ":load"; spec ] -> (
            match String.index_opt spec '=' with
            | Some i ->
              let name = String.sub spec 0 i in
              let path = String.sub spec (i + 1) (String.length spec - i - 1) in
              let node = Core.Engine.load_document eng ~uri:name (read_file path) in
              Core.Engine.bind_node eng name node;
              Printf.printf "loaded %s as $%s\n" path name;
              `Continue
            | None ->
              print_endline ":load expects name=path";
              `Continue)
          | ":explain" :: rest when rest <> [] ->
            let q = String.concat " " rest in
            (try print_endline (Xqb_algebra.Runner.explain ~mode:!mode eng q)
             with e -> print_endline (Core.Engine.parse_error_message e));
            `Continue
          | [ ":help" ] | [ ":h" ] ->
            print_endline
              "commands: :quit | :mode ordered|nondet|conflict | :load name=path | :explain QUERY\n\
               end a line with '\\' to continue it; anything else runs as a query";
            `Continue
          | _ ->
            print_endline "unknown command (:help for help)";
            `Continue
        in
        print_endline "XQuery! repl — :help for commands";
        let rec loop () =
          prompt ();
          match read_input "" with
          | None -> ()
          | Some line when String.trim line = "" -> loop ()
          | Some line when String.length (String.trim line) > 0 && (String.trim line).[0] = ':'
            -> (
            match handle_command line with `Quit -> () | `Continue -> loop ())
          | Some line ->
            (try
               let r = Xqb_algebra.Runner.run ~mode:!mode eng line in
               print_endline (Core.Engine.serialize eng r.Xqb_algebra.Runner.value)
             with
            | Core.Engine.Compile_error m -> print_endline m
            | Xqb_xdm.Errors.Dynamic_error (code, m) ->
              Printf.printf "dynamic error [%s] %s\n" code m
            | Core.Conflict.Conflict_error c ->
              Printf.printf "update conflict: %s\n"
                (Core.Conflict.explain ~store:(Core.Engine.store eng) c)
            | Xqb_store.Store.Update_error m -> Printf.printf "update error: %s\n" m);
            loop ()
        in
        loop ();
        `Ok ())
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive session (state persists across queries)")
    Term.(ret (const repl $ docs_arg $ vars_arg $ mode_arg $ seed_arg $ trace_arg))

(* The query service (docs/SERVICE.md): sessions over a shared
   document catalog, a prepared-plan cache and the footprint-gated
   parallel scheduler, speaking the newline-delimited protocol of
   [Xqb_service.Protocol] on stdin or a TCP socket. *)
let serve_cmd =
  let module Svc = Xqb_service.Service in
  let module Edge = Xqb_service.Edge in
  let serve domains cache_capacity port deadline_ms fuel max_delta max_queue
      tracing slow_apply_ms data_dir fsync checkpoint_bytes checkpoint_secs
      replica_of slo_p99_ms slo_err_pct trace_ring telemetry backlog
      max_conns idle_timeout_ms profile_hz gc_pause_warn_ms =
    report_errors (fun () ->
        (* a bad --data-dir or a failed bind must exit non-zero with
           one clear line, not an uncaught exception: Durable raises
           Failure (caught by report_errors) and socket errors are
           folded to Failure here *)
        let fsync =
          (* validated even without --data-dir so a typo never goes
             silently ignored *)
          match Xqb_wal.Wal.fsync_policy_of_string fsync with
          | Ok p -> p
          | Error e -> failwith e
        in
        (* string flags validated by hand so a malformed value gets
           one clear line, same convention as --fsync *)
        let slo_p99_ms =
          match float_of_string_opt slo_p99_ms with
          | Some ms when ms > 0. -> ms
          | _ ->
            failwith
              (Printf.sprintf "--slo-p99-ms expects a positive number of \
                               milliseconds, got %S" slo_p99_ms)
        in
        let slo_err_pct =
          match float_of_string_opt slo_err_pct with
          | Some pct when pct > 0. && pct <= 100. -> pct
          | _ ->
            failwith
              (Printf.sprintf
                 "--slo-err-pct expects a percentage in (0,100], got %S"
                 slo_err_pct)
        in
        let trace_ring =
          match int_of_string_opt trace_ring with
          | Some n when n > 0 -> n
          | _ ->
            failwith
              (Printf.sprintf "--trace-ring expects a positive integer, got %S"
                 trace_ring)
        in
        let backlog =
          match int_of_string_opt backlog with
          | Some n when n > 0 -> n
          | _ ->
            failwith
              (Printf.sprintf "--backlog expects a positive integer, got %S"
                 backlog)
        in
        let max_conns =
          match int_of_string_opt max_conns with
          | Some n when n >= 0 -> n
          | _ ->
            failwith
              (Printf.sprintf
                 "--max-conns expects a non-negative integer (0 = unlimited), \
                  got %S" max_conns)
        in
        let idle_timeout_ms =
          match int_of_string_opt idle_timeout_ms with
          | Some n when n >= 0 -> n
          | _ ->
            failwith
              (Printf.sprintf
                 "--idle-timeout-ms expects a non-negative integer (0 = \
                  never), got %S" idle_timeout_ms)
        in
        let profile_hz =
          match int_of_string_opt profile_hz with
          | Some 0 -> None
          | Some n when n > 0 -> Some n
          | _ ->
            failwith
              (Printf.sprintf
                 "--profile-hz expects a positive sampling rate in Hz (0 = \
                  don't start the profiler at boot), got %S" profile_hz)
        in
        let gc_pause_warn_ms =
          match int_of_string_opt gc_pause_warn_ms with
          | Some n when n > 0 -> n
          | _ ->
            failwith
              (Printf.sprintf
                 "--gc-pause-warn-ms expects a positive integer, got %S"
                 gc_pause_warn_ms)
        in
        let durability =
          match data_dir with
          | None -> None
          | Some dir ->
            Some
              {
                (Xqb_wal.Durable.default_config ~dir) with
                Xqb_wal.Durable.fsync;
                checkpoint_bytes;
                checkpoint_secs;
              }
        in
        let svc =
          try
            Svc.create ~domains ~cache_capacity ?deadline_ms ?fuel ?max_delta
              ?max_queue ~tracing ~slow_apply_ms ?durability ?replica_of
              ~slo_p99_ms ~slo_err_pct ~trace_ring ~telemetry ?profile_hz
              ~gc_pause_warn_ms ()
          with Xqb_wal.Codec.Corrupt m ->
            failwith ("refusing to start: " ^ m)
        in
        Svc.install_crash_hooks svc;
        Svc.start_replication svc;
        (match port with
        | None ->
          (* newline-delimited requests on stdin, replies on stdout *)
          Edge.session_loop svc stdin stdout
        | Some port ->
          let edge =
            Edge.start svc { Edge.port; backlog; max_conns; idle_timeout_ms }
          in
          Printf.eprintf "xqbang serve: listening on 127.0.0.1:%d\n%!"
            (Edge.port edge);
          Edge.join edge);
        Svc.shutdown svc;
        `Ok ())
  in
  let domains_arg =
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N"
           ~doc:"Worker domains in the scheduler pool (0 = synchronous).")
  in
  let cache_arg =
    Arg.(value & opt int 128 & info [ "plan-cache" ] ~docv:"N"
           ~doc:"Prepared-plan cache capacity (LRU).")
  in
  let port_arg =
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
           ~doc:"Listen on 127.0.0.1:PORT instead of serving stdin.")
  in
  let max_delta_arg =
    Arg.(value & opt (some int) None & info [ "max-delta" ] ~docv:"N"
           ~doc:"Cap on one snap scope's pending-update list per query.")
  in
  let max_queue_arg =
    Arg.(value & opt (some int) None & info [ "max-queue" ] ~docv:"N"
           ~doc:"Admission control: reject submissions once this many jobs are queued.")
  in
  let tracing_arg =
    Arg.(value & opt bool true & info [ "tracing" ] ~docv:"BOOL"
           ~doc:"Record a span trace per job (queue wait, lock wait, pipeline phases), retrievable as Chrome trace JSON via the TRACE request. Per-job overhead is a few microseconds; pass false to disable.")
  in
  let slow_apply_arg =
    Arg.(value & opt int 10 & info [ "slow-apply-ms" ] ~docv:"MS"
           ~doc:"Slow-effect log threshold: write-side jobs whose snap-apply stage reaches MS are recorded with their Delta summary, stage split and trace id, retrievable via the SLOWLOG request.")
  in
  let data_dir_arg =
    Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Durable mode: recover the store from DIR on boot (latest snapshot + WAL replay) and append every committed write to DIR/wal.log before acknowledging it.")
  in
  let fsync_arg =
    Arg.(value & opt string "always" & info [ "fsync" ] ~docv:"POLICY"
           ~doc:"WAL fsync policy: 'always' (group commit, fsync before every acknowledgment), 'interval-ms:N' (background fsync every N ms; a crash may lose the last interval) or 'never' (page cache only).")
  in
  let checkpoint_bytes_arg =
    Arg.(value & opt int (4 * 1024 * 1024) & info [ "checkpoint-bytes" ] ~docv:"N"
           ~doc:"Write a snapshot and truncate the WAL once it grows past N bytes (0 disables size-triggered checkpoints).")
  in
  let checkpoint_secs_arg =
    Arg.(value & opt float 0. & info [ "checkpoint-secs" ] ~docv:"S"
           ~doc:"Also checkpoint every S seconds (0 disables time-triggered checkpoints).")
  in
  let replica_of_arg =
    Arg.(value & opt (some string) None & info [ "replica-of" ] ~docv:"HOST:PORT"
           ~doc:"Run as a read-only replica of the leader at HOST:PORT: bootstrap from its SNAPSHOT, stream committed WAL frames via SHIP, serve read-only queries. Excludes --data-dir.")
  in
  let slo_p99_arg =
    Arg.(value & opt string "250" & info [ "slo-p99-ms" ] ~docv:"MS"
           ~doc:"Latency SLO target: queries slower than MS count against the latency burn rate reported by HEALTH and the xqbang_slo_burn_rate metric.")
  in
  let slo_err_arg =
    Arg.(value & opt string "1" & info [ "slo-err-pct" ] ~docv:"PCT"
           ~doc:"Availability SLO target: the error budget as a percentage of queries. A 10s-window error rate of PCT is a burn rate of 1.")
  in
  let trace_ring_arg =
    Arg.(value & opt string "32" & info [ "trace-ring" ] ~docv:"N"
           ~doc:"Capacity of the per-job trace ring behind the TRACE request; older traces are evicted (counted by xqbang_trace_ring_evictions_total).")
  in
  let telemetry_arg =
    Arg.(value & opt bool true & info [ "telemetry" ] ~docv:"BOOL"
           ~doc:"Health telemetry: the structured event log (EVENTS), rolling-window SLO metrics, stall watchdog and flight recorder. Pass false to run bare (the telemetry-off side of bench/main.exe overhead).")
  in
  let backlog_arg =
    Arg.(value & opt string "64" & info [ "backlog" ] ~docv:"N"
           ~doc:"listen(2) backlog for the TCP edge: pending connections the kernel queues before refusing, absorbed during connect storms.")
  in
  let max_conns_arg =
    Arg.(value & opt string "10000" & info [ "max-conns" ] ~docv:"N"
           ~doc:"Refuse new connections (one-line ERR [overloaded] reply, then close) once N are open; 0 = unlimited.")
  in
  let idle_timeout_arg =
    Arg.(value & opt string "0" & info [ "idle-timeout-ms" ] ~docv:"MS"
           ~doc:"Disconnect a connection with no traffic and no in-flight requests after MS milliseconds; 0 = never.")
  in
  let profile_hz_arg =
    Arg.(value & opt string "97" & info [ "profile-hz" ] ~docv:"HZ"
           ~doc:"Sampling rate of the continuous CPU profiler, armed at boot and driven by SIGPROF against CPU time (an idle server takes no samples). Folded stacks via the PROFILE DUMP request; 0 = leave the profiler disarmed until a PROFILE START request.")
  in
  let gc_pause_warn_arg =
    Arg.(value & opt string "50" & info [ "gc-pause-warn-ms" ] ~docv:"MS"
           ~doc:"GC-pause health threshold: HEALTH degrades (reason gc-pause) when the 10s-window p99 GC pause exceeds MS, and goes critical past 4xMS. Requires --telemetry true.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the multi-client query service (newline-delimited protocol)")
    Term.(ret (const serve $ domains_arg $ cache_arg $ port_arg $ deadline_arg
               $ fuel_arg $ max_delta_arg $ max_queue_arg $ tracing_arg
               $ slow_apply_arg $ data_dir_arg $ fsync_arg $ checkpoint_bytes_arg
               $ checkpoint_secs_arg $ replica_of_arg $ slo_p99_arg $ slo_err_arg
               $ trace_ring_arg $ telemetry_arg $ backlog_arg
               $ max_conns_arg $ idle_timeout_arg $ profile_hz_arg
               $ gc_pause_warn_arg))

let () =
  let info = Cmd.info "xqbang" ~version:"1.0.0"
      ~doc:"XQuery! — an XML query language with side effects (EDBT 2006 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; explain_cmd; xmark_cmd; fmt_cmd; repl_cmd; serve_cmd ]))
