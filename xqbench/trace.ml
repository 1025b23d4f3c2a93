(* The traced run: the first [replay_n] requests of a workload's stream
   (same seed, so the same requests) through three phases, with spans
   recorded around the benchmark's own calls into each layer.

   1. Wire: the untraced protocol twice on fresh servers — once plain,
      once recording per-request spans — so the p50 difference is the
      tracing overhead; then no-op round trips for the edge cost.
   2. Service: [Service.create] in-process with the server's flags,
      the same request lines through [Protocol.parse],
      [Service.submit_job] (prepare), [Service.await] (execute) and
      [Protocol.ok].
   3. Layered replay: one thread calls each layer's public function in
      pipeline order on a benchmark-owned engine and store — plan
      cache, parser, compiler, footprint, evaluator (with apply, the
      shadow conflict check and the WAL under the workload's fsync
      policy), serializer — plus a shadow run of the algebra plan
      executor on a copy of the documents and a descendant-step probe.

   Spans stay in memory and are written as Chrome trace JSON at the
   end. *)

module E = Core.Engine
module S = Xqb_store.Store
module FP = Core.Static.Footprint
module P = Xqb_service.Protocol
module Svc = Xqb_service.Service
module Durable = Xqb_wal.Durable

let replay_n = 3000

(* The wire passes send at the workload's frozen rate, so they replay
   at most [wire_seconds] of arrivals of the same stream, after one
   second of warm-up (the same requests in both passes) so both
   measure a warm server. *)
let wire_seconds = 8.
let noop_round_trips = 500
let now = Xqb_obs.Clock.now_ns

(* The next [n] requests, in the order the open loop sends them
   (request i from stream i mod k). *)
let stream (w : Workload.t) n = Array.init n (fun i -> w.next (i mod Workload.connections))

let replaying reqs =
  let i = ref 0 in
  fun _ ->
    let r = reqs.(!i) in
    incr i;
    r

let durable_cfg dir =
  {
    (Durable.default_config ~dir) with
    Durable.fsync = Xqb_wal.Wal.Always;
    checkpoint_bytes = 1048576;
  }

let stats_field json path =
  Option.bind (Xqb_obs.Json.path (Xqb_obs.Json.parse_exn json) path) Xqb_obs.Json.to_float_opt

(* -- 1. wire ---------------------------------------------------------- *)

type wire = {
  p50_ms : float;
  noop_us : float;
  wal : (float * float) option;  (** bytes per commit, commits per fsync *)
}

(* One pass on a fresh server: [warm] (not measured, the same requests
   for both passes), then [reqs]. *)
let wire_pass (ctx : Harness.ctx) ~warm reqs ~seed ~traced t =
  let w = ctx.w in
  let srv, c0, _, _ = Harness.boot ctx (if traced then "traced" else "plain") in
  let conns = Harness.connections c0 srv.Wire.port in
  let wal_stats () =
    let json = Wire.call_ok c0 "STATS" in
    ( stats_field json [ "durability"; "wal_bytes_appended" ],
      stats_field json [ "durability"; "fsyncs" ] )
  in
  let arrivals = Random.State.make [| seed; 99 |] in
  ignore
    (Wire.open_loop ~limit:(Array.length warm) ~conns ~next:(replaying warm) ~pinned:w.pinned
       ~rate:w.rate ~arrivals ~seconds:1e6 t);
  let before = wal_stats () in
  let acked0 = Hashtbl.fold (fun _ n acc -> acc + n) t.Wire.acked 0 in
  let on_sample (s : Wire.sample) (f : Wire.inflight) =
    if traced && s.Wire.s_lat <> max_int then begin
      let reply = f.Wire.due + s.Wire.s_lat in
      let parent =
        Spans.add ~children:s.Wire.s_lat ~req:f.Wire.seq ~name:"wire.request"
          ~start:f.Wire.due ~dur:s.Wire.s_lat ()
      in
      ignore
        (Spans.add ~parent ~req:f.Wire.seq ~name:"wire.queue" ~start:f.Wire.due
           ~dur:(f.Wire.sent - f.Wire.due) ());
      ignore
        (Spans.add ~parent ~req:f.Wire.seq ~name:"wire.inflight" ~start:f.Wire.sent
           ~dur:(reply - f.Wire.sent) ())
    end
  in
  let o =
    Wire.open_loop ~on_sample ~limit:(Array.length reqs) ~conns ~next:(replaying reqs)
      ~pinned:w.pinned ~rate:w.rate ~arrivals ~seconds:1e6 t
  in
  let after = wal_stats () in
  let commits = Hashtbl.fold (fun _ n acc -> acc + n) t.Wire.acked 0 - acked0 in
  let wal =
    match (before, after) with
    | (Some b0, Some f0), (Some b1, Some f1) when w.durable ->
      Some ((b1 -. b0) /. float_of_int (max 1 commits), float_of_int commits /. max 1. (f1 -. f0))
    | _ -> None
  in
  (* the edge's own cost: a request that does no work (no job, inline
     reply), one at a time on an idle connection *)
  let noop =
    if not traced then nan
    else
      Stats.median
        (Array.init noop_round_trips (fun i ->
             let t0 = now () in
             ignore
               (Spans.span ~req:(replay_n + i) "edge.noop" (fun () ->
                    Wire.call c0 "CANCEL 0"));
             float_of_int (now () - t0) /. 1e3))
  in
  Array.iter Wire.close conns;
  ignore (Harness.check ctx srv.Wire.port t (if traced then "traced wire" else "plain wire"));
  Wire.reap srv.Wire.pid;
  let p50, _, _ = Harness.latency [ o ] (fun _ -> true) 50. in
  { p50_ms = p50; noop_us = noop; wal }

(* -- 2. in-process service --------------------------------------------- *)

let service_phase (ctx : Harness.ctx) reqs t =
  let w = ctx.w in
  let durability =
    if w.durable then Some (durable_cfg (Filename.concat ctx.dir "service-data")) else None
  in
  let svc =
    Svc.create ~domains:Workload.domains ~cache_capacity:Workload.plan_cache ~tracing:true
      ?durability ()
  in
  Fun.protect ~finally:(fun () -> Svc.shutdown svc) @@ fun () ->
  let sids = Array.init Workload.connections (fun _ -> Svc.open_session svc) in
  List.iter (fun (uri, xml) -> Svc.load_document svc sids.(0) ~uri xml) w.docs;
  Array.iteri
    (fun i (r : Workload.req) ->
      let k = i mod Workload.connections in
      let line = Printf.sprintf "QUERY %d %s" sids.(k) r.text in
      let reply =
        Spans.span ~req:i "service.request" (fun () ->
            match Spans.span "protocol.parse" (fun () -> P.parse line) with
            | Ok (P.Query (sid, q)) ->
              let _, fut = Spans.span "service.prepare" (fun () -> Svc.submit_job svc sid q) in
              let res = Spans.span "service.execute" (fun () -> Svc.await fut) in
              Spans.span "protocol.reply" (fun () ->
                  match res with Ok s -> P.ok s | Error e -> P.err_of e)
            | _ -> P.err "request line did not parse as QUERY")
      in
      t.Wire.attempted <- t.Wire.attempted + 1;
      ignore (Wire.judge t k { Wire.seq = i; due = 0; sent = 0; req = r } reply))
    reqs

(* -- 3. layered replay ------------------------------------------------- *)

type plan = {
  compiled : E.compiled;
  purity : Core.Static.purity;
  parallel : bool;
  footprint : FP.t;
}

type counters = {
  mutable exclusive : int;
  mutable steps : int;
  mutable eval_words : float;
  mutable snaps : int;
  mutable delta_reqs : int;
  mutable apply_ns : int;
  mutable ser_bytes : int;
  mutable join_matches : int;
  mutable agree : int;
}

let words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let load_docs store docs =
  List.map
    (fun (uri, xml) ->
      (uri, S.transactionally store (fun () -> S.load_string store xml), String.length xml))
    docs

let engines store docs =
  Array.init Workload.connections (fun k ->
      let e = E.create ~seed:(0x5eed + k + 1) ~store () in
      List.iter (fun (uri, root, _) -> Core.Context.register_doc (E.context e) uri root) docs;
      e)

let layered (ctx : Harness.ctx) reqs t =
  let w = ctx.w in
  let n = Array.length reqs in
  let data = Filename.concat ctx.dir "replay-data" in
  let durable, store =
    if w.durable then begin
      let d, (rc : Durable.recovered) = Durable.recover (durable_cfg data) in
      S.journal_start rc.store;
      (Some d, rc.store)
    end
    else (None, S.create ())
  in
  let wal_seq = ref 0 in
  (* the journal tail since the last commit, appended as WAL frames;
     [Always] makes [wait_durable] the fsync barrier *)
  let wal_append d =
    let entries = S.journal_entries_from store !wal_seq in
    if entries = [] then None
    else begin
      wal_seq := !wal_seq + List.length entries;
      Some (Spans.span "wal.append" (fun () -> Durable.append_entries d entries))
    end
  in
  let wal_wait d =
    Option.iter (fun lsn -> Spans.span "wal.fsync" (fun () -> Durable.wait_durable d lsn))
  in
  let docs = load_docs store w.docs in
  Option.iter
    (fun d ->
      ignore (Durable.commit_entries d (S.journal_entries_from store 0));
      wal_seq := S.journal_length store;
      List.iter (fun (uri, root, bytes) -> Durable.commit_doc d ~uri ~root ~bytes) docs)
    durable;
  let sessions = engines store docs in
  let shadow_store = S.create () in
  let shadow = engines shadow_store (load_docs shadow_store w.docs) in
  let probe_root = List.assoc (fst w.probe) (List.map (fun (u, r, _) -> (u, r)) docs) in
  let probe_name = Xqb_xml.Qname.make (snd w.probe) in
  let c =
    {
      exclusive = 0; steps = 0; eval_words = 0.; snaps = 0; delta_reqs = 0;
      apply_ns = 0; ser_bytes = 0; join_matches = 0; agree = 0;
    }
  in
  Array.iter
    (fun e ->
      (E.context e).Core.Context.on_apply <-
        Some
          (fun delta _ ->
            c.snaps <- c.snaps + 1;
            c.delta_reqs <- c.delta_reqs + List.length delta;
            Spans.span "conflict.check" (fun () ->
                try Core.Conflict.check ~store delta with Core.Conflict.Conflict_error _ -> ())))
    sessions;
  let cache = Xqb_service.Plan_cache.create ~capacity:Workload.plan_cache () in
  let var_docs v = if List.mem_assoc v w.docs then Some v else None in
  let mut0 = S.mutation_count store and okb0 = S.order_key_builds store in
  let gc0 = Gc.quick_stat () in
  Array.iteri
    (fun i (r : Workload.req) ->
      let k = i mod Workload.connections in
      let e = sessions.(k) in
      let ectx = E.context e in
      Spans.span ~req:i "replay.request" @@ fun () ->
      match
        let key, found =
          Spans.span "plan_cache.find" (fun () ->
              let key = Xqb_service.Plan_cache.normalize_key r.text in
              (key, Xqb_service.Plan_cache.find cache key))
        in
        let p =
          match found with
          | Some p ->
            E.install_functions e p.compiled;
            p
          | None ->
            ignore (Spans.span "syntax.parse" (fun () -> Xqb_syntax.Parser.parse_prog r.text));
            let compiled = Spans.span "compile" (fun () -> E.compile e r.text) in
            let p =
              Spans.span "static.footprint" (fun () ->
                  {
                    compiled;
                    purity = E.body_purity compiled;
                    parallel = E.parallel_safe compiled;
                    footprint = E.footprint ~var_docs compiled;
                  })
            in
            Xqb_service.Plan_cache.add cache key p;
            p
        in
        let effecting = p.purity = Core.Static.Effecting in
        if effecting || not (FP.conclusive p.footprint) then c.exclusive <- c.exclusive + 1;
        let budget = Xqb_governor.Budget.create () in
        let apply0 = ectx.Core.Context.apply_ns in
        let g0 = Gc.quick_stat () in
        (* the service's two commit disciplines: non-Effecting writers
           apply each snap transactionally and append to the WAL inside
           the apply wrap, waiting for durability after it; Effecting
           jobs run whole-job transactionally and flush after *)
        let v =
          Spans.span "eval" (fun () ->
              E.with_budget e (Some budget) (fun () ->
                  if p.parallel then E.run_readonly e p.compiled
                  else begin
                    ectx.Core.Context.apply_wrap <-
                      Some
                        (fun apply ->
                          if effecting then Spans.span "apply" apply
                          else
                            let lsn =
                              Spans.span "apply" (fun () ->
                                  S.transactionally store apply;
                                  Option.bind durable wal_append)
                            in
                            Option.iter (fun d -> wal_wait d lsn) durable);
                    Fun.protect
                      ~finally:(fun () -> ectx.Core.Context.apply_wrap <- None)
                      (fun () ->
                        if effecting then
                          S.transactionally store (fun () -> E.run_compiled e p.compiled)
                        else E.run_compiled e p.compiled)
                  end))
        in
        c.eval_words <- c.eval_words +. (words (Gc.quick_stat ()) -. words g0);
        c.steps <- c.steps + Xqb_governor.Budget.steps_used budget;
        c.apply_ns <- c.apply_ns + (ectx.Core.Context.apply_ns - apply0);
        if effecting then
          Option.iter
            (fun d ->
              Spans.span "wal.commit" (fun () ->
                  wal_wait d (wal_append d);
                  (* a checkpoint covers the whole journal: restart it *)
                  if Durable.maybe_checkpoint d ~docs store <> None then begin
                    S.journal_start store;
                    wal_seq := 0
                  end))
            durable;
        let out = Spans.span "serialize" (fun () -> E.serialize e v) in
        c.ser_bytes <- c.ser_bytes + String.length out;
        (* the algebra plan executor, on its own copy of the documents *)
        (match
           Spans.span "algebra.shadow" (fun () -> Xqb_algebra.Runner.run shadow.(k) r.text)
         with
        | rr ->
          c.join_matches <- c.join_matches + rr.Xqb_algebra.Runner.stats.Xqb_algebra.Exec.matches;
          if E.serialize shadow.(k) rr.Xqb_algebra.Runner.value = out then c.agree <- c.agree + 1
        | exception _ -> ());
        (* what the next read's descendant step pays after this request *)
        ignore
          (Spans.span "store.desc_probe" (fun () ->
               S.descendants_by_name store probe_root probe_name));
        out
      with
      | out ->
        t.Wire.attempted <- t.Wire.attempted + 1;
        ignore (Wire.judge t k { Wire.seq = i; due = 0; sent = 0; req = r } ("OK " ^ P.escape out))
      | exception ex ->
        t.Wire.attempted <- t.Wire.attempted + 1;
        Wire.fail t (Printf.sprintf "replay %s: %s" r.kind (Printexc.to_string ex)))
    reqs;
  let gc1 = Gc.quick_stat () in
  let fn = float_of_int n in
  let per_req x = float_of_int x /. fn in
  let recover_ms =
    match durable with
    | None -> [||]
    | Some d ->
      Durable.close d;
      (* recovery on copies, so each run starts from the same bytes *)
      Array.init 3 (fun i ->
          let copy = Filename.concat ctx.dir (Printf.sprintf "recover-copy-%d" i) in
          Harness.mkdir_p copy;
          Array.iter
            (fun f ->
              let src = Filename.concat data f in
              if Sys.is_regular_file src then
                Stats.write_file (Filename.concat copy f) (Stats.read_file src))
            (Sys.readdir data);
          let t0 = now () in
          let d, _ = Durable.recover (durable_cfg copy) in
          let dt = float_of_int (now () - t0) /. 1e6 in
          Durable.close d;
          dt)
  in
  let stats = Xqb_service.Plan_cache.stats cache in
  [
    ("plan_cache.hit_pct", "%", n, 100. *. float_of_int stats.Xqb_service.Plan_cache.hits /. fn);
    ("syntax.parse_us", "us", Spans.count "syntax.parse", Spans.mean "syntax.parse" /. 1e3);
    ("compile.us", "us", Spans.count "compile", Spans.mean "compile" /. 1e3);
    ("static.footprint_us", "us", Spans.count "static.footprint", Spans.mean "static.footprint" /. 1e3);
    ("static.exclusive_pct", "%", n, 100. *. per_req c.exclusive);
    ("eval.us", "us", n, per_req (Spans.self "eval") /. 1e3);
    ("eval.alloc_kw_per_req", "kw", n, c.eval_words /. fn /. 1e3);
    ("eval.steps_per_req", "count", n, per_req c.steps);
    ("apply.snap_us", "us", c.snaps, float_of_int c.apply_ns /. float_of_int (max 1 c.snaps) /. 1e3);
    ("apply.reqs_per_snap", "count", c.snaps, float_of_int c.delta_reqs /. float_of_int (max 1 c.snaps));
    ("conflict.check_ns_per_req", "ns", n, per_req (Spans.total "conflict.check"));
    ("algebra.us", "us", Spans.count "algebra.shadow", Spans.mean "algebra.shadow" /. 1e3);
    ("algebra.join_matches", "count", n, per_req c.join_matches);
    ("algebra.agree_pct", "%", n, 100. *. per_req c.agree);
    ("store.order_key_builds_per_kreq", "count", n,
      1000. *. per_req (S.order_key_builds store - okb0));
    ("store.mutations_per_req", "count", n, per_req (S.mutation_count store - mut0));
    ("store.desc_step_us", "us", n, Spans.mean "store.desc_probe" /. 1e3);
    ("serialize.us", "us", n, Spans.mean "serialize" /. 1e3);
    ("serialize.bytes_per_req", "bytes", n, per_req c.ser_bytes);
    ("gc.minor_kw_per_req", "kw", n, (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. fn /. 1e3);
  ]
  @
  if durable = None then []
  else
    [
      ("wal.append_us", "us", Spans.count "wal.append", Spans.mean "wal.append" /. 1e3);
      ("wal.fsync_us", "us", Spans.count "wal.fsync", Spans.mean "wal.fsync" /. 1e3);
      ("durable.recover_ms", "ms", 3, Stats.median recover_ms);
    ]

(* Median time to load the workload's documents into a fresh store. *)
let xml_load_ms (w : Workload.t) =
  Stats.median
    (Array.init 5 (fun _ ->
         let store = S.create () in
         let t0 = now () in
         List.iter (fun (_, xml) -> ignore (S.load_string store xml)) w.docs;
         float_of_int (now () - t0) /. 1e6))

let run ~exe ~dir ~seed ~trace_out name =
  let w = Workload.make name seed in
  let ctx = Harness.prepare ~exe ~dir w in
  let reqs = stream w replay_n in
  let wire_reqs = Array.sub reqs 0 (min replay_n (int_of_float (w.rate *. wire_seconds))) in
  let warm = stream w (int_of_float w.rate) in
  let t = Wire.tally () in
  (* every phase replays the same requests against fresh state, each
     with its own acknowledgement counts *)
  let pt = Wire.tally () and wt = Wire.tally () and st = Wire.tally () and rt = Wire.tally () in
  let plain = wire_pass ctx ~warm wire_reqs ~seed ~traced:false pt in
  let traced = wire_pass ctx ~warm wire_reqs ~seed ~traced:true wt in
  Spans.phase := 1;
  service_phase ctx reqs st;
  Spans.phase := 2;
  let layer = layered ctx reqs rt in
  List.iter (Wire.absorb t) [ pt; wt; st; rt ];
  let json = Spans.chrome_json () in
  (match Xqb_obs.Json.parse json with
  | Ok _ -> ()
  | Error e -> failwith ("trace JSON is invalid: " ^ e));
  Stats.write_file trace_out json;
  let exec_ns =
    (* the replay's own cost of what the service's execute step does *)
    float_of_int (Spans.total "eval" - Spans.total "conflict.check" + Spans.total "serialize"
                  + Spans.total "wal.commit")
    /. float_of_int replay_n
  in
  let svc_n = Spans.count "service.execute" in
  let metrics =
    [
      ("edge.noop_rtt_us", "us", noop_round_trips, traced.noop_us);
      ("protocol.parse_ns", "ns", Spans.count "protocol.parse", Spans.mean "protocol.parse");
      ("protocol.reply_ns", "ns", Spans.count "protocol.reply", Spans.mean "protocol.reply");
      ( "service.prepare_us", "us", Spans.count "service.prepare",
        Spans.mean "service.prepare" /. 1e3 );
      ("service.execute_us", "us", svc_n, Spans.mean "service.execute" /. 1e3);
      ("service.overhead_us", "us", svc_n, (Spans.mean "service.execute" -. exec_ns) /. 1e3);
    ]
    @ layer
    @ [
        ("xml.load_ms", "ms", 5, xml_load_ms w);
        ( "trace.overhead_pct", "%", Array.length wire_reqs,
          100. *. (traced.p50_ms -. plain.p50_ms) /. plain.p50_ms );
      ]
    @
    match traced.wal with
    | Some (bytes, per_fsync) ->
      let n = Array.length wire_reqs in
      [
        ("wal.bytes_per_commit", "bytes", n, bytes);
        ("wal.commits_per_fsync", "count", n, per_fsync);
      ]
    | None -> []
  in
  let records =
    List.map
      (fun (name, unit_, n, v) -> Stats.make ~workload:w.name ~name ~unit_ ~n v)
      metrics
  in
  (records, t)
