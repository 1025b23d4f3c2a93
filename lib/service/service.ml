(* The query service: multi-client sessions over one shared store.

   This module keeps the service record, [create], sessions, [prepare]
   and submission. Everything else lives in a seam that owns its state
   and mutex and renders its own STATS object, Prometheus families and
   HEALTH reasons, which this module only assembles: {!Commit} (the
   leader-side commit path), {!Replica}, {!Jobs}, {!Trace_ring},
   {!Effect_log} (DELTA/SLOWLOG), {!Health}, {!Flight}, {!Runtime_tel}
   and {!Edge_gauges}.

   Putting the pieces together:

   - every session wraps a [Core.Engine.t] sharing the catalog's
     store, so [fn:doc]/bound documents are loaded once and visible
     to all sessions, while functions and globals stay per-session;
   - prepared plans are cached across sessions ({!Plan_cache}),
     keyed on the request's shape — whitespace-normalized source with
     its string literals and literal attribute values holed — so
     requests that differ only in those literals share one plan and
     pass their values as per-job parameters; a hit skips parse →
     normalize → static-check → rewrite → algebra compile entirely;
   - every route executes the cached §4.3 algebra plan
     ([Xqb_algebra.Exec] as the engine's body evaluator); the tree
     interpreter evaluates its [Direct] leaves, and EXPLAIN profiles
     the same plan;
   - execution goes through the footprint-gated {!Scheduler}: every
     plan carries a static effects footprint
     ({!Core.Static.Footprint}, inferred once at compile time) and
     jobs with provably disjoint footprints run concurrently — reads,
     and updating jobs over disjoint documents or subtrees. The
     footprint is the only concurrency judgement: it picks the route
     (node allocation counts as a write to the job's own fresh-node
     region, which a program that emits no updates keeps to itself).
     Upward axes widen a footprint to the
     whole document; dynamic [fn:doc] URIs, unknown bindings and
     updating user functions widen it to ⊤, which runs alone, with
     the paper's §4.1 runtime conflict check still validating every
     ∆ at apply time;
   - every job runs under a {!Xqb_governor.Budget}: the service-wide
     deadline / fuel / pending-∆ limits if configured, plus a cancel
     token always, so [CANCEL] works even on an unlimited service.
     Budget violations surface as structured {!Service_error}s
     ([timeout] / [cancelled]), admission control as [overloaded];
   - {!Metrics} aggregates per-query latency and its split over the
     {!Xqb_obs.Stage}s (every job carries one stage record from
     submission to completion, traced or not), queue depth, purity
     and route counts, plan-cache counters, applied-∆ counts and
     failed queries by taxonomy kind.

   Concurrency protocol, in one place. The three routes
   ({!Core.Static.Footprint.route}):

   - fork — the job writes nothing shared: no writes, or only fresh
     nodes allocated by a program that emits no updates. It evaluates
     in a [Context.fork_read] taken at submit time under the session
     lock, so it observes a coherent snapshot of the session and
     shares nothing mutable with it (the fork carries the job's
     budget; [Engine.with_budget] installs it on the worker domain
     for the store layer). A constructing read allocates into a
     job-private [Store.scratch] overlay of the catalog store, which
     its reply is serialized from and which is then dropped: the
     shared store, its journal and the WAL never see those nodes. A
     replica accepts only this route;
   - concurrent writer — writes to named documents, or updates
     nodes it built itself: the job runs on the session itself under
     the session lock, each top-level snap committing under the
     global apply mutex;
   - exclusive — writes may reach any document (nested snaps, dynamic
     [fn:doc] URIs, updating function calls): a ⊤ footprint, so the
     job runs alone, under whole-job rollback.

   Session mutable state (globals, function table) is only touched at
   submit time under the session lock (compile / install / fork) and
   inside the two write routes, which hold the session lock too.

   The store is only mutated at snap-apply time (evaluation only
   allocates and wires fresh nodes no one else can reach — §3.3, the
   basis of the whole scheme — and no rollback undoes that): concurrent
   writers *evaluate* in parallel under the footprint gate, while
   every ∆ application — and the WAL append recording it —
   serializes on the scheduler's global apply mutex
   ({!Scheduler.with_apply}, installed per-job as the context's
   [apply_wrap]), keeping journal transaction spans contiguous and
   WAL order equal to apply order. Every write route commits the same
   way: the WAL append happens under the gate, and the
   [Always]-policy fsync wait happens outside everything the job
   holds — after the mutex, the session lock and the footprint gate
   are released, only the reply waits for the fsync covering the
   job's LSN (pipelined group commit, [settle] in [submit_governed]),
   so commits that arrive during one fsync share the next. Document
   loads are not jobs: a load appends its entries and then waits once
   for its catalog registration, which covers them.

   Exclusive jobs, EXPLAIN, document loads and checkpoints hold a ⊤
   footprint; exclusive jobs and EXPLAIN run as one whole-job
   [Store.transactionally], so a query killed mid-update leaves the
   store exactly as it found it even if nested snaps (or snap-wrapped
   globals) had already applied. On the concurrent-writer route the
   rollback unit shrinks to one top-level snap: the apply itself is
   transactional (a failure during apply rolls back before the WAL
   sees it), but a job that fails *after* its snap applied — e.g. a
   budget kill during result serialization — reports an error for an
   update that committed, the same guarantee class as a connection
   dropped between commit and acknowledgment. *)

module Engine = Core.Engine
module Runner = Xqb_algebra.Runner
module Budget = Xqb_governor.Budget
module Trace = Xqb_obs.Trace
module Stage = Xqb_obs.Stage
module Durable = Xqb_wal.Durable
module Wcodec = Xqb_wal.Codec
module FP = Core.Static.Footprint
module Clock = Xqb_obs.Clock
module Events = Xqb_obs.Events
module Prom = Xqb_obs.Prom

type plan = {
  prep : Runner.prepared;
    (* the compiled program and the algebra plan of its body, which
       every route executes. The program carries the static effects
       footprint the scheduler gates on, inferred against the
       catalog's documents at first compile; cached plans keep it (the
       var_docs question "is $v a document root?" is stable for a
       given URI — documents are load-once) *)
  purity : Core.Static.purity;  (* of the body, for metrics *)
  route : FP.route;  (* the footprint's write set, judged once *)
  holes : Xqb_syntax.Ast.hole option array;
    (* per quoted span of the request's shape: the parameter it became,
       or [None] for a span the plan holds verbatim *)
}

(* A request's parameter values, indexed like its plan's holes: the
   strings (EXPLAIN binds them into the plan it renders) and the items
   the job installs on its context. *)
type params = { values : string array; items : Xqb_xdm.Item.t array }

(* What a span the plan holds verbatim gets in [items]: never read. *)
let no_param = Xqb_xdm.Item.Atomic (Xqb_xdm.Atomic.String "")

type session = {
  sid : int;
  engine : Engine.t;
  slock : Mutex.t;
  mutable docs_held : string list;
}

(* Wire-edge gauges, pulled from whichever edge is serving TCP. *)
type edge_gauges = Edge_gauges.t = {
  eg_open : int;
  eg_peak : int;
  eg_accepted : int;
  eg_conn_rejects : int;
  eg_suspended : int;
  eg_suspensions : int;
  eg_overload_rejects : int;
  eg_requests : int;
  eg_batches : int;
  eg_max_conns : int;
}

type t = {
  catalog : Catalog.t;
  cache : plan Plan_cache.t;
  sched : Scheduler.t;
  metrics : Metrics.t;
  sessions : (int, session) Hashtbl.t;
  smutex : Mutex.t;
  mutable next_sid : int;
  seed : int;
  (* governance config (service-wide; applied to every query) *)
  deadline_ms : int option;
  fuel : int option;
  max_delta : int option;
  jobs : Jobs.t;
  mutable stopping : bool;  (* set by [shutdown]: no crash dump after it *)
  traces : Trace_ring.t;
  (* the structured event log: a ring, plus a per-event-flushed JSONL
     sink under [data_dir] when durable — the sink's tail is what the
     crash flight recorder reconstructs from *)
  events : Events.t;
  health : Health.t;
  data_dir : string option;
  boot_flight : string option;  (* the dump boot wrote for an unclean prior run *)
  effects : Effect_log.t;
  commit : Commit.t;  (* the leader-side commit path *)
  replica : Replica.t option;  (* rejects write traffic *)
  (* wire edge, when one is attached (serve --port) *)
  mutable edge_src : (unit -> edge_gauges) option;
  runtime : Runtime_tel.t;  (* profiler, GC telemetry, process identity *)
}

(* -- service health ---------------------------------------------------

   Every seam reports its own reasons ({!Health}); the overall status is
   the worst level present. *)

let set_edge_source t src = t.edge_src <- src
let edge_gauges t = Option.map (fun src -> src ()) t.edge_src

let health_reasons t =
  Health.reasons t.health ~sched:t.sched ~metrics:t.metrics
  @ Option.fold ~none:[]
      ~some:(Edge_gauges.health ~queue_depth:(Scheduler.queue_depth t.sched))
      (edge_gauges t)
  @ Commit.health t.commit
  @ Option.fold ~none:[] ~some:Replica.health t.replica

let health_status t = Health.status (health_reasons t)
let health_json t = Health.json (health_reasons t)

let create ?(domains = 4) ?(cache_capacity = 128) ?(seed = 0x5eed) ?deadline_ms
    ?fuel ?max_delta ?max_queue ?(tracing = false) ?(slow_apply_ms = 10)
    ?durability ?(replica = false) ?replica_of ?slo_p99_ms ?slo_err_pct
    ?(trace_ring = 32) ?(stall_ms = 1000)
    ?(fsync_warn_ms = 100) ?(lag_warn_frames = 256) ?(telemetry = true)
    ?profile_hz ?(gc_pause_warn_ms = 50) () =
  (match profile_hz with
  | Some hz when hz <= 0 -> invalid_arg "Service.create: profile_hz <= 0"
  | _ -> ());
  if gc_pause_warn_ms <= 0 then
    invalid_arg "Service.create: gc_pause_warn_ms <= 0";
  if trace_ring < 1 then invalid_arg "Service.create: trace_ring < 1";
  let replica = replica || replica_of <> None in
  if replica && durability <> None then
    failwith "a replica has no WAL of its own: --replica-of excludes --data-dir";
  (* Durable boot: recover the store (snapshot + WAL tail replay),
     hang the catalog off it, and (re)start the in-memory mutation
     journal — everything replayed is already on disk, so the WAL
     appender's cursor starts at seq 0 of a fresh journal. *)
  let durable, catalog, recovered =
    match durability with
    | None -> (None, Catalog.create (), None)
    | Some cfg ->
      let d, (rec_ : Durable.recovered) = Durable.recover cfg in
      let catalog = Catalog.create ~store:rec_.store () in
      List.iter
        (fun (uri, root, bytes) -> Catalog.register catalog ~uri ~root ~bytes)
        rec_.docs;
      Xqb_store.Store.journal_start rec_.store;
      (Some d, catalog, Some rec_)
  in
  let data_dir =
    Option.map (fun (cfg : Durable.config) -> cfg.Durable.dir) durability
  in
  (* Flight recorder, boot half: inspect (and consume) the previous
     run's event sink before this run opens its own. *)
  let flight =
    match data_dir with
    | Some dir when telemetry -> Flight.detect_unclean_shutdown ~dir recovered
    | _ -> None
  in
  let events =
    if telemetry then
      Events.create
        ?sink_path:(Option.map Flight.sink_path data_dir)
        ()
    else Events.disabled ()
  in
  let sched = Scheduler.create ~domains ?max_queue () in
  let t =
    {
      catalog;
      cache = Plan_cache.create ~capacity:cache_capacity ();
      sched;
      metrics = Metrics.create ~windows:telemetry ?slo_p99_ms ?slo_err_pct ();
      sessions = Hashtbl.create 16;
      smutex = Mutex.create ();
      next_sid = 1;
      seed;
      deadline_ms;
      fuel;
      max_delta;
      jobs = Jobs.create ();
      stopping = false;
      traces = Trace_ring.create ~tracing ~cap:trace_ring;
      events;
      data_dir;
      boot_flight = flight;
      health =
        Health.create ~stall_ns:(stall_ms * 1_000_000)
          ~gc_pause_warn_ns:
            (if telemetry then Some (gc_pause_warn_ms * 1_000_000) else None);
      effects =
        Effect_log.create ~slow_ns:(slow_apply_ms * 1_000_000) ~gc:telemetry
          events;
      commit =
        Commit.create ?durable ~catalog ~sched ~events
          ~stall_ns:(stall_ms * 1_000_000)
          ~fsync_warn_ns:(fsync_warn_ms * 1_000_000) ~lag_warn_frames ();
      replica =
        (if replica then
           Some
             (Replica.create
                ~leader:(Option.value replica_of ~default:"")
                ~catalog ~sched ~events ~lag_warn_frames)
         else None);
      edge_src = None;
      runtime = Runtime_tel.create ?profile_hz ~gc:telemetry events;
    }
  in
  Events.info events ~kind:"lifecycle.boot"
    [
      ("read_only", Events.B replica);
      ("domains", Events.I domains);
      ("durable", Events.B (durable <> None));
    ];
  (match recovered with
  | Some r ->
    Events.info events ~kind:"lifecycle.recovery"
      [
        ("lsn", Events.I r.Durable.lsn);
        ("snapshot_lsn", Events.I r.Durable.snapshot_lsn);
        ("wal_frames", Events.I r.Durable.wal_frames);
        ("truncated_bytes", Events.I r.Durable.truncated_bytes);
      ]
  | None -> ());
  (match flight with
  | Some path ->
    Events.warn events ~kind:"lifecycle.unclean-shutdown"
      [ ("flight", Events.S path) ]
  | None -> ());
  if Events.enabled events then
    Health.start_monitor t.health events (fun () -> health_reasons t);
  t

let boot_flight t = t.boot_flight

let catalog t = t.catalog
let read_only t = Option.is_some t.replica
let scheduler t = t.sched
let metrics t = t.metrics
let events t = t.events
let durability_json t = Commit.stats_json t.commit

let events_json ?level t n =
  Events.events_json (Events.tail ?level t.events n)

(* Fault injection for tests (no-op without --data-dir). *)
let inject_fsync_delay t secs = Commit.inject_fsync_delay t.commit secs
let inject_fsync_error t on = Commit.inject_fsync_error t.commit on

(* Deterministic gc-pause health (same pattern as
   [inject_fsync_delay]): floor the telemetry's reported 10s p99 at
   [ms] until cleared. No-op when telemetry is off. *)
let inject_gc_pause t ms = Runtime_tel.inject_gc_pause t.runtime ms
let clear_gc_pause_injection t = Runtime_tel.clear_gc_pause_injection t.runtime
let profile_command t cmd = Runtime_tel.profile_command t.runtime cmd

(* -- durability (leader side): the wire verbs {!Commit} answers ------- *)

let checkpoint_now t = Commit.checkpoint_now t.commit
let ship_frames ?replica_id t = Commit.ship ?replica_id t.commit
let snapshot_blob t = Commit.snapshot_blob t.commit

(* -- replication (replica side): the wire verbs {!Replica} answers --- *)

let on_replica t f = Option.fold ~none:(Error "not a replica") ~some:f t.replica
let replica_bootstrap t blob = on_replica t (fun r -> Replica.bootstrap r blob)

let replica_ingest t ~leader_lsn blob =
  on_replica t (fun r -> Replica.ingest r ~leader_lsn blob)

let replica_stat_json t =
  match t.replica with
  | None -> Commit.replica_stat_json t.commit
  | Some r -> Replica.stat_json r

(* Serve calls this right after [create] when --replica-of was given. *)
let start_replication t = Option.iter Replica.start t.replica

(* [JOURNAL STAT]: in-memory journal length + the canonical store
   digest — the cross-node consistency check (leader, replicas and a
   recovered store all agree on it). Takes the read lock so the
   digest never observes a half-applied update. *)
let journal_stat_json t =
  (* the replica mutex is taken before the scheduler lock elsewhere
     (ingest holds it across its write-side apply), so read it
     outside the read lock to keep the order consistent *)
  let lsn =
    match (Commit.last_lsn t.commit, t.replica) with
    | Some lsn, _ -> lsn
    | None, Some r -> Replica.applied_lsn r
    | None, None -> 0
  in
  Scheduler.with_footprint t.sched FP.read_all (fun () ->
      let store = Catalog.store t.catalog in
      Printf.sprintf
        "{\"recording\":%b,\"length\":%d,\"nodes\":%d,\"digest\":\"%s\",\"lsn\":%d}"
        (Xqb_store.Store.journal_active store)
        (Xqb_store.Store.journal_length store)
        (Xqb_store.Store.node_count store)
        (Wcodec.store_digest_hex store)
        lsn)

(* -- sessions ------------------------------------------------------- *)

let open_session t =
  Mutex.protect t.smutex (fun () ->
      let sid = t.next_sid in
      t.next_sid <- sid + 1;
      let engine =
        Engine.create ~seed:(t.seed + sid) ~store:(Catalog.store t.catalog) ()
      in
      (* fn:doc falls back to the shared catalog (lookup only) *)
      (Engine.context engine).Core.Context.doc_lookup <-
        Some (fun uri -> Catalog.find t.catalog uri);
      (* applied-∆ accounting; only non-empty ∆s are interesting *)
      (Engine.context engine).Core.Context.on_apply <-
        Some
          (fun delta _mode ->
            if delta <> [] then Metrics.record_delta t.metrics delta);
      Hashtbl.replace t.sessions sid
        { sid; engine; slock = Mutex.create (); docs_held = [] };
      sid)

let find_session t sid =
  match Mutex.protect t.smutex (fun () -> Hashtbl.find_opt t.sessions sid) with
  | Some s -> s
  | None -> failwith (Printf.sprintf "unknown session %d" sid)

let close_session t sid =
  match Mutex.protect t.smutex (fun () ->
      let s = Hashtbl.find_opt t.sessions sid in
      Hashtbl.remove t.sessions sid;
      s)
  with
  | None -> ()
  | Some s ->
    Mutex.protect s.slock (fun () ->
        List.iter (Catalog.release t.catalog) s.docs_held;
        s.docs_held <- [])

(* Load a document into the shared catalog (under the scheduler's
   write lock — loading parses XML into the shared store) and attach
   it to the session: registered for [fn:doc(uri)] and bound to
   [$uri]. Load-once: a second session attaching the same URI reuses
   the resident tree. *)
let load_document t sid ~uri xml =
  let s = find_session t sid in
  let root =
    match Catalog.acquire t.catalog uri with
    | Some root -> root
    | None when read_only t ->
      failwith
        (Printf.sprintf
           "read-only replica: %S is not resident (documents replicate from the leader)"
           uri)
    | None ->
      Scheduler.with_footprint t.sched FP.top (fun () ->
          (* transactional so the load's journal entries form one
             span: recovery and replicas either get the whole
             document or none of it (and a parse failure rolls the
             partially-built tree back) *)
          let root =
            Xqb_store.Store.transactionally (Catalog.store t.catalog)
              (fun () -> Catalog.load t.catalog ~uri xml)
          in
          ignore (Catalog.acquire t.catalog uri);
          (* the registration's wait covers the load's entries too *)
          Commit.commit_load t.commit ~uri ~root ~bytes:(String.length xml);
          root)
  in
  Mutex.protect s.slock (fun () ->
      if not (List.mem uri s.docs_held) then s.docs_held <- uri :: s.docs_held;
      Core.Context.register_doc (Engine.context s.engine) uri root;
      Engine.bind_node s.engine uri root)

(* -- query submission ----------------------------------------------- *)

(* Prepared plan for [src] and the request's parameter values: a
   shape hit, or a compile whose parse turns into parameters exactly
   the string literals and literal attribute values the shape scan
   holed (Plan_cache's header says which stay verbatim). On a hit the
   program's function declarations are still installed into the
   session (cheap), so cross-session hits behave like a local compile.
   Caller holds the session lock. *)
let prepare t s src =
  let job = (Engine.context s.engine).Core.Context.job in
  Stage.with_ ~stage:Stage.Compile ~cat:"compile" job "prepare" @@ fun () ->
  let sh = Plan_cache.shape src in
  (* the values of [holes]' spans, [None] when one no longer lexes as
     the literal kind its plan was compiled for *)
  let bind holes =
    let n = Array.length holes in
    let values = Array.make n "" and items = Array.make n no_param in
    let rec go i =
      if i = n then Some { values; items }
      else
        match holes.(i) with
        | None -> go (i + 1)
        | Some kind -> (
          match Xqb_syntax.Parser.hole_value kind (Plan_cache.span_text sh i) with
          | Some v ->
            values.(i) <- v;
            items.(i) <- Xqb_xdm.Item.Atomic (Xqb_xdm.Atomic.String v);
            go (i + 1)
          | None -> None)
    in
    go 0
  in
  match
    Plan_cache.find_shape t.cache sh (fun _ plan ->
        Option.map (fun p -> (plan, p)) (bind plan.holes))
  with
  | Some (plan, params) ->
    Stage.with_ ~cat:"mark" job "plan.cache.hit" ignore;
    Engine.install_functions s.engine plan.prep.Runner.compiled;
    (plan, params)
  | None ->
    (* host-bound free variables that name catalog documents: the
       service binds every loaded document to [$uri], so a variable
       that is a catalog URI *is* that document's root. Anything else
       widens to "any document" inside the analysis. *)
    let var_docs v = if Catalog.find t.catalog v <> None then Some v else None in
    let holes = Array.make (Array.length sh.Plan_cache.spans) None in
    let hole kind ~start ~stop =
      let i = Plan_cache.span_index sh ~start ~stop in
      Option.iter (fun i -> holes.(i) <- Some kind) i;
      i
    in
    let prep = Runner.prepare ~var_docs ~hole s.engine src in
    let compiled = prep.Runner.compiled in
    let plan =
      {
        prep;
        purity = Engine.body_purity compiled;
        route = FP.route compiled.Engine.footprint;
        holes;
      }
    in
    let params =
      match bind holes with
      | Some p -> p
      | None -> failwith "Service.prepare: a parsed literal does not lex as one"
    in
    Plan_cache.add_shape t.cache sh ~holes:(Array.map Option.is_some holes) plan;
    (plan, params)

(* Query source as shown in STATS and SLOWLOG: the first 120 bytes. *)
let clip_src src =
  if String.length src <= 120 then src else String.sub src 0 120 ^ "…"

(* Request cancellation of an in-flight job (wire CANCEL). True if the
   job was found (still queued or running); the job itself observes
   the token at its next budget poll and fails with [cancelled]. *)
let cancel t jid = Jobs.cancel t.jobs jid

let trace_ring_stats t = Trace_ring.stats t.traces
let trace_json t jid = Trace_ring.chrome_json t.traces jid

let delta_json t = Effect_log.delta_json t.effects
let slowlog_json t = Effect_log.slowlog_json t.effects
let slowlog_length t = Effect_log.length t.effects

(* -- submission ----------------------------------------------------- *)

(* Map a future's exception side into the structured taxonomy. *)
let await fut =
  match Scheduler.await fut with
  | Ok r -> r
  | Error e -> Error (Service_error.classify e)

(* QUERY and EXPLAIN share two brackets: [submit_governed] (deadline →
   budget → job registry → scheduler admission, plus the completion
   bookkeeping every outcome goes through) and [on_session] (execution
   on the session engine, for the two write routes). *)

(* A request refused before it became a job: counted by error kind,
   answered at once under job id 0. *)
let reject t e =
  let err = Service_error.classify e in
  Metrics.record_error t.metrics err.Service_error.kind;
  (0, Scheduler.ready (Error err))

(* A job's stage record, its clock started now; it carries the job's
   tracer when tracing is on. *)
let job_stages t =
  Stage.create ?tracer:(Trace_ring.tracer t.traces) ()

(* Submit [body ~jid ~effects ~appended budget] as a governed job whose
   stage record is [st]. [t0] (Clock ns, the request's arrival) stamps
   the registry entry (STATS running_ms). [record ~ok ~stages], the
   caller's completion step, runs once on every outcome — success,
   failure, queue expiry, shutdown drain, overload — with the job's
   finished stage split; then a write-side job's slow-effect entry
   (left in [effects] by [on_session]) is judged, and its trace (if
   any) kept for [TRACE].

   The reply never acknowledges what is not durable: in durable mode a
   successful job completes only once the WAL is durable up to the
   highest LSN appended before it passed the gate, or its own last
   append ([appended], left by either write route) when later. That
   wait starts after the gate and the session are released: a job
   that finds the WAL already synced replies at once, one that finds
   no fsync in flight leads one, and one that finds an fsync in
   flight parks — its worker returns to the pool and the group-commit
   leader replies for it. Parked time is the job's [Fsync] stage. *)
let submit_governed t sid ~t0 ~st ~label ~footprint ~record body =
  (* one deadline scale, one boundary: the budget's polls and the
     scheduler queue check both use the same absolute monotonic
     Clock ns derived from --deadline-ms right here —
     wall-clock steps (NTP, VM suspend) can neither expire a job early
     nor keep one alive. *)
  let deadline_ns =
    match t.deadline_ms with
    | None -> max_int
    | Some ms -> Clock.now_ns () + (ms * 1_000_000)
  in
  let budget =
    Budget.create
      ?deadline_ns:(if deadline_ns = max_int then None else Some deadline_ns)
      ?fuel:t.fuel ?max_delta:t.max_delta ()
  in
  Stage.set_steps st (fun () -> Budget.steps_used budget);
  let jid =
    Jobs.register t.jobs ~sid ~cancel:(Budget.cancel_token budget) ~started:t0
      (clip_src label)
  in
  let effects = ref None in
  let finish ok =
    Jobs.unregister t.jobs jid;
    let stages = Stage.finish st in
    record ~ok ~stages;
    Option.iter (Effect_log.note_slow t.effects stages) !effects;
    Option.iter (Trace_ring.push t.traces jid) (Stage.tracer st)
  in
  let fail e =
    finish false;
    let err = Service_error.classify e in
    Metrics.record_error t.metrics err.Service_error.kind;
    err
  in
  let failed e =
    let err = fail e in
    Events.warn t.events ~kind:"query.error"
      [
        ("jid", Events.I jid);
        ("kind", Events.S (Service_error.kind_to_string err.Service_error.kind));
      ];
    Error err
  in
  (* under the gate: the durability mark, then the job *)
  let job () =
    let mark = Option.value (Commit.last_lsn t.commit) ~default:0 in
    let appended = ref (0, 0) in
    let out = body ~jid ~effects ~appended budget in
    (out, mark, !appended)
  in
  let settle r complete =
    match r with
    | Error e -> complete (Ok (failed e))
    | Ok (out, mark, appended) ->
      Commit.await_reply t.commit ~mark appended
        ~parked:(fun () -> Stage.switch st Stage.Fsync)
        (function
          | Ok () ->
            finish true;
            complete (Ok (Ok out))
          | Error e -> complete (Ok (failed e)))
  in
  (* Abandoned without running (queue-time expiry, shutdown drain):
     still counts as a failed query of the appropriate kind. *)
  let on_abort e = ignore (fail e) in
  match
    Scheduler.submit_settled t.sched ~deadline:deadline_ns ~on_abort ~stages:st
      ~footprint job ~settle
  with
  | fut -> (jid, fut)
  | exception ((Scheduler.Overloaded | Scheduler.Shut_down) as e) ->
    if e = Scheduler.Overloaded then
      Events.warn t.events ~kind:"sched.overload"
        [
          ("jid", Events.I jid);
          ("queue_depth", Events.I (Scheduler.queue_depth t.sched));
        ];
    on_abort e;
    (jid, Scheduler.ready (Error (Service_error.classify e)))

(* The write routes run on the session engine itself, under the
   session lock, with the job's stage record, budget and parameter
   values installed and fresh ∆ statistics (snapshotted for DELTA and
   the slow-effect log on the way out, even when the job fails),
   bracketed by GC/profiler attribution — [body] gets the attribution
   token for EXPLAIN ANALYZE's footer.

   One commit path, two rollback units. Both write routes append
   their journal tail to the WAL under the gate and leave its last LSN
   in [appended]; the session lock and then the gate are released
   before anyone waits for that LSN's fsync ([settle] in
   [submit_governed]). The exclusive route (a ⊤ footprint: nothing
   else runs) wraps the whole job in one store transaction — a budget
   kill rolls back even mid-way through nested applies — and appends
   after it, on failure too (the aborted span keeps the audit trail,
   and its own errors must not mask the job's), then checkpoints if
   due. On the concurrent-writer route each top-level snap's apply +
   WAL append serializes under [writer_apply_wrap]. *)
let on_session t s ~jid ~src ~st ~effects ~appended ~budget ~route ~params body =
  let exclusive = route = FP.Exclusive in
  let job = Some st in
  let publish () = if exclusive then Commit.publish ?job t.commit appended in
  match
    Mutex.protect s.slock (fun () ->
        let ctx = Engine.context s.engine in
        Core.Update.stats_reset ctx.Core.Context.delta_stats;
        ctx.Core.Context.apply_ns <- 0;
        let att = Effect_log.attribution_begin () in
        Fun.protect
          ~finally:(fun () ->
            effects :=
              Some
                (Effect_log.note_effects t.effects ~jid ~sid:s.sid ~src:(clip_src src)
                   ~trace:(Option.map Trace.id (Stage.tracer st))
                   ~att ctx))
        @@ fun () ->
        Engine.with_job s.engine job @@ fun () ->
        Engine.with_budget s.engine (Some budget) @@ fun () ->
        Engine.with_params s.engine params @@ fun () ->
        if exclusive then
          Xqb_store.Store.transactionally (Catalog.store t.catalog) (fun () ->
              body att)
        else begin
          ctx.Core.Context.apply_wrap <- Some (Commit.writer_apply_wrap t.commit job appended);
          Fun.protect
            ~finally:(fun () -> ctx.Core.Context.apply_wrap <- None)
            (fun () -> body att)
        end)
  with
  | out ->
    publish ();
    out
  | exception e ->
    (try publish () with _ -> ());
    raise e

(* Submit a query; returns the job id (usable with [cancel]) and a
   future resolving to the serialized result or a structured error.
   The plan's route (see the header) decides where it runs: in a fork
   of the session taken now, as a concurrent writer, or exclusively —
   where a query killed by its budget leaves the store unchanged. *)
let submit_job t sid src :
    int * (string, Service_error.t) result Scheduler.future =
  let s = find_session t sid in
  let t0 = Clock.now_ns () in
  Metrics.record_queue_depth t.metrics (Scheduler.queue_depth t.sched);
  (* One stage record per job. Installed on the session engine only
     while the session lock is held (prepare + fork); a fork copies
     it, so the stages and spans the fork records on a worker domain
     land in this job's record without the session ever sharing one
     between two jobs. The parameter values travel the same way: on
     the fork, or installed on the session engine for the job's run. *)
  let st = job_stages t in
  match
    Mutex.protect s.slock (fun () ->
        Engine.with_job s.engine (Some st) (fun () ->
            let plan, params = prepare t s src in
            let fork =
              if plan.route = FP.Fork then Some (Engine.fork_read s.engine)
              else None
            in
            (plan, params, fork)))
  with
  | exception e ->
    Metrics.record_compile_error t.metrics;
    reject t e
  | plan, _, _ when read_only t && plan.route <> FP.Fork ->
    (* the route doubles as the replica's write fence: a program that
       writes nothing shared cannot mutate the store — the nodes a
       constructing read builds live in its own scratch overlay *)
    reject t
      (Failure
         "read-only replica: updating/effecting queries must run on the leader")
  | plan, params, fork ->
    let record ~ok ~stages =
      Metrics.record_query t.metrics ~purity:plan.purity ~route:plan.route ~ok
        ~stages
    in
    let compiled = plan.prep.Runner.compiled in
    let exec = Runner.exec plan.prep.Runner.algebra.Xqb_algebra.Compile.plan in
    let serialize f =
      Stage.with_ ~stage:Stage.Serialize (Some st) "serialize" f
    in
    submit_governed t sid ~t0 ~st ~label:src
      ~footprint:compiled.Engine.footprint ~record
      (fun ~jid ~effects ~appended budget ->
        match fork with
        | Some feng ->
          (* snap-free evaluation; [run_fork] re-forks internally and
             the fork inherits the budget and values installed here.
             Constructed nodes live in the returned scratch overlay,
             dropped once the reply is serialized *)
          Engine.with_budget feng (Some budget) (fun () ->
              Engine.with_params feng params.items (fun () ->
                  let store, v = Engine.run_fork ~exec feng compiled in
                  serialize (fun () -> Engine.serialize_with store v)))
        | None ->
          on_session t s ~jid ~src ~st ~effects ~appended ~budget ~route:plan.route
            ~params:params.items (fun _ ->
              let v = Engine.run_compiled ~exec s.engine compiled in
              serialize (fun () -> Engine.serialize s.engine v)))

let submit t sid src = snd (submit_job t sid src)

(* Synchronous submit-and-await. *)
let query t sid src = await (submit t sid src)

(* EXPLAIN ANALYZE (wire [EXPLAIN]): execute the query's served plan
   — [prepare]'s, so a cached plan is the one profiled — with
   per-operator profiling, returning the annotated plan tree. The
   request's parameter values are bound into the plan it renders, so
   a shape hit shows the text a fresh compile of the request would.
   Always exclusive — the query runs for real, side effects included,
   which is the only honest way to report actual cardinalities for a
   language with side effects — under the same governance (budget,
   registry, CANCEL) as a normal submission, but outside the query
   counts. *)
let explain_job t sid src :
    int * (string, Service_error.t) result Scheduler.future =
  let s = find_session t sid in
  if read_only t then
    (* EXPLAIN executes for real, side effects included — never on a
       replica *)
    reject t
      (Failure "read-only replica: EXPLAIN executes the query; run it on the leader")
  else
    let st = job_stages t in
    submit_governed t sid ~t0:(Clock.now_ns ()) ~st ~label:("EXPLAIN " ^ src)
      ~footprint:FP.top
      ~record:(fun ~ok:_ ~stages:_ -> ())
      (fun ~jid ~effects ~appended budget ->
        on_session t s ~jid ~src ~st ~effects ~appended ~budget ~route:FP.Exclusive
          ~params:[||] (fun att ->
            let plan, params = prepare t s src in
            let prep =
              if Array.exists Option.is_some plan.holes then
                Runner.bind_params params.values plan.prep
              else plan.prep
            in
            let r = Runner.execute ~profile:true s.engine prep in
            (* same footer style as the ddo/footprint lines: sampling +
               GC attribution, present only when the corresponding
               collector is on *)
            Runner.render r ^ Effect_log.attribution_suffix t.effects att))

let explain t sid src = await (snd (explain_job t sid src))

let cache_stats t = Plan_cache.stats t.cache

(* Deterministic store operation counts for STATS / METRICS PROM:
   store mutations, and the index and order-key (re)builds reads paid
   for after them. [store_nodes] beside them is the shared store's
   size, which only loads and write routes grow. *)
let store_counts t =
  let st = Catalog.store t.catalog in
  Xqb_store.Store.
    [
      ("mutations", "Store-changing operations since boot.", mutation_count st);
      ("index_builds", "Root name/key index records (re)built since boot.",
        index_builds st);
      ("order_key_builds", "Order-key tables (re)built since boot.",
        order_key_builds st);
    ]

let store_nodes t = Xqb_store.Store.node_count (Catalog.store t.catalog)

let store_json t =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v)
         (("nodes", store_nodes t)
         :: List.map (fun (k, _, v) -> (k, v)) (store_counts t)))
  ^ "}"

(* Wire [METRICS PROM]: every seam's families on one shared {!Prom}
   emitter, so # HELP/# TYPE discipline and counter naming hold for
   the whole page (test_service.ml lints it end to end). *)
let metrics_prometheus t =
  let p = Prom.create () in
  Metrics.to_prom ~cache:(Plan_cache.stats t.cache) t.metrics p;
  List.iter
    (fun (k, help, v) ->
      Prom.counter p ~help (Printf.sprintf "xqbang_store_%s_total" k) v)
    (store_counts t);
  Prom.gauge_i p ~help:"Nodes in the shared store (loads and writes grow it)."
    "xqbang_store_nodes" (store_nodes t);
  Rwlock.to_prom (Scheduler.gate t.sched) p;
  Trace_ring.to_prom t.traces p;
  Events.to_prom t.events p;
  Commit.to_prom t.commit p;
  Option.iter (fun r -> Replica.to_prom r p) t.replica;
  Option.iter (fun e -> Edge_gauges.to_prom e p) (edge_gauges t);
  Runtime_tel.to_prom t.runtime p;
  Prom.gauge_i p
    ~help:"Service health: 0 = ok, 1 = degraded, 2 = critical (see HEALTH)."
    "xqbang_health_status"
    (Health.gauge (health_reasons t));
  Prom.contents p

let telemetry_json t =
  Printf.sprintf
    "{\"events\":{\"enabled\":%b,\"total\":%d,\"warn_or_above\":%d},\"trace_ring\":%s}"
    (Events.enabled t.events)
    (Events.total t.events)
    (Events.count_at_least t.events Events.Warn)
    (Trace_ring.json t.traces)

let stats_json t =
  let entry key = Option.map (fun json -> (key, json)) in
  let extra =
    List.filter_map Fun.id
      [
        entry "replica" (Option.map Replica.stat_json t.replica);
        entry "durability" (durability_json t);
        entry "edge" (Option.map Edge_gauges.json (edge_gauges t));
        entry "gc" (Runtime_tel.gc_json t.runtime);
      ]
    @ [
        ("windows", Metrics.windows_json t.metrics);
        ("health", health_json t);
        ("telemetry", telemetry_json t);
        ("concurrency", Rwlock.stats_json (Scheduler.gate t.sched));
        ("inflight", Jobs.json t.jobs);
        ("process", Runtime_tel.process_json t.runtime);
        ("store", store_json t);
        ("profiler", Xqb_obs.Profile.stat_json ());
      ]
  in
  Metrics.to_json
    ~cache:(Plan_cache.stats t.cache)
    ~docs:(Catalog.list t.catalog)
    ~extra t.metrics

(* -- the crash flight recorder (live half) ---------------------------- *)

let flight_json t ~reason =
  let g = Scheduler.gate t.sched in
  Flight.live_json ~reason t.events
    [
      ("queue_depth", string_of_int (Scheduler.queue_depth t.sched));
      ( "gate",
        Printf.sprintf "{\"running\":%d,\"running_writers\":%d}"
          (Rwlock.running g) (Rwlock.running_writers g) );
      ("trace_ring", Trace_ring.json t.traces);
      ( "last_lsn",
        Option.fold ~none:"null" ~some:string_of_int (Commit.last_lsn t.commit) );
      ("health", health_json t);
      ("inflight", Jobs.json t.jobs);
    ]

let write_flight t ~reason =
  Option.bind t.data_dir (fun dir -> Flight.write ~dir (flight_json t ~reason))

(* Called by `serve` only: a library embedder owns its own signals. *)
let install_crash_hooks t =
  Flight.install_crash_hooks
    ~stopping:(fun () -> t.stopping)
    (fun reason -> ignore (write_flight t ~reason))

(* Stop the service. Without [deadline], drain: queued jobs still
   run to completion. With [deadline] (seconds), give queued +
   running work that long, then abandon the queue ([overloaded]
   futures) and cancel every in-flight budget so running jobs die at
   their next poll. *)
let shutdown ?deadline t =
  t.stopping <- true;
  (* stop the replication client first *)
  Option.iter Replica.stop t.replica;
  Health.stop_monitor t.health;
  Scheduler.shutdown ?deadline ~on_deadline:(fun () -> Jobs.cancel_all t.jobs)
    t.sched;
  (* the pool is drained: one final fsync and the WAL closes *)
  Commit.close t.commit;
  Runtime_tel.stop t.runtime;
  (* last event in the sink: its presence is how the next boot knows
     this run ended clean (no flight dump) *)
  Events.info t.events ~kind:"lifecycle.shutdown" [];
  Events.close t.events
