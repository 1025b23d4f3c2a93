(* Per-query span tracer.

   One [t] is created per job (or per CLI run), so recording touches
   only a per-trace mutex — there is no global lock anywhere on the
   hot path, and traces from concurrent jobs never contend. A
   disabled tracer ([disabled], or any reference kept as [None] by
   the instrumented layer) costs exactly one branch per
   instrumentation point, which is the "compiled out" feel the
   service needs to keep overhead at ~0 when tracing is off.

   Spans form a tree via [parent] links: [begin_span]/[end_span]
   maintain an explicit stack of open spans, so nesting is recorded
   even when Chrome's duration-based nesting inference would be
   ambiguous. Timestamps are monotonic ({!Clock}), relative to the
   trace's creation. *)

type span = {
  id : int;
  parent : int;  (* span id, -1 for roots *)
  name : string;
  cat : string;
  tid : int;  (* recording domain, for the Chrome timeline lanes *)
  start_ns : int;
  mutable dur_ns : int;  (* -1 while still open *)
  mutable args : (string * string) list;
}

type t = {
  enabled : bool;
  id : string;  (* process-unique label ("t17") for cross-referencing *)
  mutex : Mutex.t;
  cap : int;
  epoch_ns : int;
  mutable spans : span list;  (* newest first *)
  mutable n : int;
  mutable dropped : int;
  mutable next_id : int;
  mutable stack : int list;  (* open span ids, innermost first *)
}

(* Trace ids are process-unique so update provenance, the slow-effect
   log, and the TRACE wire command can all point at the same trace. *)
let trace_counter = Atomic.make 0

let create ?(cap = 4096) () =
  {
    enabled = true;
    id = Printf.sprintf "t%d" (Atomic.fetch_and_add trace_counter 1);
    mutex = Mutex.create ();
    cap;
    epoch_ns = Clock.now_ns ();
    spans = [];
    n = 0;
    dropped = 0;
    next_id = 0;
    stack = [];
  }

(* The shared do-nothing tracer: every operation returns after one
   [enabled] test. *)
let disabled =
  {
    enabled = false;
    id = "t-off";
    mutex = Mutex.create ();
    cap = 0;
    epoch_ns = 0;
    spans = [];
    n = 0;
    dropped = 0;
    next_id = 0;
    stack = [];
  }

let enabled t = t.enabled

let id t = t.id

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record t s =
  if t.n < t.cap then begin
    t.spans <- s :: t.spans;
    t.n <- t.n + 1
  end
  else t.dropped <- t.dropped + 1

let begin_span ?(cat = "phase") t name =
  if not t.enabled then -1
  else begin
    let ts = Clock.now_ns () in
    locked t (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        let parent = match t.stack with [] -> -1 | p :: _ -> p in
        record t
          {
            id;
            parent;
            name;
            cat;
            tid = (Domain.self () :> int);
            start_ns = ts;
            dur_ns = -1;
            args = [];
          };
        t.stack <- id :: t.stack;
        id)
  end

let end_span ?(args = []) t id =
  if t.enabled && id >= 0 then begin
    let now = Clock.now_ns () in
    locked t (fun () ->
        t.stack <- List.filter (fun i -> i <> id) t.stack;
        match List.find_opt (fun (s : span) -> s.id = id) t.spans with
        | None -> ()  (* dropped at the cap *)
        | Some s ->
          s.dur_ns <- now - s.start_ns;
          if args <> [] then s.args <- s.args @ args)
  end

(* Record a span after the fact, with explicit timestamps — a queue
   or gate wait is only known when it ends, often on a different
   thread than the one that began it ({!Stage.switch}). *)
let add_span ?(cat = "phase") ?(args = []) t ~name ~start_ns ~dur_ns () =
  if t.enabled then
    locked t (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        record t
          {
            id;
            parent = -1;
            name;
            cat;
            tid = (Domain.self () :> int);
            start_ns;
            dur_ns = max 0 dur_ns;
            args;
          })

let span_count t = locked t (fun () -> t.n)
let dropped t = locked t (fun () -> t.dropped)

let spans t = locked t (fun () -> List.rev t.spans)

(* -- Chrome trace-event export -------------------------------------- *)

let to_chrome_json ?(pid = 1) t =
  let sl = spans t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      let ts_us = float_of_int (s.start_ns - t.epoch_ns) /. 1e3 in
      let dur_us = float_of_int (max 0 s.dur_ns) /. 1e3 in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{"
           (Json.escape s.name) (Json.escape s.cat) ts_us dur_us pid s.tid);
      let args =
        [ ("span", string_of_int s.id); ("parent", string_of_int s.parent) ]
        @ s.args
      in
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v)))
        args;
      Buffer.add_string buf "}}")
    sl;
  Buffer.add_string buf
    (Printf.sprintf "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":%d}}"
       (dropped t));
  Buffer.contents buf
