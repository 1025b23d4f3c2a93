(* Structured, bounded service event log.

   Counters say how much; events say what happened, in order. Every
   operationally interesting transition (boot, recovery, checkpoint,
   replica bootstrap, overload rejection, stall detection, health
   state change, ...) is logged as a typed record into a fixed-size
   ring, and — when a sink is attached — appended as one JSON line to
   an on-disk file. Info-and-above lines are serialized and flushed
   immediately so the tail survives a SIGKILL (page cache outlives
   the process; only true power loss can eat it); Debug records
   (wal.commit is one per committed write — the hot path) are only
   queued, and serialized in order by the owner's periodic [pump], at
   the next Info+ flush, or every 4096 pending as a backstop, so the
   per-commit cost is a ring slot write and a cons, not a printf. A
   kill can lose the queued tail, which only under-reports
   — the flight recorder's invariants allow that. The ring answers
   the EVENTS wire verb; the sink feeds the crash flight recorder.

   Records carry both clocks: ts_ns (monotonic) orders events within
   a run, wall_s anchors them to real time across runs.

   Subscribers run outside the ring mutex (they may log); sink
   writes run inside it (lines must not interleave). *)

type severity = Debug | Info | Warn | Error | Critical

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"
  | Critical -> "critical"

let severity_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | "critical" -> Some Critical
  | _ -> None

let severity_rank = function
  | Debug -> 0
  | Info -> 1
  | Warn -> 2
  | Error -> 3
  | Critical -> 4

type field = S of string | I of int | F of float | B of bool

type event = {
  seq : int;
  ts_ns : int;
  wall_s : float;
  level : severity;
  kind : string;
  data : (string * field) list;
}

type t = {
  enabled : bool;
  cap : int;
  mutex : Mutex.t;
  ring : event option array;  (* slot = seq mod cap *)
  mutable total : int;  (* events ever logged = next seq *)
  by_level : int array;  (* indexed by severity_rank *)
  mutable sink : out_channel option;
  mutable pending : event list;  (* Debug events queued for the sink, newest first *)
  mutable npending : int;
  mutable subs : (event -> unit) list;
}

let create ?(cap = 512) ?sink_path () =
  let sink =
    match sink_path with
    | None -> None
    | Some p -> Some (open_out_gen [ Open_append; Open_creat ] 0o644 p)
  in
  {
    enabled = true;
    cap = max 1 cap;
    mutex = Mutex.create ();
    ring = Array.make (max 1 cap) None;
    total = 0;
    by_level = Array.make 5 0;
    sink;
    pending = [];
    npending = 0;
    subs = [];
  }

(* A no-op log for telemetry-off runs (the [overhead] bench's baseline): log
   becomes a single branch, no ring, no sink. *)
let disabled () =
  {
    enabled = false;
    cap = 1;
    mutex = Mutex.create ();
    ring = Array.make 1 None;
    total = 0;
    by_level = Array.make 5 0;
    sink = None;
    pending = [];
    npending = 0;
    subs = [];
  }

let enabled t = t.enabled

(* Hand-rolled serialization: Printf.sprintf costs ~1.4us per event
   (format interpretation dominates), which matters when a checkpoint
   drains a 256-event Debug backlog. Buffer + string_of_int is ~5x
   cheaper and byte-identical for our field types. *)

let add_field buf = function
  | S s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (Json.escape s);
      Buffer.add_char buf '"'
  | I i -> Buffer.add_string buf (string_of_int i)
  | F f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.0f" f)
      else Buffer.add_string buf (Printf.sprintf "%g" f)
  | B b -> Buffer.add_string buf (if b then "true" else "false")

(* Epoch seconds with fixed 6-digit fraction (microseconds) — what
   Printf's "%.6f" prints for the non-negative floats we feed it. *)
let add_wall buf w =
  let sec = int_of_float w in
  let us = int_of_float (((w -. float_of_int sec) *. 1e6) +. 0.5) in
  let sec, us = if us >= 1_000_000 then (sec + 1, 0) else (sec, us) in
  Buffer.add_string buf (string_of_int sec);
  Buffer.add_char buf '.';
  let d = string_of_int us in
  for _ = String.length d to 5 do
    Buffer.add_char buf '0'
  done;
  Buffer.add_string buf d

let add_json buf e =
  Buffer.add_string buf "{\"seq\":";
  Buffer.add_string buf (string_of_int e.seq);
  Buffer.add_string buf ",\"ts_ns\":";
  Buffer.add_string buf (string_of_int e.ts_ns);
  Buffer.add_string buf ",\"wall_s\":";
  add_wall buf e.wall_s;
  Buffer.add_string buf ",\"level\":\"";
  Buffer.add_string buf (severity_to_string e.level);
  Buffer.add_string buf "\",\"kind\":\"";
  Buffer.add_string buf (Json.escape e.kind);
  Buffer.add_string buf "\",\"data\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Buffer.add_string buf (Json.escape k);
      Buffer.add_string buf "\":";
      add_field buf v)
    e.data;
  Buffer.add_string buf "}}"

let to_json e =
  let buf = Buffer.create 160 in
  add_json buf e;
  Buffer.contents buf

let events_json es = "[" ^ String.concat "," (List.map to_json es) ^ "]"

(* Serialize the queued Debug backlog (oldest first), under the ring
   mutex. One buffer, one write: a drain is a single output call. *)
let drain_pending t oc =
  if t.pending <> [] then begin
    let buf = Buffer.create (t.npending * 128) in
    List.iter
      (fun e ->
        add_json buf e;
        Buffer.add_char buf '\n')
      (List.rev t.pending);
    t.pending <- [];
    t.npending <- 0;
    Buffer.output_buffer oc buf
  end

let log t level ~kind data =
  if t.enabled then begin
    Mutex.lock t.mutex;
    let e =
      {
        seq = t.total;
        ts_ns = Clock.now_ns ();
        wall_s = float_of_int (Clock.wall_ns ()) /. 1e9;
        level;
        kind;
        data;
      }
    in
    t.ring.(t.total mod t.cap) <- Some e;
    t.total <- t.total + 1;
    t.by_level.(severity_rank level) <- t.by_level.(severity_rank level) + 1;
    (match t.sink with
    | Some oc ->
        (try
           if severity_rank level >= severity_rank Info then begin
             drain_pending t oc;
             let buf = Buffer.create 160 in
             add_json buf e;
             Buffer.add_char buf '\n';
             Buffer.output_buffer oc buf;
             flush oc
           end
           else begin
             t.pending <- e :: t.pending;
             t.npending <- t.npending + 1;
             (* backstop only: the owner's monitor thread pumps the
                backlog off the hot path every 50ms *)
             if t.npending >= 4096 then drain_pending t oc
           end
         with Sys_error _ -> ())
    | None -> ());
    let subs = t.subs in
    Mutex.unlock t.mutex;
    List.iter (fun f -> try f e with _ -> ()) subs
  end

let debug t = log t Debug
let info t = log t Info
let warn t = log t Warn
let error t = log t Error
let critical t = log t Critical

let subscribe t f =
  Mutex.lock t.mutex;
  t.subs <- f :: t.subs;
  Mutex.unlock t.mutex

let total t =
  Mutex.lock t.mutex;
  let n = t.total in
  Mutex.unlock t.mutex;
  n

let count_at_least t level =
  Mutex.lock t.mutex;
  let n = ref 0 in
  for i = severity_rank level to 4 do
    n := !n + t.by_level.(i)
  done;
  Mutex.unlock t.mutex;
  !n

(* Last [n] retained events at [level] or above, oldest first. *)
let tail ?(level = Debug) t n =
  Mutex.lock t.mutex;
  let lo = max 0 (t.total - t.cap) in
  let acc = ref [] and got = ref 0 in
  (try
     for seq = t.total - 1 downto lo do
       if !got >= n then raise Exit;
       match t.ring.(seq mod t.cap) with
       | Some e when severity_rank e.level >= severity_rank level ->
           acc := e :: !acc;
           incr got
       | _ -> ()
     done
   with Exit -> ());
  Mutex.unlock t.mutex;
  !acc

(* Serialize any queued Debug backlog to the sink. The service's
   monitor thread calls this every tick so drains happen off the
   commit hot path; a plain buffered write, no flush. *)
let pump t =
  Mutex.lock t.mutex;
  (match t.sink with
  | Some oc -> ( try drain_pending t oc with Sys_error _ -> ())
  | None -> ());
  Mutex.unlock t.mutex

let close t =
  Mutex.lock t.mutex;
  (match t.sink with
  | Some oc ->
      t.sink <- None;
      (try
         drain_pending t oc;
         close_out oc
       with Sys_error _ -> ())
  | None -> ());
  Mutex.unlock t.mutex

let to_prom t p =
  if enabled t then begin
    Prom.counter p ~help:"Events logged since boot." "xqbang_events_total" (total t);
    let at_least l = count_at_least t l in
    List.iter
      (fun (name, exact) ->
        Prom.counter p ~help:"Events logged since boot, by severity."
          ~labels:[ ("level", name) ]
          "xqbang_events_by_level_total" exact)
      [
        ("debug", at_least Debug - at_least Info);
        ("info", at_least Info - at_least Warn);
        ("warn", at_least Warn - at_least Error);
        ("error", at_least Error - at_least Critical);
        ("critical", at_least Critical);
      ]
  end
