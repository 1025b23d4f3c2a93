(* In-memory span recorder for the traced run. Spans are recorded
   around the benchmark's own calls into each layer (single-threaded:
   one open-span stack), aggregated per name as they close, and written
   at exit as Chrome trace-event JSON. Spans of one request share its
   [req] id; a span's self time is its duration minus the time its
   child spans cover. *)

type span = {
  id : int;
  parent : int;
  req : int;
  name : string;
  phase : int;
  start : int;
  mutable dur : int;
}

type agg = { mutable count : int; mutable total : int; mutable self : int }

let all : span list ref = ref []
let next_id = ref 0
let stack : (span * int ref) list ref = ref []
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 64

(* Chrome "thread" the next spans are drawn on; one per traced phase. *)
let phase = ref 0
let phase_names = [| "wire"; "service"; "replay" |]

let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
    let a = { count = 0; total = 0; self = 0 } in
    Hashtbl.replace aggs name a;
    a

let close sp ~children =
  let a = agg sp.name in
  a.count <- a.count + 1;
  a.total <- a.total + sp.dur;
  a.self <- a.self + sp.dur - children;
  all := sp :: !all

(* [span ?req name f]: [f ()] inside a span; [req] defaults to the
   enclosing span's request. *)
let span ?req name f =
  let id = !next_id in
  incr next_id;
  let parent, preq = match !stack with (p, _) :: _ -> (p.id, p.req) | [] -> (-1, -1) in
  let sp =
    {
      id;
      parent;
      req = Option.value req ~default:preq;
      name;
      phase = !phase;
      start = Xqb_obs.Clock.now_ns ();
      dur = -1;
    }
  in
  let children = ref 0 in
  stack := (sp, children) :: !stack;
  let finish () =
    sp.dur <- Xqb_obs.Clock.now_ns () - sp.start;
    stack := List.tl !stack;
    (match !stack with (_, c) :: _ -> c := !c + sp.dur | [] -> ());
    close sp ~children:!children
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* A span known only after the fact (wire timings taken from reply
   times); returns its id for children. *)
let add ?(parent = -1) ?(children = 0) ~req ~name ~start ~dur () =
  let id = !next_id in
  incr next_id;
  close { id; parent; req; name; phase = !phase; start; dur } ~children;
  id

let count name = match Hashtbl.find_opt aggs name with Some a -> a.count | None -> 0
let total name = match Hashtbl.find_opt aggs name with Some a -> a.total | None -> 0
let self name = match Hashtbl.find_opt aggs name with Some a -> a.self | None -> 0

(* Mean duration of [name] spans, in ns ([nan] when none). *)
let mean name =
  let c = count name in
  if c = 0 then nan else float_of_int (total name) /. float_of_int c

let chrome_json () =
  let spans = List.rev !all in
  let t0 = List.fold_left (fun m s -> min m s.start) max_int spans in
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  Array.iteri
    (fun i n ->
      Printf.bprintf b
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}},\n"
        i n)
    phase_names;
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"id\":%d,\"parent\":%d}}"
        (Xqb_obs.Json.escape s.name) phase_names.(s.phase) s.phase
        (float_of_int (s.start - t0) /. 1e3)
        (float_of_int s.dur /. 1e3)
        s.req s.id s.parent)
    spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
