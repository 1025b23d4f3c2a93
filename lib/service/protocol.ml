(* The newline-delimited request protocol behind `xqbang serve`.

   Requests (one per line; keywords case-insensitive):

     OPEN                          open a session       -> OK <sid>
     CLOSE <sid>                   close a session      -> OK closed
     LOAD <sid> <uri> <path>       load + attach a doc  -> OK loaded <uri>
     QUERY <sid> <query...>        run a query          -> OK <result> | ERR [kind] <msg>
     EXPLAIN <sid> <query...>      EXPLAIN ANALYZE      -> OK <annotated plan> | ERR ...
     CANCEL <job id>               cancel a running job -> OK cancelled | ERR ...
     TRACE [<job id>|LAST]         Chrome trace JSON    -> OK <json> | ERR ...
     STATS                         metrics dump         -> OK <json>
     DELTA                         last job's Delta statistics -> OK <json> | ERR ...
     SLOWLOG                       slow-effect log      -> OK <json array>
     METRICS [PROM]                Prometheus text page -> OK <text>
     HEALTH                        ok|degraded|critical + reasons -> OK <json>
     EVENTS [TAIL n] [LEVEL l]     recent event-log records -> OK <json array>
     JOURNAL STAT                  journal length + store digest -> OK <json>
     REPLICA STAT                  replica LSNs and lag -> OK <json>
     CHECKPOINT                    force a snapshot     -> OK <lsn> | ERR ...
     SHIP <from_lsn> [<max>] [<replica id>]
                                   committed WAL frames -> OK <last_lsn> <b64> | ERR ...
     SNAPSHOT                      bootstrap snapshot   -> OK <b64> | ERR ...
     PROFILE START|STOP|DUMP [JSON]|STAT
                                   continuous profiler: arm/disarm the
                                   sampler, folded-stack dump, status -> OK ...
     QUIT                          end the connection   -> OK bye

   Query text is the rest of the line with the two-character escapes
   \n \r \\ decoded, so multi-line queries fit on one request line.
   Replies are a single line: "OK " or "ERR " followed by the
   escaped payload. *)

type request =
  | Open
  | Close of int
  | Load of int * string * string  (* sid, uri, path *)
  | Query of int * string
  | Explain of int * string  (* sid, query: EXPLAIN ANALYZE *)
  | Cancel of int  (* job id, as reported asynchronously-submitted *)
  | Trace of int option  (* job id; None = most recent traced job *)
  | Stats
  | Delta  (* last write-side job's ∆ statistics *)
  | Slowlog  (* the slow-effect log *)
  | Metrics_prom  (* Prometheus text exposition *)
  | Health  (* ok|degraded|critical + machine-readable reasons *)
  | Events of int * string option
    (* tail length, minimum severity name (validated at parse) *)
  | Journal_stat  (* in-memory journal length + store digest *)
  | Replica_stat  (* replica LSNs / lag *)
  | Checkpoint  (* force a snapshot now *)
  | Ship of int * int * string option
    (* from_lsn, max frames, replica id: replica pull. The id lets
       the leader track per-replica shipped/acked positions. *)
  | Snapshot  (* full-state blob for replica bootstrap *)
  | Profile of [ `Start | `Stop | `Dump | `Dump_json | `Stat ]
    (* the continuous sampling profiler (process-global) *)
  | Quit

(* -- one-line escaping ---------------------------------------------- *)

(* [prefix] then [payload] with \\ \n \r escaped. One scan finds
   whether any byte needs it; a payload that needs none is copied once
   into an exact-size string. *)
let escaped_after prefix payload =
  let rec clean i =
    i = String.length payload
    || match String.unsafe_get payload i with '\\' | '\n' | '\r' -> false | _ -> clean (i + 1)
  in
  if clean 0 then prefix ^ payload
  else begin
    let buf = Buffer.create (String.length prefix + String.length payload + 16) in
    Buffer.add_string buf prefix;
    String.iter
      (function
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | c -> Buffer.add_char buf c)
      payload;
    Buffer.contents buf
  end

let escape s = escaped_after "" s

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | '\\' -> Buffer.add_char buf '\\'
       | c ->
         Buffer.add_char buf '\\';
         Buffer.add_char buf c);
       i := !i + 2
     end
     else begin
       Buffer.add_char buf s.[!i];
       incr i
     end)
  done;
  Buffer.contents buf

let ok payload = escaped_after "OK " payload
let err payload = escaped_after "ERR " payload

(* Classified query errors carry their taxonomy kind on the wire:
   "ERR [timeout] deadline exceeded". Protocol-level errors (bad
   request syntax) keep the plain [err] form. *)
let err_of (e : Service_error.t) = err (Service_error.to_string e)

(* -- parsing -------------------------------------------------------- *)

(* Split off the first whitespace-delimited word. *)
let split_word s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
    (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))

let parse_sid word =
  match int_of_string_opt word with
  | Some sid -> Ok sid
  | None -> Error (Printf.sprintf "expected a session id, got %S" word)

let parse line : (request, string) result =
  let keyword, rest = split_word line in
  match String.uppercase_ascii keyword with
  | "OPEN" -> Ok Open
  | "CLOSE" -> Result.map (fun sid -> Close sid) (parse_sid rest)
  | "LOAD" -> (
    let sid_w, rest = split_word rest in
    let uri, path = split_word rest in
    match parse_sid sid_w with
    | Error e -> Error e
    | Ok sid ->
      if uri = "" || path = "" then Error "LOAD expects: LOAD <sid> <uri> <path>"
      else Ok (Load (sid, uri, path)))
  | "QUERY" -> (
    let sid_w, rest = split_word rest in
    match parse_sid sid_w with
    | Error e -> Error e
    | Ok sid ->
      if rest = "" then Error "QUERY expects: QUERY <sid> <query text>"
      else Ok (Query (sid, unescape rest)))
  | "EXPLAIN" -> (
    let sid_w, rest = split_word rest in
    match parse_sid sid_w with
    | Error e -> Error e
    | Ok sid ->
      if rest = "" then Error "EXPLAIN expects: EXPLAIN <sid> <query text>"
      else Ok (Explain (sid, unescape rest)))
  | "CANCEL" -> (
    match int_of_string_opt rest with
    | Some jid -> Ok (Cancel jid)
    | None -> Error (Printf.sprintf "expected a job id, got %S" rest))
  | "TRACE" -> (
    match String.uppercase_ascii rest with
    | "" | "LAST" -> Ok (Trace None)
    | _ -> (
      match int_of_string_opt rest with
      | Some jid -> Ok (Trace (Some jid))
      | None -> Error (Printf.sprintf "expected a job id or LAST, got %S" rest)))
  | "STATS" -> Ok Stats
  | "DELTA" -> Ok Delta
  | "SLOWLOG" -> Ok Slowlog
  | "METRICS" -> (
    match String.uppercase_ascii rest with
    | "" | "PROM" -> Ok Metrics_prom
    | f -> Error (Printf.sprintf "unknown METRICS format %S (try PROM)" f))
  | "HEALTH" ->
    if rest = "" then Ok Health else Error "HEALTH takes no arguments"
  | "EVENTS" ->
    (* EVENTS [TAIL n] [LEVEL l], clauses in either order *)
    let rec clauses acc_tail acc_level rest =
      if rest = "" then Ok (Events (acc_tail, acc_level))
      else
        let kw, rest = split_word rest in
        let arg, rest = split_word rest in
        match (String.uppercase_ascii kw, arg) with
        | "TAIL", n -> (
          match int_of_string_opt n with
          | Some n when n > 0 -> clauses n acc_level rest
          | _ -> Error (Printf.sprintf "expected a positive tail length, got %S" n))
        | "LEVEL", l -> (
          let l = String.lowercase_ascii l in
          match Xqb_obs.Events.severity_of_string l with
          | Some _ -> clauses acc_tail (Some l) rest
          | None ->
            Error
              (Printf.sprintf
                 "unknown level %S (expected debug, info, warn, error or critical)"
                 l))
        | _ -> Error "EVENTS expects: EVENTS [TAIL n] [LEVEL l]"
    in
    clauses 50 None rest
  | "JOURNAL" -> (
    match String.uppercase_ascii rest with
    | "" | "STAT" -> Ok Journal_stat
    | f -> Error (Printf.sprintf "unknown JOURNAL subcommand %S (try STAT)" f))
  | "REPLICA" -> (
    match String.uppercase_ascii rest with
    | "" | "STAT" -> Ok Replica_stat
    | f -> Error (Printf.sprintf "unknown REPLICA subcommand %S (try STAT)" f))
  | "CHECKPOINT" ->
    if rest = "" then Ok Checkpoint
    else Error "CHECKPOINT takes no arguments"
  | "SHIP" -> (
    let from_w, rest = split_word rest in
    let max_w, id_w = split_word rest in
    let id = if id_w = "" then None else Some id_w in
    match (int_of_string_opt from_w, max_w) with
    | Some from, "" -> Ok (Ship (from, 512, id))
    | Some from, m -> (
      match int_of_string_opt m with
      | Some max when max > 0 -> Ok (Ship (from, max, id))
      | _ -> Error (Printf.sprintf "expected a frame count, got %S" m))
    | None, _ -> Error "SHIP expects: SHIP <from_lsn> [<max>] [<replica id>]")
  | "SNAPSHOT" ->
    if rest = "" then Ok Snapshot else Error "SNAPSHOT takes no arguments"
  | "PROFILE" -> (
    match String.uppercase_ascii rest with
    | "START" -> Ok (Profile `Start)
    | "STOP" -> Ok (Profile `Stop)
    | "DUMP" -> Ok (Profile `Dump)
    | "DUMP JSON" -> Ok (Profile `Dump_json)
    | "" | "STAT" -> Ok (Profile `Stat)
    | f ->
      Error
        (Printf.sprintf
           "unknown PROFILE subcommand %S (try START, STOP, DUMP, DUMP JSON or STAT)"
           f))
  | "QUIT" -> Ok Quit
  | "" -> Error "empty request"
  | kw -> Error (Printf.sprintf "unknown request %S" kw)
