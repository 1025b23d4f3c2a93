(* The crash flight recorder, both halves.

   Boot half. The events sink is flushed per event, so its tail
   survives any crash the page cache survives (SIGKILL included — no
   handler gets to run, but the already-flushed lines are in the
   file). On the next durable boot, an events.jsonl whose last record
   is not lifecycle.shutdown means the previous process died unclean:
   its events are spliced verbatim into flight-<ts>.json next to what
   recovery just reconstructed, giving the post-mortem both "what the
   service was doing" and "what the disk still had". The sink is
   consumed either way so each run's log starts fresh.

   Live half. A dump of "what the service is doing right now": the
   event tail plus the state fields the service passes in. Written on
   SIGTERM and from the [at_exit] guard when the process exits without
   a clean shutdown — the SIGKILL case is the boot half's. *)

module Events = Xqb_obs.Events
module Json = Xqb_obs.Json
module Durable = Xqb_wal.Durable

let splice_cap = 512
let sink_path dir = Filename.concat dir "events.jsonl"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

(* Debug sink lines are buffered (see Events), so a SIGKILL can tear
   the file mid-line; splicing a torn line into flight-<ts>.json would
   make the whole dump unparseable. An intact line is one full event
   object: starts with '{', ends with '}'. *)
let intact_line l =
  let n = String.length l in
  n >= 2 && l.[0] = '{' && l.[n - 1] = '}'

(* Write one flight dump into [dir] as flight-<wall ms>-<pid>.json —
   ms + pid so rapid restarts never overwrite a prior dump. The path,
   or [None] when the file cannot be written. *)
let write ~dir content =
  let path =
    Filename.concat dir
      (Printf.sprintf "flight-%d-%d.json"
         (int_of_float (Unix.gettimeofday () *. 1000.))
         (Unix.getpid ()))
  in
  match Out_channel.with_open_text path (fun oc -> output_string oc (content ^ "\n")) with
  | () -> Some path
  | exception Sys_error _ -> None

let is_shutdown line =
  match Json.parse line with
  | Ok v ->
    Option.bind (Json.member "kind" v) Json.to_string_opt
    = Some "lifecycle.shutdown"
  | Error _ -> false

let detect_unclean_shutdown ~dir (recovered : Durable.recovered option) =
  let path = sink_path dir in
  if not (Sys.file_exists path) then None
  else begin
    let lines =
      List.filter intact_line (try read_lines path with Sys_error _ -> [])
    in
    let clean =
      match List.rev lines with [] -> true | last :: _ -> is_shutdown last
    in
    (try Sys.remove path with Sys_error _ -> ());
    if clean then None
    else begin
      let wall = Unix.gettimeofday () in
      let dropped = Stdlib.max 0 (List.length lines - splice_cap) in
      let kept = List.filteri (fun i _ -> i >= dropped) lines in
      let recovery_json =
        match recovered with
        | None -> "null"
        | Some r ->
          Printf.sprintf
            "{\"lsn\":%d,\"snapshot_lsn\":%d,\"wal_frames\":%d,\"truncated_bytes\":%d}"
            r.Durable.lsn r.Durable.snapshot_lsn r.Durable.wal_frames
            r.Durable.truncated_bytes
      in
      write ~dir
        (Printf.sprintf
           "{\"reason\":\"unclean-shutdown\",\"detected_wall_s\":%.3f,\"events_dropped\":%d,\"recovery\":%s,\"events\":[%s]}"
           wall dropped recovery_json (String.concat "," kept))
    end
  end

let live_json ~reason events fields =
  Printf.sprintf "{\"reason\":\"%s\",\"wall_s\":%.3f,%s,\"events\":%s}"
    (Json.escape reason) (Unix.gettimeofday ())
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) fields))
    (Events.events_json (Events.tail events splice_cap))

(* The [at_exit] guard fires on any exit path that skipped the clean
   shutdown — including an uncaught exception unwinding main. The
   SIGTERM handler runs on whichever thread the signal lands on, which
   may hold a mutex the dump needs, so it only wakes a dedicated thread
   (one byte down a pipe); that thread writes the dump and exits 143. *)
let install_crash_hooks ~stopping dump =
  let dumped = Atomic.make false in
  let dump reason =
    if (not (stopping ())) && not (Atomic.exchange dumped true) then dump reason
  in
  at_exit (fun () -> dump "exit-without-shutdown");
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let rec sleep () =
    try ignore (Unix.read wake_r (Bytes.create 1) 0 1)
    with Unix.Unix_error (Unix.EINTR, _, _) -> sleep ()
  in
  ignore
    (Thread.create
       (fun () ->
         sleep ();
         dump "sigterm";
         exit 143)
       ());
  try
    ignore
      (Sys.signal Sys.sigterm
         (Sys.Signal_handle
            (fun _ -> ignore (Unix.single_write_substring wake_w "t" 0 1))))
  with Invalid_argument _ | Sys_error _ -> ()
