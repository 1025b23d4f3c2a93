(* Service health: the reason vocabulary every seam reports in, the
   checks no seam owns (queue depth against the admission watermark,
   SLO burn, GC pause, apply / queue stalls) and the monitor thread.

   A reason is machine-readable (code + level + data fields), and the
   overall status is the worst level present. The wire HEALTH verb,
   the monitor thread's transition events and the xqbang_health_status
   gauge all read the one list the service assembles from its seams. *)

module Events = Xqb_obs.Events
module Window = Xqb_obs.Window

type level = [ `Degraded | `Critical ]
type reason = string * level * (string * Events.field) list

type t = {
  stall_ns : int;  (* no-progress bound: apply held / queue age *)
  gc_pause_warn_ns : int option;  (* [None]: GC telemetry is off *)
  stop : bool Atomic.t;
  mutable monitor : Thread.t option;
}

let create ~stall_ns ~gc_pause_warn_ns =
  { stall_ns; gc_pause_warn_ns; stop = Atomic.make false; monitor = None }

(* [`Critical] at or past 4 × [warn], [`Degraded] at or past [warn];
   nothing when [warn] is 0 (the check is off). *)
let graded code ~warn v data : reason list =
  if warn > 0 && v >= 4 * warn then [ (code, `Critical, data) ]
  else if warn > 0 && v >= warn then [ (code, `Degraded, data) ]
  else []

(* Minimum samples before a window's burn rate is trusted: a single
   failed request on an idle service must not flap health. *)
let burn_min_count = 5

(* Burn-rate factor separating "degraded" (>= 1: consuming budget
   faster than sustainable) from "critical" (>= 4: the classic
   fast-burn page threshold). *)
let burn_critical = 4.

let reasons h ~sched ~metrics =
  let reasons = ref [] in
  let add code level data = reasons := (code, level, data) :: !reasons in
  (* queue depth against the admission watermark *)
  let depth = Scheduler.queue_depth sched in
  let deg_q, crit_q =
    match Scheduler.max_queue sched with
    | Some m -> ((m + 1) / 2, Stdlib.max 1 (m * 9 / 10))
    | None -> (128, 1024)
  in
  if depth >= crit_q then
    add "queue-depth" `Critical
      [ ("depth", Events.I depth); ("critical_at", Events.I crit_q) ]
  else if depth >= deg_q then
    add "queue-depth" `Degraded
      [ ("depth", Events.I depth); ("degraded_at", Events.I deg_q) ];
  (* SLO burn over the 10s window (1s is too twitchy for alerting,
     60s too slow to notice an incident starting) *)
  let _, slo_err_pct = Metrics.slo metrics in
  List.iter
    (fun (name, (s : Window.snap)) ->
      if name = "10s" && s.Window.count >= burn_min_count then begin
        let avail =
          Window.burn ~frac:s.Window.err_frac ~budget_frac:(slo_err_pct /. 100.)
        in
        let lat = Window.burn ~frac:s.Window.slow_frac ~budget_frac:0.01 in
        let burn code frac burn_rate =
          if burn_rate >= burn_critical then
            add code `Critical
              [ ("burn_rate", Events.F burn_rate); ("frac", Events.F frac) ]
          else if burn_rate >= 1. then
            add code `Degraded
              [ ("burn_rate", Events.F burn_rate); ("frac", Events.F frac) ]
        in
        burn "error-burn" s.Window.err_frac avail;
        burn "latency-burn" s.Window.slow_frac lat
      end)
    (Metrics.window_snaps metrics);
  (* GC: a p99 pause over the 10s window past --gc-pause-warn-ms
     degrades (the latency SLO is being eaten by the collector);
     4x past it is the classic fast-burn page threshold. *)
  (match h.gc_pause_warn_ns with
  | Some warn when Xqb_obs.Gc_tel.enabled () ->
    let p99 = Xqb_obs.Gc_tel.pause_p99_10s_ns () in
    List.iter
      (fun (code, level, data) -> add code level data)
      (graded "gc-pause" ~warn (int_of_float p99)
         [
           ("p99_ms", Events.F (p99 /. 1e6));
           ("warn_ms", Events.F (float_of_int warn /. 1e6));
         ])
  | _ -> ());
  (* no-progress: apply mutex held too long / queue head not started *)
  let held = Scheduler.apply_held_ns sched in
  if held > h.stall_ns then
    add "apply-stall" `Critical
      [ ("held_ms", Events.F (float_of_int held /. 1e6)) ];
  let age = Scheduler.oldest_queued_age_ns sched in
  if age > h.stall_ns then
    add "queue-stall" `Critical
      [ ("oldest_queued_ms", Events.F (float_of_int age /. 1e6)) ];
  List.rev !reasons

let level (reasons : reason list) =
  if List.exists (fun (_, l, _) -> l = `Critical) reasons then `Critical
  else if reasons <> [] then `Degraded
  else `Ok

let level_string = function
  | `Ok -> "ok"
  | `Degraded -> "degraded"
  | `Critical -> "critical"

let status reasons = level_string (level reasons)

(* xqbang_health_status: 0 = ok, 1 = degraded, 2 = critical. *)
let gauge reasons =
  match level reasons with `Ok -> 0 | `Degraded -> 1 | `Critical -> 2

let field_json = function
  | Events.S s -> Printf.sprintf "\"%s\"" (Xqb_obs.Json.escape s)
  | Events.I i -> string_of_int i
  | Events.F f ->
    if Float.is_finite f then Printf.sprintf "%g" f
    else Printf.sprintf "\"%g\"" f
  | Events.B b -> string_of_bool b

let json reasons =
  let reason_json (code, level, data) =
    "{"
    ^ String.concat ","
        (Printf.sprintf "\"code\":\"%s\"" code
         :: Printf.sprintf "\"level\":\"%s\"" (level_string (level :> [ `Ok | level ]))
         :: List.map
              (fun (k, v) ->
                Printf.sprintf "\"%s\":%s" (Xqb_obs.Json.escape k) (field_json v))
              data)
    ^ "}"
  in
  Printf.sprintf "{\"status\":\"%s\",\"reasons\":[%s]}" (status reasons)
    (String.concat "," (List.map reason_json reasons))

(* The monitor thread: poll [reasons], emitting an event on each
   stall's rising edge (reason "x-stall" raises "stall.x") and on each
   status transition (the continuous values are already visible as
   gauges; events capture the changes). *)
let monitor_loop h events reasons () =
  let prev_health = ref "ok" and prev_stalls = ref [] in
  while not (Atomic.get h.stop) do
    (* 250ms tick: 4x finer than the 1s stall bound it polices, and
       coarse enough that polling (3 window snapshots + WAL probes)
       stays invisible in the request path even on one core *)
    Thread.delay 0.25;
    if not (Atomic.get h.stop) then begin
      (* drain the queued Debug sink backlog off the commit hot path *)
      Events.pump events;
      let reasons : reason list = reasons () in
      let stalls =
        List.filter (fun (code, _, _) -> String.ends_with ~suffix:"-stall" code) reasons
      in
      List.iter
        (fun (code, _, data) ->
          if not (List.mem code !prev_stalls) then
            Events.critical events
              ~kind:("stall." ^ String.sub code 0 (String.length code - 6))
              data)
        stalls;
      prev_stalls := List.map (fun (code, _, _) -> code) stalls;
      let status = status reasons in
      if status <> !prev_health then begin
        let log =
          match level reasons with
          | `Ok -> Events.info
          | `Degraded -> Events.warn
          | `Critical -> Events.error
        in
        log events ~kind:"health.state"
          ([ ("from", Events.S !prev_health); ("to", Events.S status) ]
          @ List.map (fun (code, _, _) -> ("reason", Events.S code)) reasons);
        prev_health := status
      end
    end
  done

let start_monitor h events reasons =
  h.monitor <- Some (Thread.create (monitor_loop h events reasons) ())

let stop_monitor h =
  Atomic.set h.stop true;
  Option.iter Thread.join h.monitor;
  h.monitor <- None
