(* Effect observability: per-job ∆ statistics (wire DELTA) and the
   slow-effect log — write-side jobs whose snap-apply stage reached
   [slow_ns] leave a ∆ summary, their stage split and trace id in a
   bounded ring (wire SLOWLOG) — plus the per-job GC / profiler
   attribution both SLOWLOG and EXPLAIN ANALYZE report. *)

module Events = Xqb_obs.Events
module Stage = Xqb_obs.Stage
module Json = Xqb_obs.Json
module Update = Core.Update

type entry = {
  jid : int;
  sid : int;
  src : string;
  stages : int array;  (* the job's Stage.finish split *)
  snaps : int;
  requests : int;
  trace : string option;
  gc_ns : int;  (* GC pause observed during the job (poll-lagged) *)
  samples : (string * int) list;  (* profiler samples by phase *)
}

type t = {
  slow_ns : int;
  gc : bool;  (* GC telemetry on: EXPLAIN ANALYZE reports the pause *)
  events : Events.t;
  m : Mutex.t;
  mutable slowlog : entry list;  (* newest first, bounded *)
  mutable last_delta : string option;  (* rendered ∆-stats JSON *)
}

let cap = 64

let create ~slow_ns ~gc events =
  { slow_ns; gc; events; m = Mutex.create (); slowlog = []; last_delta = None }

(* Rendered ∆-statistics JSON for one write-side job: requests by
   kind, snap-depth histogram, conflicts checked, apply-phase wall
   time. This is the wire DELTA payload. *)
let delta_stats_json ~jid ~apply_ns (st : Update.stats) =
  Printf.sprintf
    "{\"jid\":%d,\"snaps\":%d,\"requests\":{\"insert\":%d,\"delete\":%d,\"rename\":%d,\"set_value\":%d},\"total_requests\":%d,\"conflicts_checked\":%d,\"max_snap_depth\":%d,\"snap_depth_hist\":[%s],\"apply_ns\":%d}"
    jid st.Update.snaps st.Update.inserts st.Update.deletes st.Update.renames
    st.Update.set_values (Update.stats_requests st) st.Update.conflicts_checked
    st.Update.max_snap_depth
    (String.concat "," (Array.to_list (Array.map string_of_int st.Update.depth_hist)))
    apply_ns

(* Per-job attribution bracket: GC pause delta (poll-lagged; short
   jobs read 0) and profiler samples by phase, captured around the
   job body. *)
type attribution = int * (string * int) list option

let attribution_begin () : attribution =
  ( Xqb_obs.Gc_tel.total_pause_ns (),
    if Xqb_obs.Profile.running () then Some (Xqb_obs.Profile.phase_counts ())
    else None )

let attribution_end ((gc0, ph0) : attribution) =
  ( Stdlib.max 0 (Xqb_obs.Gc_tel.total_pause_ns () - gc0),
    match ph0 with
    | Some before ->
      Xqb_obs.Profile.diff_counts before (Xqb_obs.Profile.phase_counts ())
    | None -> [] )

(* EXPLAIN ANALYZE footer lines (after the Runner's own ddo/footprint
   footers): per-phase sample counts while the profiler runs, and the
   job's GC pause delta while telemetry is on. *)
let attribution_suffix t att =
  let gc_ns, samples = attribution_end att in
  let buf = Buffer.create 64 in
  if Xqb_obs.Profile.running () then begin
    Buffer.add_string buf "\n-- profile samples:";
    (match samples with
    | [] -> Buffer.add_string buf " none"
    | l ->
      List.iter
        (fun (k, n) -> Buffer.add_string buf (Printf.sprintf " %s=%d" k n))
        l);
    Buffer.add_string buf (Printf.sprintf " (%d Hz)" (Xqb_obs.Profile.hz ()))
  end;
  if t.gc && Xqb_obs.Gc_tel.enabled () then
    Buffer.add_string buf
      (Printf.sprintf "\n-- gc: pause_ms=%.2f" (float_of_int gc_ns /. 1e6));
  Buffer.contents buf

(* Called right after a write-side job's session work (session lock
   held): snapshot its ∆ statistics for the wire DELTA command, and
   return its slow-effect entry, which [note_slow] completes with the
   stage split once the job has finished. *)
let note_effects t ~jid ~sid ~src ~trace ~att ctx =
  let st = ctx.Core.Context.delta_stats in
  let json = delta_stats_json ~jid ~apply_ns:ctx.Core.Context.apply_ns st in
  Mutex.protect t.m (fun () -> t.last_delta <- Some json);
  let gc_ns, samples = attribution_end att in
  {
    jid;
    sid;
    src;
    stages = [||];
    snaps = st.Update.snaps;
    requests = Update.stats_requests st;
    trace;
    gc_ns;
    samples;
  }

let snap_apply_ns stages = stages.(Stage.index Stage.Snap_apply)

(* Ring-buffer a finished job's slow-effect entry when its snap-apply
   stage crossed the threshold. *)
let note_slow t stages e =
  let apply_ns = snap_apply_ns stages in
  if e.snaps > 0 && apply_ns >= t.slow_ns then begin
    let e = { e with stages } in
    Mutex.protect t.m (fun () ->
        t.slowlog <- e :: List.filteri (fun i _ -> i < cap - 1) t.slowlog);
    Events.warn t.events ~kind:"query.slow"
      [
        ("jid", Events.I e.jid);
        ("apply_ms", Events.F (float_of_int apply_ns /. 1e6));
        ("snaps", Events.I e.snaps);
      ]
  end

let delta_json t = Mutex.protect t.m (fun () -> t.last_delta)

let slowlog_json t =
  let entries = Mutex.protect t.m (fun () -> t.slowlog) in
  let pairs l =
    String.concat ","
      (List.map (fun (k, n) -> Printf.sprintf "\"%s\":%d" (Json.escape k) n) l)
  in
  "["
  ^ String.concat ","
      (List.map
         (fun e ->
           Printf.sprintf
             "{\"jid\":%d,\"sid\":%d,\"apply_ns\":%d,\"latency_ns\":%d,\"stages_ns\":{%s},\"snaps\":%d,\"requests\":%d,\"gc_pause_ns\":%d,\"profile_samples\":{%s},\"trace\":%s,\"src\":\"%s\"}"
             e.jid e.sid (snap_apply_ns e.stages)
             (Array.fold_left ( + ) 0 e.stages)
             (pairs
                (List.map (fun st -> (Stage.name st, e.stages.(Stage.index st))) Stage.all))
             e.snaps e.requests e.gc_ns (pairs e.samples)
             (match e.trace with
             | Some id -> Printf.sprintf "\"%s\"" (Json.escape id)
             | None -> "null")
             (Json.escape e.src))
         entries)
  ^ "]"

let length t = Mutex.protect t.m (fun () -> List.length t.slowlog)
