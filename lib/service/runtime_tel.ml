(* Runtime telemetry: the process-global continuous profiler (the
   rate wire PROFILE START uses, and whether this service armed it at
   boot), GC telemetry (a refcount on the process-wide Runtime_events
   consumer, held while telemetry is on) and process identity. *)

module Events = Xqb_obs.Events
module Prom = Xqb_obs.Prom
module Profile = Xqb_obs.Profile
module Gc_tel = Xqb_obs.Gc_tel
module Procstat = Xqb_obs.Procstat

type t = {
  hz : int;  (* PROFILE START's rate (serve --profile-hz, default 97) *)
  owned : bool;  (* boot armed the profiler, so shutdown disarms it *)
  gc : bool;  (* this service holds a Gc_tel refcount *)
  boot_ns : int;  (* monotonic boot instant: uptime *)
  events : Events.t;
}

(* --profile-hz arms the continuous profiler at boot; a service
   created without it still honors wire PROFILE START. *)
let create ?profile_hz ~gc events =
  if gc then Gc_tel.start ();
  Option.iter
    (fun hz ->
      Profile.configure ~hz;
      ignore (Profile.start ~hz ()))
    profile_hz;
  {
    hz = Option.value profile_hz ~default:97;
    owned = profile_hz <> None;
    gc;
    boot_ns = Xqb_obs.Clock.now_ns ();
    events;
  }

let gc_on t = t.gc && Gc_tel.enabled ()

let profile_command t (cmd : [ `Start | `Stop | `Dump | `Dump_json | `Stat ]) =
  match cmd with
  | `Start ->
    if Profile.start ~hz:t.hz () then begin
      Events.info t.events ~kind:"profile.start" [ ("hz", Events.I t.hz) ];
      Printf.sprintf "started at %d Hz" t.hz
    end
    else Printf.sprintf "already running at %d Hz" (Profile.hz ())
  | `Stop ->
    if Profile.stop () then begin
      Events.info t.events ~kind:"profile.stop"
        [ ("samples", Events.I (Profile.samples ())) ];
      "stopped"
    end
    else "not running"
  | `Dump -> Profile.dump_folded ()
  | `Dump_json -> Profile.dump_json ()
  | `Stat -> Profile.stat_json ()

let inject_gc_pause t ms = if t.gc then Gc_tel.inject_pause ~ns:(ms * 1_000_000)
let clear_gc_pause_injection t = if t.gc then Gc_tel.clear_injected ()

let build_version = "1.0.0"

(* Build info plus the three gauges every dashboard wants first
   (memory, descriptors, uptime). *)
let process_json t =
  Printf.sprintf
    "{\"pid\":%d,\"rss_bytes\":%d,\"open_fds\":%d,\"uptime_s\":%.1f,\"version\":\"%s\",\"ocaml\":\"%s\"}"
    (Unix.getpid ()) (Procstat.rss_bytes ()) (Procstat.fd_count ())
    (Xqb_obs.Clock.secs_since t.boot_ns)
    build_version Sys.ocaml_version

let gc_json t = if gc_on t then Some (Gc_tel.stats_json ()) else None

let to_prom t p =
  Prom.gauge p ~help:"Build metadata; the value is always 1."
    ~labels:[ ("version", build_version); ("ocaml_version", Sys.ocaml_version) ]
    "xqbang_build_info" 1.;
  Prom.gauge_i p ~help:"Resident set size in bytes."
    "xqbang_process_resident_memory_bytes" (Procstat.rss_bytes ());
  Prom.gauge_i p ~help:"Open file descriptors." "xqbang_process_open_fds"
    (Procstat.fd_count ());
  Prom.gauge p ~help:"Seconds since service boot." "xqbang_process_uptime_seconds"
    (Xqb_obs.Clock.secs_since t.boot_ns);
  Prom.gauge_i p ~help:"Continuous profiler state: 1 = sampling, 0 = stopped."
    "xqbang_profile_running"
    (if Profile.running () then 1 else 0);
  Prom.gauge_i p ~help:"Profiler sampling rate (Hz)." "xqbang_profile_hz"
    (Profile.hz ());
  Prom.counter p ~help:"Profiler samples aggregated since start/reset."
    "xqbang_profile_samples_total" (Profile.samples ());
  Prom.counter p
    ~help:"Profiler samples dropped (handler lock contention or table cap)."
    "xqbang_profile_dropped_total" (Profile.dropped ());
  if gc_on t then Gc_tel.to_prom p

(* Disarm the profiler this boot armed (a wire PROFILE START on an
   unowned service outlives it deliberately — the profiler is
   process-global) and release the GC-telemetry refcount. *)
let stop t =
  if t.owned then ignore (Profile.stop ());
  if t.gc then Gc_tel.stop ()
