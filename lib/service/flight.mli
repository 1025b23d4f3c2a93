(** The crash flight recorder: the boot half finds an unclean prior
    shutdown in the events sink, the live half dumps the running
    service on SIGTERM or an exit that skipped shutdown. *)

(** The per-event-flushed events sink under a data directory. *)
val sink_path : string -> string

(** Consume the previous run's events sink under [dir]. When it does
    not end in [lifecycle.shutdown], splice its intact tail and the
    recovery summary into a [flight-<ms>-<pid>.json] dump and return
    the dump's path. *)
val detect_unclean_shutdown :
  dir:string -> Xqb_wal.Durable.recovered option -> string option

(** A live dump: [reason], the wall clock, the [(key, JSON value)]
    state fields in order, then the event tail. *)
val live_json :
  reason:string -> Xqb_obs.Events.t -> (string * string) list -> string

(** Write [content] as [flight-<ms>-<pid>.json] under [dir]; [None]
    when the file cannot be written. *)
val write : dir:string -> string -> string option

(** An [at_exit] guard and a SIGTERM handler (which wakes a dedicated
    thread that dumps and exits 143), each calling [dump reason] at
    most once overall, and never once [stopping ()] holds. *)
val install_crash_hooks : stopping:(unit -> bool) -> (string -> unit) -> unit
