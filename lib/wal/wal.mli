(** The on-disk write-ahead log: an append-only file of {!Codec}
    frames with a group-commit writer and a configurable fsync
    policy, plus an in-memory mirror of the tail (everything since
    the last checkpoint) for journal shipping.

    Thread-safe. LSNs are assigned at append, strictly increasing,
    and survive checkpoint truncation and restarts. *)

type fsync_policy =
  | Always  (** fsync before every commit acknowledgment (group commit) *)
  | Interval_ms of int  (** background fsync every N ms *)
  | Never

val fsync_policy_of_string : string -> (fsync_policy, string) result
val fsync_policy_to_string : fsync_policy -> string

type t

(** Open (creating if needed) [dir/wal.log]. [next_lsn] is the first
    LSN to assign — recovery passes [last recovered LSN + 1].
    [tail] seeds the in-memory shipping mirror with the recovered
    frames ([lsn, frame bytes], oldest first). *)
val openw :
  dir:string ->
  policy:fsync_policy ->
  next_lsn:int ->
  tail:(int * string) list ->
  unit ->
  t

(** Append one frame per record and, under [Always], block until the
    batch is durable (group commit: concurrent committers share one
    fsync). Returns the last assigned LSN. *)
val commit : t -> Codec.record list -> int

(** The two halves of {!commit}, for callers that must append inside
    a critical section but wait for durability outside it (the
    service's serialized apply + group-commit fsync): [append] writes
    the frames and returns the last LSN without syncing; [wait_durable]
    blocks until that LSN is durable under [Always] (no-op for the
    other policies, which accept a loss window by configuration). It
    waits as one of {!await_durable}'s group: when the group's fsync
    fails it raises that error, with no fsync of its own. *)
val append : t -> Codec.record list -> int

val wait_durable : t -> int -> unit

(** The pipelined form of {!wait_durable}: call [k (Ok ())] once [lsn]
    is durable under [Always] (at once under the other policies). When
    it already is, [k] runs in the caller; when no fsync is in flight,
    the caller leads one (and every fsync after it that parked commits
    need) and then returns; when one is in flight, [k] is parked and
    the call returns at once — the in-flight leader runs [k] on its
    thread after the fsync that covers [lsn]. A failed fsync runs every
    parked [k] with [Error]. [commit] counts the acknowledgment in
    {!commit_count} (an append of the caller's own, not a read waiting
    for others' appends). *)
val await_durable :
  t -> int -> commit:bool -> ((unit, exn) result -> unit) -> unit

(** Force an fsync of everything appended so far (any policy);
    completes the parked commits it covers, as does
    {!truncate_after_checkpoint}. *)
val sync : t -> unit

(** Highest assigned LSN (0 before the first append). *)
val last_lsn : t -> int

(** First LSN present in the in-memory tail; ship requests below it
    need a snapshot bootstrap. *)
val tail_start : t -> int

(** Frames with [lsn >= from_lsn], at most [max], as raw frame bytes
    plus the last LSN a replica may hold: under [Always] the last
    durable one (frames past it are not shipped), else the last
    assigned one. [Error `Too_old] when [from_lsn] falls before the
    tail (truncated by a checkpoint). *)
val ship :
  t -> from_lsn:int -> max:int -> (int * string list, [ `Too_old ]) result

(** Truncate the log to empty after a durable checkpoint covering
    everything up to the current last LSN; clears the tail mirror.
    LSNs keep increasing. *)
val truncate_after_checkpoint : t -> unit

(** {1 Durability counters (for METRICS)} *)

val bytes_appended : t -> int
val frames_appended : t -> int
val fsync_count : t -> int

(** Durable commit acknowledgments: {!commit}s, {!wait_durable}s and
    [~commit:true] {!await_durable}s that completed. *)
val commit_count : t -> int

(** Nanosecond fsync latencies. Synchronize via {!with_stats_lock}
    when reading percentiles concurrently with commits. *)
val fsync_hist : t -> Xqb_obs.Hist.t

val with_stats_lock : t -> (unit -> 'a) -> 'a

(** How long the in-flight fsync(2) has been running (monotonic ns);
    0 when none — the stall watchdog's "group commit stuck" signal.
    Read without locking; stale by at most a poll period. *)
val fsync_in_progress_ns : t -> int

(** 99th-percentile fsync latency in ns (0 before the first fsync). *)
val fsync_p99_ns : t -> float

(** Fault injection for tests: sleep [secs] inside every subsequent
    fsync, simulating a stalled device. 0 restores normal service. *)
val inject_fsync_delay : t -> float -> unit

(** Fault injection for tests: while on, every fsync fails with EIO. *)
val inject_fsync_error : t -> bool -> unit

(** Final fsync (unless [Never]), stop the interval thread, close. *)
val close : t -> unit
