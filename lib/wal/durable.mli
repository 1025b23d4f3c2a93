(** The durable store manager: checkpointed snapshots + WAL tail.

    Disk layout under [dir]:
    - [wal.log] — {!Codec} frames since the last checkpoint;
    - [snap-<lsn>.snap] — checkpoint snapshots (the two most recent
      are kept; older ones are deleted after a successful checkpoint).

    Recovery loads the latest snapshot that validates (CRC + store
    digest — a digest mismatch refuses to boot), then replays the WAL
    tail: frames at or below the snapshot LSN are skipped, a torn or
    corrupt final frame is truncated away, a trailing half-written
    transaction span (never acknowledged) is dropped, and aborted
    spans replay through the same rollback machinery the original
    used.

    Threading: {!append_entries}, {!commit_entries}, {!commit_doc},
    {!checkpoint} and {!maybe_checkpoint} must be called with the
    service's write lock held (single writer); the durability waits,
    {!ship} and {!stats_json} are safe from any thread. *)

type config = {
  dir : string;
  fsync : Wal.fsync_policy;
  checkpoint_bytes : int;  (** snapshot once the WAL grows past this; 0 = never *)
  checkpoint_secs : float;  (** or once this much time has passed; 0. = never *)
}

val default_config : dir:string -> config

type t

type recovered = {
  store : Xqb_store.Store.t;
  docs : (string * int * int) list;  (** catalog registrations: uri, root, bytes *)
  lsn : int;  (** last applied LSN *)
  snapshot_lsn : int;  (** 0 when booting without a snapshot *)
  wal_frames : int;  (** frames replayed from the WAL tail *)
  truncated_bytes : int;  (** torn/incomplete tail dropped from the WAL *)
}

(** Recover (or initialize) the durable state under [cfg.dir],
    creating the directory if needed, and open the WAL for appending.
    @raise Failure with a one-line message on an unusable directory;
    @raise Codec.Corrupt when no snapshot validates. *)
val recover : config -> t * recovered

(** Append journal entries as WAL frames and, under the [Always]
    policy, block until durable — the commit acknowledgment barrier.
    Returns the last LSN. *)
val commit_entries : t -> Xqb_store.Store.mj_entry list -> int

(** The two halves of {!commit_entries}, for the footprint
    scheduler's serialized-apply path: [append_entries] appends the
    frames (call it inside the apply mutex, so WAL order matches
    apply order) without waiting; [wait_durable] blocks until the
    returned LSN is durable under [Always] — call it outside the
    mutex so concurrent writers share one group-commit fsync. *)
val append_entries : t -> Xqb_store.Store.mj_entry list -> int

val wait_durable : t -> int -> unit

(** {!Wal.await_durable} on the underlying log: the pipelined
    durability wait of the concurrent-writer path, where a commit that
    finds an fsync in flight parks instead of blocking its thread. *)
val await_durable :
  t -> int -> commit:bool -> ((unit, exn) result -> unit) -> unit

(** Persist a catalog registration: append it after the document's
    node allocations ({!append_entries}) and, under [Always], block
    until it — and so every frame appended before it — is durable. *)
val commit_doc : t -> uri:string -> root:int -> bytes:int -> unit

(** Write a snapshot of [store]'s current state covering every LSN
    appended so far, fsync it, truncate the WAL, and delete old
    snapshots. Returns the checkpoint LSN. Write lock held;
    the store must be quiescent. *)
val checkpoint :
  t -> docs:(string * int * int) list -> Xqb_store.Store.t -> int

(** {!checkpoint} if the size/time thresholds are crossed and there
    is anything to checkpoint. Returns the LSN when one ran. *)
val maybe_checkpoint :
  t -> docs:(string * int * int) list -> Xqb_store.Store.t -> int option

(** Frames for a replica: [(current last LSN, raw frame bytes)].
    [Error `Too_old] when [from_lsn] predates the last checkpoint —
    the replica must re-bootstrap from {!snapshot_blob}. *)
val ship :
  t -> from_lsn:int -> max:int -> (int * string list, [ `Too_old ]) result

(** Serialized snapshot of the current state for replica bootstrap
    (not written to disk), with the LSN it covers. Write lock held;
    the caller hands the blob out only once that LSN is durable. *)
val snapshot_blob :
  t -> docs:(string * int * int) list -> Xqb_store.Store.t -> int * string

val last_lsn : t -> int
val config : t -> config

(** Durability gauges as a JSON object (the STATS ["durable"]
    member). *)
val stats_json : t -> string

(** Append the durability gauges to the service's shared
    {!Xqb_obs.Prom} page (WAL counters, fsync latency summary and
    in-progress gauge, checkpoint gauges). *)
val stats_prom : t -> Xqb_obs.Prom.t -> unit

(** {!Wal.fsync_in_progress_ns} / {!Wal.fsync_p99_ns} /
    {!Wal.inject_fsync_delay} on the underlying log (stall watchdog
    + health checks + fault injection for tests). *)
val fsync_in_progress_ns : t -> int

val fsync_p99_ns : t -> float
val inject_fsync_delay : t -> float -> unit

(** {!Wal.inject_fsync_error}: while on, every fsync fails with EIO. *)
val inject_fsync_error : t -> bool -> unit

(** Final fsync and close. *)
val close : t -> unit
