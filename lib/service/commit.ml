(* The leader-side commit path: the WAL cursor, the checkpoints that
   reset it, the CHECKPOINT / SHIP / SNAPSHOT verbs and the per-replica
   peer table SHIP feeds. Without durability every write is a no-op
   here and the verbs answer with an error.

   [wal_seq] is the journal seq of the first in-memory entry not yet
   appended to the WAL. It is only touched under the scheduler's apply
   mutex or a ⊤ footprint (loads, checkpoints, exclusive jobs — which
   exclude every concurrent apply), so it needs no mutex of its own.
   [pm] guards the peer table. *)

module Durable = Xqb_wal.Durable
module Events = Xqb_obs.Events
module Stage = Xqb_obs.Stage
module Prom = Xqb_obs.Prom
module Clock = Xqb_obs.Clock
module FP = Core.Static.Footprint

(* One replica as the leader sees it: [acked] is the LSN the replica's
   last SHIP request acknowledged (from_lsn - 1 — it asks for what it
   does not have), [shipped] the last LSN handed to it. *)
type peer = {
  mutable acked : int;
  mutable shipped : int;
  mutable last_seen : int;  (* monotonic ns, for staleness display *)
}

type t = {
  durable : Durable.t option;
  catalog : Catalog.t;
  sched : Scheduler.t;
  events : Events.t;
  stall_ns : int;  (* an fsync in flight this long is critical *)
  fsync_warn_ns : int;  (* fsync p99 above this degrades health *)
  lag_warn_frames : int;  (* peer lag above this degrades health *)
  mutable wal_seq : int;
  mutable commit_seq : int;  (* commits since boot — wal.commit event sampling *)
  pm : Mutex.t;
  peers : (string, peer) Hashtbl.t;  (* keyed on the id sent with SHIP *)
}

let create ?durable ~catalog ~sched ~events ~stall_ns ~fsync_warn_ns
    ~lag_warn_frames () =
  {
    durable;
    catalog;
    sched;
    events;
    stall_ns;
    fsync_warn_ns;
    lag_warn_frames;
    wal_seq = 0;
    commit_seq = 0;
    pm = Mutex.create ();
    peers = Hashtbl.create 4;
  }

let not_durable = Error "service is not durable (started without --data-dir)"
let last_lsn c = Option.map Durable.last_lsn c.durable

(* wal.commit events are emitted only after the durability barrier:
   the flight recorder's consistency check relies on every logged
   lsn being recoverable under fsync=always. At full load that is
   one Debug record per committed write — tens of thousands a second
   — so sample 1-in-32 (always the first after boot): the sampled
   lsns carry the same invariant, and the commits in between are
   visible as xqbang_wal_frames counters rather than events. The
   counter read/increment may race between concurrent writers; the
   worst case is an extra or a skipped sample. *)
let commit_event_mask = 31

let log_commit c lsn entries =
  let n = c.commit_seq in
  c.commit_seq <- n + 1;
  if n land commit_event_mask = 0 then
    Events.debug c.events ~kind:"wal.commit"
      [ ("lsn", Events.I lsn); ("entries", Events.I entries) ]

(* Append the journal tail since [wal_seq] to the WAL (the wal
   stage); returns the last LSN and the entry count, [None] when there
   was nothing to append. Caller excludes every concurrent apply: it
   holds the apply mutex or a ⊤ footprint, so [wal_seq] is stable.
   Nothing here waits for the fsync — a job's reply does, after the
   recovery-relevant order is already fixed by the append. *)
let wal_append ?job c d =
  Stage.with_ ~stage:Stage.Wal job "wal" @@ fun () ->
  let entries =
    Xqb_store.Store.journal_entries_from (Catalog.store c.catalog) c.wal_seq
  in
  if entries = [] then None
  else begin
    let n = List.length entries in
    c.wal_seq <- c.wal_seq + n;
    Some (Durable.append_entries d entries, n)
  end

(* Append the journal tail and add its last LSN and entry count to
   [appended]: the job's reply waits for that LSN's fsync. *)
let append_tail ?job c appended =
  Option.iter
    (fun d ->
      Option.iter
        (fun (lsn, n) -> appended := (lsn, snd !appended + n))
        (wal_append ?job c d))
    c.durable

(* Checkpoint — when due, or now when [forced] — then restart the
   journal: the snapshot covers all of it, so the in-memory list (and
   the seq counter feeding [wal_seq]) need not grow without bound.
   Caller holds a ⊤ footprint and has appended the tail. *)
let checkpoint ?(forced = false) c d =
  let docs = Catalog.roots c.catalog and store = Catalog.store c.catalog in
  let lsn =
    if forced then Some (Durable.checkpoint d ~docs store)
    else Durable.maybe_checkpoint d ~docs store
  in
  Option.iter
    (fun lsn ->
      Xqb_store.Store.journal_start store;
      c.wal_seq <- 0;
      Events.info c.events ~kind:"wal.checkpoint"
        (("lsn", Events.I lsn) :: (if forced then [ ("forced", Events.B true) ] else [])))
    lsn;
  lsn

let publish ?job c appended =
  append_tail ?job c appended;
  Option.iter (fun d -> ignore (checkpoint c d)) c.durable

let commit_load c ~uri ~root ~bytes =
  Option.iter
    (fun d ->
      ignore (wal_append c d);
      Durable.commit_doc d ~uri ~root ~bytes;
      ignore (checkpoint c d))
    c.durable

(* The concurrent-writer commit path, installed per-job as the
   context's [apply_wrap]: each top-level snap's ∆ applies under the
   scheduler's global apply mutex — journal transaction spans stay
   contiguous and WAL byte order equals apply order — with the WAL
   append in the same critical section. The apply runs under
   [Store.transactionally]: a conflict (§4.1 R1–R7) or any other
   apply-time failure rolls the span back before its entries reach the
   WAL. Evaluation needs no rollback — it never mutates the store
   (§3.3); its only traces are fresh node allocations, unreachable
   from any document.

   Nothing waits here for the fsync: the append's LSN (and entry
   count) accumulates in [appended], and the job's reply waits for it
   after the job has released its session and the gate
   ([await_reply]) — the WAL order already fixes the commit order.

   No checkpoint here: a checkpoint resets the in-memory journal,
   which would orphan the allocation entries of writers still
   mid-evaluation. Checkpoints run only under a ⊤ footprint (loads,
   exclusive jobs, CHECKPOINT), where nothing else is in flight. *)
let writer_apply_wrap c job appended apply =
  Scheduler.with_apply c.sched (fun () ->
      Xqb_store.Store.transactionally (Catalog.store c.catalog) apply;
      append_tail ?job c appended)

let await_reply c ~mark (lsn, entries) ~parked k =
  match c.durable with
  | Some d when Stdlib.max mark lsn > 0 ->
    parked ();
    Durable.await_durable d (Stdlib.max mark lsn) ~commit:(lsn > 0) (fun r ->
        (match r with Ok () when lsn > 0 -> log_commit c lsn entries | _ -> ());
        k r)
  | _ -> k (Ok ())

(* The snapshot is durable and covers the appended tail, so nothing
   here waits for the WAL's fsync. *)
let checkpoint_now c =
  match c.durable with
  | None -> not_durable
  | Some d ->
    Scheduler.with_footprint c.sched FP.top (fun () ->
        ignore (wal_append c d);
        Ok (Option.get (checkpoint ~forced:true c d)))

(* A [replica_id] (the optional third SHIP argument) updates the
   peer table: asking from [from_lsn] acknowledges everything below
   it. *)
let note_peer c id ~acked ~shipped =
  Mutex.protect c.pm (fun () ->
      let p =
        match Hashtbl.find_opt c.peers id with
        | Some p -> p
        | None ->
          let p = { acked = 0; shipped = 0; last_seen = 0 } in
          Hashtbl.replace c.peers id p;
          Events.info c.events ~kind:"replica.peer"
            [ ("id", Events.S id); ("from_lsn", Events.I (acked + 1)) ];
          p
      in
      p.acked <- Stdlib.max p.acked acked;
      p.shipped <- Stdlib.max p.shipped shipped;
      p.last_seen <- Clock.now_ns ())

let ship ?replica_id c ~from_lsn ~max =
  match c.durable with
  | None -> not_durable
  | Some d -> (
    match Durable.ship d ~from_lsn ~max with
    | Ok (last, frames) ->
      Option.iter
        (fun id -> note_peer c id ~acked:(Stdlib.max 0 (from_lsn - 1)) ~shipped:last)
        replica_id;
      Ok (last, String.concat "" frames)
    | Error `Too_old ->
      Error "too-old: frames before the last checkpoint are gone; re-bootstrap from SNAPSHOT")

(* The blob and its LSN are taken under ⊤; the blob is handed out only
   once that LSN is durable, so a replica never holds what the leader
   could lose. *)
let snapshot_blob c =
  match c.durable with
  | None -> not_durable
  | Some d -> (
    let lsn, blob =
      Scheduler.with_footprint c.sched FP.top (fun () ->
          ignore (wal_append c d);
          Durable.snapshot_blob d ~docs:(Catalog.roots c.catalog)
            (Catalog.store c.catalog))
    in
    match Durable.wait_durable d lsn with
    | () -> Ok (lsn, blob)
    | exception e -> Error (Service_error.classify e).Service_error.message)

(* The WAL head and one locked snapshot of the peer table, each peer
   with its lag behind that head: every peer view (HEALTH, REPLICA
   STAT, METRICS PROM) reads its lag from here. *)
let peer_rows c =
  let last = Option.value (last_lsn c) ~default:0 in
  ( last,
    Mutex.protect c.pm (fun () ->
        Hashtbl.fold
          (fun id p acc ->
            let copy = { acked = p.acked; shipped = p.shipped; last_seen = p.last_seen } in
            (id, copy, Stdlib.max 0 (last - p.acked)) :: acc)
          c.peers []) )

let health c : Health.reason list =
  let fsync =
    match c.durable with
    | None -> []
    | Some d ->
      let inflight = Durable.fsync_in_progress_ns d in
      let p99 = Durable.fsync_p99_ns d in
      if inflight > c.stall_ns then
        [
          ( "fsync-stall",
            `Critical,
            [ ("in_progress_ms", Events.F (float_of_int inflight /. 1e6)) ] );
        ]
      else if p99 > float_of_int c.fsync_warn_ns then
        [ ("fsync-latency", `Degraded, [ ("p99_ms", Events.F (p99 /. 1e6)) ]) ]
      else []
  in
  fsync
  @ List.concat_map
      (fun (id, _, lag) ->
        Health.graded "peer-lag" ~warn:c.lag_warn_frames lag
          [ ("replica", Events.S id); ("lag_frames", Events.I lag) ])
      (snd (peer_rows c))

let stats_json c = Option.map Durable.stats_json c.durable

let replica_stat_json c =
  let last, rows = peer_rows c in
  Printf.sprintf "{\"replica\":false,\"last_lsn\":%d,\"peers\":[%s]}" last
    (String.concat ","
       (List.map
          (fun (id, p, lag) ->
            Printf.sprintf
              "{\"id\":\"%s\",\"acked_lsn\":%d,\"shipped_lsn\":%d,\"lag_frames\":%d,\"last_seen_age_s\":%.3f}"
              (Xqb_obs.Json.escape id) p.acked p.shipped lag
              (Clock.secs_since p.last_seen))
          rows))

let to_prom c p =
  Option.iter (fun d -> Durable.stats_prom d p) c.durable;
  List.iter
    (fun (id, peer, lag) ->
      Prom.gauge_i p ~help:"Last LSN each replica acknowledged."
        ~labels:[ ("replica", id) ]
        "xqbang_peer_acked_lsn" peer.acked;
      Prom.gauge_i p ~help:"Frames each replica is behind the WAL head."
        ~labels:[ ("replica", id) ]
        "xqbang_peer_lag_frames" lag)
    (snd (peer_rows c))

let inject_fsync_delay c secs =
  Option.iter (fun d -> Durable.inject_fsync_delay d secs) c.durable

let inject_fsync_error c on =
  Option.iter (fun d -> Durable.inject_fsync_error d on) c.durable

let close c = Option.iter Durable.close c.durable
