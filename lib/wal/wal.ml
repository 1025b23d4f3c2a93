(* The on-disk write-ahead log.

   One append-only file (dir/wal.log) of Codec frames. Writers
   serialize on [m]; an [Always] commit then waits until its last LSN
   is durable, with group commit and one fsync leader ([lead]).

   Every wait goes through [await]: a caller whose LSN is already
   durable is answered at once; one that finds no fsync in flight
   leads one; one that finds an fsync in flight parks its callback and
   returns (flush pipelining, after Aether). The leader completes the
   parked commits its fsync covers, and keeps leading while parked
   commits remain that arrived during its fsync, so commits that
   arrive during one fsync share the next. A failed fsync fails every
   parked commit: no waiter of the failed group retries it for frames
   it may have lost.
   [await_durable] is [await] under the policy's terms;
   [wait_durable] and [sync] block on it; the interval thread parks a
   no-op on it.

   The in-memory [tail] mirrors the file (frame bytes keyed by LSN)
   so journal shipping never reads the file concurrently with the
   writer; it is cleared when a checkpoint truncates the log, after
   which replicas older than the checkpoint re-bootstrap from a
   snapshot. Under [Always] only durable frames are shipped. *)

module Hist = Xqb_obs.Hist
module Clock = Xqb_obs.Clock

type fsync_policy = Always | Interval_ms of int | Never

let fsync_policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s -> (
    match String.index_opt s ':' with
    | Some i
      when String.sub s 0 i = "interval-ms" || String.sub s 0 i = "interval" -> (
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt v with
      | Some ms when ms > 0 -> Ok (Interval_ms ms)
      | _ -> Error (Printf.sprintf "bad fsync interval %S" v))
    | _ ->
      Error
        (Printf.sprintf
           "unknown fsync policy %S (expected always, never or interval-ms:N)" s))

let fsync_policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval_ms ms -> Printf.sprintf "interval-ms:%d" ms

(* An [await_durable] callback waiting for its LSN; [commit] when it
   acknowledges the caller's own append. *)
type parked = { lsn : int; commit : bool; k : (unit, exn) result -> unit }

type t = {
  fd : Unix.file_descr;
  path : string;
  policy : fsync_policy;
  m : Mutex.t;
  mutable next_lsn : int;  (* LSN the next appended frame receives *)
  mutable written_lsn : int;  (* highest LSN written to the fd *)
  mutable synced_lsn : int;  (* highest LSN known durable *)
  mutable syncing : bool;  (* a group-commit leader is in fsync(2) *)
  mutable sync_started_ns : int;
    (* Clock ns when the current fsync(2) call entered; 0 = none in
       flight. Written by the syncing thread, read unlocked by the
       stall watchdog — a torn read is impossible (tagged int). *)
  mutable fsync_delay : float;
    (* fault injection (tests only): seconds slept inside [do_fsync]
       before the real fsync, to simulate a stalled device *)
  mutable fsync_fails : bool;
    (* fault injection (tests only): [do_fsync] raises EIO *)
  mutable parked : parked list;  (* newest first *)
  mutable commits : int;  (* acknowledged durable commits *)
  mutable tail : (int * string) list;  (* newest first *)
  mutable tail_start : int;  (* lowest LSN the tail covers *)
  mutable bytes_appended : int;
  mutable frames_appended : int;
  mutable fsyncs : int;
  fsync_hist : Hist.t;
  mutable interval_thread : Thread.t option;
  mutable closed : bool;
}

let wal_file dir = Filename.concat dir "wal.log"

let locked_m m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let locked t f = locked_m t.m f

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* fsync under the stats it feeds; called OUTSIDE [t.m] (fsync can
   take milliseconds — holding the mutex would stall appenders).
   Profiler samples taken meanwhile carry the fsync stage's label, even
   on a leader that is fsyncing for other jobs' parked commits. *)
let do_fsync t =
  let t0 = Clock.now_ns () in
  t.sync_started_ns <- t0;
  let label = Xqb_obs.Profile.swap_phase (Xqb_obs.Stage.name Xqb_obs.Stage.Fsync) in
  Fun.protect
    ~finally:(fun () ->
      t.sync_started_ns <- 0;
      ignore (Xqb_obs.Profile.swap_phase label))
    (fun () ->
      (match t.fsync_delay with d when d > 0. -> Unix.sleepf d | _ -> ());
      if t.fsync_fails then raise (Unix.Unix_error (Unix.EIO, "fsync", "injected"));
      Unix.fsync t.fd);
  let dt = float_of_int (Clock.now_ns () - t0) in
  locked t (fun () ->
      t.fsyncs <- t.fsyncs + 1;
      Hist.record t.fsync_hist dt)

(* Raise the durable high-water mark to [lsn] and take the parked
   commits it covers, oldest LSN first. Caller holds [t.m]; it runs
   the callbacks after releasing it. *)
let covered_locked t lsn =
  t.synced_lsn <- max t.synced_lsn lsn;
  let ready, rest = List.partition (fun p -> p.lsn <= t.synced_lsn) t.parked in
  t.parked <- rest;
  List.iter (fun p -> if p.commit then t.commits <- t.commits + 1) ready;
  List.stable_sort (fun a b -> compare a.lsn b.lsn) (List.rev ready)

let complete ready r = List.iter (fun p -> try p.k r with _ -> ()) ready

let written t = locked t (fun () -> t.written_lsn)

(* The group-commit leader (caller has set [syncing]): fsync everything
   written so far, publish it, complete the parked commits it covers,
   and lead again while parked commits remain — they arrived during the
   fsync. A failed fsync fails every parked commit. *)
let rec lead t =
  let target = written t in
  match do_fsync t with
  | () ->
    let ready, again =
      locked t (fun () ->
          let ready = covered_locked t target in
          let again = t.parked <> [] in
          if not again then t.syncing <- false;
          (ready, again))
    in
    complete ready (Ok ());
    if again then lead t
  | exception e ->
    let failed =
      locked t (fun () ->
          let failed = List.rev t.parked in
          t.parked <- [];
          t.syncing <- false;
          failed)
    in
    complete failed (Error e)

(* Call [k] once [lsn] is durable, whatever the policy: at once when it
   already is, after leading an fsync when none is in flight, or —
   parked — from the in-flight leader's thread. *)
let await t lsn ~commit k =
  let role =
    locked t (fun () ->
        if t.synced_lsn >= lsn then begin
          if commit then t.commits <- t.commits + 1;
          `Done
        end
        else begin
          t.parked <- { lsn; commit; k } :: t.parked;
          if t.syncing then `Parked
          else begin
            t.syncing <- true;
            `Lead
          end
        end)
  in
  match role with `Done -> k (Ok ()) | `Parked -> () | `Lead -> lead t

let await_durable t lsn ~commit k =
  match t.policy with
  | Always -> await t lsn ~commit k
  | Interval_ms _ | Never ->
    if commit then locked t (fun () -> t.commits <- t.commits + 1);
    k (Ok ())

(* Call [start] with a callback and block until it has run; raise the
   error it got, which is its group's. *)
let latch start =
  let m = Mutex.create () and c = Condition.create () and r = ref None in
  start (fun v ->
      locked_m m (fun () ->
          r := Some v;
          Condition.signal c));
  match
    locked_m m (fun () ->
        while Option.is_none !r do
          Condition.wait c m
        done;
        Option.get !r)
  with
  | Ok () -> ()
  | Error e -> raise e

let interval_loop t ms () =
  let delay = float_of_int ms /. 1000. in
  while not (locked t (fun () -> t.closed)) do
    Thread.delay delay;
    await t (written t) ~commit:false ignore
  done

let openw ~dir ~policy ~next_lsn ~tail () =
  let fd =
    Unix.openfile (wal_file dir) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let last = next_lsn - 1 in
  let t =
    {
      fd;
      path = wal_file dir;
      policy;
      m = Mutex.create ();
      next_lsn;
      written_lsn = last;
      synced_lsn = last;
      syncing = false;
      sync_started_ns = 0;
      fsync_delay = 0.;
      fsync_fails = false;
      parked = [];
      commits = 0;
      tail = List.rev tail;
      tail_start = (match tail with (l, _) :: _ -> l | [] -> next_lsn);
      bytes_appended = 0;
      frames_appended = 0;
      fsyncs = 0;
      fsync_hist = Hist.create ();
      interval_thread = None;
      closed = false;
    }
  in
  (match policy with
  | Interval_ms ms -> t.interval_thread <- Some (Thread.create (interval_loop t ms) ())
  | Always | Never -> ());
  t

(* Append frames without waiting for durability (any policy); the
   caller pairs it with [wait_durable]. This is the scheduler's
   group-commit split: appends happen under its serial apply mutex
   (so WAL byte order matches apply order), the durability wait
   happens outside it, so concurrent committers overlap their fsync
   latency in one leader pass instead of queueing full syncs. *)
let append t records =
  if records = [] then locked t (fun () -> t.next_lsn - 1)
  else
    locked t (fun () ->
        if t.closed then failwith "Wal.append: log is closed";
        let buf = Buffer.create 256 in
        let last = ref (t.next_lsn - 1) in
        List.iter
          (fun r ->
            let lsn = t.next_lsn in
            t.next_lsn <- lsn + 1;
            let fr = Codec.frame ~lsn r in
            Buffer.add_string buf fr;
            t.tail <- (lsn, fr) :: t.tail;
            t.frames_appended <- t.frames_appended + 1;
            last := lsn)
          records;
        let bytes = Buffer.contents buf in
        (* write while holding [m]: appends must hit the file in
           LSN order. Page-cache writes are cheap; the expensive
           fsync happens outside the lock. *)
        write_all t.fd bytes;
        t.bytes_appended <- t.bytes_appended + String.length bytes;
        t.written_lsn <- !last;
        !last)

let wait_durable t lsn = latch (await_durable t lsn ~commit:true)

let commit t records =
  let last = append t records in
  if records <> [] then wait_durable t last;
  last

let sync t = latch (await t (written t) ~commit:false)

let last_lsn t = locked t (fun () -> t.next_lsn - 1)
let tail_start t = locked t (fun () -> t.tail_start)

let ship t ~from_lsn ~max =
  locked t (fun () ->
      if from_lsn < t.tail_start then Error `Too_old
      else begin
        (* under [Always] a replica never holds what the leader could
           still lose *)
        let last = if t.policy = Always then t.synced_lsn else t.next_lsn - 1 in
        let frames =
          t.tail
          |> List.filter (fun (l, _) -> l >= from_lsn && l <= last)
          |> List.rev
          |> List.filteri (fun i _ -> i < max)
          |> List.map snd
        in
        Ok (last, frames)
      end)

(* Called after a snapshot covering every LSN so far is durably on
   disk: empty the file (O_APPEND writes restart at offset 0) and
   drop the tail mirror. *)
let truncate_after_checkpoint t =
  (* the snapshot is durable: it completes the parked commits it covers *)
  let ready =
    locked t (fun () ->
        Unix.ftruncate t.fd 0;
        t.tail <- [];
        t.tail_start <- t.next_lsn;
        t.written_lsn <- t.next_lsn - 1;
        covered_locked t (t.next_lsn - 1))
  in
  complete ready (Ok ());
  match t.policy with Never -> () | _ -> do_fsync t

let bytes_appended t = locked t (fun () -> t.bytes_appended)
let frames_appended t = locked t (fun () -> t.frames_appended)
let fsync_count t = locked t (fun () -> t.fsyncs)
let commit_count t = locked t (fun () -> t.commits)
let fsync_hist t = t.fsync_hist
let with_stats_lock t f = locked t f

(* How long the in-flight fsync(2) has been running; 0 when none.
   Unlocked read — see [sync_started_ns]. *)
let fsync_in_progress_ns t =
  match t.sync_started_ns with 0 -> 0 | since -> Clock.now_ns () - since

let fsync_p99_ns t = locked t (fun () -> Hist.percentile t.fsync_hist 0.99)
let inject_fsync_delay t secs = t.fsync_delay <- secs
let inject_fsync_error t on = t.fsync_fails <- on

let close t =
  let th = locked t (fun () -> t.closed <- true; t.interval_thread) in
  (match th with Some th -> Thread.join th | None -> ());
  (match t.policy with
  | Never -> ()
  | Always | Interval_ms _ -> ( try sync t with Unix.Unix_error _ -> ()));
  try Unix.close t.fd with Unix.Unix_error _ -> ()
