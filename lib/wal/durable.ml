(* The durable store manager: checkpointed snapshots + WAL tail.

   Disk layout under [dir]:
     wal.log            frames since the last checkpoint
     snap-<lsn>.snap    checkpoint snapshots (two most recent kept)

   Commit protocol: the in-memory snap has already applied; the
   service appends the resulting journal span to the WAL
   ([append_entries], with its write lock held) and — under the
   Always policy — acknowledges the client only once the span is
   durable ([await_durable]), so recovery always reproduces the last
   acknowledged state (a crash between the in-memory apply and the
   WAL append loses only an un-acknowledged commit). [commit_entries]
   and [commit_doc] are append + blocking wait in one call.

   Recovery: newest snapshot that validates (CRC + canonical store
   digest; a mismatch refuses to boot), then the WAL tail — frames
   at or below the snapshot LSN are skipped (a crash between
   snapshot-rename and WAL-truncate leaves them behind), a torn
   final frame and a trailing half-written transaction span are
   truncated away, aborted spans replay through the normal rollback
   machinery. *)

module S = Xqb_store.Store
module J = Xqb_store.Journal
module Hist = Xqb_obs.Hist
module Clock = Xqb_obs.Clock

type config = {
  dir : string;
  fsync : Wal.fsync_policy;
  checkpoint_bytes : int;
  checkpoint_secs : float;
}

let default_config ~dir =
  { dir; fsync = Wal.Always; checkpoint_bytes = 4 * 1024 * 1024;
    checkpoint_secs = 0. }

type t = {
  cfg : config;
  wal : Wal.t;
  m : Mutex.t;
  mutable ckpt_lsn : int;  (* LSN covered by the newest snapshot *)
  mutable ckpt_ns : int;  (* Clock.now_ns at the last checkpoint, or boot *)
  mutable ckpt_wal_bytes : int;  (* Wal.bytes_appended at last checkpoint *)
  mutable checkpoints : int;  (* snapshots written this run *)
  recovered_lsn : int;
}

type recovered = {
  store : S.t;
  docs : (string * int * int) list;
  lsn : int;
  snapshot_lsn : int;
  wal_frames : int;
  truncated_bytes : int;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let fail fmt = Printf.ksprintf failwith fmt

(* -- file helpers --------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* Durable file write: tmp + fsync + rename + directory fsync, so a
   crash leaves either the old set of files or the new one, never a
   half-written snapshot under its final name. *)
let write_file_durable ~dir path content =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd content;
      Unix.fsync fd);
  Unix.rename tmp path;
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    (try Unix.close dfd with Unix.Unix_error _ -> ())

let snap_name lsn = Printf.sprintf "snap-%012d.snap" lsn

let snap_lsn_of_name name =
  (* "snap-" ^ 12 digits ^ ".snap" *)
  if String.length name = 22
     && String.sub name 0 5 = "snap-"
     && Filename.check_suffix name ".snap"
  then int_of_string_opt (String.sub name 5 12)
  else None

let list_snapshots dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         Option.map (fun lsn -> (lsn, Filename.concat dir name)) (snap_lsn_of_name name))
  |> List.sort (fun (a, _) (b, _) -> compare b a)  (* newest first *)

(* -- recovery ------------------------------------------------------- *)

let ensure_dir dir =
  (match Unix.stat dir with
  | { Unix.st_kind = Unix.S_DIR; _ } -> ()
  | _ -> fail "data directory %s exists but is not a directory" dir
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> (
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (e, _, _) ->
      fail "cannot create data directory %s: %s" dir (Unix.error_message e))
  | exception Unix.Unix_error (e, _, _) ->
    fail "cannot access data directory %s: %s" dir (Unix.error_message e));
  (* probe writability up front so `serve` fails with one clear line
     instead of an exception from deep inside the first commit *)
  let probe = Filename.concat dir ".write-probe" in
  (match Unix.openfile probe [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 with
  | fd ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (try Unix.unlink probe with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error (e, _, _) ->
    fail "data directory %s is not writable: %s" dir (Unix.error_message e))

(* Load the newest snapshot that validates. Returns
   (store, docs, snapshot lsn); a fresh store at LSN 0 when no
   snapshot exists. @raise Codec.Corrupt when snapshots exist but
   none validates — booting from a silently wrong state is the one
   thing a durable store must never do. *)
let load_snapshot dir =
  let rec try_all errors = function
    | [] ->
      if errors = [] then (S.create (), [], 0)
      else
        raise
          (Codec.Corrupt
             ("no valid snapshot: "
             ^ String.concat "; " (List.rev errors)))
    | (_, path) :: rest -> (
      match
        let blob = read_file path in
        let store = S.create () in
        let lsn, docs = Codec.restore store blob in
        (store, docs, lsn)
      with
      | result -> result
      | exception Codec.Corrupt msg ->
        try_all (Printf.sprintf "%s: %s" (Filename.basename path) msg :: errors) rest
      | exception Sys_error msg -> try_all (msg :: errors) rest)
  in
  try_all [] (list_snapshots dir)

let recover cfg =
  ensure_dir cfg.dir;
  let store, docs, snapshot_lsn = load_snapshot cfg.dir in
  let wal_path = Filename.concat cfg.dir "wal.log" in
  let raw = if Sys.file_exists wal_path then read_file wal_path else "" in
  let frames, valid_len = Codec.scan raw in
  (* keep only frames past the snapshot, and of those only the
     longest prefix whose transaction spans are complete — a trailing
     half-written span was never acknowledged *)
  let fresh = List.filter (fun (lsn, _, _) -> lsn > snapshot_lsn) frames in
  let cut =
    (* index into [fresh] one past the last frame at which the
       top-level span depth returns to zero *)
    let depth = ref 0 and best = ref 0 in
    List.iteri
      (fun i (_, record, _) ->
        (match record with
        | Codec.R_entry { S.op = S.M_txn_begin; _ } -> incr depth
        | Codec.R_entry { S.op = S.M_txn_commit | S.M_txn_abort; _ } ->
          depth := max 0 (!depth - 1)
        | _ -> ());
        if !depth = 0 then best := i + 1)
      fresh;
    !best
  in
  let kept = List.filteri (fun i _ -> i < cut) fresh in
  let keep_bytes =
    valid_len
    - List.fold_left
        (fun acc (_, _, sz) -> acc + sz)
        0
        (List.filteri (fun i _ -> i >= cut) fresh)
  in
  let truncated_bytes = String.length raw - keep_bytes in
  (* truncate the torn/incomplete tail on disk before reopening for
     append *)
  if truncated_bytes > 0 && Sys.file_exists wal_path then begin
    let fd = Unix.openfile wal_path [ Unix.O_WRONLY ] 0o644 in
    Fun.protect ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.ftruncate fd keep_bytes;
        try Unix.fsync fd with Unix.Unix_error _ -> ())
  end;
  (* replay: journal entries re-execute against the restored store
     (aborted spans roll back exactly as they originally did);
     doc-registration records update the catalog table *)
  let entries =
    List.filter_map
      (function _, Codec.R_entry e, _ -> Some e | _ -> None)
      kept
  in
  J.apply store entries;
  let docs =
    List.fold_left
      (fun docs (_, record, _) ->
        match record with
        | Codec.R_doc { uri; root; bytes } ->
          (uri, root, bytes) :: List.filter (fun (u, _, _) -> u <> uri) docs
        | Codec.R_entry _ -> docs)
      docs kept
  in
  let lsn =
    List.fold_left (fun acc (l, _, _) -> max acc l) snapshot_lsn kept
  in
  (* seed the shipping tail with the surviving frames: raw bytes
     sliced back out of the file image by size *)
  let tail =
    let off = ref 0 in
    List.filter_map
      (fun (l, _, sz) ->
        let fr = String.sub raw !off sz in
        off := !off + sz;
        if l > snapshot_lsn && l <= lsn then Some (l, fr) else None)
      frames
  in
  let wal =
    Wal.openw ~dir:cfg.dir ~policy:cfg.fsync ~next_lsn:(lsn + 1) ~tail ()
  in
  let t =
    {
      cfg;
      wal;
      m = Mutex.create ();
      ckpt_lsn = snapshot_lsn;
      ckpt_ns = Clock.now_ns ();
      ckpt_wal_bytes = 0;
      checkpoints = 0;
      recovered_lsn = lsn;
    }
  in
  ( t,
    {
      store;
      docs;
      lsn;
      snapshot_lsn;
      wal_frames = List.length kept;
      truncated_bytes;
    } )

(* -- commits -------------------------------------------------------- *)

let commit_entries t entries =
  Wal.commit t.wal (List.map (fun e -> Codec.R_entry e) entries)

(* Group-commit split (the service's commit path): append under the
   caller's apply mutex or ⊤ footprint, wait for the fsync outside it
   so concurrent writers overlap their durability latency. *)
let append_entries t entries =
  Wal.append t.wal (List.map (fun e -> Codec.R_entry e) entries)

let wait_durable t lsn = Wal.wait_durable t.wal lsn
let await_durable t lsn ~commit k = Wal.await_durable t.wal lsn ~commit k

let commit_doc t ~uri ~root ~bytes =
  ignore (Wal.commit t.wal [ Codec.R_doc { uri; root; bytes } ])

(* -- checkpoints ---------------------------------------------------- *)

let checkpoint t ~docs store =
  let lsn = Wal.last_lsn t.wal in
  let blob = Codec.snapshot ~lsn ~docs store in
  write_file_durable ~dir:t.cfg.dir
    (Filename.concat t.cfg.dir (snap_name lsn))
    blob;
  Wal.truncate_after_checkpoint t.wal;
  locked t (fun () ->
      t.ckpt_lsn <- lsn;
      t.ckpt_ns <- Clock.now_ns ();
      t.ckpt_wal_bytes <- Wal.bytes_appended t.wal;
      t.checkpoints <- t.checkpoints + 1);
  (* keep the two newest snapshots as recovery fallbacks *)
  List.iteri
    (fun i (_, path) ->
      if i >= 2 then try Sys.remove path with Sys_error _ -> ())
    (list_snapshots t.cfg.dir);
  lsn

(* Seconds since the last checkpoint (or boot), on the monotonic
   clock so a wall-clock step cannot stall the [checkpoint_secs]
   trigger. Caller holds [t.m]. *)
let ckpt_age_s t = float_of_int (Clock.now_ns () - t.ckpt_ns) /. 1e9

let maybe_checkpoint t ~docs store =
  let due =
    locked t (fun () ->
        let lsn = Wal.last_lsn t.wal in
        lsn > t.ckpt_lsn
        && ((t.cfg.checkpoint_bytes > 0
             && Wal.bytes_appended t.wal - t.ckpt_wal_bytes
                >= t.cfg.checkpoint_bytes)
           || (t.cfg.checkpoint_secs > 0.
              && ckpt_age_s t >= t.cfg.checkpoint_secs)))
  in
  if due then Some (checkpoint t ~docs store) else None

(* -- shipping ------------------------------------------------------- *)

let ship t ~from_lsn ~max = Wal.ship t.wal ~from_lsn ~max

let snapshot_blob t ~docs store =
  let lsn = Wal.last_lsn t.wal in
  (lsn, Codec.snapshot ~lsn ~docs store)

let last_lsn t = Wal.last_lsn t.wal
let config t = t.cfg

(* -- stats ---------------------------------------------------------- *)

let stats_json t =
  let ckpt_lsn, ckpt_age, checkpoints =
    locked t (fun () ->
        (t.ckpt_lsn, ckpt_age_s t, t.checkpoints))
  in
  let hist_fields =
    Wal.with_stats_lock t.wal (fun () ->
        Hist.to_json_fields (Wal.fsync_hist t.wal))
  in
  Printf.sprintf
    "{\"fsync_policy\":\"%s\",\"last_lsn\":%d,\"recovered_lsn\":%d,\"wal_bytes_appended\":%d,\"wal_frames_appended\":%d,\"fsyncs\":%d,\"commits\":%d,\"fsync_ns\":{%s},\"checkpoints\":%d,\"checkpoint_lsn\":%d,\"checkpoint_age_s\":%.3f}"
    (Wal.fsync_policy_to_string t.cfg.fsync)
    (Wal.last_lsn t.wal) t.recovered_lsn
    (Wal.bytes_appended t.wal)
    (Wal.frames_appended t.wal)
    (Wal.fsync_count t.wal)
    (Wal.commit_count t.wal)
    hist_fields checkpoints ckpt_lsn ckpt_age

(* Durability gauges onto the service's shared Prometheus page (the
   service composes METRICS PROM from every layer on one emitter). *)
let stats_prom t (p : Xqb_obs.Prom.t) =
  let ckpt_lsn, ckpt_age, checkpoints =
    locked t (fun () ->
        (t.ckpt_lsn, ckpt_age_s t, t.checkpoints))
  in
  let q v =
    Wal.with_stats_lock t.wal (fun () ->
        Hist.percentile (Wal.fsync_hist t.wal) v)
  in
  let module P = Xqb_obs.Prom in
  P.counter p ~help:"Bytes appended to the WAL." "xqbang_wal_bytes_appended_total"
    (Wal.bytes_appended t.wal);
  P.counter p ~help:"Frames appended to the WAL."
    "xqbang_wal_frames_appended_total"
    (Wal.frames_appended t.wal);
  P.counter p ~help:"WAL fsync(2) calls." "xqbang_wal_fsync_total"
    (Wal.fsync_count t.wal);
  P.counter p ~help:"Commits acknowledged as durable." "xqbang_wal_commits_total"
    (Wal.commit_count t.wal);
  P.summary p ~help:"WAL fsync(2) latency."
    ~fmt:(fun v -> Printf.sprintf "%.9f" v)
    "xqbang_wal_fsync_seconds"
    ~quantiles:[ (0.5, q 0.5 /. 1e9); (0.99, q 0.99 /. 1e9) ]
    ~sum:
      (Wal.with_stats_lock t.wal (fun () -> Hist.sum (Wal.fsync_hist t.wal))
      /. 1e9)
    ~count:(Wal.fsync_count t.wal);
  P.gauge p
    ~help:"Seconds the current in-flight fsync(2) has been running; 0 when idle."
    "xqbang_wal_fsync_in_progress_seconds"
    (float_of_int (Wal.fsync_in_progress_ns t.wal) /. 1e9);
  P.gauge_i p ~help:"Highest assigned WAL LSN." "xqbang_wal_last_lsn"
    (Wal.last_lsn t.wal);
  P.counter p ~help:"Checkpoint snapshots written this run."
    "xqbang_checkpoints_total" checkpoints;
  P.gauge_i p ~help:"LSN covered by the newest checkpoint snapshot."
    "xqbang_checkpoint_lsn" ckpt_lsn;
  P.gauge p ~help:"Seconds since the newest checkpoint snapshot."
    "xqbang_checkpoint_age_seconds" ckpt_age

let fsync_in_progress_ns t = Wal.fsync_in_progress_ns t.wal
let fsync_p99_ns t = Wal.fsync_p99_ns t.wal
let inject_fsync_delay t secs = Wal.inject_fsync_delay t.wal secs
let inject_fsync_error t on = Wal.inject_fsync_error t.wal on
let close t = Wal.close t.wal
