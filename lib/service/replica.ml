(* The replica side of replication: bootstrap from a leader's
   SNAPSHOT, apply shipped WAL frames, and the client thread that
   polls the leader for both.

   [m] guards [st]; the polling thread and the wire STAT / ingest
   paths are the only writers. The entry buffer holds the tail of a
   transaction span whose remainder has not shipped yet (the leader's
   poll window can cut a span in half) — entries apply to the store
   only in complete spans, so a replica never serves a half-applied
   update. *)

module Events = Xqb_obs.Events
module Prom = Xqb_obs.Prom
module Clock = Xqb_obs.Clock
module Wcodec = Xqb_wal.Codec
module FP = Core.Static.Footprint

type state = {
  mutable received_lsn : int;  (* highest LSN accepted from the leader *)
  mutable applied_lsn : int;  (* highest LSN applied / registered *)
  mutable leader_lsn : int;  (* leader's last LSN as of the last SHIP *)
  mutable pending : (int * Xqb_store.Store.mj_entry * int) list;
    (* oldest first: lsn, entry, frame bytes — the byte size feeds the
       received-but-not-applied lag gauge *)
  mutable frames : int;  (* frames applied since boot *)
  mutable status : string;
  mutable last_apply : int;  (* monotonic ns; 0 = never applied *)
  mutable sock : Unix.file_descr option;
}

type t = {
  leader : string;  (* "host:port", or "" when pumped manually *)
  catalog : Catalog.t;
  sched : Scheduler.t;
  events : Events.t;
  lag_warn_frames : int;  (* lag above this degrades health *)
  m : Mutex.t;
  st : state;
  mutable thread : Thread.t option;
  mutable stop : bool;
}

let create ~leader ~catalog ~sched ~events ~lag_warn_frames =
  {
    leader;
    catalog;
    sched;
    events;
    lag_warn_frames;
    m = Mutex.create ();
    st =
      {
        received_lsn = 0;
        applied_lsn = 0;
        leader_lsn = 0;
        pending = [];
        frames = 0;
        status = "idle";
        last_apply = 0;
        sock = None;
      };
    thread = None;
    stop = false;
  }

let bootstrap r blob =
  let store = Catalog.store r.catalog in
  if Xqb_store.Store.node_count store > 0 then
    Error "replica already holds data; bootstrap needs a fresh store"
  else
    match
      Scheduler.with_footprint r.sched FP.top (fun () -> Wcodec.restore store blob)
    with
    | lsn, docs ->
      List.iter
        (fun (uri, root, bytes) -> Catalog.register r.catalog ~uri ~root ~bytes)
        docs;
      Mutex.protect r.m (fun () ->
          r.st.received_lsn <- lsn;
          r.st.applied_lsn <- lsn;
          r.st.leader_lsn <- max r.st.leader_lsn lsn;
          r.st.last_apply <- Clock.now_ns ();
          r.st.status <- "bootstrapped");
      Ok lsn
    | exception Wcodec.Corrupt msg -> Error ("corrupt snapshot: " ^ msg)

(* Apply a batch of shipped frames. Already-seen LSNs are skipped
   (idempotent re-delivery); entries buffer until their transaction
   span completes, then apply under a ⊤ footprint so concurrent read
   queries never observe a half-applied update. Returns the number of
   frames applied (entries + doc registrations). *)
let ingest r ~leader_lsn blob =
  let frames, valid = Wcodec.scan blob in
  if valid <> String.length blob then Error "corrupt frame batch"
  else
    Mutex.protect r.m (fun () ->
        let st = r.st in
        st.leader_lsn <- max st.leader_lsn leader_lsn;
        let fresh = List.filter (fun (lsn, _, _) -> lsn > st.received_lsn) frames in
        let applied = ref 0 in
        let pending_rev = ref (List.rev st.pending) in
        let flush () =
          let pairs = List.rev !pending_rev in
          let complete, _ =
            Xqb_store.Journal.split_complete (List.map (fun (_, e, _) -> e) pairs)
          in
          let n = List.length complete in
          if n > 0 then begin
            Scheduler.with_footprint r.sched FP.top (fun () ->
                Xqb_store.Journal.apply (Catalog.store r.catalog) complete);
            List.iteri
              (fun i (lsn, _, _) ->
                if i < n then st.applied_lsn <- max st.applied_lsn lsn)
              pairs;
            st.frames <- st.frames + n;
            st.last_apply <- Clock.now_ns ();
            applied := !applied + n;
            pending_rev := List.rev (List.filteri (fun i _ -> i >= n) pairs)
          end
        in
        List.iter
          (fun (lsn, record, size) ->
            st.received_lsn <- lsn;
            match record with
            | Wcodec.R_entry e -> pending_rev := (lsn, e, size) :: !pending_rev
            | Wcodec.R_doc { uri; root; bytes } ->
              (* the leader appends the registration only after the
                 load's span committed, so the buffer is complete *)
              flush ();
              Catalog.register r.catalog ~uri ~root ~bytes;
              st.applied_lsn <- max st.applied_lsn lsn;
              st.frames <- st.frames + 1;
              st.last_apply <- Clock.now_ns ();
              incr applied)
          fresh;
        flush ();
        st.pending <- List.rev !pending_rev;
        st.status <- "streaming";
        Ok !applied)

let applied_lsn r = Mutex.protect r.m (fun () -> r.st.applied_lsn)

(* One locked snapshot — a copy of [st] — and the lag in three units:
   frames behind the leader's head, bytes received-but-not-applied (a
   buffered half span), and milliseconds since the last apply while
   behind. Every view (HEALTH, REPLICA STAT, METRICS PROM) reads
   from here. *)
let snapshot r =
  let st = Mutex.protect r.m (fun () -> { r.st with sock = None }) in
  let lag = max 0 (st.leader_lsn - st.applied_lsn) in
  let lag_bytes = List.fold_left (fun acc (_, _, size) -> acc + size) 0 st.pending in
  let lag_ms =
    if lag > 0 && st.last_apply > 0 then Clock.secs_since st.last_apply *. 1e3
    else 0.
  in
  (st, lag, lag_bytes, lag_ms)

let health r : Health.reason list =
  let st, lag, _, _ = snapshot r in
  let pre prefix = String.starts_with ~prefix st.status in
  Health.graded "replica-lag" ~warn:r.lag_warn_frames lag [ ("lag_frames", Events.I lag) ]
  @
  if pre "stale" then [ ("replica-stale", `Critical, [ ("status", Events.S st.status) ]) ]
  else if pre "disconnected" then
    [ ("replica-disconnected", `Degraded, [ ("status", Events.S st.status) ]) ]
  else []

let stat_json r =
  let st, lag, lag_bytes, lag_ms = snapshot r in
  Printf.sprintf
    "{\"replica\":true,\"leader\":\"%s\",\"status\":\"%s\",\"applied_lsn\":%d,\"received_lsn\":%d,\"leader_lsn\":%d,\"lag\":%d,\"lag_bytes\":%d,\"lag_ms\":%.0f,\"frames_applied\":%d,\"pending_entries\":%d,\"last_apply_age_s\":%s}"
    (Xqb_obs.Json.escape r.leader)
    (Xqb_obs.Json.escape st.status)
    st.applied_lsn st.received_lsn st.leader_lsn lag lag_bytes lag_ms st.frames
    (List.length st.pending)
    (if st.last_apply = 0 then "null"
     else Printf.sprintf "%.3f" (Clock.secs_since st.last_apply))

let to_prom r p =
  let st, lag, lag_bytes, lag_ms = snapshot r in
  Prom.gauge_i p ~help:"Highest LSN applied by this replica."
    "xqbang_replica_applied_lsn" st.applied_lsn;
  Prom.gauge_i p ~help:"Leader's last LSN as of the last SHIP."
    "xqbang_replica_leader_lsn" st.leader_lsn;
  Prom.gauge_i p ~help:"Frames this replica is behind the leader."
    "xqbang_replica_lag_frames" lag;
  Prom.gauge_i p ~help:"Bytes received but not yet applied (buffered half span)."
    "xqbang_replica_lag_bytes" lag_bytes;
  Prom.gauge p ~help:"Milliseconds since the last apply while behind the leader."
    "xqbang_replica_lag_ms" lag_ms;
  Prom.counter p ~help:"Frames applied by this replica since boot."
    "xqbang_replica_frames_applied_total" st.frames

(* -- the replication client -----------------------------------------

   Poll loop behind `serve --replica-of HOST:PORT`: connect to the
   leader over the ordinary line protocol, bootstrap from a SNAPSHOT
   blob when the local store is empty, then SHIP committed frames
   forever (blobs travel base64 on the wire). Connection failures
   back off and reconnect; a `too-old` reply (the leader checkpointed
   past this replica's position) is terminal — an already-populated
   store cannot re-bootstrap, the operator restarts the replica. *)

let poll_s = 0.02
let batch = 512

exception Stale

let parse_reply line =
  if String.length line >= 3 && String.sub line 0 3 = "OK " then
    Ok (Protocol.unescape (String.sub line 3 (String.length line - 3)))
  else if line = "OK" then Ok ""
  else Error line

(* Does [needle] occur in [hay]? *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let set_status r s = Mutex.protect r.m (fun () -> r.st.status <- s)

let replication_loop r host port () =
  let resolve () =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> failwith ("cannot resolve host " ^ host))
  in
  let session () =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        Mutex.protect r.m (fun () -> r.st.sock <- None);
        try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect sock (Unix.ADDR_INET (resolve (), port));
        Mutex.protect r.m (fun () ->
            r.st.sock <- Some sock;
            r.st.status <- "connected");
        let ic = Unix.in_channel_of_descr sock in
        let oc = Unix.out_channel_of_descr sock in
        let rpc line =
          output_string oc line;
          output_char oc '\n';
          flush oc;
          parse_reply (input_line ic)
        in
        (if
           Mutex.protect r.m (fun () -> r.st.received_lsn) = 0
           && Xqb_store.Store.node_count (Catalog.store r.catalog) = 0
         then
           match rpc "SNAPSHOT" with
           | Ok payload -> (
             match bootstrap r (Xqb_wal.B64.decode payload) with
             | Ok lsn ->
               Events.info r.events ~kind:"replica.bootstrap" [ ("lsn", Events.I lsn) ]
             | Error e -> failwith e)
           | Error e -> failwith ("SNAPSHOT: " ^ e));
        (* the id lets the leader track this replica's shipped/acked
           position; host+pid is unique enough per poll loop *)
        let my_id = Printf.sprintf "r-%d" (Unix.getpid ()) in
        while not r.stop do
          let from = Mutex.protect r.m (fun () -> r.st.received_lsn + 1) in
          match rpc (Printf.sprintf "SHIP %d %d %s" from batch my_id) with
          | Ok payload ->
            let leader_w, b64 =
              match String.index_opt payload ' ' with
              | None -> (payload, "")
              | Some i ->
                ( String.sub payload 0 i,
                  String.trim (String.sub payload (i + 1) (String.length payload - i - 1))
                )
            in
            let leader_lsn =
              match int_of_string_opt leader_w with
              | Some l -> l
              | None -> failwith ("bad SHIP reply: " ^ payload)
            in
            if b64 = "" then begin
              Mutex.protect r.m (fun () ->
                  r.st.leader_lsn <- max r.st.leader_lsn leader_lsn;
                  if r.st.leader_lsn <= r.st.applied_lsn then
                    r.st.status <- "caught-up");
              Thread.delay poll_s
            end
            else begin
              match ingest r ~leader_lsn (Xqb_wal.B64.decode b64) with
              | Ok _ -> ()
              | Error e -> failwith e
            end
          | Error e ->
            (* "ERR too-old: ..." — substring match keeps the wire
               format free to evolve *)
            if contains e "too-old" then raise Stale else failwith ("SHIP: " ^ e)
        done)
  in
  let stale = ref false in
  while (not r.stop) && not !stale do
    try session () with
    | Stale ->
      stale := true;
      Events.error r.events ~kind:"replica.stale" [ ("leader", Events.S r.leader) ];
      set_status r
        "stale: leader checkpointed past this replica; restart it with an empty store"
    | e ->
      if not r.stop then begin
        Events.warn r.events ~kind:"replica.disconnect"
          [ ("leader", Events.S r.leader); ("error", Events.S (Printexc.to_string e)) ];
        set_status r ("disconnected: " ^ Printexc.to_string e);
        Thread.delay 0.3
      end
  done

(* No-op for manually-pumped replicas (tests drive {!ingest}
   directly). *)
let start r =
  if r.leader <> "" && r.thread = None then begin
    let bad () =
      failwith (Printf.sprintf "bad --replica-of %S (expected HOST:PORT)" r.leader)
    in
    let host, port =
      match String.rindex_opt r.leader ':' with
      | None -> bad ()
      | Some i -> (
        let h = String.sub r.leader 0 i in
        match int_of_string_opt (String.sub r.leader (i + 1) (String.length r.leader - i - 1)) with
        | Some p when h <> "" -> (h, p)
        | _ -> bad ())
    in
    r.thread <- Some (Thread.create (replication_loop r host port) ())
  end

(* Close the client's socket to unblock a read in flight, then join. *)
let stop r =
  r.stop <- true;
  Option.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    (Mutex.protect r.m (fun () -> r.st.sock));
  Option.iter Thread.join r.thread;
  r.thread <- None
