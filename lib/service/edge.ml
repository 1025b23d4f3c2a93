(* The TCP edge. See edge.mli for the contract; the shape here:

   One event-loop thread runs an accept fiber plus one fiber per
   connection. A connection fiber's life is a single loop:
   flush every completed head-of-line response, then wait on (socket
   readable unless suspended/closing) + (its waker) + (an idle or
   recheck deadline). Readable bytes land in a growable buffer; every
   complete line is parsed and dispatched immediately — admin
   requests answered inline, Query/EXPLAIN submitted to the domain
   scheduler with a completion callback that fills the response slot
   and wakes the fiber. Responses travel through a per-connection
   FIFO of slots, so pipelined replies leave in submission order no
   matter what order the scheduler finishes them in.

   Backpressure: the scheduler's own [max_queue] is the hard
   watermark (submission past it comes back [overloaded] through the
   service's taxonomy and is counted here); at 3/4 of it the
   connection stops reading — parsed work keeps running, the kernel
   socket buffer pushes back on the client — and resumes on a
   completion wake or a 50 ms recheck tick.

   [dispatch] is shared with the blocking stdin loop of
   [xqbang serve] without [--port]. *)

module Fiber = Xqb_fiber.Fiber
module Events = Xqb_obs.Events
module Clock = Xqb_obs.Clock
module P = Protocol

type config = {
  port : int;
  backlog : int;
  max_conns : int;
  idle_timeout_ms : int;
}

let default_config =
  { port = 0; backlog = 64; max_conns = 0; idle_timeout_ms = 0 }

(* A request line may carry a whole escaped document (LOAD), but a
   line that never ends is a memory attack, not a request. *)
let max_request_bytes = 16 * 1024 * 1024

(* Suspended connections re-check the queue depth this often even if
   no completion wake reaches them. *)
let resume_recheck_ns = 50_000_000

(* EMFILE/ENFILE backoff: long enough for some descriptor to close,
   short enough to matter at all. *)
let accept_backoff_ns = 50_000_000

type counters = {
  c_open : int Atomic.t;
  c_peak : int Atomic.t;
  c_accepted : int Atomic.t;
  c_conn_rejects : int Atomic.t;
  c_suspended : int Atomic.t;
  c_suspensions : int Atomic.t;
  c_overload_rejects : int Atomic.t;
  c_requests : int Atomic.t;
  c_batches : int Atomic.t;
}

let new_counters () =
  {
    c_open = Atomic.make 0;
    c_peak = Atomic.make 0;
    c_accepted = Atomic.make 0;
    c_conn_rejects = Atomic.make 0;
    c_suspended = Atomic.make 0;
    c_suspensions = Atomic.make 0;
    c_overload_rejects = Atomic.make 0;
    c_requests = Atomic.make 0;
    c_batches = Atomic.make 0;
  }

let bump_peak c =
  let now = Atomic.get c.c_open in
  let rec go () =
    let p = Atomic.get c.c_peak in
    if now > p && not (Atomic.compare_and_set c.c_peak p now) then go ()
  in
  go ()

type t = {
  svc : Service.t;
  cfg : config;
  sock : Unix.file_descr;
  eport : int;
  c : counters;
  loop : Fiber.t;
  stop_requested : bool Atomic.t;
  mutable thread : Thread.t option;
}

let port t = t.eport

let gauges t : Service.edge_gauges =
  {
    Service.eg_open = Atomic.get t.c.c_open;
    eg_peak = Atomic.get t.c.c_peak;
    eg_accepted = Atomic.get t.c.c_accepted;
    eg_conn_rejects = Atomic.get t.c.c_conn_rejects;
    eg_suspended = Atomic.get t.c.c_suspended;
    eg_suspensions = Atomic.get t.c.c_suspensions;
    eg_overload_rejects = Atomic.get t.c.c_overload_rejects;
    eg_requests = Atomic.get t.c.c_requests;
    eg_batches = Atomic.get t.c.c_batches;
    eg_max_conns = t.cfg.max_conns;
  }

(* -- request dispatch (shared with the stdin loop) ------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Answer a request either inline ([`Reply]) or as a scheduler future
   ([`Job]) the caller completes in its own style: the stdin loop
   blocks in [Service.await], the fiber edge hangs an [on_complete]
   wake on it. [quit] is the per-session QUIT latch. *)
let dispatch svc ~quit (req : P.request) :
    [ `Reply of string | `Job of (string, Service_error.t) result Scheduler.future ]
    =
  try
    match req with
    | P.Open -> `Reply (P.ok (string_of_int (Service.open_session svc)))
    | P.Close sid ->
      Service.close_session svc sid;
      `Reply (P.ok "closed")
    | P.Load (sid, uri, path) ->
      Service.load_document svc sid ~uri (read_file path);
      `Reply (P.ok ("loaded " ^ uri))
    | P.Query (sid, q) -> `Job (Service.submit svc sid q)
    | P.Explain (sid, q) -> `Job (snd (Service.explain_job svc sid q))
    | P.Trace jid -> (
      match Service.trace_json svc jid with
      | Some (_, json) -> `Reply (P.ok json)
      | None ->
        `Reply
          (P.err
             (match jid with
             | Some jid -> Printf.sprintf "no trace for job %d" jid
             | None -> "no traced jobs (is tracing enabled?)")))
    | P.Cancel jid ->
      if Service.cancel svc jid then `Reply (P.ok "cancelled")
      else `Reply (P.err (Printf.sprintf "no in-flight job %d" jid))
    | P.Stats -> `Reply (P.ok (Service.stats_json svc))
    | P.Delta -> (
      match Service.delta_json svc with
      | Some json -> `Reply (P.ok json)
      | None -> `Reply (P.err "no write-side job has run yet"))
    | P.Slowlog -> `Reply (P.ok (Service.slowlog_json svc))
    | P.Metrics_prom -> `Reply (P.ok (Service.metrics_prometheus svc))
    | P.Health -> `Reply (P.ok (Service.health_json svc))
    | P.Events (n, level) ->
      let level =
        Option.map
          (fun l ->
            match Events.severity_of_string l with
            | Some s -> s
            | None -> assert false (* parse validated it *))
          level
      in
      `Reply (P.ok (Service.events_json ?level svc n))
    | P.Journal_stat -> `Reply (P.ok (Service.journal_stat_json svc))
    | P.Replica_stat -> `Reply (P.ok (Service.replica_stat_json svc))
    | P.Checkpoint -> (
      match Service.checkpoint_now svc with
      | Ok lsn -> `Reply (P.ok (string_of_int lsn))
      | Error e -> `Reply (P.err e))
    | P.Ship (from_lsn, max, replica_id) -> (
      (* blobs travel base64 so frames fit the one-line protocol *)
      match Service.ship_frames ?replica_id svc ~from_lsn ~max with
      | Ok (last, frames) ->
        `Reply (P.ok (Printf.sprintf "%d %s" last (Xqb_wal.B64.encode frames)))
      | Error e -> `Reply (P.err e))
    | P.Snapshot -> (
      match Service.snapshot_blob svc with
      | Ok (_, blob) -> `Reply (P.ok (Xqb_wal.B64.encode blob))
      | Error e -> `Reply (P.err e))
    | P.Profile cmd -> `Reply (P.ok (Service.profile_command svc cmd))
    | P.Quit ->
      quit ();
      `Reply (P.ok "bye")
  with
  | Failure m | Sys_error m -> `Reply (P.err m)
  | e -> `Reply (P.err (Printexc.to_string e))

let render_result = function
  | Ok s -> P.ok s
  | Error (e : Service_error.t) -> P.err_of e

let is_overload_reply line = String.starts_with ~prefix:"ERR [overloaded]" line

(* -- the blocking session loop (stdin) ------------------------------- *)

let session_loop svc ic oc =
  let stopped = ref false in
  let quit () = stopped := true in
  let rec loop () =
    match input_line ic with
    | line ->
      let reply =
        match P.parse line with
        | Error e -> P.err e
        | Ok req -> (
          match dispatch svc ~quit req with
          | `Reply s -> s
          | `Job fut -> render_result (Service.await fut))
      in
      output_string oc reply;
      output_char oc '\n';
      flush oc;
      if not !stopped then loop ()
    | exception End_of_file -> ()
  in
  loop ()

(* -- accept resilience ----------------------------------------------

   A transient accept(2) failure must never kill the listener:
   ECONNABORTED (peer gone before we got it) and EINTR retry
   immediately; EMFILE/ENFILE (descriptor exhaustion) log an event
   and back off so in-flight connections can close. Anything else is
   fatal for the edge (EBADF after [stop] in particular). *)

type accept_verdict = Retry | Backoff | Fatal

let classify_accept_error t (e : Unix.error) =
  match e with
  | Unix.ECONNABORTED | Unix.EINTR -> Retry
  | Unix.EMFILE | Unix.ENFILE ->
    Events.warn (Service.events t.svc) ~kind:"edge.accept-backoff"
      [
        ("error", Events.S (Unix.error_message e));
        ("open", Events.I (Atomic.get t.c.c_open));
      ];
    Backoff
  | _ -> Fatal

(* Refuse a connection over --max-conns with one best-effort line.
   The socket is fresh out of accept and almost certainly writable;
   if it isn't, the close alone tells the client enough. *)
let refuse_conn t fd =
  Atomic.incr t.c.c_conn_rejects;
  let msg = P.err "[overloaded] connection limit reached" ^ "\n" in
  (try Unix.set_nonblock fd with _ -> ());
  (try ignore (Unix.write_substring fd msg 0 (String.length msg))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* -- the fiber edge ------------------------------------------------- *)

(* One response slot per parsed request, queued FIFO; the cell is
   filled (possibly from a worker domain) when the reply line is
   ready. *)
type resp = string option Atomic.t

type conn = {
  fd : Unix.file_descr;
  wkr : Fiber.waker;
  pending : resp Queue.t;
  mutable inbuf : Bytes.t;
  mutable in_len : int;
  mutable scanned : int;  (* inbuf.[0 .. scanned) holds no '\n' *)
  mutable wbuf : string;  (* partially written output *)
  mutable woff : int;
  mutable closing : bool;  (* EOF / QUIT / fatal: stop reading *)
  mutable suspended : bool;  (* read-side backpressure *)
  mutable last_activity : int;  (* Clock ns *)
}

(* The soft watermark: 3/4 of the scheduler's admission bound. *)
let soft_watermark sched =
  match Scheduler.max_queue sched with
  | None -> max_int
  | Some m -> Stdlib.max 1 (m * 3 / 4)

let suspend_reads t conn =
  if not conn.suspended then begin
    conn.suspended <- true;
    Atomic.incr t.c.c_suspended;
    Atomic.incr t.c.c_suspensions
  end

let maybe_resume_reads t conn =
  if
    conn.suspended
    && Scheduler.queue_depth (Service.scheduler t.svc)
       < soft_watermark (Service.scheduler t.svc)
  then begin
    conn.suspended <- false;
    Atomic.decr t.c.c_suspended
  end

(* Move every completed head-of-line response into the write buffer
   and push it out; on a full socket buffer, park on writability (and
   the idle deadline, so a stuck client can't hold the fd forever).
   Raises [Exit] to drop the connection. *)
let flush_conn t conn =
  let rec write_out () =
    let len = String.length conn.wbuf - conn.woff in
    if len > 0 then begin
      match Unix.write_substring conn.fd conn.wbuf conn.woff len with
      | n ->
        conn.woff <- conn.woff + n;
        conn.last_activity <- Clock.now_ns ();
        write_out ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        let deadline_ns =
          if t.cfg.idle_timeout_ms > 0 then
            Some (Clock.now_ns () + (t.cfg.idle_timeout_ms * 1_000_000))
          else None
        in
        match Fiber.wait ~writable:conn.fd ?deadline_ns () with
        | `Timeout -> raise Exit
        | _ -> write_out ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_out ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Exit
    end
  in
  let rec pump () =
    write_out ();
    (* every completed head leaves in one write, built as one
       exact-size string: a pipelined batch of small replies in a
       single syscall, a lone reply as one copy with its newline *)
    let rec gather acc =
      match Queue.peek_opt conn.pending with
      | Some cell -> (
        match Atomic.get cell with
        | Some line ->
          ignore (Queue.pop conn.pending);
          if is_overload_reply line then Atomic.incr t.c.c_overload_rejects;
          gather ("\n" :: line :: acc)
        | None -> acc)
      | None -> acc
    in
    match gather [] with
    | [] -> ()
    | acc ->
      conn.wbuf <- String.concat "" (List.rev acc);
      conn.woff <- 0;
      pump ()
  in
  pump ()

(* Parse every complete line in the input buffer and dispatch it.
   Returns how many scheduler jobs the batch submitted. *)
let parse_and_dispatch t conn =
  let jobs = ref 0 in
  let consumed = ref 0 in
  let quit () = conn.closing <- true in
  let rec scan () =
    if (not conn.closing) && conn.scanned < conn.in_len then begin
      match Bytes.index_from_opt conn.inbuf conn.scanned '\n' with
      | Some nl when nl < conn.in_len ->
        let line = Bytes.sub_string conn.inbuf !consumed (nl - !consumed) in
        consumed := nl + 1;
        conn.scanned <- nl + 1;
        Atomic.incr t.c.c_requests;
        let cell : resp =
          match P.parse line with
          | Error e -> Atomic.make (Some (P.err e))
          | Ok req -> (
            match dispatch t.svc ~quit req with
            | `Reply s -> Atomic.make (Some s)
            | `Job fut ->
              incr jobs;
              let cell = Atomic.make None in
              Scheduler.on_complete fut (fun result ->
                  let folded =
                    match result with
                    | Ok r -> r
                    | Error exn -> Error (Service_error.classify exn)
                  in
                  Atomic.set cell (Some (render_result folded));
                  Fiber.wake conn.wkr);
              cell)
        in
        Queue.push cell conn.pending;
        scan ()
      | _ -> conn.scanned <- conn.in_len
    end
  in
  scan ();
  if !consumed > 0 then begin
    (* drop the consumed prefix; keep the partial tail *)
    let rest = conn.in_len - !consumed in
    Bytes.blit conn.inbuf !consumed conn.inbuf 0 rest;
    conn.in_len <- rest;
    conn.scanned <- rest
  end;
  !jobs

let grow_inbuf conn =
  let cap = Bytes.length conn.inbuf in
  if conn.in_len = cap then
    if cap >= max_request_bytes then begin
      Queue.push
        (Atomic.make (Some (P.err "request line too long")))
        conn.pending;
      conn.closing <- true
    end
    else begin
      let nb = Bytes.create (Stdlib.min (2 * cap) max_request_bytes) in
      Bytes.blit conn.inbuf 0 nb 0 conn.in_len;
      conn.inbuf <- nb
    end

(* Read whatever the socket holds right now; [false] on EOF. *)
let read_some conn =
  let rec go () =
    grow_inbuf conn;
    if conn.closing then true
    else begin
      let cap = Bytes.length conn.inbuf in
      match Unix.read conn.fd conn.inbuf conn.in_len (cap - conn.in_len) with
      | 0 -> false
      | n ->
        conn.in_len <- conn.in_len + n;
        conn.last_activity <- Clock.now_ns ();
        if conn.in_len = cap then go () else true
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> false
    end
  in
  go ()

let conn_fiber t fd () =
  let conn =
    {
      fd;
      wkr = Fiber.waker t.loop;
      pending = Queue.create ();
      inbuf = Bytes.create 4096;
      in_len = 0;
      scanned = 0;
      wbuf = "";
      woff = 0;
      closing = false;
      suspended = false;
      last_activity = Clock.now_ns ();
    }
  in
  let cleanup () =
    if conn.suspended then Atomic.decr t.c.c_suspended;
    Atomic.decr t.c.c_open;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  try
    let sched = Service.scheduler t.svc in
    let rec loop () =
      flush_conn t conn;
      if conn.closing && Queue.is_empty conn.pending then ()
      else begin
        maybe_resume_reads t conn;
        let can_read = (not conn.closing) && not conn.suspended in
        let deadline_ns =
          if conn.suspended then Some (Clock.now_ns () + resume_recheck_ns)
          else if
            t.cfg.idle_timeout_ms > 0
            && can_read
            && Queue.is_empty conn.pending
          then Some (conn.last_activity + (t.cfg.idle_timeout_ms * 1_000_000))
          else None
        in
        let readable = if can_read then Some fd else None in
        (match Fiber.wait ?readable ~waker:conn.wkr ?deadline_ns () with
        | `Woken | `Writable -> ()
        | `Readable ->
          if not (read_some conn) then conn.closing <- true;
          let jobs = parse_and_dispatch t conn in
          if jobs > 0 then begin
            Atomic.incr t.c.c_batches;
            if Scheduler.queue_depth sched >= soft_watermark sched then
              suspend_reads t conn
          end
        | `Timeout ->
          if conn.suspended then ()
          else if
            Queue.is_empty conn.pending
            && Clock.now_ns () - conn.last_activity
               >= t.cfg.idle_timeout_ms * 1_000_000
          then raise Exit);
        loop ()
      end
    in
    loop ()
  with
  | Exit -> ()
  | Unix.Unix_error _ -> ()

let accept_fiber t () =
  Fun.protect
    ~finally:(fun () -> try Unix.close t.sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  let rec loop () =
    match Unix.accept ~cloexec:true t.sock with
    | fd, _ ->
      Atomic.incr t.c.c_accepted;
      if t.cfg.max_conns > 0 && Atomic.get t.c.c_open >= t.cfg.max_conns then
        refuse_conn t fd
      else begin
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        Atomic.incr t.c.c_open;
        bump_peak t.c;
        Fiber.spawn t.loop (conn_fiber t fd)
      end;
      loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ignore (Fiber.wait ~readable:t.sock ());
      loop ()
    | exception Unix.Unix_error (e, _, _) -> (
      match classify_accept_error t e with
      | Retry -> loop ()
      | Backoff ->
        Fiber.sleep_ns accept_backoff_ns;
        loop ()
      | Fatal ->
        if not (Atomic.get t.stop_requested) then
          Events.error (Service.events t.svc) ~kind:"edge.accept-fatal"
            [ ("error", Events.S (Unix.error_message e)) ])
  in
  loop ()

(* -- lifecycle ------------------------------------------------------ *)

let start svc cfg =
  if cfg.backlog < 1 then invalid_arg "Edge.start: backlog < 1";
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (try Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, cfg.port))
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     failwith
       (Printf.sprintf "cannot bind 127.0.0.1:%d: %s" cfg.port
          (Unix.error_message e)));
  Unix.listen sock cfg.backlog;
  let eport =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  Unix.set_nonblock sock;
  let t =
    {
      svc;
      cfg;
      sock;
      eport;
      c = new_counters ();
      loop = Fiber.create ~on_error:(fun _ -> ()) ();
      stop_requested = Atomic.make false;
      thread = None;
    }
  in
  Service.set_edge_source svc (Some (fun () -> gauges t));
  Events.info (Service.events svc) ~kind:"edge.listen"
    [
      ("port", Events.I eport);
      ("backlog", Events.I cfg.backlog);
      ("max_conns", Events.I cfg.max_conns);
    ];
  t.thread <- Some (Thread.create (fun () -> Fiber.run t.loop (accept_fiber t)) ());
  t

let join t = match t.thread with Some th -> Thread.join th | None -> ()

let stop t =
  if not (Atomic.exchange t.stop_requested true) then begin
    (* cancelling the fibers closes every fd, the listener included *)
    Fiber.stop t.loop;
    join t
  end

