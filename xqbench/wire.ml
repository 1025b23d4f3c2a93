(* The served side of the benchmark: the real [xqbang serve] as a child
   process, line-protocol connections to it, and the open- and
   closed-loop load generators. One client process, one thread: a
   select loop sends each request when it is due and reads replies as
   they come, so the generator never contends with itself for the
   runtime lock.

   All timing is on the monotonic clock ([Xqb_obs.Clock.now_ns]). *)

let now = Xqb_obs.Clock.now_ns

(* -- server processes ------------------------------------------------- *)

type server = { pid : int; port : int; log : string }

(* Every child ever spawned and not yet reaped; [kill_all] runs at exit
   so no server outlives the benchmark, even on a failed check. *)
let live : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let kill_all () = List.iter reap !live

let () = at_exit kill_all

let listening_prefix = "listening on 127.0.0.1:"

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* The first [n] bytes of [s], for error messages. *)
let clip n s = String.sub s 0 (min n (String.length s))

(* Spawn [exe serve --port 0 ...], wait for its "listening on" line
   (the kernel-chosen port) on stderr, which goes to [log]. The
   server's runtime-events ring files go next to the log, not into the
   working directory. *)
let spawn ~exe ~log args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = Array.of_list (exe :: "serve" :: "--port" :: "0" :: args) in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close devnull)
      (fun () ->
        let env =
          Array.append
            [| "OCAML_RUNTIME_EVENTS_DIR=" ^ Filename.dirname log |]
            (Array.of_list
               (List.filter
                  (fun v -> not (String.starts_with ~prefix:"OCAML_RUNTIME_EVENTS_DIR=" v))
                  (Array.to_list (Unix.environment ()))))
        in
        Unix.create_process_env exe argv env devnull out out)
  in
  live := pid :: !live;
  let deadline = now () + 60_000_000_000 in
  let rec wait () =
    let text = try Stats.read_file log with Sys_error _ -> "" in
    match find_sub text listening_prefix with
    | Some i ->
      let j = i + String.length listening_prefix in
      let k = ref j in
      while !k < String.length text && text.[!k] >= '0' && text.[!k] <= '9' do incr k done;
      { pid; port = int_of_string (String.sub text j (!k - j)); log }
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith (Printf.sprintf "server exited during start-up:\n%s" text));
      if now () > deadline then begin
        reap pid;
        failwith "server did not report its port within 60 s"
      end;
      Unix.sleepf 0.001;
      wait ()
  in
  wait ()

(* /proc/<pid>/stat utime + stime, in microseconds (USER_HZ = 100). *)
let cpu_us pid =
  let s = Stats.read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* rest.(0) is field 3 (state); utime/stime are fields 14/15 *)
  (int_of_string f.(11) + int_of_string f.(12)) * 10_000

(* Peak resident set (VmHWM) in bytes. *)
let peak_rss pid =
  let s = Stats.read_file (Printf.sprintf "/proc/%d/status" pid) in
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  with
  | Some l ->
    let kb = Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id in
    kb * 1024
  | None -> failwith "no VmHWM in /proc status"

(* -- connections ------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;
  lines : string Queue.t;
  mutable sid : int;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; chunk = Bytes.create 65536; partial = Buffer.create 4096; lines = Queue.create (); sid = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all c s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* One read(2); complete lines go to [c.lines]. *)
let fill c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "server closed the connection";
  let start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get c.chunk i = '\n' then begin
      Buffer.add_subbytes c.partial c.chunk !start (i - !start);
      Queue.push (Buffer.contents c.partial) c.lines;
      Buffer.clear c.partial;
      start := i + 1
    end
  done;
  Buffer.add_subbytes c.partial c.chunk !start (n - !start)

let rec read_line c =
  match Queue.take_opt c.lines with
  | Some l -> l
  | None ->
    fill c;
    read_line c

let call c line =
  write_all c (line ^ "\n");
  read_line c

let ok_payload line =
  if String.length line >= 3 && String.sub line 0 3 = "OK " then
    Some (Xqb_service.Protocol.unescape (String.sub line 3 (String.length line - 3)))
  else if line = "OK" then Some ""
  else None

let call_ok c line =
  match ok_payload (call c line) with
  | Some p -> p
  | None -> failwith (Printf.sprintf "%s -> not OK" (clip 60 line))

let open_session c = c.sid <- int_of_string (call_ok c "OPEN")

let query c text = call_ok c (Printf.sprintf "QUERY %d %s" c.sid text)

(* -- request accounting ----------------------------------------------- *)

type inflight = { seq : int; due : int; sent : int; req : Workload.req }

(* One completed request: latency from its due time (max_int for a
   failure of any kind) and its class. *)
type sample = { s_lat : int; s_cls : Workload.cls }

type tally = {
  mutable attempted : int;
  mutable failed : int;
  acked : (int * string, int) Hashtbl.t;  (** (connection, kind) → OK replies *)
  mutable errors : string list;  (** first few failure descriptions *)
}

let tally () = { attempted = 0; failed = 0; acked = Hashtbl.create 16; errors = [] }

let acked_conn t k kind = Option.value (Hashtbl.find_opt t.acked (k, kind)) ~default:0

let acked t kind =
  Hashtbl.fold (fun (_, kd) n acc -> if kd = kind then acc + n else acc) t.acked 0

let note_error t msg = if List.length t.errors < 5 then t.errors <- msg :: t.errors

(* One failure: a wrong or missing reply, or a broken invariant. *)
let fail t msg =
  t.failed <- t.failed + 1;
  note_error t msg

(* Fold [src]'s counts and failure notes into [dst]; acknowledgements
   stay with [src], which is checked against its own server. *)
let absorb dst src =
  dst.attempted <- dst.attempted + src.attempted;
  dst.failed <- dst.failed + src.failed;
  List.iter (note_error dst) (List.rev src.errors)

(* Judge one reply against its request; true when correct. *)
let judge t k (f : inflight) line =
  let good =
    match ok_payload line with
    | None -> false
    | Some p -> ( match f.req.expect with None -> true | Some e -> p = e)
  in
  if good then
    Hashtbl.replace t.acked (k, f.req.kind) (acked_conn t k f.req.kind + 1)
  else fail t (Printf.sprintf "%s: %s" f.req.kind (clip 200 line));
  good

let request_line c (r : Workload.req) = Printf.sprintf "QUERY %d %s\n" c.sid r.text

(* Replies not in within this long after a phase ends are timeouts. *)
let drain_ns = 10_000_000_000

(* Wait for replies on every connection with requests outstanding,
   at most [timeout_ns]; hand each to [on_reply k line]. *)
let poll conns queues timeout_ns on_reply =
  let waiting =
    List.filter (fun k -> not (Queue.is_empty queues.(k))) (List.init (Array.length conns) Fun.id)
  in
  let fds = List.map (fun k -> conns.(k).fd) waiting in
  if fds = [] then (if timeout_ns > 0 then Unix.sleepf (float_of_int timeout_ns /. 1e9))
  else
    let ready, _, _ =
      try Unix.select fds [] [] (float_of_int (max 0 timeout_ns) /. 1e9)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun k ->
        let c = conns.(k) in
        if List.memq c.fd ready then begin
          fill c;
          Queue.iter (on_reply k) c.lines;
          Queue.clear c.lines
        end)
      waiting

(* Outstanding requests past the drain deadline: failed, and the
   connections are no longer in step with their queues. *)
let expire t queues =
  let lost = Array.fold_left (fun acc q -> acc + Queue.length q) 0 queues in
  if lost > 0 then begin
    t.failed <- t.failed + lost;
    note_error t (Printf.sprintf "%d requests timed out" lost);
    failwith (Printf.sprintf "%d requests got no reply within %d s" lost (drain_ns / 1_000_000_000))
  end

(* -- open loop ---------------------------------------------------------- *)

type open_result = {
  samples : sample array;
  lateness_ns : int array;  (** send time − due time, per request *)
}

(* Where request [i] of an open loop goes. Pinned streams keep their
   connection. Otherwise, replies come back in submission order per
   connection, so a request queued behind a slow one waits for it: pick
   an idle connection, else the one whose oldest outstanding request was
   sent most recently (the least likely to be a long one). *)
let route ~pinned queues i =
  let n = Array.length queues in
  if pinned then i mod n
  else
    let best = ref (i mod n) in
    let score k = match Queue.peek_opt queues.(k) with None -> max_int | Some f -> f.sent in
    Array.iteri (fun k _ -> if score k > score !best then best := k) queues;
    !best

(* Poisson arrivals at [rate] for [seconds] (or until [limit] requests
   were sent); request i is the next of stream i mod n. Latency runs
   from the due time, so a stall charges every request that should have
   been sent during it. [on_sample] sees each completed request (the
   traced run records its spans there). *)
let open_loop ?(on_sample = fun _ _ -> ()) ?(limit = max_int) ~conns
    ~(next : int -> Workload.req) ~pinned ~rate ~arrivals ~seconds t =
  let n = Array.length conns in
  let queues = Array.init n (fun _ -> Queue.create ()) in
  let samples = ref [] and lateness = ref [] in
  let gap () = int_of_float (-.log (1. -. Random.State.float arrivals 1.) /. rate *. 1e9) in
  let start = now () in
  let stop = start + int_of_float (seconds *. 1e9) in
  let due = ref (start + gap ()) and i = ref 0 in
  let on_reply k line =
    let f = Queue.pop queues.(k) in
    let at = now () in
    let good = judge t k f line in
    let s = { s_lat = (if good then at - f.due else max_int); s_cls = f.req.cls } in
    on_sample s f;
    samples := s :: !samples
  in
  while !due < stop && !i < limit do
    let tnow = now () in
    if !due <= tnow then begin
      while !due <= tnow && !due < stop && !i < limit do
        let req = next (!i mod n) in
        let k = route ~pinned queues !i in
        write_all conns.(k) (request_line conns.(k) req);
        let sent = now () in
        t.attempted <- t.attempted + 1;
        lateness := (sent - !due) :: !lateness;
        Queue.push { seq = !i; due = !due; sent; req } queues.(k);
        incr i;
        due := !due + gap ()
      done
    end
    else poll conns queues (!due - tnow) on_reply
  done;
  let deadline = now () + drain_ns in
  while Array.exists (fun q -> not (Queue.is_empty q)) queues && now () < deadline do
    poll conns queues (deadline - now ()) on_reply
  done;
  expire t queues;
  {
    samples = Array.of_list (List.rev !samples);
    lateness_ns = Array.of_list !lateness;
  }

(* -- closed loop -------------------------------------------------------- *)

type closed_result = {
  completed : int;  (** replies inside the phase *)
  cpu_us : int;  (** server CPU over the phase *)
}

(* Each connection keeps [depth] requests in flight for [seconds]:
   capacity and server CPU per request. *)
let closed_loop ~conns ~(next : int -> Workload.req) ~depth ~seconds ~pid t =
  let n = Array.length conns in
  let queues = Array.init n (fun _ -> Queue.create ()) in
  let send k =
    let req = next k in
    write_all conns.(k) (request_line conns.(k) req);
    let at = now () in
    Queue.push { seq = t.attempted; due = at; sent = at; req } queues.(k);
    t.attempted <- t.attempted + 1
  in
  let cpu0 = cpu_us pid in
  let stop = now () + int_of_float (seconds *. 1e9) in
  let completed = ref 0 in
  let on_reply k line =
    let f = Queue.pop queues.(k) in
    ignore (judge t k f line);
    if now () < stop then begin
      incr completed;
      send k
    end
  in
  for k = 0 to n - 1 do
    for _ = 1 to depth do send k done
  done;
  while now () < stop do
    poll conns queues (stop - now ()) on_reply
  done;
  let cpu_us = cpu_us pid - cpu0 in
  let deadline = now () + drain_ns in
  while Array.exists (fun q -> not (Queue.is_empty q)) queues && now () < deadline do
    poll conns queues (deadline - now ()) on_reply
  done;
  expire t queues;
  { completed = !completed; cpu_us }
