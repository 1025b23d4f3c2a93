(* One untraced run of one workload: boot the server three times for
   [setup_s], then warm-up, open loop and closed loop over the wire,
   then the end-of-run correctness checks (and, for the durable
   workload, SIGKILL + recovery). *)

let now = Xqb_obs.Clock.now_ns
let secs ns = float_of_int ns /. 1e9

type ctx = {
  exe : string;  (** the xqbang binary *)
  dir : string;  (** this run's scratch directory *)
  w : Workload.t;
  doc_files : (string * string) list;  (** uri, path of the generated XML *)
}

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let prepare ~exe ~dir w =
  rm_rf dir;
  mkdir_p dir;
  let doc_files =
    List.map
      (fun (uri, xml) ->
        let path = Filename.concat dir (uri ^ ".xml") in
        Stats.write_file path xml;
        (uri, path))
      w.Workload.docs
  in
  { exe; dir; w; doc_files }

let serve_args ctx ~data =
  [ "--domains"; string_of_int Workload.domains; "--plan-cache";
    string_of_int Workload.plan_cache ]
  @ (if ctx.w.Workload.durable then [ "--data-dir"; data ] else [])
  @ ctx.w.Workload.serve_flags

(* Spawn → listening → OPEN → every LOAD acknowledged. Returns the
   server, its first (document-owning) connection and the elapsed
   time. [tag] names the boot's log file and data directory. *)
let boot ctx tag =
  let data = Filename.concat ctx.dir ("data-" ^ tag) in
  let t0 = now () in
  let srv =
    Wire.spawn ~exe:ctx.exe ~log:(Filename.concat ctx.dir ("serve-" ^ tag ^ ".log"))
      (serve_args ctx ~data)
  in
  let c = Wire.connect srv.Wire.port in
  Wire.open_session c;
  List.iter
    (fun (uri, path) ->
      ignore (Wire.call_ok c (Printf.sprintf "LOAD %d %s %s" c.Wire.sid uri path)))
    ctx.doc_files;
  (srv, c, now () - t0, data)

(* The connections the phases drive: the boot connection plus fresh
   ones, each with its own session. *)
let connections c0 port =
  Array.init Workload.connections (fun k ->
      if k = 0 then c0
      else
        let c = Wire.connect port in
        Wire.open_session c;
        c)

(* Synchronous query on a fresh connection and session. *)
let with_query port f =
  let c = Wire.connect port in
  Fun.protect
    ~finally:(fun () -> Wire.close c)
    (fun () ->
      Wire.open_session c;
      f (Wire.query c))

let journal_digest port =
  let c = Wire.connect port in
  Fun.protect
    ~finally:(fun () -> Wire.close c)
    (fun () ->
      let json = Wire.call_ok c "JOURNAL STAT" in
      match Xqb_obs.Json.(Option.bind (member "digest" (parse_exn json)) to_string_opt) with
      | Some d -> d
      | None -> failwith ("JOURNAL STAT without a digest: " ^ json))

let check ctx port (t : Wire.tally) label =
  let errs =
    with_query port (fun query ->
        ctx.w.Workload.check ~acked:(Wire.acked t) ~acked_conn:(Wire.acked_conn t) ~query)
  in
  List.iter (fun e -> Wire.fail t (label ^ ": " ^ e)) errs;
  errs = []

(* SIGKILL the durable server, restart it on the same directory three
   times; each restart must come back with every acknowledged write
   and the store digest it had before the kill. Returns the restart
   times (spawn → listening). *)
let recover ctx srv data (t : Wire.tally) =
  let digest = journal_digest srv.Wire.port in
  let srv = ref srv and ok = ref true and times = ref [] in
  for r = 1 to 3 do
    Wire.reap !srv.Wire.pid;
    let t0 = now () in
    srv :=
      Wire.spawn ~exe:ctx.exe ~log:(Filename.concat ctx.dir (Printf.sprintf "recover-%d.log" r))
        (serve_args ctx ~data);
    times := secs (now () - t0) :: !times;
    ok := check ctx !srv.Wire.port t (Printf.sprintf "after restart %d" r) && !ok;
    let d = journal_digest !srv.Wire.port in
    if d <> digest then begin
      Wire.fail t (Printf.sprintf "restart %d: store digest %s, before SIGKILL %s" r d digest);
      ok := false
    end
  done;
  Wire.reap !srv.Wire.pid;
  (Array.of_list !times, !ok)

(* -- metrics -------------------------------------------------------- *)

let lat_ms (s : Wire.sample) =
  if s.Wire.s_lat = max_int then infinity else float_of_int s.Wire.s_lat /. 1e6

(* [p]-th percentile latency of the samples matching [pred], pooled over
   the open loops [os], with the sample count and each loop's own
   value. *)
let latency (os : Wire.open_result list) pred p =
  let pick (o : Wire.open_result) =
    Array.of_list
      (List.filter_map
         (fun s -> if pred s then Some (lat_ms s) else None)
         (Array.to_list o.Wire.samples))
  in
  let per = List.map pick os in
  let all = Array.concat per in
  ( Stats.percentile all p,
    Array.length all,
    Array.of_list
      (List.filter_map (fun a -> if a = [||] then None else Some (Stats.percentile a p)) per) )

(* A run measures on [boots] fresh servers in turn, each also one
   set-up sample, and pools their results. Throughput and latency
   settle into a level per server process (where its threads run, how
   its heap grows) that differed between processes by up to a quarter
   on the calibration host while staying flat within one; with a single
   server per run, every run would draw one such level. *)
let boots = 3

type served = {
  setup_s : float;
  open_ : Wire.open_result;
  closed : Wire.closed_result;
  closed_s : float;
  rss : int;  (** peak RSS after set-up, warm-up and the open loop *)
}

type result = {
  records : Stats.record list;
  tally : Wire.tally;
  correct : bool;
}

let run ~exe ~dir ~seed ~seconds name =
  let w = Workload.make name seed in
  let ctx = prepare ~exe ~dir w in
  let t = Wire.tally () in
  let arrivals = Random.State.make [| seed; 99 |] in
  (* per server: warm-up (not reported), open loop, closed loop, in the
     ratio 1 : 3 : 4, the measured parts adding up to [seconds] *)
  let phase share = seconds *. share /. 7. /. float_of_int boots in
  let serve k =
    let srv, c0, setup_ns, data = boot ctx (string_of_int k) in
    (* this server's own acknowledgements, checked against its state *)
    let st = Wire.tally () in
    let conns = connections c0 srv.Wire.port in
    let open_loop share =
      Wire.open_loop ~conns ~next:w.Workload.next ~pinned:w.Workload.pinned
        ~rate:w.Workload.rate ~arrivals ~seconds:(phase share) st
    in
    ignore (open_loop 1.);
    let open_ = open_loop 3. in
    (* after a fixed amount of work: the closed loop's volume depends on
       throughput *)
    let rss = Wire.peak_rss srv.Wire.pid in
    let closed =
      Wire.closed_loop ~conns ~next:w.Workload.next ~depth:Workload.depth
        ~seconds:(phase 4.) ~pid:srv.Wire.pid st
    in
    Array.iter Wire.close conns;
    let ok = check ctx srv.Wire.port st (Printf.sprintf "server %d" k) in
    (* the durable workload: the acknowledged state must survive SIGKILL *)
    let recovered, ok =
      if k = boots - 1 && w.Workload.durable then
        let times, rok = recover ctx srv data st in
        (times, ok && rok)
      else begin
        Wire.reap srv.Wire.pid;
        ([||], ok)
      end
    in
    Wire.absorb t st;
    (ok, recovered, { setup_s = secs setup_ns; open_; closed; closed_s = phase 4.; rss })
  in
  let runs = List.init boots serve in
  let ok = List.for_all (fun (ok, _, _) -> ok) runs in
  let recovered = Array.concat (List.map (fun (_, r, _) -> r) runs) in
  let served = List.map (fun (_, _, s) -> s) runs in
  let each f = Array.of_list (List.map f served) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 served in
  let r name unit_ ?windows ~n v =
    Stats.make ~workload:w.Workload.name ~name ~unit_ ?windows ~n v
  in
  let opens = List.map (fun s -> s.open_) served in
  let lat label pred =
    let p50, n, w50 = latency opens pred 50. in
    let p99, _, w99 = latency opens pred 99. in
    if n = 0 then []
    else
      [
        r (label ^ "p50_ms") "ms" ~windows:w50 ~n p50;
        r (label ^ "p99_ms") "ms" ~windows:w99 ~n p99;
      ]
  in
  let is cls (s : Wire.sample) = s.Wire.s_cls = cls in
  let completed = sum (fun s -> s.closed.Wire.completed) in
  let setups = each (fun s -> s.setup_s) and rss = each (fun s -> float_of_int s.rss /. 1048576.) in
  let records =
    [ r "setup_s" "s" ~windows:setups ~n:boots (Stats.median setups) ]
    @ lat "" (fun _ -> true)
    @ lat "read_" (is Workload.Read)
    @ lat "write_" (is Workload.Write)
    @ [
        r "tput_rps" "req/s" ~n:completed
          ~windows:(each (fun s -> float_of_int s.closed.Wire.completed /. s.closed_s))
          (float_of_int completed /. List.fold_left (fun acc s -> acc +. s.closed_s) 0. served);
        r "cpu_us_per_req" "us" ~n:completed
          ~windows:
            (each (fun s ->
                 float_of_int s.closed.Wire.cpu_us /. float_of_int (max 1 s.closed.Wire.completed)))
          (float_of_int (sum (fun s -> s.closed.Wire.cpu_us)) /. float_of_int (max 1 completed));
        r "err_pct" "%" ~n:t.Wire.attempted
          (100. *. float_of_int t.Wire.failed /. float_of_int (max 1 t.Wire.attempted));
        r "rss_mb" "MiB" ~windows:rss ~n:boots (Stats.median rss);
        (let late =
           Array.concat (List.map (fun o -> o.Wire.lateness_ns) opens)
         in
         r "gen_late_p99_ms" "ms" ~n:(Array.length late)
           (Stats.percentile (Array.map (fun l -> float_of_int l /. 1e6) late) 99.));
      ]
    @
    if recovered = [||] then []
    else [ r "recover_s" "s" ~windows:recovered ~n:3 (Stats.median recovered) ]
  in
  { records; tally = t; correct = ok && t.Wire.failed = 0 }
