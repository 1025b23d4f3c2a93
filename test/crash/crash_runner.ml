(* Crash-injection harness for the durable store.

   Spawns a real [xqbang serve --data-dir DIR --fsync always] child on
   a pipe, feeds it update queries over the wire protocol, and
   SIGKILLs it at randomized points — after an acknowledgment, or
   mid-query with the acknowledgment never read. After each kill the
   server is restarted on the same data dir and its recovered state
   (the canonical store digest from JOURNAL STAT) is compared against
   an in-process mirror service that replayed exactly the
   acknowledged queries: recovery must reproduce either the last
   acknowledged state or, when the kill raced the acknowledgment,
   that state plus the single in-flight query — never anything else.
   A final round shuts down cleanly (QUIT) and requires an exact
   match. Some rounds force a CHECKPOINT first so recovery exercises
   the snapshot + WAL-tail path, not just plain replay.

   Each SIGKILL round also verifies the crash flight recorder: the
   restarted server must write a flight-<ts>.json (the killed child's
   events.jsonl does not end in lifecycle.shutdown), the dump must be
   strict JSON, and no wal.commit event spliced into it may carry an
   LSN above what recovery reports — commit events are emitted after
   the durability barrier, so the event log can never claim more than
   the disk has. The clean-shutdown round must leave no dump. With
   XQBANG_CRASH_ARTIFACT_DIR set (an absolute path: under dune runtest
   the harness runs in _build), each round's dump is copied there (CI
   uploads them).

   A last, pipelined round runs a TCP server on its own data dir: two
   connections each send 8 inserts without waiting (concurrent
   writers, with every third one an exclusive nested snap),
   read only some of the acknowledgments, and the server is SIGKILLed
   with the rest in flight. The recovered state must hold every
   acknowledged insert, each connection's recovered inserts must be a
   prefix of what it sent, and the flight recorder's LSN check holds
   as above.

   The seed is printed and overridable via XQBANG_CRASH_SEED. *)

module Svc = Xqb_service.Service
module Catalog = Xqb_service.Catalog
module Codec = Xqb_wal.Codec
module Json = Xqb_obs.Json

let doc_xml = "<r><a/></r>"
let rounds = 6
let queries_per_round = 8

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("crash harness: " ^ m); exit 1) fmt

(* ---------- child process plumbing ---------- *)

type child = {
  pid : int;
  to_child : out_channel;
  from_child : in_channel;
  devnull : Unix.file_descr;
}

let spawn exe data_dir =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:false () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:false () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--data-dir"; data_dir; "--fsync"; "always" |]
      stdin_r stdout_w devnull
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  {
    pid;
    to_child = Unix.out_channel_of_descr stdin_w;
    from_child = Unix.in_channel_of_descr stdout_r;
    devnull;
  }

let send c line =
  output_string c.to_child line;
  output_char c.to_child '\n';
  flush c.to_child

let recv c what =
  match input_line c.from_child with
  | line -> line
  | exception End_of_file -> fail "child died while waiting for %s" what

let recv_ok c what =
  let line = recv c what in
  if String.length line >= 3 && String.sub line 0 3 = "OK " then
    String.sub line 3 (String.length line - 3)
  else if line = "OK" then ""
  else fail "%s: expected OK, got %S" what line

let sigkill c =
  Unix.kill c.pid Sys.sigkill;
  ignore (Unix.waitpid [] c.pid);
  close_out_noerr c.to_child;
  close_in_noerr c.from_child;
  Unix.close c.devnull

let quit c =
  send c "QUIT";
  (* drain until EOF so the child can flush and exit cleanly *)
  (try
     while true do
       ignore (input_line c.from_child)
     done
   with End_of_file -> ());
  ignore (Unix.waitpid [] c.pid);
  close_out_noerr c.to_child;
  close_in_noerr c.from_child;
  Unix.close c.devnull

(* OPEN a session and (re)attach the document; recovery already has
   the tree resident, so the LOAD is a cheap re-register then. *)
let session c doc_path =
  let sid = recv_ok c "OPEN" in
  let sid = match int_of_string_opt (String.trim sid) with
    | Some n -> n
    | None -> fail "OPEN returned %S" sid
  in
  send c (Printf.sprintf "LOAD %d d %s" sid doc_path);
  ignore (recv_ok c "LOAD");
  sid

let open_session c doc_path =
  send c "OPEN";
  session c doc_path

let journal_stat c =
  send c "JOURNAL STAT";
  let payload = recv_ok c "JOURNAL STAT" in
  match Json.parse payload with
  | Error e -> fail "JOURNAL STAT payload is not JSON (%s): %S" e payload
  | Ok v -> (
    match
      ( Option.bind (Json.path v [ "digest" ]) Json.to_string_opt,
        Option.bind (Json.path v [ "lsn" ]) Json.to_float_opt )
    with
    | Some d, Some lsn -> (d, int_of_float lsn)
    | _ -> fail "JOURNAL STAT payload lacks digest/lsn: %S" payload)

let journal_digest c = fst (journal_stat c)

(* ---------- flight-recorder checks ---------- *)

let flight_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n ->
         String.length n > 7
         && String.sub n 0 7 = "flight-"
         && Filename.check_suffix n ".json")
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The dump must parse, name its reason, and respect the commit
   barrier: no spliced wal.commit event may exceed the recovered
   LSN — the event is only logged once the frames are durable. *)
let check_flight ~round ~recovered_lsn path =
  let v =
    match Json.parse (read_file path) with
    | Ok v -> v
    | Error e -> fail "round %d: flight dump %s is not JSON: %s" round path e
  in
  (match Option.bind (Json.member "reason" v) Json.to_string_opt with
  | Some "unclean-shutdown" -> ()
  | Some r -> fail "round %d: flight reason %S" round r
  | None -> fail "round %d: flight dump has no reason" round);
  let events =
    match Json.member "events" v with
    | Some a -> Json.to_list a
    | None -> fail "round %d: flight dump splices no events" round
  in
  if events = [] then fail "round %d: flight dump has an empty event tail" round;
  List.iter
    (fun e ->
      match Option.bind (Json.member "kind" e) Json.to_string_opt with
      | Some "wal.commit" -> (
        match Option.bind (Json.path e [ "data"; "lsn" ]) Json.to_float_opt with
        | Some lsn ->
          if int_of_float lsn > recovered_lsn then
            fail
              "round %d: flight records wal.commit lsn %d but recovery only \
               reached %d"
              round (int_of_float lsn) recovered_lsn
        | None -> fail "round %d: wal.commit event without an lsn" round)
      | _ -> ())
    events

let copy_artifact path =
  match Sys.getenv_opt "XQBANG_CRASH_ARTIFACT_DIR" with
  | None | Some "" -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let dst = Filename.concat dir (Filename.basename path) in
    let oc = open_out_bin dst in
    output_string oc (read_file path);
    close_out_noerr oc

(* ---------- the in-process mirror ---------- *)

let mirror = Svc.create ~domains:0 ()
let mirror_sid = Svc.open_session mirror
let mirror_digest () = Codec.store_digest_hex (Catalog.store (Svc.catalog mirror))

let mirror_apply q =
  match Svc.query mirror mirror_sid q with
  | Ok _ -> ()
  | Error e ->
    fail "mirror rejected %S: %s" q (Xqb_service.Service_error.to_string e)

(* ---------- workload ---------- *)

let qcount = ref 0

(* A deterministic cycle of committing updates against doc("d"):
   mostly inserts (monotonic growth), with renames mixed in so
   recovery replays more than one op kind. *)
let next_query () =
  incr qcount;
  let i = !qcount in
  if i mod 4 = 0 then
    Printf.sprintf {|snap rename {(doc("d")/r/*)[1]} to {'m%d'}|} i
  else Printf.sprintf {|snap insert {<n%d/>} into {doc("d")/r}|} i

(* ---------- the pipelined round ---------- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end


let pipelined_inserts = 8

(* [exe serve --port 0] on [data_dir], stderr to [log]; the port from
   its "listening on" line. *)
let spawn_tcp exe data_dir log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--port"; "0"; "--domains"; "2"; "--data-dir"; data_dir;
         "--fsync"; "always" |]
      devnull out out
  in
  Unix.close out;
  Unix.close devnull;
  let prefix = "listening on 127.0.0.1:" in
  let rec wait tries =
    let text = try read_file log with Sys_error _ -> "" in
    let rec find i =
      if i + String.length prefix > String.length text then None
      else if String.sub text i (String.length prefix) = prefix then Some (i + String.length prefix)
      else find (i + 1)
    in
    match find 0 with
    | Some j ->
      let k = ref j in
      while !k < String.length text && text.[!k] >= '0' && text.[!k] <= '9' do incr k done;
      int_of_string (String.sub text j (!k - j))
    | None ->
      if tries = 0 then fail "pipelined round: server never reported its port:\n%s" text;
      Unix.sleepf 0.01;
      wait (tries - 1)
  in
  (pid, wait 3000)

let pipelined_round exe ~data_dir ~doc_path =
  rm_rf data_dir;
  let log = data_dir ^ ".log" in
  let pid, port = spawn_tcp exe data_dir log in
  let conns =
    Array.init 2 (fun k ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let c =
          {
            pid;
            to_child = Unix.out_channel_of_descr fd;
            from_child = Unix.in_channel_of_descr fd;
            devnull = fd;
          }
        in
        send c "OPEN";
        let sid = String.trim (recv_ok c "OPEN") in
        send c (Printf.sprintf "LOAD %s p%d %s" sid k doc_path);
        ignore (recv_ok c "LOAD");
        (c, sid))
  in
  (* every third insert nests a snap: an exclusive (⊤) job, so the kill
     also lands on parked exclusive replies *)
  let insert k i =
    Printf.sprintf {|%sinsert {<s%d_%d/>} into {doc("p%d")/r}|}
      (if i mod 3 = 2 then "snap " else "")
      k i k
  in
  (* every insert of both connections goes out before any ack is read *)
  for i = 0 to pipelined_inserts - 1 do
    Array.iteri
      (fun k (c, sid) -> send c (Printf.sprintf "QUERY %s %s" sid (insert k i)))
      conns
  done;
  let acked =
    Array.mapi
      (fun k (c, _) ->
        let n = Random.int (pipelined_inserts + 1) in
        for i = 0 to n - 1 do
          ignore (recv_ok c (Printf.sprintf "insert %d of connection %d" i k))
        done;
        n)
      conns
  in
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Array.iter (fun (c, _) -> close_out_noerr c.to_child) conns;
  (* recovery *)
  let flights_before = flight_files data_dir in
  let probe = spawn exe data_dir in
  let _, recovered_lsn = journal_stat probe in
  (match List.filter (fun f -> not (List.mem f flights_before)) (flight_files data_dir) with
  | [] -> fail "pipelined round: no flight dump after a SIGKILL recovery"
  | fresh -> check_flight ~round:0 ~recovered_lsn (Filename.concat data_dir (List.hd (List.rev fresh))));
  send probe "OPEN";
  let sid = String.trim (recv_ok probe "OPEN") in
  Array.iteri
    (fun k n ->
      send probe (Printf.sprintf "LOAD %s p%d %s" sid k doc_path);
      ignore (recv_ok probe "LOAD");
      send probe
        (Printf.sprintf {|QUERY %s string-join(for $e in doc("p%d")/r/* return name($e), ",")|}
           sid k);
      let names = String.split_on_char ',' (recv_ok probe "recovered names") in
      let inserted = List.filter (fun n -> n <> "a") names in
      let m = List.length inserted in
      List.iteri
        (fun i name ->
          if name <> Printf.sprintf "s%d_%d" k i then
            fail "pipelined round: connection %d recovered %s, not a prefix of what it sent"
              k (String.concat "," inserted))
        inserted;
      if m < n then
        fail "pipelined round: connection %d had %d inserts acknowledged, recovery kept %d"
          k n m;
      Printf.printf
        "crash harness: pipelined round, connection %d: %d acked, %d recovered of %d sent\n%!"
        k n m pipelined_inserts)
    acked;
  quit probe;
  rm_rf data_dir;
  (try Sys.remove log with Sys_error _ -> ())

(* ---------- driver ---------- *)

let () =
  let exe =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else fail "usage: crash_runner <path to xqbang binary>"
  in
  let seed =
    match Sys.getenv_opt "XQBANG_CRASH_SEED" with
    | Some s -> int_of_string s
    | None -> 0x5EED
  in
  Random.init seed;
  let tmp = Filename.get_temp_dir_name () in
  let data_dir =
    Filename.concat tmp (Printf.sprintf "xqbang-crash-%d" (Unix.getpid ()))
  in
  let doc_path =
    Filename.concat tmp (Printf.sprintf "xqbang-crash-doc-%d.xml" (Unix.getpid ()))
  in
  rm_rf data_dir;
  let oc = open_out doc_path in
  output_string oc doc_xml;
  close_out oc;
  Svc.load_document mirror mirror_sid ~uri:"d" doc_xml;
  Printf.printf "crash harness: seed %d, data dir %s\n%!" seed data_dir;

  (* verify the recovered child against the mirror; [inflight] is the
     query whose acknowledgment the kill raced, if any *)
  let verify ~round ~inflight =
    let flights_before = flight_files data_dir in
    let probe = spawn exe data_dir in
    let recovered, recovered_lsn = journal_stat probe in
    (* the killed child left its events.jsonl without a shutdown
       marker: this boot must have written a flight dump *)
    let fresh =
      List.filter
        (fun f -> not (List.mem f flights_before))
        (flight_files data_dir)
    in
    (match List.rev fresh with
    | [] -> fail "round %d: no flight dump after a SIGKILL recovery" round
    | newest :: _ ->
      let path = Filename.concat data_dir newest in
      check_flight ~round ~recovered_lsn path;
      copy_artifact path);
    let acked = mirror_digest () in
    (if recovered = acked then ()
     else
       match inflight with
       | None ->
         quit probe;
         fail "round %d: recovered %s but the acknowledged state is %s"
           round recovered acked
       | Some q ->
         (* the kill landed after the commit barrier but before the
            acknowledgment was read: the in-flight query is durable *)
         mirror_apply q;
         let with_inflight = mirror_digest () in
         if recovered <> with_inflight then begin
           quit probe;
           fail
             "round %d: recovered %s matches neither the acknowledged state \
              %s nor it plus the in-flight query (%s)"
             round recovered acked with_inflight
         end);
    quit probe
  in

  for round = 1 to rounds do
    let c = spawn exe data_dir in
    let sid = open_session c doc_path in
    let kill_at = Random.int queries_per_round in
    (* 0: kill right after an acknowledgment (no in-flight query);
       1: kill with the last acknowledgment unread;
       2: like 1, but force a CHECKPOINT mid-round first *)
    let mode = Random.int 3 in
    let inflight = ref None in
    (try
       for i = 0 to queries_per_round - 1 do
         if mode = 2 && i = kill_at / 2 then begin
           send c "CHECKPOINT";
           ignore (recv_ok c "CHECKPOINT")
         end;
         let q = next_query () in
         send c (Printf.sprintf "QUERY %d %s" sid q);
         if i < kill_at || mode = 0 then begin
           ignore (recv_ok c "QUERY");
           mirror_apply q;
           if i = kill_at then raise Exit
         end
         else begin
           (* let the child get a random way into commit, then kill
              without ever reading the acknowledgment *)
           if Random.bool () then Unix.sleepf (Random.float 0.004);
           inflight := Some q;
           raise Exit
         end
       done
     with Exit -> ());
    sigkill c;
    verify ~round ~inflight:!inflight;
    Printf.printf
      "crash harness: round %d ok (mode %d, killed at query %d%s)\n%!" round
      mode kill_at
      (if !inflight = None then ", no in-flight" else ", in-flight raced")
  done;

  (* clean shutdown must preserve everything exactly *)
  let c = spawn exe data_dir in
  let sid = open_session c doc_path in
  for _ = 1 to 4 do
    let q = next_query () in
    send c (Printf.sprintf "QUERY %d %s" sid q);
    ignore (recv_ok c "QUERY");
    mirror_apply q
  done;
  quit c;
  let flights_before = flight_files data_dir in
  let probe = spawn exe data_dir in
  let recovered = journal_digest probe in
  quit probe;
  if recovered <> mirror_digest () then
    fail "clean shutdown: recovered %s but expected %s" recovered
      (mirror_digest ());
  (* QUIT wrote lifecycle.shutdown: no flight dump on this boot *)
  if flight_files data_dir <> flights_before then
    fail "clean shutdown still produced a flight dump";
  Printf.printf "crash harness: clean shutdown round ok\n%!";
  Svc.shutdown mirror;
  rm_rf data_dir;
  pipelined_round exe ~data_dir:(data_dir ^ "-pipelined") ~doc_path;
  Sys.remove doc_path;
  print_endline "crash harness: all rounds passed"
