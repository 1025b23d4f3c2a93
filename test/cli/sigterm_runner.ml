(* SIGTERM must stop `xqbang serve`: run a served child on a data dir,
   give it a short load of inserts and reads over its stdin/stdout
   protocol, SIGTERM it, and require exit status 143 within 5 s and a
   flight dump (reason "sigterm") that parses as strict JSON. Odd runs
   send the signal with the last replies still unread, so jobs may be
   in flight. Twenty runs: a hang that shows up once in tens of runs
   fails here often enough to notice.

   Usage: sigterm_runner <path to xqbang binary> *)

module Json = Xqb_obs.Json

let runs = 20
let queries = 24
let exit_within_s = 5.

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("sigterm runner: " ^ m); exit 1) fmt

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [Some status] once [pid] has exited, [None] after [secs]. *)
let wait_exit pid secs =
  let until = Unix.gettimeofday () +. secs in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < until ->
      Unix.sleepf 0.01;
      poll ()
    | 0, _ -> None
    | _, status -> Some status
  in
  poll ()

let run exe ~doc_path ~data_dir i =
  rm_rf data_dir;
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--domains"; "2"; "--data-dir"; data_dir; "--fsync"; "always" |]
      stdin_r stdout_w devnull
  in
  List.iter Unix.close [ stdin_r; stdout_w; devnull ];
  let oc = Unix.out_channel_of_descr stdin_w in
  let ic = Unix.in_channel_of_descr stdout_r in
  let expect_ok what =
    match input_line ic with
    | line when String.length line >= 2 && String.sub line 0 2 = "OK" -> ()
    | line -> fail "run %d: %s answered %S" i what line
    | exception End_of_file -> fail "run %d: the server died during %s" i what
  in
  output_string oc "OPEN\n";
  Printf.fprintf oc "LOAD 1 d %s\n" doc_path;
  for q = 1 to queries do
    if q mod 3 = 0 then output_string oc "QUERY 1 count(doc(\"d\")/r/*)\n"
    else Printf.fprintf oc "QUERY 1 insert {<e n=\"%d\"/>} into {doc(\"d\")/r}\n" q
  done;
  flush oc;
  let unread = if i mod 2 = 1 then 8 else 0 in
  for q = 1 to queries + 2 - unread do
    expect_ok (Printf.sprintf "request %d" q)
  done;
  Unix.kill pid Sys.sigterm;
  (match wait_exit pid exit_within_s with
  | Some (Unix.WEXITED 143) -> ()
  | Some (Unix.WEXITED n) -> fail "run %d: exit status %d, not 143" i n
  | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) -> fail "run %d: stopped by signal %d" i n
  | None ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    fail "run %d: no exit within %.0f s of SIGTERM" i exit_within_s);
  close_out_noerr oc;
  close_in_noerr ic;
  let dumps =
    Sys.readdir data_dir |> Array.to_list
    |> List.filter (fun n ->
           String.length n > 7 && String.sub n 0 7 = "flight-"
           && Filename.check_suffix n ".json")
  in
  (match dumps with
  | [ name ] -> (
    match Json.parse (read_file (Filename.concat data_dir name)) with
    | Error e -> fail "run %d: flight dump %s is not JSON: %s" i name e
    | Ok v ->
      if Option.bind (Json.member "reason" v) Json.to_string_opt <> Some "sigterm" then
        fail "run %d: flight dump %s does not give reason sigterm" i name)
  | l -> fail "run %d: %d flight dumps, expected 1" i (List.length l));
  rm_rf data_dir

let () =
  let exe =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else fail "usage: sigterm_runner <path to xqbang binary>"
  in
  let tmp = Filename.get_temp_dir_name () in
  let stem = Filename.concat tmp (Printf.sprintf "xqbang-sigterm-%d" (Unix.getpid ())) in
  let doc_path = stem ^ ".xml" in
  let oc = open_out doc_path in
  output_string oc "<r/>";
  close_out oc;
  for i = 1 to runs do
    run exe ~doc_path ~data_dir:(stem ^ "-data") i
  done;
  Sys.remove doc_path;
  Printf.printf "sigterm runner: %d runs exited 143 with a flight dump\n%!" runs
