(* xqbench — the repository's benchmark (README.md).

     xqbench [--workload W|all] [--seed N] [--seconds S] [--trace 0|1]
             [--json OUT] [--trace-out PATH] [--smoke]
             [--server PATH] [--bench BENCHMARK.json]
     xqbench compare BASE.json NEW.json [--bench BENCHMARK.json]

   A run prints every metric of every workload it ran, then, as its
   last line, one JSON object: {"correct", "attempted", "failed",
   "metrics"} with the end-to-end metrics BENCHMARK.json names
   (untraced) or its per-layer metrics ([--trace 1]). It exits 0 only
   when every reply and every end-of-run invariant checked out. *)

let usage () =
  prerr_endline
    "usage: xqbench [--workload W|all] [--seed N] [--seconds S] [--trace 0|1] [--json OUT]\n\
    \               [--trace-out PATH] [--smoke] [--server PATH] [--bench BENCHMARK.json]\n\
    \       xqbench compare BASE.json NEW.json [--bench BENCHMARK.json]";
  exit 2

let scratch = ".xqbench"

(* The metric names (and run length) BENCHMARK.json fixes; the final
   line reports exactly these. *)
let bench_names path key =
  let module J = Xqb_obs.Json in
  let v = J.parse_exn (Stats.read_file path) in
  List.filter_map
    (fun e -> Option.bind (J.member "name" e) J.to_string_opt)
    (J.to_list (Option.value (J.member key v) ~default:J.Null))

let bench_seconds path =
  Option.bind (Xqb_obs.Json.member "run_seconds" (Xqb_obs.Json.parse_exn (Stats.read_file path)))
    Xqb_obs.Json.to_float_opt

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flag name default =
    let rec go = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> go rest
      | [] -> default
    in
    go args
  in
  let bench = flag "--bench" "BENCHMARK.json" in
  match args with
  | "compare" :: base :: next :: _ -> exit (if Compare.run ~bench_path:bench base next then 0 else 1)
  | "compare" :: _ -> usage ()
  | _ ->
    let smoke = List.mem "--smoke" args in
    let int_flag name default =
      match int_of_string_opt (flag name (string_of_int default)) with
      | Some n -> n
      | None -> usage ()
    in
    let seed = int_flag "--seed" 1 in
    let trace = int_flag "--trace" 0 = 1 in
    let seconds =
      if smoke then 1.
      else
        match float_of_string_opt (flag "--seconds" "") with
        | Some s when s > 0. -> s
        | _ -> Option.value (if Sys.file_exists bench then bench_seconds bench else None) ~default:28.
    in
    let exe = flag "--server" "_build/default/bin/xqbang.exe" in
    let workloads =
      match flag "--workload" "all" with "all" -> Workload.names | w -> [ w ]
    in
    if not (Sys.file_exists exe) then begin
      Printf.eprintf "xqbench: no server binary at %s (build bin/xqbang.exe first)\n" exe;
      exit 2
    end;
    Harness.mkdir_p scratch;
    let results =
      List.map
        (fun name ->
          let dir = Filename.concat scratch ("run-" ^ name) in
          let records, (t : Wire.tally), correct =
            Fun.protect
              ~finally:(fun () -> Wire.kill_all (); Harness.rm_rf dir)
              (fun () ->
                if trace then
                  let trace_out =
                    flag "--trace-out" (Filename.concat scratch ("trace-" ^ name ^ ".json"))
                  in
                  let records, t = Trace.run ~exe ~dir ~seed ~trace_out name in
                  Printf.printf "trace written to %s\n" trace_out;
                  (records, t, t.Wire.failed = 0)
                else
                  let r = Harness.run ~exe ~dir ~seed ~seconds name in
                  (r.Harness.records, r.Harness.tally, r.Harness.correct))
          in
          Report.records
            (Printf.sprintf "%s (seed %d%s)" name seed (if trace then ", traced" else ""))
            records;
          List.iter (fun e -> Printf.printf "FAILED CHECK %s: %s\n" name e) (List.rev t.Wire.errors);
          (name, records, t, correct))
        workloads
    in
    Option.iter
      (fun out -> Stats.append_records out (List.concat_map (fun (_, r, _, _) -> r) results))
      (match flag "--json" "" with "" -> None | p -> Some p);
    (* the final line: exactly the metrics BENCHMARK.json names *)
    let wanted =
      if Sys.file_exists bench then Some (bench_names bench (if trace then "per_layer" else "end_to_end"))
      else None
    in
    let missing = ref [] in
    let metrics =
      List.concat_map
        (fun (name, records, _, _) ->
          let key m = if List.length results = 1 then m else name ^ "/" ^ m in
          let chosen =
            match wanted with
            | None -> records
            | Some names ->
              List.filter_map
                (fun m ->
                  match List.find_opt (fun (r : Stats.record) -> r.name = m) records with
                  | Some r when Float.is_finite r.value -> Some r
                  | _ ->
                    missing := (name ^ "/" ^ m) :: !missing;
                    None)
                names
          in
          List.map
            (fun (r : Stats.record) ->
              Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Stats.json_str (key r.name))
                (Stats.json_num r.value) (Stats.json_str r.unit_))
            chosen)
        results
    in
    List.iter (Printf.printf "MISSING METRIC %s\n") (List.rev !missing);
    let correct = !missing = [] && List.for_all (fun (_, _, _, c) -> c) results in
    let sum f = List.fold_left (fun acc (_, _, t, _) -> acc + f t) 0 results in
    Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
      (sum (fun t -> t.Wire.attempted))
      (sum (fun t -> t.Wire.failed))
      (String.concat "," metrics);
    exit (if correct then 0 else 1)
