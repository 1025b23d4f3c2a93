(* [xqbench compare BASE.json NEW.json]: one row per (metric,
   workload) present in both files, judged against the bounds in
   BENCHMARK.json.

   - worse: the new median is worse than the base median by more than
     the bound (err_pct: by anything at all);
   - better: better by more than the bound;
   - within bound: neither;
   - unresolved: the run-to-run spread (interquartile range over
     median) of either side is wider than the bound, unless every new
     value beats every base value.

   With one record per side the spread falls back to that run's own
   quartiles (over its three servers). Metrics without a bound (the
   per-layer ones) are listed with their change only. *)

type better = Lower | Higher

type bench = {
  better : (string * better) list;
  bounds : (string * float) list;
}

let load_bench path =
  let module J = Xqb_obs.Json in
  let v = J.parse_exn (Stats.read_file path) in
  let entries key = J.to_list (Option.value (J.member key v) ~default:J.Null) in
  let name e = Option.bind (J.member "name" e) J.to_string_opt in
  let all = entries "end_to_end" @ entries "per_layer" in
  {
    better =
      List.filter_map
        (fun e ->
          match (name e, Option.bind (J.member "better" e) J.to_string_opt) with
          | Some n, Some "higher" -> Some (n, Higher)
          | Some n, Some _ -> Some (n, Lower)
          | _ -> None)
        all;
    bounds =
      List.filter_map
        (fun e ->
          match (name e, Option.bind (J.member "bound" e) J.to_float_opt) with
          | Some n, Some b -> Some (n, b)
          | _ -> None)
        (entries "end_to_end");
  }

(* Class-split latencies and recovery time are printed next to the
   end-to-end set; they take the bound of the metric they refine. *)
let bound_of bench name =
  let strip prefix s =
    let n = String.length prefix in
    if String.starts_with ~prefix s then Some (String.sub s n (String.length s - n)) else None
  in
  match List.assoc_opt name bench.bounds with
  | Some b -> Some b
  | None -> (
    match (strip "read_" name, strip "write_" name) with
    | Some base, _ | _, Some base -> List.assoc_opt base bench.bounds
    | None, None -> if name = "recover_s" then List.assoc_opt "setup_s" bench.bounds else None)

let better_of bench name =
  Option.value (List.assoc_opt name bench.better) ~default:Lower

type side = { med : float; spread : float; values : float array }

let side (records : Stats.record list) =
  let values = Array.of_list (List.map (fun (r : Stats.record) -> r.value) records) in
  let med = Stats.median values in
  let q1, q3 =
    match records with
    | [ r ] -> (r.q1, r.q3)
    | _ -> Stats.quartiles values
  in
  { med; spread = (if med = 0. then 0. else (q3 -. q1) /. Float.abs med); values }

let run ~bench_path base_path new_path =
  let bench = load_bench bench_path in
  let base = Stats.load_records base_path and next = Stats.load_records new_path in
  let keys =
    List.sort_uniq compare
      (List.map (fun (r : Stats.record) -> (r.workload, r.name, r.unit_)) base)
  in
  let worse = ref 0 in
  let rows =
    List.filter_map
      (fun (wl, name, unit_) ->
        let pick rs =
          List.filter (fun (r : Stats.record) -> r.workload = wl && r.name = name) rs
        in
        match pick next with
        | [] -> None
        | nrs ->
          let b = side (pick base) and n = side nrs in
          let dir = better_of bench name in
          (* positive = worse, as a share of the base median *)
          let change =
            if b.med = 0. then if n.med = 0. then 0. else infinity
            else
              match dir with
              | Lower -> (n.med -. b.med) /. Float.abs b.med
              | Higher -> (b.med -. n.med) /. Float.abs b.med
          in
          let beats x y = match dir with Lower -> x < y | Higher -> x > y in
          let all_better =
            Array.for_all (fun x -> Array.for_all (fun y -> beats x y) b.values) n.values
          in
          let bound = bound_of bench name in
          let verdict =
            match bound with
            | _ when name = "err_pct" -> if n.med > b.med then "worse" else "within bound"
            | None -> "(no bound)"
            | Some bd ->
              if Float.max b.spread n.spread > bd then
                if all_better then "better" else "unresolved"
              else if change > bd then "worse"
              else if change < -.bd then "better"
              else "within bound"
          in
          if verdict = "worse" then incr worse;
          Some
            [
              wl; name; unit_; Printf.sprintf "%.4g" b.med; Printf.sprintf "%.4g" n.med;
              Printf.sprintf "%+.1f%%" (-100. *. change);
              Printf.sprintf "%.1f%%/%.1f%%" (100. *. b.spread) (100. *. n.spread);
              (match bound with Some bd -> Printf.sprintf "%.0f%%" (100. *. bd) | None -> "-");
              verdict;
            ])
      keys
  in
  Report.table
    [ "workload"; "metric"; "unit"; "base"; "new"; "gain"; "spread b/n"; "bound"; "verdict" ]
    rows;
  !worse = 0
