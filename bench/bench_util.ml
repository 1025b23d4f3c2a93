(* Measurement and reporting helpers shared by every experiment in
   bench/main.ml.

   Two measurement styles:
   - [measure_ns] uses Bechamel (OLS over geometric run counts) for
     micro-operations;
   - [wall_ms] takes a single elapsed-time measurement on the
     monotonic clock for macro runs whose setup cannot be repeated
     cheaply (fresh store per run). *)

open Bechamel

(* -- machine-readable results (bench --json PATH) -------------------

   Every measurement records (name, unit, value, n) here;
   [write_json] dumps the run for the committed BENCH_*.json
   trajectory files. [unit] names what [value] counts ("ns",
   "words", "%", "count"); [n] is the workload size the number
   refers to (1 for micro-ops). *)

let json_results : (string * string * float * int) list ref = ref []

let record ~name ~unit ~n value =
  json_results := (name, unit, value, n) :: !json_results

let write_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let escape s =
        String.concat ""
          (List.map
             (function
               | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n"
               | c -> String.make 1 c)
             (List.init (String.length s) (String.get s)))
      in
      output_string oc "[\n";
      List.iteri
        (fun i (name, unit, value, n) ->
          Printf.fprintf oc
            "  {\"name\":\"%s\",\"unit\":\"%s\",\"value\":%.1f,\"n\":%d}%s\n"
            (escape name) (escape unit) value n
            (if i = List.length !json_results - 1 then "" else ","))
        (List.rev !json_results);
      output_string oc "]\n");
  Printf.printf "wrote %d results to %s\n" (List.length !json_results) path

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]

let clock = Toolkit.Instance.monotonic_clock

(* Estimated nanoseconds per run of [f]. *)
let measure_ns ?(quota = 0.4) name (f : unit -> unit) : float =
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) () in
  let raw = Benchmark.all cfg [ clock ] test in
  let res = Analyze.all ols clock raw in
  match Analyze.OLS.estimates (Hashtbl.find res name) with
  | Some [ t ] ->
    record ~name ~unit:"ns" ~n:1 t;
    t
  | _ -> Float.nan

(* One run's elapsed time, in milliseconds, with the result value
   kept alive. *)
let wall_ms (f : unit -> 'a) : 'a * float =
  let t0 = Xqb_obs.Clock.now_ns () in
  let v = f () in
  let t1 = Xqb_obs.Clock.now_ns () in
  (v, float_of_int (t1 - t0) /. 1e6)

(* Median-of-3 wall time for slightly steadier macro numbers. *)
let wall_ms_median3 (f : unit -> 'a) : float =
  let times = List.init 3 (fun _ -> snd (wall_ms f)) in
  match List.sort compare times with
  | [ _; m; _ ] -> m
  | _ -> assert false

let ns_to_string ns =
  if Float.is_nan ns then "n/a"
  else if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else Printf.sprintf "%.2f ms" (ns /. 1e6)

(* -- Plain-text tables ------------------------------------------------ *)

let print_header title =
  Printf.printf "\n== %s ==\n" title

let print_table headers rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let line cells =
    List.iteri
      (fun i c -> Printf.printf "%-*s  " (List.nth widths i) c)
      cells;
    print_newline ()
  in
  line headers;
  line (List.map (fun w -> String.make w '-') widths);
  List.iter line rows

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
