(* Order statistics and the typed metric records every mode prints.

   Percentiles are exact (nearest rank over the sorted samples);
   quartiles follow Python's [statistics.quantiles(n=4)] default
   ("exclusive" method), the definition the spread checks in
   README.md are stated in. *)

type record = {
  workload : string;
  name : string;
  unit_ : string;
  value : float;
  n : int;  (** samples behind [value] *)
  q1 : float;  (** quartiles of the values it pools (one per server) *)
  q3 : float;
}

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile; [p] in [0,100]. *)
let percentile a p =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* statistics.quantiles(data, n=4), method="exclusive". Fewer than two
   values: both quartiles are the value itself. *)
let quartiles a =
  let a = sorted a in
  let m = Array.length a in
  if m = 0 then (nan, nan)
  else if m = 1 then (a.(0), a.(0))
  else
    let q i =
      let j = i * (m + 1) / 4 in
      let delta = (i * (m + 1)) - (j * 4) in
      let lo = a.(max 0 (min (m - 1) (j - 1))) and hi = a.(max 0 (min (m - 1) j)) in
      ((lo *. float_of_int (4 - delta)) +. (hi *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let make ~workload ~name ~unit_ ?(windows = [||]) ~n value =
  let q1, q3 = if windows = [||] then (value, value) else quartiles windows in
  { workload; name; unit_; value; n; q1; q3 }

(* -- JSON ------------------------------------------------------------- *)

(* Shortest round-tripping form; never a JSON-invalid token. *)
let json_num f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let json_str s = "\"" ^ Xqb_obs.Json.escape s ^ "\""

let record_json r =
  Printf.sprintf
    "{\"workload\":%s,\"name\":%s,\"unit\":%s,\"value\":%s,\"n\":%d,\"q1\":%s,\"q3\":%s}"
    (json_str r.workload) (json_str r.name) (json_str r.unit_) (json_num r.value)
    r.n (json_num r.q1) (json_num r.q3)

let record_of_json (v : Xqb_obs.Json.v) =
  let module J = Xqb_obs.Json in
  let str k = Option.bind (J.member k v) J.to_string_opt in
  let num k = Option.bind (J.member k v) J.to_float_opt in
  match (str "workload", str "name", str "unit", num "value") with
  | Some workload, Some name, Some unit_, Some value ->
    let n = Option.value (num "n") ~default:1. in
    Some
      {
        workload;
        name;
        unit_;
        value;
        n = int_of_float n;
        q1 = Option.value (num "q1") ~default:value;
        q3 = Option.value (num "q3") ~default:value;
      }
  | _ -> None

(* Reads to EOF rather than by length: /proc files report size 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        let n = input ic chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes b chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents b)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* Records of a [--json] file; [] when it does not exist yet. *)
let load_records path =
  if not (Sys.file_exists path) then []
  else
    match Xqb_obs.Json.parse (read_file path) with
    | Ok v -> List.filter_map record_of_json (Xqb_obs.Json.to_list v)
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* [--json OUT] appends, so repeated runs accumulate in one file and
   [compare] sees every run's value. *)
let append_records path records =
  let all = load_records path @ records in
  write_file path ("[\n" ^ String.concat ",\n" (List.map record_json all) ^ "\n]\n")
