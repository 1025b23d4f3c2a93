(* Plain-text output: every metric by name, with its unit, sample
   count and quartiles. *)

let table headers rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i))) (String.length h) rows)
      headers
  in
  let line cells =
    print_string
      (String.concat "  "
         (List.mapi (fun i c -> Printf.sprintf "%-*s" (List.nth widths i) c) cells));
    print_newline ()
  in
  line headers;
  line (List.map (fun w -> String.make w '-') widths);
  List.iter line rows

let records title (rs : Stats.record list) =
  Printf.printf "\n== %s ==\n" title;
  table [ "metric"; "value"; "unit"; "n"; "q1"; "q3" ]
    (List.map
       (fun (r : Stats.record) ->
         [
           r.name; Printf.sprintf "%.6g" r.value; r.unit_; string_of_int r.n;
           Printf.sprintf "%.6g" r.q1; Printf.sprintf "%.6g" r.q3;
         ])
       rs)
