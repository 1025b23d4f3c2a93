(* See profile.mli for the contract. The shape here:

   A SIGPROF tick runs as an ordinary OCaml signal handler, i.e. at
   the next safepoint of whichever domain the runtime picks — under
   ITIMER_PROF that is a domain burning CPU, which is exactly the one
   worth sampling. The handler captures [Printexc.get_callstack],
   reads this domain's phase/op label out of DLS, and folds the
   sample into the shared stack table under [Mutex.try_lock]: a
   contended lock (the table is being dumped, or another domain's
   tick got there first) drops the sample and bumps a counter rather
   than ever blocking inside a handler.

   Frame resolution (raw entry -> names) is memoized per raw entry:
   after the first few ticks through a hot path every sample is a
   hashtable hit, so steady-state cost per tick is the callstack
   capture plus a handful of lookups — the 97 Hz default stays well
   under the 3% CPU budget `bench/main.exe overhead` enforces. *)

external set_itimer : int -> bool = "xqb_prof_set_itimer"

(* -- folded-stack encoding ------------------------------------------ *)

module Folded = struct
  (* Escape exactly the bytes that carry structure in the collapsed
     format (';' between frames, ' ' before the count, newlines
     between stacks) plus backslash itself. Everything else passes
     through, so ordinary OCaml frame names are unchanged. *)
  let encode_frame s =
    let n = String.length s in
    let rec plain i = i >= n || (match s.[i] with
      | '\\' | ';' | ' ' | '\t' | '\n' | '\r' -> false
      | _ -> plain (i + 1))
    in
    if plain 0 then s
    else begin
      let buf = Buffer.create (n + 8) in
      String.iter
        (fun c ->
          match c with
          | '\\' -> Buffer.add_string buf "\\\\"
          | ';' -> Buffer.add_string buf "\\;"
          | ' ' -> Buffer.add_string buf "\\s"
          | '\t' -> Buffer.add_string buf "\\t"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\r' -> Buffer.add_string buf "\\r"
          | c -> Buffer.add_char buf c)
        s;
      Buffer.contents buf
    end

  let decode_frame s =
    let n = String.length s in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      (if s.[!i] = '\\' && !i + 1 < n then begin
         (match s.[!i + 1] with
         | '\\' -> Buffer.add_char buf '\\'
         | ';' -> Buffer.add_char buf ';'
         | 's' -> Buffer.add_char buf ' '
         | 't' -> Buffer.add_char buf '\t'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | c ->
           Buffer.add_char buf '\\';
           Buffer.add_char buf c);
         i := !i + 2
       end
       else begin
         Buffer.add_char buf s.[!i];
         incr i
       end)
    done;
    Buffer.contents buf

  let encode_line frames count =
    String.concat ";" (List.map encode_frame frames)
    ^ " " ^ string_of_int count

  (* Split on unescaped ';', respecting backslash escapes. *)
  let split_frames s =
    let out = ref [] in
    let buf = Buffer.create 32 in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (match s.[!i] with
      | '\\' when !i + 1 < n ->
        Buffer.add_char buf '\\';
        Buffer.add_char buf s.[!i + 1];
        i := !i + 2
      | ';' ->
        out := Buffer.contents buf :: !out;
        Buffer.clear buf;
        incr i
      | c ->
        Buffer.add_char buf c;
        incr i)
    done;
    out := Buffer.contents buf :: !out;
    List.rev_map decode_frame !out

  let decode_line line =
    match String.rindex_opt line ' ' with
    | None -> None
    | Some i -> (
      let stack = String.sub line 0 i in
      let count = String.sub line (i + 1) (String.length line - i - 1) in
      match int_of_string_opt count with
      | Some c when c >= 0 -> Some (split_frames stack, c)
      | _ -> None)
end

(* -- profiler state -------------------------------------------------- *)

let max_depth = 64

(* Distinct aggregated stacks are bounded so a pathological workload
   (e.g. deeply polymorphic recursion) cannot grow the table without
   limit; overflow drops the sample and counts it. *)
let max_stacks = 65536

let mu = Mutex.create ()
let running_a = Atomic.make false
let cfg_hz = Atomic.make 97
let cur_hz = Atomic.make 0
let samples_a = Atomic.make 0
let dropped_a = Atomic.make 0

(* folded key (already escaped, ';'-joined, label-rooted) -> count *)
let stacks : (string, int ref) Hashtbl.t = Hashtbl.create 1024

(* phase label -> samples *)
let phases : (string, int ref) Hashtbl.t = Hashtbl.create 16

(* raw entry -> resolved frame names, leaf-first *)
let frame_cache : (Printexc.raw_backtrace_entry, string list) Hashtbl.t =
  Hashtbl.create 4096

let prev_handler : Sys.signal_behavior option ref = ref None

(* Domain-local labels. A worker domain runs one job at a time, so
   its phase ref names what that domain is doing right now; the
   handler executes on the sampled domain and reads its own DLS. *)
let phase_key = Domain.DLS.new_key (fun () -> ref "")
let op_key = Domain.DLS.new_key (fun () -> ref (-1))

let swap_phase name =
  let r = Domain.DLS.get phase_key in
  let prev = !r in
  r := name;
  prev

let with_op id f =
  let r = Domain.DLS.get op_key in
  let prev = !r in
  r := id;
  match f () with
  | v ->
    r := prev;
    v
  | exception e ->
    r := prev;
    raise e

(* -- sampling -------------------------------------------------------- *)

(* The handler's own frames sit at the leaf of every capture; strip
   them so flamegraphs root at the interrupted code. *)
let is_self_frame name =
  let pre p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  pre "Xqb_obs__Profile" || pre "Xqb_obs.Profile" || pre "Stdlib.Printexc"
  || pre "Printexc"

let resolve_entry e =
  match Hashtbl.find_opt frame_cache e with
  | Some names -> names
  | None ->
    let names =
      match Printexc.backtrace_slots_of_raw_entry e with
      | None -> [ "??" ]
      | Some slots ->
        let out = ref [] in
        Array.iter
          (fun slot ->
            match Printexc.Slot.name slot with
            | Some n -> out := n :: !out
            | None -> (
              match Printexc.Slot.location slot with
              | Some l ->
                out :=
                  Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
                  :: !out
              | None -> ()))
          slots;
        (match !out with [] -> [ "??" ] | l -> List.rev l)
    in
    Hashtbl.replace frame_cache e names;
    names

(* Fold one capture into the tables. Caller holds [mu]. *)
let record_locked bt phase op =
  let entries = Printexc.raw_backtrace_entries bt in
  (* leaf-first accumulation, then strip our own frames off the leaf *)
  let leaf_first = ref [] in
  for i = Array.length entries - 1 downto 0 do
    List.iter
      (fun n -> leaf_first := n :: !leaf_first)
      (resolve_entry entries.(i))
  done;
  let rec strip = function
    | n :: rest when is_self_frame n -> strip rest
    | frames -> frames
  in
  let frames = List.rev (strip !leaf_first) in
  let phase = if phase = "" then "other" else phase in
  let root = if op >= 0 then [ phase; "op" ^ string_of_int op ] else [ phase ] in
  let key =
    String.concat ";" (List.map Folded.encode_frame (root @ frames))
  in
  let bump tbl k =
    match Hashtbl.find_opt tbl k with
    | Some r ->
      incr r;
      true
    | None ->
      if Hashtbl.length tbl >= max_stacks then false
      else begin
        Hashtbl.replace tbl k (ref 1);
        true
      end
  in
  if bump stacks key then begin
    ignore (bump phases phase);
    Atomic.incr samples_a
  end
  else Atomic.incr dropped_a

let handler _signum =
  if Atomic.get running_a then begin
    let bt = Printexc.get_callstack max_depth in
    let phase = !(Domain.DLS.get phase_key) in
    let op = !(Domain.DLS.get op_key) in
    if Mutex.try_lock mu then
      Fun.protect
        ~finally:(fun () -> Mutex.unlock mu)
        (fun () -> record_locked bt phase op)
    else Atomic.incr dropped_a
  end

(* -- lifecycle ------------------------------------------------------- *)

let configure ~hz =
  if hz <= 0 then invalid_arg "Profile.configure: hz must be positive";
  Atomic.set cfg_hz hz

let running () = Atomic.get running_a
let hz () = if running () then Atomic.get cur_hz else Atomic.get cfg_hz

let start ?hz () =
  let h = match hz with Some h -> h | None -> Atomic.get cfg_hz in
  if h <= 0 then invalid_arg "Profile.start: hz must be positive";
  Mutex.lock mu;
  let fresh = not (Atomic.get running_a) in
  if fresh then begin
    prev_handler := Some (Sys.signal Sys.sigprof (Sys.Signal_handle handler));
    Atomic.set cur_hz h;
    Atomic.set running_a true;
    ignore (set_itimer h)
  end;
  Mutex.unlock mu;
  fresh

let stop () =
  Mutex.lock mu;
  let was = Atomic.get running_a in
  if was then begin
    ignore (set_itimer 0);
    Atomic.set running_a false;
    (match !prev_handler with
    | Some b -> ( try Sys.set_signal Sys.sigprof b with Invalid_argument _ -> ())
    | None -> ());
    prev_handler := None
  end;
  Mutex.unlock mu;
  was

let reset () =
  Mutex.lock mu;
  Hashtbl.reset stacks;
  Hashtbl.reset phases;
  Atomic.set samples_a 0;
  Atomic.set dropped_a 0;
  Mutex.unlock mu

(* -- inspection ------------------------------------------------------ *)

let samples () = Atomic.get samples_a
let dropped () = Atomic.get dropped_a

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let phase_counts () =
  locked (fun () ->
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) phases []
      |> List.sort compare)

let diff_counts before after =
  List.filter_map
    (fun (k, n) ->
      let b = Option.value ~default:0 (List.assoc_opt k before) in
      if n - b > 0 then Some (k, n - b) else None)
    after

let sorted_stacks () =
  locked (fun () ->
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) stacks []
      |> List.sort compare)

let dump_folded () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (k, n) ->
      Buffer.add_string buf k;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int n);
      Buffer.add_char buf '\n')
    (sorted_stacks ());
  Buffer.contents buf

let dump_json () =
  let stack_json (k, n) =
    let frames = Folded.split_frames k in
    Printf.sprintf "{\"stack\":[%s],\"count\":%d}"
      (String.concat ","
         (List.map (fun f -> "\"" ^ Json.escape f ^ "\"") frames))
      n
  in
  Printf.sprintf "{\"hz\":%d,\"samples\":%d,\"dropped\":%d,\"stacks\":[%s]}"
    (hz ()) (samples ()) (dropped ())
    (String.concat "," (List.map stack_json (sorted_stacks ())))

let stat_json () =
  let distinct = locked (fun () -> Hashtbl.length stacks) in
  Printf.sprintf
    "{\"running\":%b,\"hz\":%d,\"samples\":%d,\"dropped\":%d,\"stacks\":%d,\"phases\":{%s}}"
    (running ()) (hz ()) (samples ()) (dropped ()) distinct
    (String.concat ","
       (List.map
          (fun (k, n) -> Printf.sprintf "\"%s\":%d" (Json.escape k) n)
          (phase_counts ())))

let write_folded path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (dump_folded ()))
