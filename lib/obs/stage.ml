(* See stage.mli. Every change charges [now - since] to the stage
   left, so the slots telescope to [finish - create] exactly. *)

type stage = Queue | Gate | Compile | Run | Snap_apply | Wal | Fsync | Serialize | Other

let all = [ Queue; Gate; Compile; Run; Snap_apply; Wal; Fsync; Serialize; Other ]

let index = function
  | Queue -> 0 | Gate -> 1 | Compile -> 2 | Run -> 3 | Snap_apply -> 4
  | Wal -> 5 | Fsync -> 6 | Serialize -> 7 | Other -> 8

let names =
  [| "queue"; "gate"; "compile"; "run"; "snap-apply"; "wal"; "fsync"; "serialize"; "other" |]

let name s = names.(index s)

type t = {
  ns : int array;
  mutable cur : stage;
  mutable since : int;
  tracer : Trace.t option;
  mutable steps : unit -> int;  (* < 0: no budget, no fuel arg *)
}

let create ?tracer () =
  let ns = Array.make (Array.length names) 0 in
  { ns; cur = Other; since = Clock.now_ns (); tracer; steps = (fun () -> -1) }

let tracer t = t.tracer
let set_steps t f = t.steps <- f

(* Charge the time since the last change to the current stage, make
   [s] current, and return the stage left. *)
let charge t now s =
  let left = t.cur in
  t.ns.(index left) <- t.ns.(index left) + (now - t.since);
  t.since <- now;
  t.cur <- s;
  left

let span ?cat ?(args = []) job name f =
  match job with
  | Some ({ tracer = Some tr; _ } as t) when Trace.enabled tr ->
    let fuel0 = t.steps () in
    let id = Trace.begin_span ?cat tr name in
    let close () =
      let args =
        if fuel0 < 0 then args
        else args @ [ ("fuel", string_of_int (t.steps () - fuel0)) ]
      in
      Trace.end_span ~args tr id
    in
    (match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e)
  | _ -> f ()

(* Leave a stage bracket entered at [t0] with [outer] current; returns
   its wall time. *)
let leave job outer label t0 =
  let t1 = Clock.now_ns () in
  (match job with Some t -> ignore (charge t t1 outer) | None -> ());
  ignore (Profile.swap_phase label);
  t1 - t0

(* The stage bracket: [f]'s result and wall time. *)
let bracket ?cat ?args s job span_name f =
  let label = Profile.swap_phase (name s) in
  let t0 = Clock.now_ns () in
  let outer = match job with Some t -> charge t t0 s | None -> s in
  match span ?cat ?args job span_name f with
  | v -> (v, leave job outer label t0)
  | exception e ->
    ignore (leave job outer label t0);
    raise e

let with_ ?stage ?cat ?args job name f =
  match stage with
  | None -> span ?cat ?args job name f
  | Some s -> fst (bracket ?cat ?args s job name f)

let timed ?cat ?args s job name f = snd (bracket ?cat ?args s job name f)

let wait_span t ~args name ~start ~now =
  match t.tracer with
  | Some tr when name <> "" ->
    Trace.add_span ~cat:"sched" ~args tr ~name ~start_ns:start ~dur_ns:(now - start) ()
  | _ -> ()

let switch ?(args = []) t s =
  let now = Clock.now_ns () and start = t.since in
  let wait =
    match charge t now s with Queue -> "queue.wait" | Gate -> "lock.wait" | _ -> ""
  in
  wait_span t ~args wait ~start ~now

let finish t =
  let now = Clock.now_ns () and start = t.since in
  (* a job that ends parked on the fsync closes that wait here *)
  if charge t now t.cur = Fsync then wait_span t ~args:[] "fsync.wait" ~start ~now;
  t.ns
