(* The in-flight job registry: every queued or running governed job,
   so the wire CANCEL, STATS and the shutdown drain can reach it. *)

module Budget = Xqb_governor.Budget

type job = {
  jid : int;
  sid : int;
  cancel : Budget.cancel;
  started : int;  (* monotonic Clock ns: STATS running_ms *)
  src : string;
}

type t = { m : Mutex.t; jobs : (int, job) Hashtbl.t; mutable next_jid : int }

let create () = { m = Mutex.create (); jobs = Hashtbl.create 16; next_jid = 1 }

let register t ~sid ~cancel ~started src =
  Mutex.protect t.m (fun () ->
      let jid = t.next_jid in
      t.next_jid <- jid + 1;
      Hashtbl.replace t.jobs jid { jid; sid; cancel; started; src };
      jid)

let unregister t jid = Mutex.protect t.m (fun () -> Hashtbl.remove t.jobs jid)

let cancel t jid =
  match Mutex.protect t.m (fun () -> Hashtbl.find_opt t.jobs jid) with
  | None -> false
  | Some j ->
    Budget.request j.cancel Budget.Cancelled;
    true

let cancel_all t =
  Mutex.protect t.m (fun () ->
      Hashtbl.iter (fun _ j -> Budget.request j.cancel Budget.Cancelled) t.jobs)

let json t =
  let now = Xqb_obs.Clock.now_ns () in
  let entries =
    Mutex.protect t.m (fun () ->
        Hashtbl.fold
          (fun _ j acc ->
            Printf.sprintf "{\"jid\":%d,\"sid\":%d,\"running_ms\":%.0f,\"src\":\"%s\"}"
              j.jid j.sid
              (float_of_int (now - j.started) /. 1e6)
              (Xqb_obs.Json.escape j.src)
            :: acc)
          t.jobs [])
  in
  "[" ^ String.concat "," entries ^ "]"
