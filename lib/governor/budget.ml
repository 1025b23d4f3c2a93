(* Per-query resource budgets: a monotonic deadline, an
   evaluation-step fuel allowance, a cap on the pending-update list,
   and a cooperative cancel token. The evaluator (and the store's
   axis iterators, via the domain-local [current] budget) charge
   steps at cheap, frequent points; the expensive checks — reading
   the clock and the cancel flag — only run every [poll_every] steps,
   so an un-budgeted or far-from-its-limit query pays a couple of
   integer compares per evaluation node.

   The module sits below both [Xqb_store] and [Core] so axis
   iteration deep inside the store can be charged without a
   dependency cycle. Nothing here knows about queries or services;
   the service layer decides the limits. *)

type reason = Deadline | Cancelled | Fuel | Delta_limit

exception Budget_exceeded of reason

let reason_to_string = function
  | Deadline -> "deadline exceeded"
  | Cancelled -> "cancelled"
  | Fuel -> "evaluation fuel exhausted"
  | Delta_limit -> "pending-update limit exceeded"

(* A cancel token is shared between the running job and whoever may
   kill it (the wire CANCEL command, shutdown). First reason wins;
   the job observes it at its next poll. The deadline needs no
   token: every poll reads the clock itself. *)
type cancel = reason option Atomic.t

let token () = Atomic.make None
let request tok r = ignore (Atomic.compare_and_set tok None (Some r))

type t = {
  deadline_ns : int;
    (* absolute monotonic ({!Xqb_obs.Clock} scale); max_int = none. A
       wall-clock step (NTP, VM suspend) can neither expire a running
       job early nor keep one alive. *)
  fuel : int;  (* max evaluation steps; max_int = none *)
  max_delta : int;  (* max pending requests in one snap frame *)
  cancel : cancel;
  mutable used : int;
  mutable next_poll : int;
}

(* How many charged steps between clock/cancel polls. Small enough
   that a tight evaluation loop notices a deadline within
   microseconds, large enough that the clock read stays off the hot
   path. *)
let poll_every = 256

let create ?deadline_ns ?fuel ?max_delta ?cancel () =
  {
    deadline_ns = Option.value deadline_ns ~default:max_int;
    fuel = Option.value fuel ~default:max_int;
    max_delta = Option.value max_delta ~default:max_int;
    cancel = (match cancel with Some c -> c | None -> token ());
    used = 0;
    next_poll = poll_every;
  }

let cancel_token t = t.cancel
let steps_used t = t.used

(* The expensive half of a check: cancel flag, then the clock. *)
let poll t =
  (match Atomic.get t.cancel with
  | Some r -> raise (Budget_exceeded r)
  | None -> ());
  if t.deadline_ns <> max_int && Xqb_obs.Clock.now_ns () > t.deadline_ns then
    raise (Budget_exceeded Deadline)

(* Charge [n] units of work. Raises [Budget_exceeded] when the fuel
   runs out, and polls clock/cancel every [poll_every] units. *)
let charge t n =
  t.used <- t.used + n;
  if t.used > t.fuel then raise (Budget_exceeded Fuel);
  if t.used >= t.next_poll then begin
    t.next_poll <- t.used + poll_every;
    poll t
  end

(* [pending] is the current size of the innermost snap frame's
   update list (O(1) — Snap_stack keeps a count). *)
let charge_delta t pending =
  if pending > t.max_delta then raise (Budget_exceeded Delta_limit)

(* -- the domain-local current budget --------------------------------

   A scheduler job runs entirely on one domain, so layers that have
   no evaluation context in scope (store axis iteration) find the
   active budget here. Installed by [Engine.with_budget] around a
   run; always restored, including on exceptions. *)

let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get current_key

let with_current b f =
  let prev = Domain.DLS.get current_key in
  Domain.DLS.set current_key b;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key prev) f

let charge_current n =
  match Domain.DLS.get current_key with None -> () | Some b -> charge b n
