(** Applying a ∆ under the three semantics of §3.2. Every application
    runs inside {!Xqb_store.Store.transactionally}, so a failed
    application (precondition violation or detected conflict) leaves
    the store exactly as it was. *)

type mode =
  | Ordered  (** requests applied exactly in ∆ order *)
  | Nondeterministic
    (** an arbitrary order — here a seeded pseudo-random permutation,
        so tests can exercise the nondeterminism deterministically *)
  | Conflict_detection
    (** verify with {!Conflict.check} first; on success the order is
        immaterial (we still permute, as a self-check); on failure the
        application fails *)

(** The snap keyword's application mode ([snap atomic] applies
    ordered; its transactional wrapper lives in the evaluator). *)
val mode_of_snap : Core_ast.snap_mode -> mode

val mode_to_string : mode -> string

(** @raise Conflict.Conflict or @raise Xqb_store.Store.Update_error;
    the store is rolled back in both cases. [job]'s tracer records
    the conflict-detection check as its own span. *)
val apply :
  ?rand_state:Random.State.t ->
  ?job:Xqb_obs.Stage.t ->
  Xqb_store.Store.t ->
  mode ->
  Update.delta ->
  unit
