(* CLOCK_MONOTONIC, in nanoseconds, as an unboxed OCaml int. *)

external now_ns : unit -> int = "xqb_obs_now_ns" [@@noalloc]

external wall_ns : unit -> int = "xqb_obs_wall_ns" [@@noalloc]

let secs_since ns = float_of_int (now_ns () - ns) /. 1e9
