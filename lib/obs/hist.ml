(* Fixed-footprint latency histogram.

   The previous metrics kept every latency sample in a growing array,
   so a long-lived server accumulated memory without bound and
   percentile queries sorted an ever-larger array. This replaces it
   with a two-regime structure of constant size:

   - the first [exact_cap] samples are stored verbatim, so small
     populations (tests, short benches) get exact percentiles;
   - beyond that, samples only bump log-scale bucket counters:
     [buckets] buckets at [sub] per power of two, i.e. each bucket
     spans a ratio of 2^(1/sub) (~19% relative error at sub=4),
     covering 2^-32 .. 2^32 in the recorded unit.

   Percentiles use the nearest-rank definition: the ceil(p*n)-th
   smallest sample (1-based) — note ceil, not truncation; truncating
   p*n under-reports high percentiles on small n (e.g. p95 of 10
   samples must be the 10th, not the 9th).

   Not thread-safe: callers (Metrics) synchronize. *)

type t = {
  exact_cap : int;
  mutable exact : float array;  (* first [exact_cap] samples *)
  mutable exact_ok : bool;  (* exact holds ALL samples so far *)
  mutable count : int;
  mutable sum : float;
  mutable max_v : float;
  mutable min_v : float;
  counts : int array;  (* log-scale buckets, always maintained *)
}

let sub = 4  (* buckets per power of two *)
let buckets = 256
let low_exp = -32  (* bucket 0 lower bound: 2^low_exp *)

let create ?(exact_cap = 512) () =
  {
    exact_cap;
    exact = [||];
    exact_ok = true;
    count = 0;
    sum = 0.;
    max_v = neg_infinity;
    min_v = infinity;
    counts = Array.make buckets 0;
  }

let log2 x = log x /. log 2.

let bucket_of v =
  if v <= 0. then 0
  else
    let i = int_of_float (floor ((log2 v -. float_of_int low_exp) *. float_of_int sub)) in
    max 0 (min (buckets - 1) i)

(* Geometric midpoint of bucket [i] — the value reported once the
   exact prefix is exhausted. *)
let bucket_mid i =
  Float.pow 2. ((float_of_int i +. 0.5) /. float_of_int sub +. float_of_int low_exp)

let record t v =
  if t.count < t.exact_cap then begin
    if Array.length t.exact = 0 then t.exact <- Array.make t.exact_cap 0.;
    t.exact.(t.count) <- v
  end;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v > t.max_v then t.max_v <- v;
  if v < t.min_v then t.min_v <- v;
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count
let max_value t = if t.count = 0 then 0. else t.max_v
let min_value t = if t.count = 0 then 0. else t.min_v

(* Nearest-rank percentile: the r-th smallest sample, r = ceil(p*n),
   clamped to [1, n]. *)
let percentile t p =
  if t.count = 0 then 0.
  else begin
    let r =
      let r = int_of_float (ceil (p *. float_of_int t.count)) in
      max 1 (min t.count r)
    in
    if t.count <= t.exact_cap && t.exact_ok then begin
      let a = Array.sub t.exact 0 t.count in
      Array.sort compare a;
      a.(r - 1)
    end
    else begin
      let cum = ref 0 and res = ref t.max_v and found = ref false in
      (try
         for i = 0 to buckets - 1 do
           cum := !cum + t.counts.(i);
           if !cum >= r then begin
             res := bucket_mid i;
             found := true;
             raise Exit
           end
         done
       with Exit -> ());
      (* clamp the bucket estimate to the observed range *)
      if !found then Float.max t.min_v (Float.min t.max_v !res) else t.max_v
    end
  end

let reset t =
  t.count <- 0;
  t.sum <- 0.;
  t.max_v <- neg_infinity;
  t.min_v <- infinity;
  t.exact_ok <- true;
  Array.fill t.counts 0 buckets 0

(* Fold [src] into [into]. Bucket counters always add exactly; the
   exact-sample prefix survives only when [src] is still fully exact
   AND the union fits [into]'s capacity — otherwise [into] degrades
   to bucket-estimate percentiles (exact_ok = false guards the case
   where the union is numerically under [into]'s cap but [src] had
   already overflowed its own, so its verbatim samples are gone). *)
let merge ~into src =
  if into == src then invalid_arg "Hist.merge: src and destination alias";
  for i = 0 to buckets - 1 do
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done;
  (if src.count <= src.exact_cap && src.exact_ok
      && into.count + src.count <= into.exact_cap && into.exact_ok
   then begin
     if Array.length into.exact = 0 && src.count > 0 then
       into.exact <- Array.make into.exact_cap 0.;
     Array.blit src.exact 0 into.exact into.count src.count
   end
   else if src.count > 0 then into.exact_ok <- false);
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.max_v > into.max_v then into.max_v <- src.max_v;
  if src.min_v < into.min_v then into.min_v <- src.min_v

(* Standard JSON fragment: comma-separated fields without braces, so
   callers can splice extra fields alongside. *)
let to_json_fields t =
  Printf.sprintf
    "\"count\":%d,\"mean\":%.6f,\"p50\":%.6f,\"p90\":%.6f,\"p95\":%.6f,\"p99\":%.6f,\"max\":%.6f"
    t.count (mean t) (percentile t 0.50) (percentile t 0.90) (percentile t 0.95)
    (percentile t 0.99) (max_value t)
