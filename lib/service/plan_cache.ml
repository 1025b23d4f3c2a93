(* Bounded LRU cache of prepared query plans, keyed on the
   whitespace-normalized query source. A hit skips the whole
   parse → normalize → static-check → rewrite pipeline (xqbench's
   plan_cache.hit_pct tracks how often); eviction is least-recently-used so a
   service's steady-state working set stays resident.

   Thread-safe: the service submits from many client threads.
   Eviction scans the table (O(capacity)) — irrelevant next to a
   compile, which is what a miss costs anyway. *)

type 'a entry = { value : 'a; mutable last_used : int }

type 'a t = {
  capacity : int;
  tbl : (string, 'a entry) Hashtbl.t;
  mutex : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let create ?(capacity = 128) () =
  if capacity <= 0 then invalid_arg "Plan_cache.create: capacity must be positive";
  {
    capacity;
    tbl = Hashtbl.create (2 * capacity);
    mutex = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* Key normalization: collapse whitespace runs so trivial reformatting
   of a repeated query still hits — but only *outside* string/attribute
   literals and comments. Whitespace inside a literal is significant
   ('a b' and 'a  b' are different queries); collapsing it used to map
   both to one key and serve one query the other's plan, a silent
   wrong-answer bug. Literals and (: ... :) comments are copied
   verbatim: literals because their spelling is the value, comments
   conservatively (a comment-only difference now misses the cache,
   which costs a compile, never a wrong answer). The scanner mirrors
   the lexer's rules: quotes are escaped by doubling ("" / ''),
   comments nest. *)
let normalize_key src =
  let n = String.length src in
  let buf = Buffer.create n in
  let pending_ws = ref false in
  let flush_ws () =
    if !pending_ws then begin
      if Buffer.length buf > 0 then Buffer.add_char buf ' ';
      pending_ws := false
    end
  in
  let i = ref 0 in
  while !i < n do
    match src.[!i] with
    | ' ' | '\t' | '\n' | '\r' ->
      pending_ws := true;
      incr i
    | ('"' | '\'') as quote ->
      flush_ws ();
      Buffer.add_char buf quote;
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        let c = src.[!i] in
        Buffer.add_char buf c;
        incr i;
        if c = quote then
          if !i < n && src.[!i] = quote then begin
            (* doubled quote: escaped, still inside the literal *)
            Buffer.add_char buf quote;
            incr i
          end
          else closed := true
      done
    | '(' when !i + 1 < n && src.[!i + 1] = ':' ->
      flush_ws ();
      Buffer.add_string buf "(:";
      i := !i + 2;
      let depth = ref 1 in
      while !depth > 0 && !i < n do
        if !i + 1 < n && src.[!i] = '(' && src.[!i + 1] = ':' then begin
          Buffer.add_string buf "(:";
          incr depth;
          i := !i + 2
        end
        else if !i + 1 < n && src.[!i] = ':' && src.[!i + 1] = ')' then begin
          Buffer.add_string buf ":)";
          decr depth;
          i := !i + 2
        end
        else begin
          Buffer.add_char buf src.[!i];
          incr i
        end
      done
    | c ->
      flush_ws ();
      Buffer.add_char buf c;
      incr i
  done;
  Buffer.contents buf

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t key =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
        e.last_used <- t.tick;
        t.hits <- t.hits + 1;
        Some e.value
      | None ->
        t.misses <- t.misses + 1;
        None)

let add t key value =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      if not (Hashtbl.mem t.tbl key) && Hashtbl.length t.tbl >= t.capacity then begin
        (* evict the least-recently-used entry *)
        let victim =
          Hashtbl.fold
            (fun k e acc ->
              match acc with
              | Some (_, best) when best <= e.last_used -> acc
              | _ -> Some (k, e.last_used))
            t.tbl None
        in
        match victim with
        | Some (k, _) ->
          Hashtbl.remove t.tbl k;
          t.evictions <- t.evictions + 1
        | None -> ()
      end;
      Hashtbl.replace t.tbl key { value; last_used = t.tick })

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        size = Hashtbl.length t.tbl;
        capacity = t.capacity;
      })
