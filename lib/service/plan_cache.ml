(* Bounded LRU cache of prepared query plans, with two ways in.

   - Text-keyed ([normalize_key] / [find] / [add]): the key is the
     whitespace-normalized source, literals verbatim. xqbench's traced
     replay caches its own compiled programs this way, so its
     plan_cache.hit_pct tracks that replay's text-keyed cache.
   - Shape-keyed ([shape] / [find_shape] / [add_shape]), the service's
     way in: the key is the normalized source with every quoted span
     holed, so requests that differ only in their literals share one
     entry. Which spans are real parameters is the parser's call, made
     once on the miss that compiles the entry: the entry records its
     hole mask, and the spans it did not hole (fn:doc URIs, prolog
     strings, namespace URIs, anything the scan quoted that is not a
     literal) form a verbatim sub-key that a later request must match
     span for span. One shape key may hold several entries, one per
     mask and verbatim sub-key (doc("a") and doc("b") never share).

   Thread-safe: the service submits from many client threads.
   Eviction scans the table (O(capacity)) — irrelevant next to a
   compile, which is what a miss costs anyway. *)

type 'a entry = {
  value : 'a;
  mutable last_used : int;
  shape_of : (string * bool array) option;  (* shape key and hole mask *)
}

type 'a t = {
  capacity : int;
  tbl : (string, 'a entry) Hashtbl.t;
  masks : (string, (bool array * int ref) list) Hashtbl.t;
    (* shape key -> the hole masks of its resident entries, each with
       the number of entries that use it *)
  mutex : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable shapes : int;  (* resident entries with at least one hole *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
  shapes : int;
}

let create ?(capacity = 128) () =
  if capacity <= 0 then invalid_arg "Plan_cache.create: capacity must be positive";
  {
    capacity;
    tbl = Hashtbl.create (2 * capacity);
    masks = Hashtbl.create 16;
    mutex = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    shapes = 0;
  }

(* The key scan: collapse whitespace runs so trivial reformatting of a
   repeated query still hits — but only *outside* string/attribute
   literals and comments. Whitespace inside a literal is significant
   ('a b' and 'a  b' are different queries); collapsing it used to map
   both to one key and serve one query the other's plan, a silent
   wrong-answer bug. Comments are copied verbatim (conservatively: a
   comment-only difference misses the cache, which costs a compile,
   never a wrong answer). Whitespace inside direct element content is
   significant too (<a>x  y</a> is not <a>x y</a>), and the scan cannot
   tell content from code, so a text that may hold a direct constructor
   ('<' before a name, '!' or '?') keeps its whitespace exactly. Quoted
   spans are copied verbatim, or with [holes] reduced to their two
   quotes; either way their byte extents are returned in order. The
   scanner mirrors the lexer's rules: quotes are escaped by doubling
   ("" / ''), comments nest. *)
let may_construct src =
  let n = String.length src in
  let rec go i =
    match String.index_from_opt src i '<' with
    | None -> false
    | Some j ->
      (j + 1 < n
      && (Xqb_xml.Qname.is_name_start src.[j + 1] || src.[j + 1] = '!' || src.[j + 1] = '?'))
      || go (j + 1)
  in
  go 0

let scan ~holes src =
  let n = String.length src in
  let buf = Buffer.create n in
  let spans = ref [] in
  let collapse = not (may_construct src) in
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
    | (' ' | '\t' | '\n' | '\r') as c ->
      if collapse then pending_ws := true else Buffer.add_char buf c;
      incr i
    | ('"' | '\'') as quote ->
      flush_ws ();
      let start = !i in
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        let c = src.[!i] in
        incr i;
        if c = quote then
          if !i < n && src.[!i] = quote then incr i
            (* doubled quote: escaped, still inside the literal *)
          else closed := true
      done;
      spans := (start, !i) :: !spans;
      if holes then begin
        Buffer.add_char buf quote;
        Buffer.add_char buf quote
      end
      else Buffer.add_substring buf src start (!i - start)
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
  (Buffer.contents buf, Array.of_list (List.rev !spans))

let normalize_key src = fst (scan ~holes:false src)

type shape = { key : string; src : string; spans : (int * int) array }

let shape src =
  let key, spans = scan ~holes:true src in
  { key; src; spans }

let span_text sh i =
  let start, stop = sh.spans.(i) in
  String.sub sh.src start (stop - start)

(* Binary search: spans are in source order. *)
let span_index sh ~start ~stop =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let s, e = sh.spans.(mid) in
      if s = start then if e = stop then Some mid else None
      else if s < start then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length sh.spans)

(* The table key of a shape entry: the shape key, then each span as a
   hole or, length-prefixed, its verbatim text. The leading NUL keeps
   it apart from every text key (the lexer rejects NUL). *)
let entry_key sh mask =
  let b = Buffer.create (String.length sh.key + 16) in
  Buffer.add_char b '\000';
  Buffer.add_string b sh.key;
  Array.iteri
    (fun i hole ->
      Buffer.add_char b '\000';
      if hole then Buffer.add_char b '?'
      else begin
        let start, stop = sh.spans.(i) in
        Buffer.add_string b (string_of_int (stop - start));
        Buffer.add_char b ':';
        Buffer.add_substring b sh.src start (stop - start)
      end)
    mask;
  Buffer.contents b

let locked t f = Mutex.protect t.mutex f

let has_hole mask = Array.exists Fun.id mask

(* Caller holds the mutex. *)
let forget_mask (t : _ t) (skey, mask) =
  if has_hole mask then t.shapes <- t.shapes - 1;
  match Hashtbl.find_opt t.masks skey with
  | None -> ()
  | Some ms -> (
    match List.find_opt (fun (m, _) -> m = mask) ms with
    | None -> ()
    | Some (_, n) ->
      decr n;
      if !n = 0 then
        match List.filter (fun (m, _) -> m <> mask) ms with
        | [] -> Hashtbl.remove t.masks skey
        | rest -> Hashtbl.replace t.masks skey rest)

(* Caller holds the mutex. *)
let remember_mask (t : _ t) (skey, mask) =
  if has_hole mask then t.shapes <- t.shapes + 1;
  let ms = Option.value (Hashtbl.find_opt t.masks skey) ~default:[] in
  match List.find_opt (fun (m, _) -> m = mask) ms with
  | Some (_, n) -> incr n
  | None -> Hashtbl.replace t.masks skey ((mask, ref 1) :: ms)

(* Caller holds the mutex. *)
let insert (t : _ t) key ?shape_of value =
  t.tick <- t.tick + 1;
  (match Hashtbl.find_opt t.tbl key with
  | Some old -> Option.iter (forget_mask t) old.shape_of
  | None ->
    if Hashtbl.length t.tbl >= t.capacity then begin
      (* evict the least-recently-used entry *)
      let victim =
        Hashtbl.fold
          (fun k e acc ->
            match acc with
            | Some (_, best) when best.last_used <= e.last_used -> acc
            | _ -> Some (k, e))
          t.tbl None
      in
      match victim with
      | Some (k, e) ->
        Hashtbl.remove t.tbl k;
        Option.iter (forget_mask t) e.shape_of;
        t.evictions <- t.evictions + 1
      | None -> ()
    end);
  Option.iter (remember_mask t) shape_of;
  Hashtbl.replace t.tbl key { value; last_used = t.tick; shape_of }

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

let add t key value = locked t (fun () -> insert t key value)

let find_shape t sh accept =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      let masks =
        Option.value (Hashtbl.find_opt t.masks sh.key) ~default:[]
        |> List.filter (fun (m, _) -> Array.length m = Array.length sh.spans)
      in
      let found =
        List.find_map
          (fun (mask, _) ->
            match Hashtbl.find_opt t.tbl (entry_key sh mask) with
            | None -> None
            | Some e ->
              Option.map
                (fun r ->
                  e.last_used <- t.tick;
                  r)
                (accept mask e.value))
          masks
      in
      (match found with
      | Some _ -> t.hits <- t.hits + 1
      | None -> t.misses <- t.misses + 1);
      found)

let add_shape t sh ~holes value =
  if Array.length holes <> Array.length sh.spans then
    invalid_arg "Plan_cache.add_shape: one hole flag per span";
  locked t (fun () ->
      insert t (entry_key sh holes) ~shape_of:(sh.key, Array.copy holes) value)

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        size = Hashtbl.length t.tbl;
        capacity = t.capacity;
        shapes = t.shapes;
      })
