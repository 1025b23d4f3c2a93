(* Builtin function library: the XQuery 1.0 Functions & Operators
   subset the paper's programs and the XMark workloads exercise, plus
   a few internal helpers produced by normalization ("%ddo",
   "%avt-part"). *)

module Atomic = Xqb_xdm.Atomic
module Item = Xqb_xdm.Item
module Value = Xqb_xdm.Value
module Errors = Xqb_xdm.Errors
module Store = Xqb_store.Store
module Qname = Xqb_xml.Qname

(* (name, supported arities) *)
let signatures : (string * int list) list =
  [
    ("%ddo", [ 1 ]);
    ("%ddo-elided", [ 1 ]);
    ("%avt-part", [ 1 ]);
    ("position", [ 0 ]);
    ("last", [ 0 ]);
    ("count", [ 1 ]);
    ("empty", [ 1 ]);
    ("exists", [ 1 ]);
    ("not", [ 1 ]);
    ("boolean", [ 1 ]);
    ("true", [ 0 ]);
    ("false", [ 0 ]);
    ("string", [ 0; 1 ]);
    ("data", [ 1 ]);
    ("number", [ 0; 1 ]);
    ("string-length", [ 0; 1 ]);
    ("normalize-space", [ 0; 1 ]);
    ("concat", [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ]);
    ("string-join", [ 2 ]);
    ("contains", [ 2 ]);
    ("starts-with", [ 2 ]);
    ("ends-with", [ 2 ]);
    ("substring", [ 2; 3 ]);
    ("substring-before", [ 2 ]);
    ("substring-after", [ 2 ]);
    ("upper-case", [ 1 ]);
    ("lower-case", [ 1 ]);
    ("translate", [ 3 ]);
    ("matches", [ 2 ]);
    ("replace", [ 3 ]);
    ("tokenize", [ 2 ]);
    ("name", [ 0; 1 ]);
    ("local-name", [ 0; 1 ]);
    ("node-name", [ 1 ]);
    ("root", [ 0; 1 ]);
    ("doc", [ 1 ]);
    ("sum", [ 1; 2 ]);
    ("avg", [ 1 ]);
    ("max", [ 1 ]);
    ("min", [ 1 ]);
    ("abs", [ 1 ]);
    ("floor", [ 1 ]);
    ("ceiling", [ 1 ]);
    ("round", [ 1 ]);
    ("distinct-values", [ 1 ]);
    ("reverse", [ 1 ]);
    ("subsequence", [ 2; 3 ]);
    ("insert-before", [ 3 ]);
    ("remove", [ 2 ]);
    ("index-of", [ 2 ]);
    ("exactly-one", [ 1 ]);
    ("zero-or-one", [ 1 ]);
    ("one-or-more", [ 1 ]);
    ("deep-equal", [ 2 ]);
    ("error", [ 0; 1; 2 ]);
    ("trace", [ 2 ]);
    ("compare", [ 2 ]);
    ("string-to-codepoints", [ 1 ]);
    ("codepoints-to-string", [ 1 ]);
    ("round-half-to-even", [ 1 ]);
    ("doc-available", [ 1 ]);
    ("id", [ 1; 2 ]);
    ("xs:integer", [ 1 ]);
    ("xs:decimal", [ 1 ]);
    ("xs:double", [ 1 ]);
    ("xs:string", [ 1 ]);
    ("xs:boolean", [ 1 ]);
    ("xs:untypedAtomic", [ 1 ]);
    ("xs:QName", [ 1 ]);
  ]

let is_builtin name arity =
  if name = "concat" then arity >= 2
  else
    match List.assoc_opt name signatures with
    | Some arities -> List.mem arity arities
    | None -> false

let names () = List.map fst signatures

(* -- helpers -------------------------------------------------------- *)

let focus_item (focus : Context.focus option) =
  match focus with
  | Some f -> f.Context.item
  | None -> Errors.raise_error "XPDY0002" "no context item"

let opt_string_or_focus ctx focus args =
  match args with
  | [] -> Item.string_value ctx.Context.store (focus_item focus)
  | [ v ] -> Value.string_value ctx.Context.store v
  | _ -> assert false

let numeric_seq store v =
  List.filter_map
    (fun i ->
      match Item.atomize store i with
      | Atomic.Untyped s -> Some (Atomic.Double (Atomic.parse_float s))
      | a when Atomic.is_numeric a -> Some a
      | a -> Errors.type_error "expected a numeric value, got %s" (Atomic.type_name a))
    v

let node_arg store v =
  ignore store;
  match v with
  | [ Item.Node n ] -> n
  | _ -> Errors.type_error "expected a single node"

(* Fast path: most step results are already sorted; check before the
   O(n log n) sort. *)
let ddo store (v : Value.t) : Value.t =
  let ids =
    List.map
      (function
        | Item.Node n -> n
        | Item.Atomic a ->
          Errors.type_error "path result contains a %s (nodes required)"
            (Atomic.type_name a))
      v
  in
  if Store.sorted_strict store ids then v
  else Value.of_nodes (Store.sort_doc_order store ids)

let deep_equal_atomic a b =
  match Atomic.compare_values (Atomic.coerce_general a b |> fst)
          (Atomic.coerce_general a b |> snd)
  with
  | Some 0 -> true
  | _ -> false
  | exception Errors.Dynamic_error _ -> false

let rec deep_equal_node store a b =
  let ka = Store.kind store a and kb = Store.kind store b in
  ka = kb
  &&
  match ka with
  | Store.Text | Store.Comment ->
    String.equal (Store.content store a) (Store.content store b)
  | Store.Attribute | Store.Pi ->
    (match Store.name store a, Store.name store b with
    | Some na, Some nb -> Qname.equal na nb
    | None, None -> true
    | _ -> false)
    && String.equal (Store.content store a) (Store.content store b)
  | Store.Element ->
    (match Store.name store a, Store.name store b with
    | Some na, Some nb -> Qname.equal na nb
    | None, None -> true
    | _ -> false)
    && deep_equal_attrs store a b
    && deep_equal_children store a b
  | Store.Document -> deep_equal_children store a b

and deep_equal_attrs store a b =
  let attrs n =
    Store.attributes store n
    |> List.map (fun aid -> (Store.name store aid, Store.content store aid))
    |> List.sort compare
  in
  attrs a = attrs b

and deep_equal_children store a b =
  (* Whitespace-only text and comments/PIs are not significant for
     fn:deep-equal on elements per F&O; we compare all children except
     comments and PIs. *)
  let sig_children n =
    List.filter
      (fun c ->
        match Store.kind store c with
        | Store.Comment | Store.Pi -> false
        | Store.Document | Store.Element | Store.Attribute | Store.Text -> true)
      (Store.children store n)
  in
  let ca = sig_children a and cb = sig_children b in
  List.length ca = List.length cb
  && List.for_all2 (fun x y -> deep_equal_node store x y) ca cb

let deep_equal store (x : Value.t) (y : Value.t) =
  List.length x = List.length y
  && List.for_all2
       (fun a b ->
         match a, b with
         | Item.Atomic a, Item.Atomic b -> deep_equal_atomic a b
         | Item.Node a, Item.Node b -> deep_equal_node store a b
         | Item.Node _, Item.Atomic _ | Item.Atomic _, Item.Node _ -> false)
       x y

(* Global memo; locked because pure queries touch it and the service
   scheduler runs pure queries from several domains at once. *)
let regexp_cache : (string, Re.re) Hashtbl.t = Hashtbl.create 16
let regexp_lock = Mutex.create ()

let compile_re pattern =
  Mutex.lock regexp_lock;
  let cached = Hashtbl.find_opt regexp_cache pattern in
  Mutex.unlock regexp_lock;
  match cached with
  | Some re -> re
  | None ->
    let re =
      try Re.Pcre.re pattern |> Re.compile
      with _ -> Errors.raise_error "FORX0002" "invalid regular expression %S" pattern
    in
    Mutex.lock regexp_lock;
    Hashtbl.replace regexp_cache pattern re;
    Mutex.unlock regexp_lock;
    re

(* Byte offset of the first occurrence of [sub] in [s] ([Some 0] for
   the empty needle). Byte matching is exact on valid UTF-8: the
   encoding is self-synchronizing, so a match of a valid needle starts
   and ends on character boundaries. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches_at i j = j = m || (s.[i + j] = sub.[j] && matches_at i (j + 1)) in
  let rec scan i =
    if i > n - m then None else if matches_at i 0 then Some i else scan (i + 1)
  in
  scan 0

(* fn:round on a double: the nearest integer, ties toward positive
   infinity (round(-2.5) = -2, unlike Float.round). Comparing the
   fraction, rather than taking floor(f + 0.5), keeps
   0.49999999999999994 from rounding up. NaN and the infinities are
   their own rounding. *)
let fn_round f =
  let fl = Float.floor f in
  if f -. fl >= 0.5 then fl +. 1. else fl

(* Strings are UTF-8 and F&O counts characters, i.e. code points;
   string-length, substring and translate walk them one character at
   a time. An invalid byte counts as one character. *)
let char_len s i = Uchar.utf_decode_length (String.get_utf_8_uchar s i)

(* The byte index [k] characters after byte [i]. *)
let rec advance s i k =
  if k = 0 || i >= String.length s then i else advance s (i + char_len s i) (k - 1)

let char_count s =
  let rec go i n = if i >= String.length s then n else go (i + char_len s i) (n + 1) in
  go 0 0

(* fn:substring (F&O §5.4.3): the characters at the positions [p] with
   [first <= p < stop], both already [fn_round]ed. The bounds stay
   floats, so an infinite or NaN bound compares as the standard says
   (NaN selects nothing) instead of going through [int_of_float]. *)
let substring s first stop =
  let lo = Float.max 1. first
  and hi = Float.min (float_of_int (char_count s + 1)) stop in
  if lo < hi then
    let a = advance s 0 (int_of_float lo - 1) in
    let b = advance s a (int_of_float hi - int_of_float lo) in
    Value.of_string (String.sub s a (b - a))
  else Value.of_string ""

(* fn:translate: each character of [s] found at position [k] of [f]
   becomes the [k]th character of [t], or is dropped when [t] is
   shorter; characters not in [f] are copied as they are. *)
let translate s f t =
  let buf = Buffer.create (String.length s) in
  (* the character index in [f] of the first occurrence of the
     [n]-byte character at byte [i] of [s], compared byte for byte *)
  let rec find i n j k =
    if j >= String.length f then None
    else
      let m = char_len f j in
      let rec same b = b = n || (s.[i + b] = f.[j + b] && same (b + 1)) in
      if m = n && same 0 then Some k else find i n (j + m) (k + 1)
  in
  let i = ref 0 in
  while !i < String.length s do
    let n = char_len s !i in
    (match find !i n 0 0 with
    | None -> Buffer.add_substring buf s !i n
    | Some k ->
      let a = advance t 0 k in
      if a < String.length t then Buffer.add_substring buf t a (char_len t a));
    i := !i + n
  done;
  Value.of_string (Buffer.contents buf)

(* -- dispatch -------------------------------------------------------- *)

(* A top-level alias: a partial application inside [call] would
   allocate a closure on every builtin call. *)
let sv = Value.string_value

let call (ctx : Context.t) (focus : Context.focus option) name
    (args : Value.t list) : Value.t =
  let store = ctx.Context.store in
  match name, args with
  | "%ddo", [ v ] -> ddo store v
  | "%ddo-elided", [ v ] ->
    (* statically certified sorted/duplicate-free/node-only: identity *)
    ctx.Context.ddo_elided <- ctx.Context.ddo_elided + 1;
    v
  | "%avt-part", [ v ] ->
    let strs = List.map (fun i -> Item.string_value store i) v in
    Value.of_string (String.concat " " strs)
  | "position", [] -> (
    match focus with
    | Some f -> Value.of_int f.Context.position
    | None -> Errors.raise_error "XPDY0002" "fn:position with no context")
  | "last", [] -> (
    match focus with
    | Some f -> Value.of_int f.Context.size
    | None -> Errors.raise_error "XPDY0002" "fn:last with no context")
  | "count", [ v ] -> Value.of_int (List.length v)
  | "empty", [ v ] -> Value.of_bool (v = [])
  | "exists", [ v ] -> Value.of_bool (v <> [])
  | "not", [ v ] -> Value.of_bool (not (Value.effective_boolean_value v))
  | "boolean", [ v ] -> Value.of_bool (Value.effective_boolean_value v)
  | "true", [] -> Value.of_bool true
  | "false", [] -> Value.of_bool false
  | "string", _ -> Value.of_string (opt_string_or_focus ctx focus args)
  | "data", [ v ] -> List.map (fun i -> Item.Atomic (Item.atomize store i)) v
  | "number", _ ->
    let s =
      match args with
      | [] -> [ focus_item focus ]
      | [ v ] -> v
      | _ -> assert false
    in
    (match s with
    | [] -> Value.of_double Float.nan
    | [ i ] -> (
      match Atomic.to_double (Item.atomize store i) with
      | f -> Value.of_double f
      | exception Errors.Dynamic_error _ -> Value.of_double Float.nan)
    | _ -> Errors.type_error "fn:number on a sequence")
  | "string-length", _ ->
    Value.of_int (char_count (opt_string_or_focus ctx focus args))
  | "normalize-space", _ ->
    let s = opt_string_or_focus ctx focus args in
    let words =
      String.split_on_char ' '
        (String.map (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c) s)
      |> List.filter (fun w -> w <> "")
    in
    Value.of_string (String.concat " " words)
  | "concat", args when List.length args >= 2 ->
    Value.of_string (String.concat "" (List.map (sv store) args))
  | "string-join", [ v; sep ] ->
    let sep = sv store sep in
    Value.of_string
      (String.concat sep (List.map (fun i -> Item.string_value store i) v))
  | "contains", [ a; b ] ->
    Value.of_bool (find_sub (sv store a) (sv store b) <> None)
  | "starts-with", [ a; b ] ->
    Value.of_bool (String.starts_with ~prefix:(sv store b) (sv store a))
  | "ends-with", [ a; b ] ->
    Value.of_bool (String.ends_with ~suffix:(sv store b) (sv store a))
  | "substring", [ s; start ] ->
    let s = sv store s in
    substring s (fn_round (Value.to_double store start)) Float.infinity
  | "substring", [ s; start; len ] ->
    let s = sv store s in
    let st = fn_round (Value.to_double store start) in
    substring s st (st +. fn_round (Value.to_double store len))
  | "substring-before", [ a; b ] ->
    let s = sv store a in
    Value.of_string
      (match find_sub s (sv store b) with Some i -> String.sub s 0 i | None -> "")
  | "substring-after", [ a; b ] ->
    let s = sv store a and sub = sv store b in
    Value.of_string
      (match find_sub s sub with
      | Some i ->
        let e = i + String.length sub in
        String.sub s e (String.length s - e)
      | None -> "")
  | "upper-case", [ a ] -> Value.of_string (String.uppercase_ascii (sv store a))
  | "lower-case", [ a ] -> Value.of_string (String.lowercase_ascii (sv store a))
  | "translate", [ a; from_s; to_s ] -> translate (sv store a) (sv store from_s) (sv store to_s)
  | "matches", [ a; pat ] -> Value.of_bool (Re.execp (compile_re (sv store pat)) (sv store a))
  | "replace", [ a; pat; rep ] ->
    Value.of_string
      (Re.replace_string (compile_re (sv store pat)) ~by:(sv store rep) (sv store a))
  | "tokenize", [ a; pat ] ->
    Re.split (compile_re (sv store pat)) (sv store a)
    |> List.map (fun s -> Item.Atomic (Atomic.String s))
  | "name", _ | "local-name", _ -> (
    let n =
      match args with
      | [] -> (
        match focus_item focus with
        | Item.Node n -> Some n
        | Item.Atomic _ -> Errors.type_error "fn:name on an atomic context item")
      | [ [] ] -> None
      | [ v ] -> Some (node_arg store v)
      | _ -> assert false
    in
    match n with
    | None -> Value.of_string ""
    | Some n -> (
      match Store.name store n with
      | None -> Value.of_string ""
      | Some q ->
        Value.of_string
          (if name = "name" then Qname.to_string q else Qname.local q)))
  | "node-name", [ v ] -> (
    match v with
    | [] -> []
    | _ -> (
      match Store.name store (node_arg store v) with
      | None -> []
      | Some q -> Value.of_atomic (Atomic.QName q)))
  | "root", _ -> (
    let n =
      match args with
      | [] -> (
        match focus_item focus with
        | Item.Node n -> n
        | Item.Atomic _ -> Errors.type_error "fn:root on an atomic context item")
      | [ v ] -> node_arg store v
      | _ -> assert false
    in
    Value.of_node (Store.root store n))
  | "doc", [ v ] -> Value.of_node (Context.resolve_doc ctx (sv store v))
  | "sum", [ v ] -> (
    match numeric_seq store v with
    | [] -> Value.of_int 0
    | n :: rest ->
      Value.of_atomic (List.fold_left (Atomic.arith Atomic.Add) n rest))
  | "sum", [ v; zero ] -> (
    match numeric_seq store v with
    | [] -> zero
    | n :: rest ->
      Value.of_atomic (List.fold_left (Atomic.arith Atomic.Add) n rest))
  | "avg", [ v ] -> (
    match numeric_seq store v with
    | [] -> []
    | ns ->
      let total = List.fold_left (Atomic.arith Atomic.Add) (Atomic.Integer 0) ns in
      Value.of_atomic
        (Atomic.arith Atomic.Div total (Atomic.Integer (List.length ns))))
  | ("max" | "min"), [ v ] -> (
    let vals = Value.atomize store v in
    match vals with
    | [] -> []
    | first :: rest ->
      let better = if name = "max" then Atomic.Gt else Atomic.Lt in
      let norm = function Atomic.Untyped s -> Atomic.Double (Atomic.parse_float s) | a -> a in
      Value.of_atomic
        (List.fold_left
           (fun best a ->
             if Atomic.value_compare better (norm a) (norm best) then a else best)
           first rest))
  | "abs", [ v ] -> (
    match Value.atomize store v with
    | [] -> []
    | [ a ] ->
      Value.of_atomic
        (match a with
        | Atomic.Integer i -> Atomic.Integer (abs i)
        | Atomic.Decimal f -> Atomic.Decimal (Float.abs f)
        | Atomic.Double f -> Atomic.Double (Float.abs f)
        | Atomic.Untyped s -> Atomic.Double (Float.abs (Atomic.parse_float s))
        | a -> Errors.type_error "fn:abs on %s" (Atomic.type_name a))
    | _ -> Errors.type_error "fn:abs on a sequence")
  | ("floor" | "ceiling" | "round"), [ v ] -> (
    let f =
      match name with
      | "floor" -> Float.floor
      | "ceiling" -> Float.ceil
      | _ -> fn_round
    in
    match Value.atomize store v with
    | [] -> []
    | [ Atomic.Integer i ] -> Value.of_int i
    | [ a ] -> Value.of_double (f (Atomic.to_double a))
    | _ -> Errors.type_error "fn:%s on a sequence" name)
  | "distinct-values", [ v ] ->
    let vals = Value.atomize store v in
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun a ->
        let key =
          match a with
          | Atomic.Integer i -> `Num (float_of_int i)
          | Atomic.Decimal f | Atomic.Double f -> `Num f
          | Atomic.String s | Atomic.Untyped s -> `Str s
          | Atomic.Boolean b -> `Bool b
          | Atomic.QName q -> `Str ("Q{" ^ Qname.to_string q)
        in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some (Item.Atomic a)
        end)
      vals
  | "reverse", [ v ] -> List.rev v
  | "subsequence", [ v; start ] ->
    let st = int_of_float (Float.round (Value.to_double store start)) in
    List.filteri (fun i _ -> i + 1 >= st) v
  | "subsequence", [ v; start; len ] ->
    let st = Float.round (Value.to_double store start) in
    let ln = Float.round (Value.to_double store len) in
    List.filteri
      (fun i _ ->
        let p = float_of_int (i + 1) in
        p >= st && p < st +. ln)
      v
  | "insert-before", [ v; pos; ins ] ->
    let p = max 1 (Value.to_integer store pos) in
    let rec go i = function
      | [] -> ins
      | x :: rest when i < p -> x :: go (i + 1) rest
      | rest -> ins @ rest
    in
    go 1 v
  | "remove", [ v; pos ] ->
    let p = Value.to_integer store pos in
    List.filteri (fun i _ -> i + 1 <> p) v
  | "index-of", [ v; target ] ->
    let t = Value.singleton_atomic store target in
    List.concat
      (List.mapi
         (fun i item ->
           if Atomic.general_compare Atomic.Eq (Item.atomize store item) t then
             [ Item.integer (i + 1) ]
           else [])
         v)
  | "exactly-one", [ v ] ->
    if List.length v = 1 then v
    else Errors.type_error "fn:exactly-one: got %d items" (List.length v)
  | "zero-or-one", [ v ] ->
    if List.length v <= 1 then v
    else Errors.type_error "fn:zero-or-one: got %d items" (List.length v)
  | "one-or-more", [ v ] ->
    if v <> [] then v else Errors.type_error "fn:one-or-more: empty sequence"
  | "deep-equal", [ a; b ] -> Value.of_bool (deep_equal store a b)
  | "error", [] -> Errors.raise_error "FOER0000" "fn:error"
  | "error", [ code ] -> raise (Errors.Dynamic_error (sv store code, ""))
  | "error", [ code; msg ] ->
    raise (Errors.Dynamic_error (sv store code, sv store msg))
  | "trace", [ v; label ] ->
    Logs.debug (fun m ->
        m "trace %s: %a" (sv store label) (Value.pp store) v);
    v
  | "compare", [ a; b ] -> (
    match Value.atomize store a, Value.atomize store b with
    | [], _ | _, [] -> []
    | [ x ], [ y ] ->
      let s = function Atomic.String s | Atomic.Untyped s -> s | a -> Atomic.to_string a in
      Value.of_int (compare (String.compare (s x) (s y)) 0)
    | _ -> Errors.type_error "fn:compare on sequences")
  | "string-to-codepoints", [ v ] ->
    let s = sv store v in
    let rec go i acc =
      if i >= String.length s then List.rev acc
      else
        let d = String.get_utf_8_uchar s i in
        go (i + Uchar.utf_decode_length d)
          (Item.integer (Uchar.to_int (Uchar.utf_decode_uchar d)) :: acc)
    in
    go 0 []
  | "codepoints-to-string", [ v ] ->
    let buf = Buffer.create 16 in
    List.iter
      (fun item ->
        Xqb_xml.Escape.add_utf8 buf (Atomic.to_integer (Item.atomize store item)))
      v;
    Value.of_string (Buffer.contents buf)
  | "round-half-to-even", [ v ] -> (
    match Value.atomize store v with
    | [] -> []
    | [ Atomic.Integer i ] -> Value.of_int i
    | [ a ] ->
      let f = Atomic.to_double a in
      let below = Float.floor f and above = Float.ceil f in
      let r =
        if f -. below < above -. f then below
        else if above -. f < f -. below then above
        else if Float.rem below 2.0 = 0.0 then below
        else above
      in
      Value.of_double r
    | _ -> Errors.type_error "fn:round-half-to-even on a sequence")
  | "doc-available", [ v ] ->
    Value.of_bool
      (match Context.resolve_doc ctx (sv store v) with
      | _ -> true
      | exception _ -> false)
  | "id", args -> (
    (* fn:id: elements (in the target document) whose @id attribute
       equals one of the given strings. *)
    let keys, scope =
      match args with
      | [ k ] -> (k, [ focus_item focus ])
      | [ k; n ] -> (k, n)
      | _ -> assert false
    in
    let wanted =
      List.concat_map
        (fun i -> String.split_on_char ' ' (Item.string_value store i))
        keys
      |> List.filter (fun s -> s <> "")
    in
    match scope with
    | [ Item.Node n ] ->
      let root = Store.root store n in
      let all = root :: Xqb_store.Axes.descendants store root in
      let hits =
        List.filter
          (fun el ->
            Store.kind store el = Store.Element
            && List.exists
                 (fun aid ->
                   match Store.name store aid with
                   | Some q when Qname.local q = "id" ->
                     List.mem (Store.content store aid) wanted
                   | _ -> false)
                 (Store.attributes store el))
          all
      in
      Value.of_nodes hits
    | _ -> Errors.type_error "fn:id needs a node scope")
  | "xs:integer", [ v ] -> Types.cast store (Xqb_syntax.Ast.It_atomic (Qname.xs "integer")) v
  | "xs:decimal", [ v ] -> Types.cast store (Xqb_syntax.Ast.It_atomic (Qname.xs "decimal")) v
  | "xs:double", [ v ] -> Types.cast store (Xqb_syntax.Ast.It_atomic (Qname.xs "double")) v
  | "xs:string", [ v ] -> Types.cast store (Xqb_syntax.Ast.It_atomic (Qname.xs "string")) v
  | "xs:boolean", [ v ] -> Types.cast store (Xqb_syntax.Ast.It_atomic (Qname.xs "boolean")) v
  | "xs:untypedAtomic", [ v ] ->
    Types.cast store (Xqb_syntax.Ast.It_atomic (Qname.xs "untypedAtomic")) v
  | "xs:QName", [ v ] -> Types.cast store (Xqb_syntax.Ast.It_atomic (Qname.xs "QName")) v
  | _ ->
    Errors.arity_error "unknown builtin %s/%d" name (List.length args)
