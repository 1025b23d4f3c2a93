(* A small strict JSON parser (RFC 8259 subset: no trailing commas,
   no comments, fully-validated escapes) plus the escaping helper the
   JSON emitters share.

   This is the well-formedness checker behind the test suite's
   round-trip assertions (test/helpers.ml), recorded job traces
   included — everything the tracer, metrics and the
   STATS/TRACE wire commands emit must parse here. It is not a
   general-purpose JSON library: numbers come back as floats and
   object member order is preserved but not deduplicated. *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

exception Parse_error of string

(* -- escaping (shared by the emitters) ------------------------------ *)

let needs_escape s =
  let n = String.length s in
  let rec go i =
    i < n
    &&
    match String.unsafe_get s i with
    | '"' | '\\' -> true
    | c when Char.code c < 0x20 -> true
    | _ -> go (i + 1)
  in
  go 0

let escape s =
  if not (needs_escape s) then s
  else
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* -- parsing -------------------------------------------------------- *)

type state = { src : string; mutable pos : int }

let fail st fmt =
  Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" st.pos m))) fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail st "expected %C, got %C" c d
  | None -> fail st "expected %C, got end of input" c

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st "invalid literal"

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "invalid \\u escape"

(* Decode a string body (opening quote consumed). \uXXXX escapes are
   re-encoded as UTF-8; surrogate pairs are combined. *)
let parse_string st =
  let buf = Buffer.create 16 in
  let rec uchar () =
    let d = ref 0 in
    for _ = 1 to 4 do
      match peek st with
      | Some c ->
        d := (!d * 16) + hex_digit st c;
        advance st
      | None -> fail st "truncated \\u escape"
    done;
    !d
  and add_utf8 cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  and loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail st "truncated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let cp = uchar () in
          if cp >= 0xD800 && cp <= 0xDBFF then begin
            (* high surrogate: require the low half *)
            expect st '\\';
            expect st 'u';
            let lo = uchar () in
            if lo < 0xDC00 || lo > 0xDFFF then fail st "unpaired surrogate";
            add_utf8 (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
          end
          else if cp >= 0xDC00 && cp <= 0xDFFF then fail st "unpaired surrogate"
          else add_utf8 cp
        | c -> fail st "invalid escape \\%C" c);
        loop ())
    | Some c when Char.code c < 0x20 -> fail st "raw control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let accept_digits () =
    let had = ref false in
    let rec go () =
      match peek st with
      | Some '0' .. '9' ->
        had := true;
        advance st;
        go ()
      | _ -> ()
    in
    go ();
    if not !had then fail st "expected digits"
  in
  (match peek st with Some '-' -> advance st | _ -> ());
  (* int part: 0 | [1-9][0-9]* *)
  (match peek st with
  | Some '0' -> advance st
  | Some '1' .. '9' -> accept_digits ()
  | _ -> fail st "invalid number");
  (match peek st with
  | Some '.' ->
    advance st;
    accept_digits ()
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    accept_digits ()
  | _ -> ());
  float_of_string (String.sub st.src start (st.pos - start))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        expect st '"';
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      Arr (elements [])
    end
  | Some '"' ->
    advance st;
    Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some c -> fail st "unexpected character %C" c

(* Parse a complete document: one value, nothing but whitespace after. *)
let parse s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "at %d: trailing garbage" st.pos)
    else Ok v
  | exception Parse_error m -> Error m

let parse_exn s =
  match parse s with Ok v -> v | Error m -> raise (Parse_error m)

(* -- navigation helpers (for tests and validators) ------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let rec path v = function
  | [] -> Some v
  | k :: rest -> ( match member k v with Some v' -> path v' rest | None -> None)

let to_string_opt = function Str s -> Some s | _ -> None
let to_float_opt = function Num f -> Some f | _ -> None
let to_list = function Arr l -> l | _ -> []
