(* Hand-written lexer for XQuery!.

   XQuery has no reserved words; every keyword is contextual. The
   lexer therefore emits generic [Name]/[Qname] tokens and the parser
   decides from context whether "for", "insert", "snap", ... are
   keywords. Direct element constructors are lexed *by the parser*
   through the raw-scanning entry points at the bottom of this module
   (the standard trick for XQuery's context-sensitive lexing). *)

type token =
  | Int of int
  | Decimal of float
  | Double of float
  | Str of string
  | Name of string  (* NCName *)
  | Qname of string * string  (* prefix:local, lexed with no spaces *)
  | Var of string  (* $name *)
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Comma
  | Semi
  | Dot
  | Dotdot
  | Slash
  | Slashslash
  | At
  | Coloncolon
  | Colonassign  (* := *)
  | Star
  | Plus
  | Minus
  | Eq
  | Ne  (* != *)
  | Lt
  | Le
  | Gt
  | Ge
  | Ltlt
  | Gtgt
  | Bar
  | Question
  | Eof

let token_to_string = function
  | Int i -> string_of_int i
  | Decimal f -> Printf.sprintf "%g" f
  | Double f -> Printf.sprintf "%ge0" f
  | Str s -> Printf.sprintf "%S" s
  | Name s -> s
  | Qname (p, l) -> p ^ ":" ^ l
  | Var v -> "$" ^ v
  | Lparen -> "(" | Rparen -> ")" | Lbrace -> "{" | Rbrace -> "}"
  | Lbracket -> "[" | Rbracket -> "]" | Comma -> "," | Semi -> ";"
  | Dot -> "." | Dotdot -> ".." | Slash -> "/" | Slashslash -> "//"
  | At -> "@" | Coloncolon -> "::" | Colonassign -> ":="
  | Star -> "*" | Plus -> "+" | Minus -> "-" | Eq -> "=" | Ne -> "!="
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Ltlt -> "<<"
  | Gtgt -> ">>" | Bar -> "|" | Question -> "?" | Eof -> "<eof>"

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;
  mutable tok_line : int;
  mutable tok_col : int;
  mutable tok_pos : int;  (* byte offset where the last token started *)
}

exception Error of int * int * string  (* line, col, message *)

let make src =
  { src; pos = 0; line = 1; bol = 0; tok_line = 1; tok_col = 1; tok_pos = 0 }

let position lx = (lx.line, lx.pos - lx.bol + 1)

let token_start lx = (lx.tok_line, lx.tok_col)
let offset lx = lx.pos
let token_offset lx = lx.tok_pos

let fail lx msg =
  let line, col = position lx in
  raise (Error (line, col, msg))

let eof lx = lx.pos >= String.length lx.src

let peek_char lx = if eof lx then '\000' else lx.src.[lx.pos]

let char_at lx i =
  if lx.pos + i >= String.length lx.src then '\000' else lx.src.[lx.pos + i]

let advance lx =
  if not (eof lx) then begin
    if lx.src.[lx.pos] = '\n' then begin
      lx.line <- lx.line + 1;
      lx.bol <- lx.pos + 1
    end;
    lx.pos <- lx.pos + 1
  end

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let is_digit c = c >= '0' && c <= '9'

(* Skip whitespace and (nestable) XQuery comments "(: ... :)". *)
let rec skip_trivia lx =
  while (not (eof lx)) && is_space (peek_char lx) do
    advance lx
  done;
  if peek_char lx = '(' && char_at lx 1 = ':' then begin
    advance lx;
    advance lx;
    let depth = ref 1 in
    while !depth > 0 do
      if eof lx then fail lx "unterminated comment";
      if peek_char lx = '(' && char_at lx 1 = ':' then begin
        incr depth; advance lx; advance lx
      end
      else if peek_char lx = ':' && char_at lx 1 = ')' then begin
        decr depth; advance lx; advance lx
      end
      else advance lx
    done;
    skip_trivia lx
  end

let scan_ncname lx =
  let start = lx.pos in
  if not (Xqb_xml.Qname.is_name_start (peek_char lx)) then fail lx "expected a name";
  while
    (not (eof lx)) && Xqb_xml.Qname.is_name_char (peek_char lx)
  do
    advance lx
  done;
  String.sub lx.src start (lx.pos - start)

let scan_number lx =
  let start = lx.pos in
  while is_digit (peek_char lx) do
    advance lx
  done;
  let is_decimal = peek_char lx = '.' && is_digit (char_at lx 1) in
  if is_decimal then begin
    advance lx;
    while is_digit (peek_char lx) do
      advance lx
    done
  end;
  let is_double = peek_char lx = 'e' || peek_char lx = 'E' in
  if is_double then begin
    advance lx;
    if peek_char lx = '+' || peek_char lx = '-' then advance lx;
    if not (is_digit (peek_char lx)) then fail lx "malformed exponent";
    while is_digit (peek_char lx) do
      advance lx
    done
  end;
  let text = String.sub lx.src start (lx.pos - start) in
  if is_double then Double (float_of_string text)
  else if is_decimal then Decimal (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Decimal (float_of_string text)

(* String literal: quote doubling escapes the quote; entity references
   are expanded. *)
let scan_string lx =
  let quote = peek_char lx in
  advance lx;
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof lx then fail lx "unterminated string literal";
    let c = peek_char lx in
    if c = quote then begin
      advance lx;
      if peek_char lx = quote then begin
        Buffer.add_char buf quote;
        advance lx;
        loop ()
      end
    end
    else begin
      Buffer.add_char buf c;
      advance lx;
      loop ()
    end
  in
  loop ();
  let raw = Buffer.contents buf in
  match Xqb_xml.Escape.unescape raw with
  | s -> Str s
  | exception Xqb_xml.Escape.Unknown_entity e -> fail lx ("unknown entity: " ^ e)

let next lx =
  skip_trivia lx;
  (let line, col = position lx in
   lx.tok_line <- line;
   lx.tok_col <- col;
   lx.tok_pos <- lx.pos);
  if eof lx then Eof
  else
    let c = peek_char lx in
    match c with
    | '(' -> advance lx; Lparen
    | ')' -> advance lx; Rparen
    | '{' -> advance lx; Lbrace
    | '}' -> advance lx; Rbrace
    | '[' -> advance lx; Lbracket
    | ']' -> advance lx; Rbracket
    | ',' -> advance lx; Comma
    | ';' -> advance lx; Semi
    | '@' -> advance lx; At
    | '|' -> advance lx; Bar
    | '?' -> advance lx; Question
    | '+' -> advance lx; Plus
    | '-' -> advance lx; Minus
    | '*' -> advance lx; Star
    | '=' -> advance lx; Eq
    | '!' ->
      advance lx;
      if peek_char lx = '=' then (advance lx; Ne) else fail lx "expected '='"
    | '<' ->
      advance lx;
      if peek_char lx = '=' then (advance lx; Le)
      else if peek_char lx = '<' then (advance lx; Ltlt)
      else Lt
    | '>' ->
      advance lx;
      if peek_char lx = '=' then (advance lx; Ge)
      else if peek_char lx = '>' then (advance lx; Gtgt)
      else Gt
    | '/' ->
      advance lx;
      if peek_char lx = '/' then (advance lx; Slashslash) else Slash
    | ':' ->
      advance lx;
      if peek_char lx = ':' then (advance lx; Coloncolon)
      else if peek_char lx = '=' then (advance lx; Colonassign)
      else fail lx "unexpected ':'"
    | '.' ->
      if is_digit (char_at lx 1) then begin
        (* .5 style decimal *)
        let start = lx.pos in
        advance lx;
        while is_digit (peek_char lx) do
          advance lx
        done;
        Decimal (float_of_string ("0" ^ String.sub lx.src start (lx.pos - start)))
      end
      else begin
        advance lx;
        if peek_char lx = '.' then (advance lx; Dotdot) else Dot
      end
    | '$' ->
      advance lx;
      let n = scan_ncname lx in
      (* Allow $p:local variables. *)
      if peek_char lx = ':' && Xqb_xml.Qname.is_name_start (char_at lx 1) then begin
        advance lx;
        let l = scan_ncname lx in
        Var (n ^ ":" ^ l)
      end
      else Var n
    | '"' | '\'' -> scan_string lx
    | c when is_digit c -> scan_number lx
    | c when Xqb_xml.Qname.is_name_start c ->
      let n = scan_ncname lx in
      (* QName with no intervening space: name:name. A ':=' or '::'
         must not be confused with a prefix separator. *)
      if
        peek_char lx = ':'
        && Xqb_xml.Qname.is_name_start (char_at lx 1)
      then begin
        advance lx;
        let l = scan_ncname lx in
        Qname (n, l)
      end
      else if peek_char lx = ':' && char_at lx 1 = '*' then begin
        (* prefix:* wildcard: represented as Qname (p, "*") *)
        advance lx;
        advance lx;
        Qname (n, "*")
      end
      else Name n
    | c -> fail lx (Printf.sprintf "unexpected character %C" c)

(* ---- Raw scanning for direct constructors (parser-driven) -------- *)

(* Immediately after the parser has consumed '<' and decided this is a
   direct element constructor, it calls these functions, which operate
   at character level from the current position. *)

let raw_peek = peek_char
let raw_advance = advance
let raw_skip_space lx =
  while (not (eof lx)) && is_space (peek_char lx) do
    advance lx
  done

let raw_name lx = scan_ncname lx

let raw_qname lx =
  let n = scan_ncname lx in
  if peek_char lx = ':' && Xqb_xml.Qname.is_name_start (char_at lx 1) then begin
    advance lx;
    let l = scan_ncname lx in
    Xqb_xml.Qname.make ~prefix:n l
  end
  else Xqb_xml.Qname.make n

let raw_expect lx c =
  if peek_char lx <> c then fail lx (Printf.sprintf "expected %C" c);
  advance lx

let raw_looking_at lx s =
  let n = String.length s in
  lx.pos + n <= String.length lx.src && String.sub lx.src lx.pos n = s

let raw_skip_string lx s =
  if not (raw_looking_at lx s) then fail lx (Printf.sprintf "expected %S" s);
  for _ = 1 to String.length s do
    advance lx
  done

(* Scan element-content text up to the next '<', '{' or '}'. Doubled
   braces escape a literal brace. Entity references are expanded. *)
let raw_content_text lx =
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof lx then ()
    else
      match peek_char lx with
      | '<' -> ()
      | '{' ->
        if char_at lx 1 = '{' then begin
          Buffer.add_char buf '{'; advance lx; advance lx; loop ()
        end
      | '}' ->
        if char_at lx 1 = '}' then begin
          Buffer.add_char buf '}'; advance lx; advance lx; loop ()
        end
        else fail lx "unescaped '}' in element content"
      | '&' -> (
        match String.index_from_opt lx.src lx.pos ';' with
        | None -> fail lx "unterminated entity reference"
        | Some j ->
          let name = String.sub lx.src (lx.pos + 1) (j - lx.pos - 1) in
          (try Xqb_xml.Escape.resolve_entity buf name
           with Xqb_xml.Escape.Unknown_entity e -> fail lx ("unknown entity: " ^ e));
          while lx.pos <= j do
            advance lx
          done;
          loop ())
      | c ->
        Buffer.add_char buf c;
        advance lx;
        loop ()
  in
  loop ();
  Buffer.contents buf

(* Scan an attribute value up to the closing quote, splitting into
   text and '{'-enclosed expression segments. The enclosed expressions
   are returned as raw source substrings; the parser re-parses them. *)
let raw_attr_value lx =
  let quote = peek_char lx in
  if quote <> '"' && quote <> '\'' then fail lx "expected attribute value";
  advance lx;
  let segs = ref [] in
  let buf = Buffer.create 16 in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      segs := `Text (Buffer.contents buf) :: !segs;
      Buffer.clear buf
    end
  in
  let rec loop () =
    if eof lx then fail lx "unterminated attribute value";
    let c = peek_char lx in
    if c = quote then begin
      if char_at lx 1 = quote then begin
        Buffer.add_char buf quote; advance lx; advance lx; loop ()
      end
      else advance lx (* done *)
    end
    else if c = '{' then
      if char_at lx 1 = '{' then begin
        Buffer.add_char buf '{'; advance lx; advance lx; loop ()
      end
      else begin
        flush_text ();
        advance lx;
        (* scan to matching '}' honoring nesting and string literals *)
        let start = lx.pos in
        let depth = ref 1 in
        while !depth > 0 do
          if eof lx then fail lx "unterminated enclosed expression";
          (match peek_char lx with
          | '{' -> incr depth
          | '}' -> decr depth
          | '"' | '\'' ->
            let q = peek_char lx in
            advance lx;
            while (not (eof lx)) && peek_char lx <> q do
              advance lx
            done
          | _ -> ());
          if !depth > 0 then advance lx
        done;
        let src = String.sub lx.src start (lx.pos - start) in
        advance lx;  (* consume '}' *)
        segs := `Expr src :: !segs;
        loop ()
      end
    else if c = '}' then
      if char_at lx 1 = '}' then begin
        Buffer.add_char buf '}'; advance lx; advance lx; loop ()
      end
      else fail lx "unescaped '}' in attribute value"
    else if c = '&' then (
      match String.index_from_opt lx.src lx.pos ';' with
      | None -> fail lx "unterminated entity reference"
      | Some j ->
        let name = String.sub lx.src (lx.pos + 1) (j - lx.pos - 1) in
        (try Xqb_xml.Escape.resolve_entity buf name
         with Xqb_xml.Escape.Unknown_entity e -> fail lx ("unknown entity: " ^ e));
        while lx.pos <= j do
          advance lx
        done;
        loop ())
    else begin
      Buffer.add_char buf c;
      advance lx;
      loop ()
    end
  in
  loop ();
  flush_text ();
  List.rev !segs

let raw_until lx stop =
  let rec find i =
    if i + String.length stop > String.length lx.src then
      fail lx (Printf.sprintf "expected %S" stop)
    else if String.sub lx.src i (String.length stop) = stop then i
    else find (i + 1)
  in
  let j = find lx.pos in
  let text = String.sub lx.src lx.pos (j - lx.pos) in
  while lx.pos < j + String.length stop do
    advance lx
  done;
  text
