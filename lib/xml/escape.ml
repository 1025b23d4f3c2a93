(* Escaping and entity resolution for XML text and attribute values. *)

(* A CR is a reference in both text and attribute values: a parser
   turns a raw one into LF in text and into a space in a value. *)
let add_escaped_text buf s =
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '\r' -> Buffer.add_string buf "&#13;"
      | c -> Buffer.add_char buf c)
    s

let add_escaped_attr buf s =
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\n' -> Buffer.add_string buf "&#10;"
      | '\r' -> Buffer.add_string buf "&#13;"
      | '\t' -> Buffer.add_string buf "&#9;"
      | c -> Buffer.add_char buf c)
    s

(* Encode a Unicode code point as UTF-8 into [buf]. Invalid code
   points are replaced by U+FFFD. *)
let add_utf8 buf cp =
  let cp = if cp < 0 || cp > 0x10FFFF then 0xFFFD else cp in
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

exception Unknown_entity of string

(* Resolve a single entity name (the text between '&' and ';'). *)
let resolve_entity buf name =
  match name with
  | "lt" -> Buffer.add_char buf '<'
  | "gt" -> Buffer.add_char buf '>'
  | "amp" -> Buffer.add_char buf '&'
  | "quot" -> Buffer.add_char buf '"'
  | "apos" -> Buffer.add_char buf '\''
  | _ ->
    if String.length name > 1 && name.[0] = '#' then begin
      let num = String.sub name 1 (String.length name - 1) in
      let cp =
        try
          if String.length num > 1 && (num.[0] = 'x' || num.[0] = 'X') then
            int_of_string ("0x" ^ String.sub num 1 (String.length num - 1))
          else int_of_string num
        with Failure _ -> raise (Unknown_entity name)
      in
      add_utf8 buf cp
    end
    else raise (Unknown_entity name)

(* Expand entity and character references in [s]. Raises
   [Unknown_entity] on undefined entities and on unterminated
   references. *)
let unescape s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = '&' then begin
      match String.index_from_opt s !i ';' with
      | None -> raise (Unknown_entity (String.sub s !i (n - !i)))
      | Some j ->
        resolve_entity buf (String.sub s (!i + 1) (j - !i - 1));
        i := j + 1
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf
