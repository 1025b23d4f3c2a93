(* The one module that knows XML markup syntax. Each construct is an
   append onto a caller's buffer; [add_event] writes event streams
   (parsed or generated documents) through them and [Store.add_xml]
   writes a walk of the store through them, so both serializations
   agree byte for byte. Inverse of {!Xml_parser.parse} on its
   supported subset, which the test suite checks by round-tripping. *)

let add_name buf (q : Qname.t) =
  if q.prefix <> "" then begin
    Buffer.add_string buf q.prefix;
    Buffer.add_char buf ':'
  end;
  Buffer.add_string buf q.local

let add_start_tag buf name =
  Buffer.add_char buf '<';
  add_name buf name

let add_lone_attribute buf name value =
  add_name buf name;
  Buffer.add_string buf "=\"";
  Escape.add_escaped_attr buf value;
  Buffer.add_char buf '"'

let add_attribute buf name value =
  Buffer.add_char buf ' ';
  add_lone_attribute buf name value

let close_start_tag buf = Buffer.add_char buf '>'

let add_end_tag buf name =
  Buffer.add_string buf "</";
  add_name buf name;
  Buffer.add_char buf '>'

let add_text = Escape.add_escaped_text

let add_comment buf s =
  Buffer.add_string buf "<!--";
  Buffer.add_string buf s;
  Buffer.add_string buf "-->"

let add_pi buf target content =
  Buffer.add_string buf "<?";
  Buffer.add_string buf target;
  if content <> "" then begin
    Buffer.add_char buf ' ';
    Buffer.add_string buf content
  end;
  Buffer.add_string buf "?>"

let add_event buf (e : Event.t) =
  match e with
  | Start_element (name, attrs) ->
    add_start_tag buf name;
    List.iter (fun (k, v) -> add_attribute buf k v) attrs;
    close_start_tag buf
  | End_element name -> add_end_tag buf name
  | Text s -> add_text buf s
  | Comment s -> add_comment buf s
  | Pi (target, content) -> add_pi buf target content

let to_string events =
  let buf = Buffer.create 1024 in
  List.iter (add_event buf) events;
  Buffer.contents buf
