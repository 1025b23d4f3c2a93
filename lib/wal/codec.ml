(* Stable binary codec for the durable store: length-prefixed,
   CRC32-checksummed frames around mutation-journal entries (and
   catalog doc registrations), plus whole-store snapshots.

   Everything here is deliberately dependency-free and explicit about
   byte layout — this is an on-disk format that must stay readable
   across builds. Integers are unsigned LEB128 varints; strings are
   varint-length-prefixed bytes; options are a 0/1 byte. *)

module S = Xqb_store.Store
module Q = Xqb_xml.Qname

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type record =
  | R_entry of S.mj_entry
  | R_doc of { uri : string; root : int; bytes : int }

(* -- primitive writers --------------------------------------------- *)

let put_varint buf v =
  if v < 0 then invalid_arg "Codec.put_varint: negative";
  let v = ref v in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7F in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let put_string buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let put_opt put buf = function
  | None -> put_bool buf false
  | Some v ->
    put_bool buf true;
    put buf v

let put_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

let put_qname buf (q : Q.t) =
  put_string buf q.Q.prefix;
  put_string buf q.Q.local

(* -- primitive readers --------------------------------------------- *)

(* Readers thread an explicit cursor and raise [Corrupt] on overrun —
   never an out-of-bounds exception. *)
type cursor = { s : string; mutable pos : int; limit : int }

let need c n =
  if c.pos + n > c.limit then corrupt "truncated record at byte %d" c.pos

let get_byte c =
  need c 1;
  let b = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  b

let get_varint c =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !shift > 56 then corrupt "varint overflow at byte %d" c.pos;
    let b = get_byte c in
    v := !v lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !v

let get_string c =
  let n = get_varint c in
  need c n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let get_bool c =
  match get_byte c with
  | 0 -> false
  | 1 -> true
  | b -> corrupt "bad boolean byte %d" b

let get_opt get c = if get_bool c then Some (get c) else None

let get_u32 c =
  need c 4;
  let b i = Char.code c.s.[c.pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  c.pos <- c.pos + 4;
  v

let get_qname c =
  let prefix = get_string c in
  let local = get_string c in
  Q.make ~prefix local

(* -- journal ops ---------------------------------------------------- *)

let kind_tag = function
  | S.Document -> 0
  | S.Element -> 1
  | S.Attribute -> 2
  | S.Text -> 3
  | S.Comment -> 4
  | S.Pi -> 5

let kind_of_tag = function
  | 0 -> S.Document
  | 1 -> S.Element
  | 2 -> S.Attribute
  | 3 -> S.Text
  | 4 -> S.Comment
  | 5 -> S.Pi
  | t -> corrupt "bad node-kind tag %d" t

let put_position buf = function
  | S.First -> Buffer.add_char buf '\000'
  | S.Last -> Buffer.add_char buf '\001'
  | S.After a ->
    Buffer.add_char buf '\002';
    put_varint buf a

let get_position c =
  match get_byte c with
  | 0 -> S.First
  | 1 -> S.Last
  | 2 -> S.After (get_varint c)
  | t -> corrupt "bad insert-position tag %d" t

let put_op buf (op : S.mj_op) =
  match op with
  | S.M_make (kind, name, content) ->
    Buffer.add_char buf '\000';
    Buffer.add_char buf (Char.chr (kind_tag kind));
    put_opt put_qname buf name;
    put_string buf content
  | S.M_insert (parent, position, nodes) ->
    Buffer.add_char buf '\001';
    put_varint buf parent;
    put_position buf position;
    put_varint buf (List.length nodes);
    List.iter (put_varint buf) nodes
  | S.M_detach n ->
    Buffer.add_char buf '\002';
    put_varint buf n
  | S.M_rename (n, q) ->
    Buffer.add_char buf '\003';
    put_varint buf n;
    put_qname buf q
  | S.M_set_content (n, s) ->
    Buffer.add_char buf '\004';
    put_varint buf n;
    put_string buf s
  | S.M_deep_copy n ->
    Buffer.add_char buf '\005';
    put_varint buf n
  | S.M_txn_begin -> Buffer.add_char buf '\006'
  | S.M_txn_commit -> Buffer.add_char buf '\007'
  | S.M_txn_abort -> Buffer.add_char buf '\008'
  | S.M_request { line; col; snap_depth; trace_id; desc } ->
    Buffer.add_char buf '\009';
    put_varint buf line;
    put_varint buf col;
    put_varint buf snap_depth;
    put_opt put_string buf trace_id;
    put_string buf desc
  | S.M_wire (parent, nodes) ->
    Buffer.add_char buf '\010';
    put_varint buf parent;
    put_varint buf (List.length nodes);
    List.iter (put_varint buf) nodes

let get_op c : S.mj_op =
  match get_byte c with
  | 0 ->
    let kind = kind_of_tag (get_byte c) in
    let name = get_opt get_qname c in
    let content = get_string c in
    S.M_make (kind, name, content)
  | 1 ->
    let parent = get_varint c in
    let position = get_position c in
    let n = get_varint c in
    let nodes = List.init n (fun _ -> get_varint c) in
    S.M_insert (parent, position, nodes)
  | 2 -> S.M_detach (get_varint c)
  | 3 ->
    let n = get_varint c in
    let q = get_qname c in
    S.M_rename (n, q)
  | 4 ->
    let n = get_varint c in
    let s = get_string c in
    S.M_set_content (n, s)
  | 5 -> S.M_deep_copy (get_varint c)
  | 6 -> S.M_txn_begin
  | 7 -> S.M_txn_commit
  | 8 -> S.M_txn_abort
  | 9 ->
    let line = get_varint c in
    let col = get_varint c in
    let snap_depth = get_varint c in
    let trace_id = get_opt get_string c in
    let desc = get_string c in
    S.M_request { line; col; snap_depth; trace_id; desc }
  | 10 ->
    let parent = get_varint c in
    let n = get_varint c in
    let nodes = List.init n (fun _ -> get_varint c) in
    S.M_wire (parent, nodes)
  | t -> corrupt "bad journal-op tag %d" t

(* -- records and frames --------------------------------------------- *)

let tag_entry = 1
let tag_doc = 2

let put_record buf = function
  | R_entry { S.seq; op } ->
    Buffer.add_char buf (Char.chr tag_entry);
    put_varint buf seq;
    put_op buf op
  | R_doc { uri; root; bytes } ->
    Buffer.add_char buf (Char.chr tag_doc);
    put_string buf uri;
    put_varint buf root;
    put_varint buf bytes

let payload ~lsn record =
  let buf = Buffer.create 64 in
  put_varint buf lsn;
  put_record buf record;
  Buffer.contents buf

let decode_payload s =
  let c = { s; pos = 0; limit = String.length s } in
  let lsn = get_varint c in
  let record =
    match get_byte c with
    | t when t = tag_entry ->
      let seq = get_varint c in
      let op = get_op c in
      R_entry { S.seq; op }
    | t when t = tag_doc ->
      let uri = get_string c in
      let root = get_varint c in
      let bytes = get_varint c in
      R_doc { uri; root; bytes }
    | t -> corrupt "bad record tag %d" t
  in
  if c.pos <> c.limit then corrupt "trailing garbage in record payload";
  (lsn, record)

let frame ~lsn record =
  let p = payload ~lsn record in
  let buf = Buffer.create (String.length p + 8) in
  put_u32 buf (String.length p);
  put_u32 buf (Crc32.digest p);
  Buffer.add_string buf p;
  Buffer.contents buf

(* Guards against reading an absurd length out of a corrupt header
   and allocating gigabytes: no legitimate frame (one journal entry /
   one doc registration) comes anywhere near this. *)
let max_frame_payload = 1 lsl 26

(* Walk concatenated frames; stop (without raising) at the first
   torn or corrupt one. Returns the decoded frames and the offset one
   past the last valid frame. *)
let scan ?(pos = 0) s =
  let n = String.length s in
  let acc = ref [] in
  let at = ref pos in
  let ok = ref true in
  while !ok do
    if !at + 8 > n then ok := false
    else begin
      let c = { s; pos = !at; limit = n } in
      let len = get_u32 c in
      let crc = get_u32 c in
      if len > max_frame_payload || !at + 8 + len > n then ok := false
      else if Crc32.digest_sub s (!at + 8) len <> crc then ok := false
      else begin
        match decode_payload (String.sub s (!at + 8) len) with
        | exception Corrupt _ -> ok := false
        | lsn, record ->
          acc := (lsn, record, 8 + len) :: !acc;
          at := !at + 8 + len
      end
    end
  done;
  (List.rev !acc, !at)

(* -- snapshots ------------------------------------------------------ *)

let snapshot_magic = "XQSNAP01"

let store_digest_hex store = Digest.to_hex (Digest.string (Xqb_store.Journal.digest store))

let snapshot ~lsn ~docs store =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf snapshot_magic;
  put_varint buf lsn;
  put_varint buf (List.length docs);
  List.iter
    (fun (uri, root, bytes) ->
      put_string buf uri;
      put_varint buf root;
      put_varint buf bytes)
    docs;
  let n = S.node_count store in
  put_varint buf n;
  for id = 0 to n - 1 do
    let node = S.get store id in
    Buffer.add_char buf (Char.chr (kind_tag node.S.kind));
    put_opt put_qname buf node.S.name;
    put_string buf node.S.content;
    (match node.S.parent with
    | None -> put_varint buf 0
    | Some p -> put_varint buf (p + 1));
    put_varint buf node.S.pos;
    let children = S.children store id in
    put_varint buf (List.length children);
    List.iter (put_varint buf) children;
    let attrs = S.attributes store id in
    put_varint buf (List.length attrs);
    List.iter (put_varint buf) attrs
  done;
  put_string buf (store_digest_hex store);
  let body = Buffer.contents buf in
  let out = Buffer.create (String.length body + 4) in
  Buffer.add_string out body;
  put_u32 out (Crc32.digest body);
  Buffer.contents out

let restore store s =
  if S.node_count store <> 0 then
    invalid_arg "Codec.restore: target store is not fresh";
  let n = String.length s in
  if n < String.length snapshot_magic + 4 then corrupt "snapshot too short";
  let body_len = n - 4 in
  let c = { s; pos = 0; limit = body_len } in
  (let tail = { s; pos = body_len; limit = n } in
   if Crc32.digest_sub s 0 body_len <> get_u32 tail then
     corrupt "snapshot CRC mismatch");
  need c (String.length snapshot_magic);
  if String.sub s 0 (String.length snapshot_magic) <> snapshot_magic then
    corrupt "bad snapshot magic";
  c.pos <- String.length snapshot_magic;
  let lsn = get_varint c in
  let ndocs = get_varint c in
  let docs =
    List.init ndocs (fun _ ->
        let uri = get_string c in
        let root = get_varint c in
        let bytes = get_varint c in
        (uri, root, bytes))
  in
  let count = get_varint c in
  (* pass 1: allocate every node in id order (ids are sequential);
     pass 2: wire parents/positions and the child/attribute lists
     directly into the exposed node records *)
  let links = Array.make (max count 1) (None, 0, [], []) in
  for id = 0 to count - 1 do
    let kind = kind_of_tag (get_byte c) in
    let name = get_opt get_qname c in
    let content = get_string c in
    let parent =
      match get_varint c with 0 -> None | p -> Some (p - 1)
    in
    let pos = get_varint c in
    let nchildren = get_varint c in
    let children = List.init nchildren (fun _ -> get_varint c) in
    let nattrs = get_varint c in
    let attrs = List.init nattrs (fun _ -> get_varint c) in
    let id' = S.replay_make store kind name content in
    if id' <> id then corrupt "snapshot allocation drift at node %d" id;
    links.(id) <- (parent, pos, children, attrs)
  done;
  let digest = get_string c in
  if c.pos <> c.limit then corrupt "trailing garbage in snapshot";
  for id = 0 to count - 1 do
    let parent, pos, children, attrs = links.(id) in
    let node = S.get store id in
    (match parent with
    | Some p when p < 0 || p >= count -> corrupt "snapshot parent out of range"
    | _ -> ());
    node.S.parent <- parent;
    node.S.pos <- pos;
    List.iter
      (fun ch ->
        if ch < 0 || ch >= count then corrupt "snapshot child out of range";
        Xqb_store.Vec.push node.S.children ch)
      children;
    List.iter
      (fun a ->
        if a < 0 || a >= count then corrupt "snapshot attribute out of range";
        Xqb_store.Vec.push node.S.attributes a)
      attrs
  done;
  let actual = store_digest_hex store in
  if not (String.equal actual digest) then
    corrupt "snapshot digest mismatch: stored %s, rebuilt %s" digest actual;
  (lsn, docs)
