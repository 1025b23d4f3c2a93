(* Replay and rendering for the store's mutation journal (WAL-style
   effect audit trail).

   [Store] records every mutating operation — allocations, inserts,
   detaches, renames, content writes, deep copies, transaction
   markers, and per-update-request provenance notes — as an ordered
   [mj_entry] list. Node ids are allocated sequentially, so
   re-executing those entries against a fresh store is deterministic:
   the replayed store is byte-for-byte identical to the original
   (checked with [digest]/[consistent], used by tests and bench E19).

   Transaction spans replay through [Store.transactionally] itself: an
   [M_txn_abort] marker makes the replayed span raise, driving the
   same undo machinery the original rollback used — allocations
   survive (as they did originally), structural changes are undone. *)

module S = Store

type entry = S.mj_entry = { seq : int; op : S.mj_op }

exception Replay_error of string

(* Raised inside a replayed transaction span to trigger its rollback. *)
exception Abort_span

(* Execute entries in order until the list ends or a txn terminator
   for the *enclosing* span is reached; returns the unconsumed tail
   (beginning with that terminator, if any). *)
let rec exec_seq store (entries : entry list) : entry list =
  match entries with
  | [] -> []
  | { op; _ } :: rest -> (
    match op with
    | S.M_txn_commit | S.M_txn_abort -> entries
    | S.M_txn_begin ->
      let after = ref rest in
      (try
         S.transactionally store (fun () ->
             match exec_seq store rest with
             | { op = S.M_txn_commit; _ } :: tail -> after := tail
             | { op = S.M_txn_abort; _ } :: tail ->
               after := tail;
               raise Abort_span
             | tail ->
               (* truncated journal (recording stopped mid-span):
                  treat as committed *)
               after := tail)
       with Abort_span -> ());
      exec_seq store !after
    | S.M_make (kind, name, content) ->
      ignore (S.replay_make store kind name content);
      exec_seq store rest
    | S.M_insert (parent, position, nodes) ->
      S.insert store ~parent ~position nodes;
      exec_seq store rest
    | S.M_detach n ->
      S.detach store n;
      exec_seq store rest
    | S.M_rename (n, q) ->
      S.rename store n q;
      exec_seq store rest
    | S.M_set_content (n, s) ->
      S.set_content store n s;
      exec_seq store rest
    | S.M_deep_copy src ->
      ignore (S.deep_copy store src);
      exec_seq store rest
    | S.M_wire (parent, nodes) ->
      S.wire store ~parent nodes;
      exec_seq store rest
    | S.M_request _ -> exec_seq store rest)

(* Execute entries against an *existing* store — the WAL-tail replay
   and replica-apply primitive. Entries allocate node ids sequentially
   from the store's current next id, so applying a leader's journal
   tail to a store restored from the leader's snapshot (or applying
   shipped frames to a converged replica) reproduces the leader's ids
   exactly. *)
let apply store (entries : entry list) : unit =
  match exec_seq store entries with
  | [] -> ()
  | { seq; _ } :: _ ->
    raise
      (Replay_error
         (Printf.sprintf "unmatched transaction terminator at seq %d" seq))

let replay (entries : entry list) : S.t =
  let store = S.create () in
  apply store entries;
  store

(* Longest prefix that contains no dangling [M_txn_begin]: everything
   up to (and including) the last point where the top-level
   transaction depth returns to zero. Recovery truncates the WAL at
   the split point (a trailing half-written span was never
   acknowledged); a replica buffers the incomplete tail until the rest
   of the span ships. *)
let split_complete (entries : entry list) : entry list * entry list =
  let rec scan depth taken best = function
    | [] -> best
    | { op; _ } :: rest ->
      let depth =
        match op with
        | S.M_txn_begin -> depth + 1
        | S.M_txn_commit | S.M_txn_abort -> max 0 (depth - 1)
        | _ -> depth
      in
      let taken = taken + 1 in
      scan depth taken (if depth = 0 then taken else best) rest
  in
  let keep = scan 0 0 0 entries in
  let rec split i acc = function
    | rest when i = keep -> (List.rev acc, rest)
    | e :: rest -> split (i + 1) (e :: acc) rest
    | [] -> (List.rev acc, [])
  in
  split 0 [] entries

(* Canonical dump of the full node table — every field that defines
   the store's logical state, id by id. Two stores with equal digests
   are indistinguishable to every accessor. *)
let digest (store : S.t) : string =
  let buf = Buffer.create 1024 in
  for id = 0 to S.node_count store - 1 do
    let n = S.get store id in
    Buffer.add_string buf
      (Printf.sprintf "%d|%s|%s|%S|%s|%d|[%s]|[%s]\n" id
         (S.kind_to_string n.S.kind)
         (match n.S.name with
         | Some q -> Xqb_xml.Qname.to_string q
         | None -> "-")
         n.S.content
         (match n.S.parent with Some p -> string_of_int p | None -> "-")
         n.S.pos
         (String.concat ";" (List.map string_of_int (S.children store id)))
         (String.concat ";" (List.map string_of_int (S.attributes store id))))
  done;
  Buffer.contents buf

(* replay(journal) ≡ store — the consistency check. *)
let consistent (store : S.t) : bool =
  let replayed = replay (S.journal_entries store) in
  String.equal (digest replayed) (digest store)

(* -- Rendering ----------------------------------------------------- *)

(* [store] resolves node ids to stable paths; entries that reference
   ids render raw ("#12") without it. *)
let node_str store n =
  match store with
  | Some s -> S.node_path s n
  | None -> Printf.sprintf "#%d" n

let op_to_string ?store (op : S.mj_op) : string =
  match op with
  | S.M_make (kind, name, content) ->
    Printf.sprintf "make %s%s%s" (S.kind_to_string kind)
      (match name with
      | Some q -> " " ^ Xqb_xml.Qname.to_string q
      | None -> "")
      (if content = "" then "" else Printf.sprintf " %S" content)
  | S.M_insert (parent, position, nodes) ->
    Printf.sprintf "insert [%s] into %s %s"
      (String.concat "; " (List.map (node_str store) nodes))
      (node_str store parent)
      (match position with
      | S.First -> "first"
      | S.Last -> "last"
      | S.After a -> "after " ^ node_str store a)
  | S.M_detach n -> "detach " ^ node_str store n
  | S.M_rename (n, q) ->
    Printf.sprintf "rename %s to %s" (node_str store n)
      (Xqb_xml.Qname.to_string q)
  | S.M_set_content (n, s) ->
    Printf.sprintf "set-content %s %S" (node_str store n) s
  | S.M_deep_copy src -> "deep-copy " ^ node_str store src
  | S.M_wire (parent, nodes) ->
    Printf.sprintf "wire [%s] under %s"
      (String.concat "; " (List.map (node_str store) nodes))
      (node_str store parent)
  | S.M_txn_begin -> "txn-begin"
  | S.M_txn_commit -> "txn-commit"
  | S.M_txn_abort -> "txn-abort"
  | S.M_request { line; col; snap_depth; trace_id; desc } ->
    Printf.sprintf "request %s @ %d:%d (snap depth %d%s)" desc line col
      snap_depth
      (match trace_id with None -> "" | Some t -> ", trace " ^ t)

let entry_to_string ?store (e : entry) : string =
  Printf.sprintf "%6d  %s" e.seq (op_to_string ?store e.op)

let to_string ?store (entries : entry list) : string =
  String.concat "\n" (List.map (entry_to_string ?store) entries)
