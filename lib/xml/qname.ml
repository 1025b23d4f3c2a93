(* Qualified names.

   XQuery! (like XQuery 1.0) identifies elements, attributes and
   functions by expanded names. This reproduction keeps the prefix
   around for faithful serialization but compares names on
   [(prefix, local)] pairs: the paper's examples never rebind
   prefixes, so prefix equality and URI equality coincide. A handful
   of well-known prefixes ([xs], [fn], [local]) are pre-declared.

   Names are interned: [make] and [of_string] are the only
   constructors, and they return one shared record per
   [(prefix, local)] pair. Two live names are therefore structurally
   equal exactly when they are the same record, and [equal] — run once
   per node by every name test — is a pointer compare. The table is a
   weak hash set, so a name nothing references any more can be
   collected; it is guarded by a mutex because names are made on every
   domain (XML parsing, WAL decoding, query compilation). *)

type t = { prefix : string; local : string }

module Table = Weak.Make (struct
  type nonrec t = t

  let equal a b = String.equal a.local b.local && String.equal a.prefix b.prefix
  let hash t = Hashtbl.hash t.local + (31 * Hashtbl.hash t.prefix)
end)

let table = Table.create 1024
let table_mu = Mutex.create ()

let intern t =
  Mutex.lock table_mu;
  match Table.merge table t with
  | shared ->
    Mutex.unlock table_mu;
    shared
  | exception e ->
    Mutex.unlock table_mu;
    raise e

let make ?(prefix = "") local = intern { prefix; local }

let prefix t = t.prefix
let local t = t.local

(* Parse "p:local" or "local". A leading colon or empty local part is
   the caller's error; we keep the function total and let the name
   validator reject it. *)
let of_string s =
  match String.index_opt s ':' with
  | None -> intern { prefix = ""; local = s }
  | Some i ->
    intern
      { prefix = String.sub s 0 i;
        local = String.sub s (i + 1) (String.length s - i - 1) }

let to_string t = if t.prefix = "" then t.local else t.prefix ^ ":" ^ t.local

let equal a b = a == b

let compare a b =
  if a == b then 0
  else
    match String.compare a.prefix b.prefix with
    | 0 -> String.compare a.local b.local
    | c -> c

let pp ppf t = Format.pp_print_string ppf (to_string t)

let hash t = Hashtbl.hash (t.prefix, t.local)

(* Name validity per XML 1.0 (ASCII subset; non-ASCII name characters
   are accepted verbatim, which is sufficient for the workloads). *)
let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let valid_ncname s =
  s <> ""
  && is_name_start s.[0]
  && (let ok = ref true in
      String.iter (fun c -> if not (is_name_char c) then ok := false) s;
      !ok)

let valid t =
  valid_ncname t.local && (t.prefix = "" || valid_ncname t.prefix)

(* Pre-declared names used throughout the engine. *)
let xs l = make ~prefix:"xs" l
let fn l = make ~prefix:"fn" l
