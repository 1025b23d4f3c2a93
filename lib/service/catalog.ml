(* The shared document catalog: one store for the whole service, each
   document parsed and loaded exactly once, sessions holding
   references. A session acquiring an already-loaded URI reuses the
   existing tree (load-once); when the last reference is released the
   registry entry is dropped. The store itself never frees nodes
   (§3.1's detach semantics — detached trees stay queryable), so
   release detaches nothing; it only makes the URI available for a
   fresh load.

   Loading parses XML into the shared store, i.e. it *mutates* shared
   state: the service performs loads under the scheduler's write
   lock. The registry itself has its own small mutex so lookups from
   read-side queries are safe. *)

module Store = Xqb_store.Store

type entry = {
  root : Store.node_id;
  mutable refcount : int;
  bytes : int;  (* source size, for the stats dump *)
}

type t = {
  store : Store.t;
  mutex : Mutex.t;
  docs : (string, entry) Hashtbl.t;
}

let create ?store () =
  let store = match store with Some s -> s | None -> Store.create () in
  { store; mutex = Mutex.create (); docs = Hashtbl.create 8 }

let store t = t.store

let locked t f = Mutex.protect t.mutex f

(* Load [xml] under [uri] unless already resident; returns the
   document root either way. The initial refcount is 0 — callers
   [acquire] separately. Must be called with no concurrent readers
   on the store (the service holds the write lock). *)
let load t ~uri xml =
  match locked t (fun () -> Hashtbl.find_opt t.docs uri) with
  | Some e -> e.root
  | None ->
    let root = Store.load_string t.store xml in
    locked t (fun () ->
        match Hashtbl.find_opt t.docs uri with
        | Some e -> e.root  (* lost a race; the duplicate tree is unreachable *)
        | None ->
          Hashtbl.replace t.docs uri
            { root; refcount = 0; bytes = String.length xml };
          root)

(* Recovery / replication: the tree is already in the store (snapshot
   restore or journal replay); just record the registration. *)
let register t ~uri ~root ~bytes =
  locked t (fun () -> Hashtbl.replace t.docs uri { root; refcount = 0; bytes })

let find t uri = locked t (fun () -> Option.map (fun e -> e.root) (Hashtbl.find_opt t.docs uri))

(* Take a reference; returns the root if resident. *)
let acquire t uri =
  locked t (fun () ->
      match Hashtbl.find_opt t.docs uri with
      | Some e ->
        e.refcount <- e.refcount + 1;
        Some e.root
      | None -> None)

(* Drop a reference; the entry disappears when the count reaches 0. *)
let release t uri =
  locked t (fun () ->
      match Hashtbl.find_opt t.docs uri with
      | Some e ->
        e.refcount <- e.refcount - 1;
        if e.refcount <= 0 then Hashtbl.remove t.docs uri
      | None -> ())

let refcount t uri =
  locked t (fun () ->
      match Hashtbl.find_opt t.docs uri with Some e -> e.refcount | None -> 0)

(* (uri, refcount, bytes) for every resident document. *)
let list t =
  locked t (fun () ->
      Hashtbl.fold (fun uri e acc -> (uri, e.refcount, e.bytes) :: acc) t.docs [])

(* (uri, root, bytes) — the registrations a snapshot persists. *)
let roots t =
  locked t (fun () ->
      Hashtbl.fold (fun uri e acc -> (uri, e.root, e.bytes) :: acc) t.docs [])
