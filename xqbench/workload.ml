(* The three served mixes: documents, request streams and the
   correctness checks behind every run.

   Everything a run sends is derived from [--seed]: the XMark document
   (its generator seed), the query texts drawn, and (in [Wire]) the
   Poisson arrival times. The server only ever sees the generated
   request lines. *)

type cls = Read | Write

type req = {
  text : string;  (** one-line XQuery! program, sent as [QUERY sid text] *)
  cls : cls;  (** pure ([Read]) or updating/effecting ([Write]) *)
  kind : string;  (** request template, for the final count checks *)
  expect : string option;  (** exact reply payload, when known up front *)
}

type t = {
  name : string;
  serve_flags : string list;
      (** beyond [--port 0 --domains 2]; [--data-dir] is added per boot *)
  durable : bool;
  rate : float;  (** frozen open-loop arrival rate, requests/s *)
  docs : (string * string) list;  (** uri, XML text — LOADed at set-up *)
  next : int -> req;  (** next request of stream [k] (one per connection) *)
  pinned : bool;
      (** stream [k]'s requests must go out on connection [k] (each
          owns its documents); otherwise the client routes each request
          to the connection least likely to hold it up *)
  probe : string * string;
      (** (uri, element name) of the descendant step the traced
          replay probes after every request *)
  check : acked:(string -> int) -> acked_conn:(int -> string -> int) ->
    query:(string -> string) -> string list;
      (** end-of-run invariants; returns the violations *)
}

(* Fixed harness shape, shared by every workload. [connections]
   pipelined connections from one client process (nproc = 2), each
   keeping [depth] requests in flight in the closed loop. *)
let connections = 2
let depth = 8
let domains = 2
let plan_cache = 128

(* Frozen open-loop rates: about a tenth of each workload's closed-loop
   throughput, measured at the commit that introduced the benchmark
   (README.md, "Calibration"). At half of it, the host's own capacity
   dips pushed the open loop into overload for seconds at a time and
   latency stopped repeating between runs. Never derived at run time. *)
let rate_xmark_read = 100.
let rate_weblog_write = 700.
let rate_auction_mixed = 500.

let names = [ "xmark-read"; "weblog-write"; "auction-mixed" ]

let rng seed tag conn = Random.State.make [| seed; tag; conn |]

let pick st a = a.(Random.State.int st (Array.length a))

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Request kinds in integer percentages, dealt from a shuffled deck of
   100: every 100 consecutive requests of a connection carry the exact
   mix. Independent draws would let the count of rare, expensive
   requests (Q8 costs ~1000 lookups) swing from window to window, and
   with it throughput and the tail. *)
let deck st (mix : (int * 'a) list) =
  let cards = Array.of_list (List.concat_map (fun (p, x) -> List.init p (fun _ -> x)) mix) in
  if Array.length cards <> 100 then invalid_arg "deck: shares must sum to 100";
  let i = ref 100 in
  fun () ->
    if !i = 100 then begin
      shuffle st cards;
      i := 0
    end;
    incr i;
    cards.(!i - 1)

(* XMark at scale 1.0: 255 persons, 217 items, ~150 KB. *)
let auction_cfg = Xqb_xmark.Generator.scaled 1.0

let auction_xml seed = Xqb_xmark.Generator.to_xml { auction_cfg with seed }

(* In-process oracle: the answer [Core.Engine] gives for a pure text on
   the same documents. Computed once per distinct text at client
   set-up, outside [setup_s]. *)
let oracle docs =
  let eng = Core.Engine.create () in
  List.iter (fun (uri, xml) -> ignore (Core.Engine.load_document eng ~uri xml)) docs;
  let memo = Hashtbl.create 1024 in
  fun text ->
    match Hashtbl.find_opt memo text with
    | Some v -> v
    | None ->
      let v = Core.Engine.serialize eng (Core.Engine.run eng text) in
      Hashtbl.replace memo text v;
      v

let q8 =
  {|for $p in doc("auction")//person let $a := for $t in doc("auction")//closed_auction where $t/buyer/@person = $p/@id return $t return <item person="{$p/name}">{count($a)}</item>|}

(* -- xmark-read ------------------------------------------------------- *)

(* Zipf(1) over the lookup texts in a seed-shuffled rank order: ~730
   distinct texts, well past the 128-entry plan cache. *)
let zipf_sampler n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  fun st ->
    let u = Random.State.float st !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

let xmark_read seed =
  let cfg = auction_cfg in
  let lookups =
    Array.concat
      [
        Array.init cfg.persons (fun i ->
            Printf.sprintf {|doc("auction")//person[@id="person%d"]/name/string()|} i);
        Array.init cfg.persons (fun i ->
            Printf.sprintf
              {|doc("auction")//person[@id="person%d"]/emailaddress/string()|} i);
        Array.init cfg.items (fun i ->
            Printf.sprintf {|doc("auction")//item[@id="item%d"]/name/string()|} i);
      ]
  in
  shuffle (rng seed 1 0) lookups;
  let scans =
    Array.append
      (Array.map
         (Printf.sprintf {|count(doc("auction")//item[contains(description/text, "%s")])|})
         Xqb_xmark.Text_pool.words)
      (Array.map
         (Printf.sprintf {|doc("auction")//person[starts-with(name, "%s ")]/name/string()|})
         Xqb_xmark.Text_pool.first_names)
  in
  let aggregates =
    Array.concat
      [
        Array.init 20 (fun i ->
            Printf.sprintf {|sum(doc("auction")//closed_auction[price >= %d]/price)|}
              (i * 25));
        Array.init 5 (fun k ->
            Printf.sprintf {|count(doc("auction")//open_auction[count(bidder) >= %d])|} k);
        Array.init 5 (fun k ->
            Printf.sprintf {|avg(doc("auction")//open_auction[count(bidder) = %d]/current)|}
              k);
        Array.init 4 (fun k ->
            Printf.sprintf
              {|max(doc("auction")//open_auction[count(bidder) >= %d]/bidder/increase)|}
              (k + 1));
      ]
  in
  let docs = [ ("auction", auction_xml seed) ] in
  let answer = oracle docs in
  let zipf = zipf_sampler (Array.length lookups) in
  let streams = Array.init connections (rng seed 2) in
  let decks =
    Array.map (fun st -> deck st [ (60, `Lookup); (20, `Scan); (17, `Aggregate); (3, `Q8) ]) streams
  in
  let next k =
    let st = streams.(k) in
    let kind, text =
      match decks.(k) () with
      | `Lookup -> ("lookup", lookups.(zipf st))
      | `Scan -> ("scan", pick st scans)
      | `Aggregate -> ("aggregate", pick st aggregates)
      | `Q8 -> ("q8", q8)
    in
    { text; cls = Read; kind; expect = Some (answer text) }
  in
  (* precompute every answer the stream can ask for, so the oracle
     never runs while requests are being timed *)
  Array.iter (fun t -> ignore (answer t)) (Array.concat [ lookups; scans; aggregates; [| q8 |] ]);
  {
    name = "xmark-read";
    serve_flags = [];
    durable = false;
    rate = rate_xmark_read;
    docs;
    next;
    pinned = false;
    probe = ("auction", "item");
    check = (fun ~acked:_ ~acked_conn:_ ~query:_ -> []);
  }

(* -- weblog-write ----------------------------------------------------- *)

(* §2 log appends. Connection k owns log<k>/archive<k>; every request
   carries a unique literal, so every request compiles. Every 64th
   request of a connection archives: one batch summary, then the
   entries are deleted — in one snap, so the count is taken before the
   delete applies. *)
let archive_every = 64

let weblog_write seed =
  let cfg = auction_cfg in
  let streams = Array.init connections (rng seed 3) in
  let counters = Array.make connections 0 in
  let next k =
    let st = streams.(k) in
    counters.(k) <- counters.(k) + 1;
    let n = counters.(k) in
    if n mod archive_every = 0 then
      {
        text =
          Printf.sprintf
            {|(insert {<batch seq="c%d-%d" size="{count(doc("log%d")/log/logentry)}"/>} into {doc("archive%d")/archive}, delete {doc("log%d")/log/logentry})|}
            k n k k k;
        cls = Write;
        kind = "archive";
        expect = Some "";
      }
    else
      {
        text =
          Printf.sprintf
            {|insert {<logentry id="c%d-%d" user="person%d" itemid="item%d"/>} into {doc("log%d")/log}|}
            k n
            (Random.State.int st cfg.persons)
            (Random.State.int st cfg.items)
            k;
        cls = Write;
        kind = "insert";
        expect = Some "";
      }
  in
  let check ~acked:_ ~acked_conn ~query =
    List.concat_map
      (fun k ->
        let stored =
          query
            (Printf.sprintf
               {|count(doc("log%d")/log/logentry) + sum(for $b in doc("archive%d")/archive/batch return xs:integer($b/@size))|}
               k k)
        in
        let acked = acked_conn k "insert" in
        if stored = string_of_int acked then []
        else
          [
            Printf.sprintf "log%d: entries + archived = %s, acked inserts = %d" k
              stored acked;
          ])
      (List.init connections Fun.id)
  in
  {
    name = "weblog-write";
    serve_flags = [ "--fsync"; "always"; "--checkpoint-bytes"; "1048576" ];
    durable = true;
    rate = rate_weblog_write;
    docs =
      List.concat_map
        (fun k ->
          [ (Printf.sprintf "log%d" k, "<log/>"); (Printf.sprintf "archive%d" k, "<archive/>") ])
        (List.init connections Fun.id);
    next;
    pinned = true;
    probe = ("log0", "logentry");
    check;
  }

(* -- auction-mixed ---------------------------------------------------- *)

(* Reads next to writes on one auction document plus a shared log.
   Under 100 distinct texts, so every plan fits the cache. get_item
   nests snaps (Effecting: ⊤, exclusive at the footprint gate); bids
   rewrite one of 16 hot <current> values, bumping the document's
   version and so invalidating its order-key and name-index caches
   while reads need them. *)
let get_item_maxlog = 64
let hot_bids = 16

let auction_mixed seed =
  let cfg = auction_cfg in
  let st = rng seed 4 0 in
  let docs =
    [ ("auction", auction_xml seed); ("log", "<log/>"); ("archive", "<archive/>") ]
  in
  let answer = oracle docs in
  let get_items =
    Array.init 40 (fun _ ->
        let i = Random.State.int st cfg.items and p = Random.State.int st cfg.persons in
        let text =
          Printf.sprintf
            {|let $item := doc("auction")//item[@id="item%d"] return (snap insert {<logentry user="{doc("auction")//person[@id="person%d"]/name/string()}" itemid="item%d"/>} into {doc("log")/log}, if (count(doc("log")/log/logentry) >= %d) then (snap insert {<batch size="{count(doc("log")/log/logentry)}"/>} into {doc("archive")/archive}, snap delete {doc("log")/log/logentry}) else (), $item/name/string())|}
            i p i get_item_maxlog
        in
        (text, answer (Printf.sprintf {|doc("auction")//item[@id="item%d"]/name/string()|} i)))
  in
  let hot =
    let ids = Array.init cfg.open_auctions Fun.id in
    shuffle st ids;
    Array.sub ids 0 hot_bids
  in
  let current j =
    Printf.sprintf {|doc("auction")//open_auction[@id="open%d"]/current|} j
  in
  let initial = Array.map (fun j -> int_of_string (answer (current j ^ "/string()"))) hot in
  let bids =
    Array.map
      (fun j ->
        Printf.sprintf "replace value of node %s with xs:integer(%s) + 1" (current j)
          (current j))
      hot
  in
  let reads =
    Array.concat
      [
        Array.init 15 (fun _ ->
            Printf.sprintf {|doc("auction")//person[@id="person%d"]/name/string()|}
              (Random.State.int st cfg.persons));
        Array.init 15 (fun _ ->
            Printf.sprintf {|doc("auction")//item[@id="item%d"]/name/string()|}
              (Random.State.int st cfg.items));
        Array.init 5 (fun _ ->
            Printf.sprintf {|doc("auction")//item[@id="item%d"]/location/string()|}
              (Random.State.int st cfg.items));
      ]
  in
  let scans =
    Array.init 5
      (Printf.sprintf {|count(doc("auction")//open_auction[count(bidder) >= %d])|})
  in
  Array.iter (fun t -> ignore (answer t)) (Array.append reads scans);
  let streams = Array.init connections (rng seed 5) in
  let decks =
    Array.map (fun st -> deck st [ (40, `Get_item); (20, `Bid); (35, `Read); (5, `Scan) ]) streams
  in
  let next k =
    let st = streams.(k) in
    match decks.(k) () with
    | `Get_item ->
      let text, name = pick st get_items in
      { text; cls = Write; kind = "get_item"; expect = Some name }
    | `Bid ->
      let b = Random.State.int st hot_bids in
      { text = bids.(b); cls = Write; kind = Printf.sprintf "bid%d" b; expect = Some "" }
    | `Read ->
      let text = pick st reads in
      { text; cls = Read; kind = "read"; expect = Some (answer text) }
    | `Scan ->
      let text = pick st scans in
      { text; cls = Read; kind = "scan"; expect = Some (answer text) }
  in
  let check ~acked ~acked_conn:_ ~query =
    let log =
      query
        {|count(doc("log")/log/logentry) + sum(for $b in doc("archive")/archive/batch return xs:integer($b/@size))|}
    in
    let log_errs =
      if log = string_of_int (acked "get_item") then []
      else [ Printf.sprintf "log: entries + archived = %s, acked get_items = %d" log (acked "get_item") ]
    in
    let bid_errs =
      List.concat
        (List.init hot_bids (fun b ->
             let now = query (current hot.(b) ^ "/string()") in
             let want = initial.(b) + acked (Printf.sprintf "bid%d" b) in
             if now = string_of_int want then []
             else
               [
                 Printf.sprintf "open%d/current = %s, initial %d + acked bids = %d"
                   hot.(b) now initial.(b) want;
               ]))
    in
    log_errs @ bid_errs
  in
  {
    name = "auction-mixed";
    serve_flags = [];
    durable = false;
    rate = rate_auction_mixed;
    docs;
    next;
    pinned = false;
    probe = ("auction", "item");
    check;
  }

let make name seed =
  match name with
  | "xmark-read" -> xmark_read seed
  | "weblog-write" -> weblog_write seed
  | "auction-mixed" -> auction_mixed seed
  | w -> invalid_arg (Printf.sprintf "unknown workload %S (expected one of: %s)" w
                        (String.concat ", " names))
