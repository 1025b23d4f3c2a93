(* The TCP wire edge (lib/service/edge.ml) and the fiber runtime
   beneath it (lib/fiber). Edge tests bind an ephemeral port on
   loopback and speak the newline protocol through real sockets, so
   they cover exactly what a client sees: pipelining, partial reads,
   in-order responses, idle disconnects and the two backpressure
   stages. *)

module Svc = Xqb_service.Service
module Edge = Xqb_service.Edge
module Sched = Xqb_service.Scheduler
module Fiber = Xqb_fiber.Fiber

let tc = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Fiber runtime units                                                 *)
(* ------------------------------------------------------------------ *)

let fiber_tests =
  [
    tc "fiber: spawn, yield and promises cooperate" `Quick (fun () ->
        let l = Fiber.create () in
        let order = ref [] in
        let push x = order := x :: !order in
        Fiber.run l (fun () ->
            let p = Fiber.promise l in
            push "main";
            Fiber.spawn l (fun () ->
                push "child";
                Fiber.resolve p 42);
            Fiber.yield ();
            push (Printf.sprintf "got %d" (Fiber.await p)));
        check
          Alcotest.(list string)
          "order" [ "main"; "child"; "got 42" ] (List.rev !order));
    tc "fiber: sleep_ns wakes in deadline order" `Quick (fun () ->
        let l = Fiber.create () in
        let order = ref [] in
        Fiber.run l (fun () ->
            Fiber.spawn l (fun () ->
                Fiber.sleep_ns 30_000_000;
                order := "slow" :: !order);
            Fiber.spawn l (fun () ->
                Fiber.sleep_ns 5_000_000;
                order := "fast" :: !order));
        check
          Alcotest.(list string)
          "order" [ "fast"; "slow" ] (List.rev !order));
    tc "fiber: a foreign thread wakes a waiting fiber" `Quick (fun () ->
        let l = Fiber.create () in
        let got = ref `Timeout in
        Fiber.run l (fun () ->
            let w = Fiber.waker l in
            let (_ : Thread.t) =
              Thread.create
                (fun () ->
                  Thread.delay 0.02;
                  Fiber.wake w)
                ()
            in
            got :=
              Fiber.wait ~waker:w
                ~deadline_ns:(Xqb_obs.Clock.now_ns () + 2_000_000_000)
                ());
        check Alcotest.bool "woken" true (!got = `Woken));
    tc "fiber: wakeups latch — wake before wait is not lost" `Quick
      (fun () ->
        let l = Fiber.create () in
        let got = ref `Timeout in
        Fiber.run l (fun () ->
            let w = Fiber.waker l in
            Fiber.wake w;
            got :=
              Fiber.wait ~waker:w
                ~deadline_ns:(Xqb_obs.Clock.now_ns () + 2_000_000_000)
                ());
        check Alcotest.bool "woken" true (!got = `Woken));
    tc "fiber: deadline_ns alone yields `Timeout" `Quick (fun () ->
        let l = Fiber.create () in
        let got = ref `Woken in
        Fiber.run l (fun () ->
            got :=
              Fiber.wait ~deadline_ns:(Xqb_obs.Clock.now_ns () + 5_000_000) ());
        check Alcotest.bool "timeout" true (!got = `Timeout));
    tc "fiber: stop cancels suspended fibers and runs finalizers" `Quick
      (fun () ->
        let l = Fiber.create () in
        let finalized = ref false in
        Fiber.run l (fun () ->
            Fiber.spawn l (fun () ->
                Fun.protect
                  ~finally:(fun () -> finalized := true)
                  (fun () ->
                    (* park forever; only stop can end this *)
                    ignore
                      (Fiber.wait ~waker:(Fiber.waker l) ());
                    Alcotest.fail "wait returned without a wake"));
            Fiber.yield ();
            Fiber.stop l);
        check Alcotest.bool "finalizer ran" true !finalized;
        check Alcotest.int "no live fibers" 0 (Fiber.live l));
  ]

(* ------------------------------------------------------------------ *)
(* Wire helpers                                                        *)
(* ------------------------------------------------------------------ *)

let with_edge ?(domains = 1) ?max_queue ?(max_conns = 0)
    ?(idle_timeout_ms = 0) ?(backlog = Edge.default_config.backlog) f =
  let svc = Svc.create ~domains ?max_queue () in
  Fun.protect
    ~finally:(fun () -> Svc.shutdown svc)
    (fun () ->
      let edge =
        Edge.start svc
          { Edge.default_config with max_conns; idle_timeout_ms; backlog }
      in
      Fun.protect ~finally:(fun () -> Edge.stop edge) (fun () -> f svc edge))

(* A client connection: raw fd for writing (so tests control segment
   boundaries exactly) plus a channel for line reads. A receive
   timeout turns a lost reply into a test failure, not a hang. *)
type client = { fd : Unix.file_descr; ic : in_channel }

let connect edge =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Edge.port edge));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  { fd; ic = Unix.in_channel_of_descr fd }

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c s = ignore (Unix.write_substring c.fd s 0 (String.length s))
let line c = input_line c.ic

let with_client edge f =
  let c = connect edge in
  Fun.protect ~finally:(fun () -> close_client c) (fun () -> f c)

let eventually name pred =
  let rec go n =
    if pred () then ()
    else if n = 0 then Alcotest.fail name
    else begin
      Thread.delay 0.005;
      go (n - 1)
    end
  in
  go 1000

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Park the single worker domain on a mutex we hold, so the queue
   state is fully deterministic: nothing drains until we unlock. *)
let block_worker svc =
  let m = Mutex.create () in
  Mutex.lock m;
  let fut =
    Sched.submit (Svc.scheduler svc) ~footprint:Core.Static.Footprint.top
      (fun () ->
        Mutex.lock m;
        Mutex.unlock m)
  in
  eventually "worker picked up the blocker" (fun () ->
      Sched.queue_depth (Svc.scheduler svc) = 0);
  (m, fut)

(* [n] connections open at once, each with [pipeline] queries sent in
   one segment before any reply is read: every reply must be [OK 2],
   and the edge's peak-open gauge must have seen all [n]. *)
let many_connections n () =
  let pipeline = 8 in
  with_edge ~domains:2 ~backlog:512 (fun _svc edge ->
      let conns = Array.init n (fun _ -> connect edge) in
      Fun.protect
        ~finally:(fun () -> Array.iter close_client conns)
        (fun () ->
          let sids =
            Array.map
              (fun c ->
                send c "OPEN\n";
                Scanf.sscanf (line c) "OK %d" Fun.id)
              conns
          in
          Array.iteri
            (fun i c ->
              send c
                (String.concat ""
                   (List.init pipeline (fun _ ->
                        Printf.sprintf "QUERY %d 1+1\n" sids.(i)))))
            conns;
          let bad = ref [] in
          Array.iter
            (fun c ->
              for _ = 1 to pipeline do
                let l = line c in
                if l <> "OK 2" then bad := l :: !bad
              done)
            conns;
          check Alcotest.(list string) "every pipelined reply is OK 2" []
            !bad;
          let peak = (Edge.gauges edge).Svc.eg_peak in
          if peak < n then
            Alcotest.failf "edge held %d concurrent connections (< %d)" peak n))

(* ------------------------------------------------------------------ *)
(* Edge behavior                                                       *)
(* ------------------------------------------------------------------ *)

let edge_tests =
  [
    tc "fiber edge: request/response round trips" `Quick (fun () ->
        with_edge (fun _svc edge ->
            with_client edge (fun c ->
                send c "OPEN\n";
                let sid = Scanf.sscanf (line c) "OK %d" (fun n -> n) in
                send c (Printf.sprintf "QUERY %d 1+2*3\n" sid);
                check Alcotest.string "query" "OK 7" (line c);
                send c "nonsense\n";
                check Alcotest.bool "parse error is one ERR line" true
                  (starts_with "ERR " (line c)))));
    tc "fiber edge: pipelined batch answers in submission order" `Quick
      (fun () ->
        with_edge ~domains:2 (fun _svc edge ->
            with_client edge (fun c ->
                send c "OPEN\n";
                let sid = Scanf.sscanf (line c) "OK %d" (fun n -> n) in
                let n = 50 in
                let b = Buffer.create 1024 in
                for i = 1 to n do
                  Buffer.add_string b (Printf.sprintf "QUERY %d %d+0\n" sid i)
                done;
                (* one write carries all 50 requests *)
                send c (Buffer.contents b);
                for i = 1 to n do
                  check Alcotest.string
                    (Printf.sprintf "reply %d" i)
                    (Printf.sprintf "OK %d" i)
                    (line c)
                done);
            let g = Edge.gauges edge in
            check Alcotest.bool "requests counted" true
              (g.Svc.eg_requests >= 51)));
    tc "fiber edge: byte-by-byte writes still parse (partial reads)" `Quick
      (fun () ->
        with_edge (fun _svc edge ->
            with_client edge (fun c ->
                String.iter
                  (fun ch -> send c (String.make 1 ch))
                  "OPEN\n";
                let sid = Scanf.sscanf (line c) "OK %d" (fun n -> n) in
                let req = Printf.sprintf "QUERY %d 40+2\n" sid in
                String.iter (fun ch -> send c (String.make 1 ch)) req;
                check Alcotest.string "split request" "OK 42" (line c))));
    tc "fiber edge: back-to-back one-segment batches" `Quick (fun () ->
        with_edge (fun _svc edge ->
            with_client edge (fun c ->
                send c "OPEN\n";
                let sid = Scanf.sscanf (line c) "OK %d" (fun n -> n) in
                for round = 1 to 10 do
                  let b = Buffer.create 128 in
                  for i = 1 to 4 do
                    Buffer.add_string b
                      (Printf.sprintf "QUERY %d %d*%d\n" sid round i)
                  done;
                  send c (Buffer.contents b);
                  for i = 1 to 4 do
                    check Alcotest.string
                      (Printf.sprintf "round %d reply %d" round i)
                      (Printf.sprintf "OK %d" (round * i))
                      (line c)
                  done
                done)));
    tc "fiber edge: idle timeout disconnects a quiet connection" `Quick
      (fun () ->
        with_edge ~idle_timeout_ms:60 (fun _svc edge ->
            with_client edge (fun c ->
                send c "OPEN\n";
                ignore (line c);
                (* no traffic, no in-flight work: the edge hangs up *)
                match line c with
                | l -> Alcotest.failf "expected EOF, got %S" l
                | exception End_of_file -> ())));
    tc "fiber edge: hard watermark rejects, soft watermark stops reading"
      `Quick (fun () ->
        (* domains=1, max_queue=4 -> soft watermark 3. With the worker
           parked, six pipelined queries fill the queue to 4, the last
           two bounce as [overloaded], and the connection's reads
           suspend until the queue drains. *)
        with_edge ~domains:1 ~max_queue:4 (fun svc edge ->
            let m, blocker = block_worker svc in
            with_client edge (fun c ->
                send c "OPEN\n";
                let sid = Scanf.sscanf (line c) "OK %d" (fun n -> n) in
                let b = Buffer.create 256 in
                for _ = 1 to 6 do
                  Buffer.add_string b (Printf.sprintf "QUERY %d 1+1\n" sid)
                done;
                send c (Buffer.contents b);
                eventually "reads suspended" (fun () ->
                    (Edge.gauges edge).Svc.eg_suspended = 1);
                (* health surfaces the backpressure while it lasts *)
                check Alcotest.bool "health mentions edge-backpressure" true
                  (let h = Svc.health_json svc in
                   let re = Re.str "edge-backpressure" in
                   Re.execp (Re.compile re) h);
                Mutex.unlock m;
                ignore (Sched.await blocker);
                (* all six replies, in order: four OK then two rejects *)
                for i = 1 to 4 do
                  check Alcotest.string
                    (Printf.sprintf "ok %d" i)
                    "OK 2" (line c)
                done;
                for i = 5 to 6 do
                  check Alcotest.bool
                    (Printf.sprintf "reject %d" i)
                    true
                    (starts_with "ERR [overloaded]" (line c))
                done;
                (* reads resumed: the connection still works *)
                send c (Printf.sprintf "QUERY %d 9*9\n" sid);
                check Alcotest.string "resumed" "OK 81" (line c));
            let g = Edge.gauges edge in
            check Alcotest.bool "suspension counted" true
              (g.Svc.eg_suspensions >= 1);
            check Alcotest.int "no connection left suspended" 0
              g.Svc.eg_suspended;
            check Alcotest.bool "overload rejects counted" true
              (g.Svc.eg_overload_rejects >= 2)));
    tc "fiber edge: max-conns refuses the surplus connection" `Quick
      (fun () ->
        with_edge ~max_conns:1 (fun _svc edge ->
            with_client edge (fun c1 ->
                send c1 "OPEN\n";
                ignore (line c1);
                with_client edge (fun c2 ->
                    (* refused with one ERR line, then EOF *)
                    (match line c2 with
                    | l ->
                      check Alcotest.bool "refusal line" true
                        (starts_with "ERR [overloaded]" l)
                    | exception End_of_file -> ());
                    match line c2 with
                    | l -> Alcotest.failf "expected EOF, got %S" l
                    | exception End_of_file -> ());
                (* the admitted connection is unaffected *)
                send c1 "STATS\n";
                check Alcotest.bool "still served" true
                  (starts_with "OK {" (line c1)));
            let g = Edge.gauges edge in
            check Alcotest.bool "reject counted" true
              (g.Svc.eg_conn_rejects >= 1)));
    tc "fiber edge: QUIT closes only its own connection" `Quick (fun () ->
        with_edge (fun _svc edge ->
            with_client edge (fun c1 ->
                with_client edge (fun c2 ->
                    send c2 "QUIT\n";
                    check Alcotest.string "bye" "OK bye" (line c2);
                    (match line c2 with
                    | l -> Alcotest.failf "expected EOF, got %S" l
                    | exception End_of_file -> ());
                    send c1 "OPEN\n";
                    check Alcotest.bool "other conn alive" true
                      (starts_with "OK " (line c1))))));
    tc "fiber edge: 200 pipelined connections open at once" `Quick
      (many_connections 200);
    tc "fiber edge: 1000 pipelined connections open at once" `Slow
      (many_connections 1000);
    tc "fiber edge: STATS exposes the edge gauge block" `Quick (fun () ->
        with_edge (fun svc edge ->
            with_client edge (fun c ->
                send c "STATS\n";
                let l = line c in
                check Alcotest.bool "stats has edge object" true
                  (Re.execp (Re.compile (Re.str "\"edge\":{\"open\":")) l));
            ignore (Edge.gauges edge);
            check Alcotest.bool "service sees the gauges" true
              (Svc.edge_gauges svc <> None)));
  ]

let suite = [ ("edge:fiber", fiber_tests); ("edge:wire", edge_tests) ]
