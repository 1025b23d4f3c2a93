(** The TCP wire edge of [xqbang serve]: accepts connections on
    127.0.0.1 and speaks the newline-delimited {!Protocol}.

    A single event-loop thread
    ({!Xqb_fiber.Fiber}) multiplexes every connection as a fiber over
    non-blocking sockets. Each connection parses requests
    incrementally from a growable buffer — no [in_channel] — and
    {b pipelines}: any number of requests may be in flight, responses
    always return in submission order. Query/EXPLAIN jobs are
    batch-submitted into the shared domain scheduler per readiness
    cycle and completed via {!Scheduler.on_complete} callbacks (no OS
    thread ever parks in [await]). Backpressure follows the
    governor's [Overloaded] taxonomy in two stages: at the {e soft}
    watermark (3/4 of the scheduler's [max_queue]) a connection stops
    {e reading} — requests already parsed still run, TCP pushes back
    on the client — and resumes when the queue drains; only at the
    {e hard} watermark ([max_queue] itself, enforced by the scheduler)
    are requests answered [ERR [overloaded]].

    The edge survives transient [accept] failures (EMFILE/ENFILE back
    off, ECONNABORTED/EINTR retry), sets [TCP_NODELAY] on accepted
    sockets, enforces [max_conns], and publishes its gauges through
    {!Service.set_edge_source}. *)

type config = {
  port : int;  (** 0 picks an ephemeral port — see {!port} *)
  backlog : int;  (** listen(2) backlog *)
  max_conns : int;  (** refuse connections past this; 0 = unlimited *)
  idle_timeout_ms : int;
      (** disconnect a connection with no traffic and no in-flight
          requests after this long; 0 = never *)
}

val default_config : config
(** port 0, backlog 64, unlimited connections, no idle timeout. *)

type t

val start : Service.t -> config -> t
(** Bind, listen and serve in a background thread; returns once the
    socket is listening. Registers the gauge source on the service.
    @raise Failure when the port cannot be bound. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val stop : t -> unit
(** Stop accepting, tear down open connections, join the serving
    thread. Idempotent. *)

val join : t -> unit
(** Block until the edge stops (i.e. forever, absent {!stop} or a
    fatal listener error). *)

val gauges : t -> Service.edge_gauges

val session_loop : Service.t -> in_channel -> out_channel -> unit
(** The blocking one-session loop behind the stdin path of
    [xqbang serve] (no [--port]): read a request line, dispatch, write
    the reply, until EOF or [QUIT]. *)
