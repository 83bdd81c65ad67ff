(** Live metrics serving over a minimal HTTP/1.1 TCP responder — no
    dependencies beyond [unix] and [threads].

    Endpoints:
    - [/metrics] — the Obs registry in Prometheus text exposition
      format;
    - [/healthz] — liveness, flagging a frozen flight recorder;
    - [/snapshot] — JSON diff of what moved since the previous
      [/snapshot] scrape (counter deltas, gauge transitions, histogram
      count deltas with fresh quantiles).

    The accept loop runs on one posix thread and only ever {e reads}
    the registry; every response closes the connection. *)

type t
(** Snapshot-diff state: remembers the previous scrape. *)

val make : unit -> t

type response = { status : int; content_type : string; body : string }

val route : t -> string -> response
(** Pure request dispatch ([path] → response), exposed for tests. *)

val snapshot : t -> string
(** The [/snapshot] JSON body (advances the diff state). *)

(** {2 Server} *)

type server

val start : ?host:string -> ?port:int -> t -> server
(** Binds [host:port] (defaults [127.0.0.1:0] — an ephemeral port) and
    serves on a background thread, one connection at a time.  Each
    read of a peer's request waits at most 1 s; a peer that resets,
    stays silent or hangs up only loses its own connection.  Sets SIGPIPE to ignored for the process, so a write to
    a closed peer raises instead of killing it.
    @raise Unix.Unix_error when the bind fails. *)

val port : server -> int
(** The actually-bound port (useful with [port:0]). *)

val stop : server -> unit
(** Stops the accept loop and joins the serving thread. *)

(** {2 Client} *)

val get : ?host:string -> port:int -> string -> int * string
(** One-shot [GET path] returning (status, body); enough for the self
    check and the CI smoke step.  Each read waits at most 5 s.
    @raise Sys_blocked_io when the server does not answer in time. *)

val self_check : server -> (string * int * string) list
(** Scrapes [/healthz], [/metrics] and [/snapshot] through a real
    client connection; returns [(path, status, body)] per endpoint. *)

(** {2 Exposition lint} *)

val lint_exposition : string -> string list
(** Prometheus text-format conformance findings over a payload: HELP /
    TYPE placement and uniqueness, metric-name and label syntax,
    parseable sample values, histogram [_bucket]/[_sum]/[_count]
    suffix discipline ([le] label present), duplicate series.  [[]] is
    a clean payload. *)
