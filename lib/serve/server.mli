(** The [resopt serve] daemon: the optimizer behind a socket.

    One process, three kinds of threads.  An {e accept} thread takes
    connections; a {e connection} thread per client reads framed
    {!Wire} requests and writes framed responses; a single {e solver}
    thread owns the ambient state ({!Obs} metrics, the {!Par} pool)
    and computes every answer.  The response memo ([serve.responses])
    holds seed-free {!Answer.template}s keyed by
    {!Answer.template_key}, so requests that differ only in their
    fault seed or a greedy/identity map seed share one entry.  A
    request whose template is already there is answered on its
    connection thread — {!Cache.Memo.find_opt}, which takes only the
    table's lock and never touches Obs, then {!Answer.fill} with the
    request's fault seed; misses and [stats] reach the solver through
    a mutex-guarded queue and per-request wakeup pipes.  What Obs would
    record for an inline answer (its latency sample, a workload the
    bounds have not seen) waits under the server mutex until the
    solver folds it in, before it mirrors counters or renders
    [stats] — so the stats answer counts inline answers too.  That
    single-mutator rule is what makes it safe to run the
    deliberately lock-free, domain-local observability layer under
    systhreads.  ({!Cache} tables carry their own locks, so the
    pricing and validation memos are also safe for {!Par} workers.)

    A connection whose peer goes away ([Unix.Unix_error]) closes
    quietly; any other exception in a connection thread closes that
    connection, is printed to stderr and counts in [conn_failed],
    shown by [stats].

    Robustness contract, each piece visible to clients as a structured
    response rather than a hung or dropped connection:

    - {e Admission control}: at most [max_queue] solves wait at once;
      beyond that, requests get an immediate [shed] response.
    - {e Deadlines}: a request carrying [deadline_ms] (or the server
      default) gets a [timeout] response when it expires — the solve
      itself continues and warms the cache for the retry.
    - {e Coalescing}: concurrent requests for the same
      {!Wire.solve_key} (fault seed included, so every waiter's body
      names its own seed) share one computation; all waiters get the
      same bytes.
    - {e Graceful drain}: {!stop} (or SIGTERM via
      {!install_signal_handlers}) stops accepting, sheds new work,
      finishes the queue, snapshots the cache and exits.
    - {e Crash-safe warmth}: with [cache_file] set, the solver
      snapshots the memo tables every [snapshot_every] batches through
      {!Cache.save}'s atomic rename, so even [kill -9] loses at most
      the last interval and a restart answers warm.

    Answers are {!Answer.render} bytes — byte-identical to the offline
    CLI, which is how the CI soak gate checks the whole tower.

    The [stats] answer is one [key=value] line each:
    - [requests]: [run] and [stats] requests received, the asking
      [stats] request included.  [ping]s and requests that fail to
      decode are not counted.
    - [ok]: answers a solve or a memo lookup produced, [stats]
      answers included.  A coalesced waiter shares its leader's
      answer and counts in [coalesced] instead.
    - [errors]: [run] requests answered [error] by the solver
      (unknown workload, bad fault spec or mapping kind, failed
      solve).  Decode errors, such as [m < 1], are not counted.
    - [shed]: requests refused because the queue was full or the
      server was draining.
    - [timeout]: waits whose deadline expired.  The solve goes on,
      and its entry still counts in [ok] or [errors] when it ends, so
      a timed-out request counts twice.
    - [coalesced]: requests that joined an identical in-flight solve.
    - [conn_failed]: connections closed by an exception other than a
      vanished peer.
    - [queue_depth]: solves waiting now.
    - [latency_ms_p50], [latency_ms_p95], [latency_ms_p99]: server
      time per answered entry (inline answers, solved entries and
      [stats] answers; one per coalesced group) over the most recent
      {!Obs.histogram_window} answers.  Absent before the first.
    - [bounds_computed], [bounds_failed]: (workload, m) pairs whose
      achieved-vs-bound efficiency was computed, or raised.
    - [bounds_eff_mean], [bounds_eff_min], [bounds_eff_last]: those
      efficiencies.  Absent before the first.
    - [cache_hits], [cache_misses], [cache_entries]: totals over
      every memo table since the last {!Cache.clear}.
    - [cache_load_corrupt]: cache files or sections discarded as
      corrupt on load.  A stale schema is skipped, not counted.

    With no deadlines, [ok + coalesced + errors + shed + timeout]
    counts the requests answered so far, and [requests] exceeds it by
    those still in flight, the asking [stats] request included. *)

type config = {
  addr : Wire.addr;
  jobs : int;  (** solve-pool width; > 1 fans batches over {!Par} *)
  max_queue : int;  (** admission bound on waiting solves *)
  deadline_ms : int;  (** default deadline, [0] = none *)
  snapshot_every : int;
      (** snapshot the cache every N solved batches; [0] = only at
          shutdown *)
  cache_file : string option;
}

val default_config : Wire.addr -> config
(** [jobs = 1], [max_queue = 64], [deadline_ms = 0] (no deadline),
    [snapshot_every = 8], [cache_file = None]. *)

type t

val start : config -> t
(** Bind, load the cache file if any (a missing or corrupt one starts
    cold, counted in [cache.load_corrupt]), spawn the threads.  Raises
    [Unix.Unix_error] when the address cannot be bound. *)

val address : t -> Wire.addr
(** The bound address — with [Tcp (_, 0)] this has the real port. *)

val stop : t -> unit
(** Begin graceful drain.  Idempotent, non-blocking; {!wait} for
    completion. *)

val stopping : t -> bool

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT trigger {!stop} (the handler only flips an
    atomic flag; the polling loops notice).  SIGPIPE is already
    ignored by {!start}. *)

val wait : t -> unit
(** Block until the server has fully drained and every thread has
    exited. *)
