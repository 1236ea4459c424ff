(** Dependency-free memoization of repeated solves.

    A content-addressed memo table — keyed by a canonical encoding of
    the input (see {!Linalg.Mat.encode}), size-bounded with LRU
    eviction — in the same spirit as {!Obs} and {!Par}: standard
    library only, and zero cost when unused.

    Only four tables exist, each kept because an end-to-end
    measurement says it pays (2-core host, 20 s [perfbench] runs):
    - [serve.responses] (capacity 512, schema [resopt-serve/2]): the
      [serve] daemon's answers as seed-free templates
      ([Serve.Answer.template]), keyed on what the body reads, so the
      fault seed and greedy/identity map seeds share one entry;
      persisted across restarts.  A 5000-request [Loadgen.mix] has
      1651 distinct requests but 132 templates.  Schema
      [resopt-serve/1] held whole bodies and loads cold.  Measured
      with whole bodies and [serve.solved] in place (3 alternating
      pairs): without the table, serve throughput drops from
      11.4–12.4k to 9.6–11.3k req/s and p50 latency grows from 0.042
      to 0.060–0.066 ms.
    - [serve.solved] (capacity 256): the seed-independent stage of a
      served answer ([Serve.Answer]) per (workload, m, topology).
      The 1651 distinct keys of a 5000-request [Loadgen.mix] cover
      only 33 of them.  With it (medians of 10 alternating pairs),
      serve throughput went from 6073 to 11999 req/s, tail latency
      from 1.65 to 1.00 ms and the server's peak RSS from 18.2 to
      13.7 MB.
    - [cost.of_plan]: plan pricing, the work a sweep and a served
      answer repeat most.  Without it, serve throughput drops 15% and
      its tail latency grows 52% (measured before [serve.solved]).
    - [validate.check]: the brute-force validator.  Together with
      [cost.of_plan] it takes a warm [sweep --cache FILE] from 0.7 s
      to 0.01 s.
    The Hermite/Smith, unimodular-inverse and decomposition-search
    kernels are {e not} memoized: they take microseconds on the
    paper's 2×2 to 4×4 matrices, and dropping their nine tables moved
    serve throughput by −3.5% (inside noise) and solve and sweep
    slightly up.

    {e Caching never changes results.}  Until {!enable} is called,
    {!Memo.find_or_compute} calls its thunk directly — one boolean
    test, no table, no lock — so cache-off output is byte-identical to
    a build without this library.  With the cache on, only pure
    functions are memoized, so every output is byte-identical to
    cache-off; the CI gate diffs the two.

    Every table is {e shared} by all domains and guarded by its own
    mutex, held only for the table operation: a miss computes outside
    the lock.  Workers spawned by {!Par} therefore read what the
    caller (or an earlier {!load}) put there.  Under [--jobs > 1] the
    order in which workers insert — and so the table contents after a
    run and the hit/miss tallies — depends on scheduling; outputs
    never do.

    An optional on-disk format ({!save} / {!load}) persists the tables
    across CLI invocations.  The format is versioned and checksummed;
    a corrupted, truncated or stale file is {e ignored}, never
    trusted and never fatal. *)

(** {1 Enabling} *)

val enable : unit -> unit
(** Start serving lookups from (and inserting into) the memo tables.
    Idempotent. *)

val disable : unit -> unit
(** Stop.  Table contents are kept (use {!clear} to drop them). *)

val enabled : unit -> bool

val scoped : ?enable:bool -> (unit -> 'a) -> 'a
(** [scoped ~enable:true f] runs [f] with the cache on, restoring the
    previous state afterwards (also on exceptions); [~enable:false]
    forces it off for the scope; omitting [enable] leaves the ambient
    state alone — this is what the [?cache] optional arguments of
    {!Resopt.Sweep.run} and {!Resopt.Cost.of_plan} pass through. *)

val clear : unit -> unit
(** Drop every entry of every table and reset their
    hit/miss/eviction tallies.  Does not change the enabled flag. *)

(** {1 Statistics} *)

type stats = { hits : int; misses : int; evictions : int; entries : int }
(** Tallies of one table, or of all of them.  [entries] is the
    current size; the counters are cumulative since the last {!clear}.
    When recording is on ({!Obs.enabled}), every
    {!Memo.find_or_compute} lookup also feeds the
    [cache.lookups] / [cache.hits] / [cache.misses] /
    [cache.evictions] counters, which {!Par} merges across workers
    like any other metric — after a parallel run,
    [hits + misses = lookups] still holds. *)

val stats : unit -> stats
(** Aggregate over every table. *)

(** {1 Memo tables} *)

module Memo : sig
  type 'a t
  (** A typed memo table: canonical string keys to values of one type.
      Each memoized function owns one table, created once at module
      initialization. *)

  val create : ?capacity:int -> name:string -> schema:string -> unit -> 'a t
  (** [capacity] (default 1024, clamped to >= 1) bounds the table;
      the least-recently-used entry is evicted when a fresh key would
      overflow it.  Values must be marshallable: every table takes
      part in {!save} / {!load}.  [name] must be unique — it keys the
      on-disk sections — and [schema] is a free-form version tag: bump
      it whenever the value type or the meaning of the keys changes,
      and stale persisted sections are skipped on load. *)

  val find_or_compute : 'a t -> key:string -> (unit -> 'a) -> 'a
  (** The computing lookup.  With the cache disabled this is just the
      thunk.  Enabled: return the cached value for [key] (refreshing
      its recency) or run the thunk, store the result and return it —
      evicting the least-recently-used entry if the table is full.
      The thunk runs outside the table's lock, so domains that miss on
      the same key at once each compute it and the first insert wins.
      If the thunk raises, nothing is stored. *)

  val find_opt : 'a t -> string -> 'a option
  (** A lookup that never computes: [Some v] for a cached [key]
      (refreshing its recency and counting a hit in the table's own
      {!stats}), [None] when absent or the cache is disabled.  It takes
      only the table's lock and never touches {!Obs} — no counter, not
      even on a hit — so a thread that must leave Obs alone (the serve
      daemon's connection threads) can call it.  A miss is not
      counted: the {!find_or_compute} that fills the key counts it. *)

  val mem : 'a t -> string -> bool
  (** No recency update, no counters. *)

  val length : 'a t -> int

  val capacity : 'a t -> int

  val keys : 'a t -> string list
  (** Most-recently-used first — the reverse of eviction order. *)

  val stats : 'a t -> stats
end

(** {1 Persistence}

    One file holds every table.  Layout: a magic line with
    the format version, a hex FNV-1a checksum line, then the marshalled
    sections.  {!load} verifies magic and checksum before unmarshalling
    anything, and skips sections whose (name, schema) no longer match a
    registered table, so an old or foreign file degrades to a cold
    cache, never to a crash. *)

val save : string -> unit
(** Write every table — crash-safely: the bytes go to
    [file ^ ".tmp"] first and are moved into place with an atomic
    [Sys.rename], so a crash (or [kill -9], as the serve snapshot loop
    invites) mid-save leaves the previous complete file intact rather
    than a truncated one.  Raises [Sys_error] if the file cannot be
    written. *)

val load : string -> bool
(** [load file] merges the file's entries into the tables (through
    the normal insertion path, so capacities hold) and returns
    [true]; returns [false] — caching simply starts cold — if the file
    is missing, truncated, corrupted, from another format version, or
    fails to unmarshal.  A file that {e exists} but fails validation
    additionally bumps the [cache.load_corrupt] Obs counter, so silent
    warm-cache loss is visible in [--stats].  A section that passes
    the checksum and matches a table's name and schema but fails to
    unmarshal is skipped whole and bumps the same counter; the rest
    of the file still loads. *)
