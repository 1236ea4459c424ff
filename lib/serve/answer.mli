(** The service's answer for a [run] request — {e the same bytes} the
    offline [resopt-cli run] command prints.

    This module is the byte-identity contract of the service: the CLI's
    [run] command (without [--baseline]) prints exactly {!render}, and
    the server returns exactly {!render}, so a client can verify a
    served answer by diffing it against a local CLI invocation.  The
    rendering goes through a buffer formatter with the default margin —
    the same one [Format.printf] uses — so the two paths cannot
    drift.

    {!render} works in three stages.  The {e solved} stage depends only
    on the workload, [m] and [topo]: the optimized plan, the Feautrier
    baseline's plan, the rendered report, and per machine model the
    unfaulted prices of both plans plus the residual volume graph with
    its identity and greedy hop-bytes.  With the cache on it lives in
    the [serve.solved] memo table (capacity 256, persisted by
    {!Cache.save} like every table), so the many requests that differ
    only in fault or mapping seeds solve once.  The {e template}
    stage renders the optional mapping and resilience blocks from it,
    computing faulted prices and the placement and mapped price of a
    [search] spec ([greedy] and [identity] placements read no seed;
    their mapped prices hit [cost.of_plan]).  Faulted pricing never
    reads the fault seed, so the only place the seed shows is the
    resilience header's [(seed N)]: a {!template} is the body with a
    hole there, and {!fill} — a string concatenation — puts a
    request's seed in.  Templates are what the server's
    [serve.responses] table holds, keyed by {!template_key}.  With the
    cache off every stage runs on every call; the bytes are the same
    either way. *)

type template
(** A rendered answer with a hole where the fault seed's digits go —
    no hole without faults.  {!render} and {!of_request} are its
    {!fill}.  Plain strings, so it marshals into the cache file. *)

val fill : template -> seed:int -> string
(** The body with [seed] in the hole; pure concatenation. *)

val render :
  ?faults:Machine.Fault.t ->
  ?mapping:Mapping.spec ->
  ?topo:Machine.Topology.t ->
  m:int ->
  Resopt.Workloads.t ->
  string
(** Optimize the workload on an [m]-dimensional grid and render the
    mapping report, followed by the process-mapping block when
    [mapping] is given and the resilience block when [faults] is.
    [topo] replaces the three historical machine models with the one
    requested topology ({!Machine.Models.of_topo}) in both blocks;
    omitted, the output is byte-identical to what it always was. *)

val template_key : Wire.request -> string
(** What a request's body reads: its {!Wire.solve_key} with [fseed]
    zeroed, and [mseed] zeroed unless the mapping kind is [search].
    Requests with equal template keys get bodies that differ only in
    the fault seed. *)

val template_of_request : Wire.request -> (template, string) result
(** The {!template} of a wire request: looks up the workload and
    parses the fault / mapping fields, [Error] (a one-line message) on
    an unknown workload, bad fault spec or bad mapping kind.  Only
    [Run] requests reach this; never raises. *)

val of_request : Wire.request -> (string, string) result
(** {!template_of_request} filled with the request's [fseed]: the
    bytes {!render} gives for the same fields. *)
