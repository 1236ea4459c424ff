(** Contention-aware communication cost model.

    The completion time of a set of simultaneous messages combines:
    - sender/receiver serialization: a node injects (drains) one
      message at a time, each paying the start-up [alpha];
    - bandwidth: the most loaded directed link transfers its bytes
      serially at [beta] per byte — this is where general affine
      communications lose: dimension-order routes pile onto shared
      links, while axis-parallel elementary communications spread
      evenly (paper §4, Table 2);
    - distance: the longest route pays [hop] per link.

    Messages between the same (src, dst) pair of physical processors
    are coalesced into one message whose size is the sum — the
    compiled code would vectorize them (paper §3.5), and the physical
    channel carries them as one transfer anyway.

    [time = alpha * max(sender, receiver serialization)
          + beta * max link load (bytes)
          + hop * longest path].  Local messages ([src = dst]) are
    free.

    Under a {!Fault} model the formula keeps its shape but the inputs
    degrade — the {e degraded-capacity} variant: routes detour around
    severed links (so hops may grow), each link's load is inflated by
    the expected retransmissions over its flaky probability divided by
    its remaining bandwidth fraction, and messages with no surviving
    route (or a dead endpoint) are counted [unreachable] and excluded
    from the price instead of silently vanishing. *)

type params = { alpha : float; beta : float; hop : float }

type stats = {
  time : float;
  messages : int;  (** non-local messages actually priced *)
  total_bytes : int;
  total_hops : int;
  max_link_load : int;  (** bytes through the most loaded link *)
  max_sender : int;  (** messages injected by the busiest node *)
  max_receiver : int;
  max_hops : int;
  unreachable : int;
      (** messages excluded from the price: dead endpoint or no
          surviving route.  0 without faults. *)
}

type groups = (src:int -> dst:int -> bytes:int -> count:int -> unit) -> unit
(** Traffic as distinct messages with multiplicities: [groups f] calls
    [f ~src ~dst ~bytes ~count] once per group, meaning [count]
    identical messages of [bytes] bytes from [src] to [dst].  Local
    groups ([src = dst]) are allowed; they carry no price. *)

val price :
  ?faults:Fault.t -> ?label:string -> Topology.t -> params -> groups -> stats
(** The one pricing core.  Each group is routed once and its link
    loads, send/receive counts, bytes, hops and [unreachable] are
    weighted by its [count], so identical messages are priced once and
    the stats equal those of [count] separate messages exactly.  Cost:
    O(groups × route length), plus the route search under severed
    links.  Groups are never merged here: coalescing is the caller's
    choice (see {!run}).

    When {!Obs.enabled}, each call increments the [netsim.runs] /
    [netsim.messages] counters and feeds the [netsim.time] and
    [netsim.max_link_load] histograms, so a sweep leaves a
    machine-readable record of every pricing it performed;
    undeliverable messages also bump [fault.injected].

    When {!Obs.Telemetry.enabled}, each call additionally records one
    {!Obs.Telemetry.run} (sim ["netsim"], [total_cycles = 0] — the
    model is closed-form, so link loads are carried bytes and there
    are no latency series), tagged with [label].  Its messages are
    listed group by group in the order [groups] yields them, each
    group repeated [count] times. *)

val run :
  ?coalesce:bool ->
  ?faults:Fault.t ->
  ?label:string ->
  Topology.t ->
  params ->
  Message.t list ->
  stats
(** {!price} on a message list.  [coalesce] (default [true]) merges
    same-pair messages into one group of summed bytes.  Pass [false]
    to model the runtime's generic path for a {e general} affine
    communication: the pattern is too irregular to vectorize, so every
    element pays its own start-up — the very overhead the paper's
    decomposition removes.  Identical messages are then grouped by
    (src, dst, bytes) and priced once, with their multiplicity.

    Cost: one hash pass over the list, then {!price} over the distinct
    pairs (coalesced) or distinct messages (uncoalesced).  {!price}
    sees the local messages first, then the groups in order of first
    appearance.

    [faults] (default {!Fault.none}, zero-cost) switches on the
    degraded-capacity model described above. *)

val coalesce_messages : Message.t list -> Message.t list
(** Merge messages sharing (src, dst) into one with summed bytes —
    {!Volgraph.of_messages} turned back into messages. *)

val link_loads :
  ?faults:Fault.t -> Topology.t -> Message.t list -> ((int * int) * int) list
(** Bytes per directed link, for inspection — the link loads the
    {!price} core accumulates for the uncoalesced message list, fault
    inflation included; undeliverable messages contribute nothing.
    Records no counters and no telemetry. *)

val pp_stats : Format.formatter -> stats -> unit
