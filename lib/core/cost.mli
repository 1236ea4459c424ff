(** Pricing a communication plan on a machine model.

    Turns a {!Commplan.t} into time units: each entry is charged the
    cost of its communication class on the given machine (hardware
    collectives when available, simulated elementary phases for
    decomposed flows, the generic non-vectorizable path for general
    communications).  This is how the heuristic's value is summarized:
    run {!Pipeline} and the {!Feautrier} baseline on the same nest and
    compare totals. *)

type entry_cost = {
  stmt : string;
  label : string;
  class_name : string;
  cost : float;
}

type breakdown = { entries : entry_cost list; total : float }

val sim_vgrid : Machine.Models.t -> int array option
(** The virtual grid 2-D flows are simulated on (four virtual
    processors per physical one per dimension); [None] for models
    without a 2-D topology.  Exposed so mapping consumers (CLI, bench)
    build their volume graphs on the same grid pricing uses. *)

val of_plan :
  ?bytes:int ->
  ?faults:Machine.Fault.t ->
  ?cache:bool ->
  ?mapping:Mapping.spec ->
  Machine.Models.t ->
  Commplan.t ->
  breakdown
(** [bytes] is the item size (default 64).

    [cache] scopes {!Cache} around the pricing ([true] turns the memo
    tables on for this call, [false] forces them off, omitted inherits
    the ambient state).  A whole breakdown is memoized under a key
    covering every input the formulas read — machine name, grid,
    network parameters, hardware collectives, [bytes], the fault
    schedule's {!Machine.Fault.pricing_key} (specs and retry cap; the
    fault seed is not read, so schedules differing only in seed share
    an entry), the mapping kind (plus seed and restarts, which only a
    [Search] placement reads) and each entry's priced
    classification — so a sweep that
    re-prices the same (model, plan) cell hits instead of re-running
    the fold simulation.  Cached or not, the result is byte-identical.

    [faults] (default {!Machine.Fault.none}, zero-cost) prices the
    plan on the degraded machine: simulated entries (decomposed and
    2x2 general flows) go through {!Machine.Netsim}'s
    degraded-capacity model, detours and all; closed-form entries
    (collectives, translations, the non-square fallback) scale by
    {!Machine.Fault.uniform_slowdown}.  Comparing a plan's price with
    and without faults — or the optimized plan against the baseline
    under the same faults — is how mapping {e resilience} is
    measured ({!Sweep}).

    [mapping] prices the plan under a searched process placement: the
    plan's residual flows ({!Residual.flows_of_plan}) are collapsed to
    a volume graph on the model's simulation grid and the placement
    {!Mapping.compute} picks is composed after the layout fold for
    every simulated entry (2x2 general flows and decomposed phases);
    closed-form entries (collectives, translations) are
    placement-invariant and unchanged.  On models without a 2-D
    simulation grid, or plans without 2x2 flows, [mapping] is a no-op.
    Omitting it keeps pricing — and the memo key — byte-identical to a
    build without the mapping subsystem. *)

val pp : Format.formatter -> breakdown -> unit
