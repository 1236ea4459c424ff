(** Running a virtual-grid communication under a layout on a machine
    model: the workhorse behind Table 2 and Figure 8.

    Each phase's traffic is built directly as counts of physical
    (src, dst) rank pairs — no message list — and priced by
    {!Machine.Netsim.price}, so identical messages are priced once,
    weighted by their multiplicity.  Cost per phase: O(virtual points)
    to fold — each point replays the earlier phases' moves and scans
    its source rank's few distinct destinations — then O(distinct
    pairs × route length) to price.  Every stat equals the per-message
    pricing of the same traffic.  Under {!Obs.Telemetry.enabled}, each
    phase's record lists its messages in (src, dst) order. *)

open Linalg

val time :
  ?coalesce:bool ->
  ?faults:Machine.Fault.t ->
  ?remap:int array ->
  Machine.Models.t ->
  layout:Layout.t ->
  vgrid:int array ->
  flow:Mat.t ->
  ?offset:int array ->
  ?bytes:int ->
  unit ->
  Machine.Netsim.stats
(** Simulate the communication of data-flow matrix [flow] over the
    virtual grid, folded onto the model's topology by [layout].
    [coalesce:false] models the generic (non-vectorizable) runtime
    path used for a general affine communication; [faults] prices it
    on the degraded machine ({!Machine.Netsim.run}); [remap] composes
    a process placement (a permutation of physical ranks, from the
    mapping layer) after the layout fold, so the same traffic is
    priced under a searched embedding. *)

val decomposed_time :
  ?faults:Machine.Fault.t ->
  ?remap:int array ->
  Machine.Models.t ->
  layout:Layout.t ->
  vgrid:int array ->
  factors:Mat.t list ->
  ?bytes:int ->
  unit ->
  Machine.Netsim.stats list
(** One phase per factor, executed in sequence (paper §5.3: "L and U
    are performed one after the other, not in parallel"); the phase of
    factor [f_i] moves the data that the remaining product still has to
    deliver. *)

val total_time : Machine.Netsim.stats list -> float
