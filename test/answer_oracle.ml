(* The served answer as [Serve.Answer] rendered it before templates:
   solve, then print every block, fault seed included, in one pass
   through a buffer formatter.  No memo table of its own; the tests
   compare the template path against it byte for byte. *)

open Serve

let models () =
  [ Machine.Models.cm5 (); Machine.Models.paragon (); Machine.Models.t3d () ]

(* [--topo SPEC] swaps the machine table for the one requested
   topology; without it the historical three-model table renders
   byte-identically. *)
let models_of = function
  | None -> models ()
  | Some topo -> [ Machine.Models.of_topo topo ]

(* ------------------------------------------------------------------ *)
(* Solved stage: everything the fault and mapping seeds cannot change  *)
(* ------------------------------------------------------------------ *)

(* What one model contributes before any seed is read: the unfaulted
   prices of both plans and, on models with a 2-D simulation grid, the
   residual volume graph with the hop-bytes of the two placements that
   read no seed, identity and greedy. *)
type on_model = {
  model : Machine.Models.t;
  opt : float;
  base : float;
  vol : Machine.Volgraph.t option;
  hb_identity : int;
  hb_greedy : int;
}

type solved = {
  plan : Resopt.Commplan.t;  (* the optimized plan *)
  base_plan : Resopt.Commplan.t;  (* the Feautrier baseline's *)
  head : string;  (* the rendered report, up to the optional blocks *)
  on_models : on_model list;
}

let on_model plan base_plan model =
  let price plan = (Resopt.Cost.of_plan model plan).Resopt.Cost.total in
  let topo = model.Machine.Models.topo in
  let vol, hb_identity, hb_greedy =
    match Resopt.Cost.sim_vgrid model with
    | None -> (None, 0, 0)
    | Some vgrid ->
      let layout = Distrib.Layout.all_cyclic 2 in
      let place v = Distrib.Layout.place layout ~vgrid ~topo v in
      let vol =
        Resopt.Residual.volume_graph ~vgrid ~bytes:64 ~place
          (Resopt.Residual.flows_of_plan plan)
      in
      let n = Machine.Topology.size topo in
      ( Some vol,
        Mapping.hop_bytes topo vol (Mapping.identity n),
        Mapping.hop_bytes topo vol (Mapping.greedy topo vol) )
  in
  { model; opt = price plan; base = price base_plan; vol; hb_identity; hb_greedy }

let solve ?topo ~m (w : Resopt.Workloads.t) =
  let schedule = w.Resopt.Workloads.schedule and nest = w.Resopt.Workloads.nest in
  let r = Resopt.Pipeline.run ~m ~schedule nest in
  let base = Resopt.Feautrier.run ~m ~schedule nest in
  let plan = r.Resopt.Pipeline.plan and base_plan = base.Resopt.Feautrier.plan in
  {
    plan;
    base_plan;
    head = Format.asprintf "%a@." Resopt.Pipeline.pp r;
    on_models = List.map (on_model plan base_plan) (models_of topo);
  }

(* ------------------------------------------------------------------ *)
(* Per-request stage: only what a fault or mapping seed changes        *)
(* ------------------------------------------------------------------ *)

(* the same comparison Sweep runs per row: does the optimized plan keep
   its lead over the step-1-only baseline once the machine is
   imperfect? *)
let resilience_block ppf s faults =
  Format.fprintf ppf "@.resilience under %a:@." Machine.Fault.pp faults;
  Format.fprintf ppf "  %-8s %12s %12s %8s %12s %12s %8s@." "model" "optimized"
    "baseline" "gain" "opt+fault" "base+fault" "gain+f";
  List.iter
    (fun c ->
      let price plan = (Resopt.Cost.of_plan ~faults c.model plan).Resopt.Cost.total in
      let fo = price s.plan and fb = price s.base_plan in
      let gain num den = if den > 0.0 then num /. den else Float.infinity in
      Format.fprintf ppf "  %-8s %12.1f %12.1f %7.2fx %12.1f %12.1f %7.2fx@."
        c.model.Machine.Models.name c.opt c.base (gain c.base c.opt) fo fb
        (gain fb fo))
    s.on_models

(* the placement the mapping layer picks for the plan's residual
   traffic, per 2-D model: hop-bytes before/after plus the plan price
   before/after (the sweep's gain_map column, one workload) *)
let mapping_block ppf s spec =
  Format.fprintf ppf "@.process mapping (--map %s):@."
    (Mapping.kind_to_string spec.Mapping.kind);
  Format.fprintf ppf "  %-8s %12s %12s %8s %12s %12s %8s@." "model" "hop-bytes"
    "mapped" "gain" "cost" "cost+map" "gain_map";
  List.iter
    (fun c ->
      match c.vol with
      | None ->
        Format.fprintf ppf "  %-8s %12s@." c.model.Machine.Models.name
          "(no 2-D grid)"
      | Some vol ->
        let topo = c.model.Machine.Models.topo in
        let hb =
          match spec.Mapping.kind with
          | Mapping.Identity -> c.hb_identity
          | Mapping.Greedy -> c.hb_greedy
          | Mapping.Search ->
            Mapping.hop_bytes topo vol (Mapping.compute spec topo vol)
        in
        let cost = c.opt in
        let mapped =
          (Resopt.Cost.of_plan ~mapping:spec c.model s.plan).Resopt.Cost.total
        in
        let gain num den = if den > 0.0 then num /. den else 1.0 in
        Format.fprintf ppf "  %-8s %12d %12d %7.2fx %12.1f %12.1f %7.2fx@."
          c.model.Machine.Models.name c.hb_identity hb
          (gain (float_of_int c.hb_identity) (float_of_int hb))
          cost mapped (gain cost mapped))
    s.on_models

let render ?faults ?mapping ?topo ~m (w : Resopt.Workloads.t) =
  let s = solve ?topo ~m w in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf s.head;
  let ppf = Format.formatter_of_buffer buf in
  Option.iter (mapping_block ppf s) mapping;
  Option.iter (resilience_block ppf s) faults;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let of_request (req : Wire.request) =
  let ( let* ) = Result.bind in
  let* w =
    match Resopt.Workloads.find req.Wire.workload with
    | w -> Ok w
    | exception Not_found -> Error ("unknown workload " ^ req.Wire.workload)
  in
  let* faults =
    match req.Wire.faults with
    | None -> Ok None
    | Some s -> (
      match Machine.Fault.parse s with
      | Ok specs -> Ok (Some (Machine.Fault.make ~seed:req.Wire.fseed specs))
      | Error e -> Error ("bad fault spec: " ^ e))
  in
  let* mapping =
    match req.Wire.map with
    | None | Some "none" -> Ok None
    | Some k -> (
      match Mapping.kind_of_string k with
      | Some kind -> Ok (Some (Mapping.spec ~seed:req.Wire.mseed kind))
      | None -> Error ("bad mapping kind " ^ k))
  in
  match render ?faults ?mapping ~m:req.Wire.m w with
  | s -> Ok s
  | exception e -> Error ("solve failed: " ^ Printexc.to_string e)
