(* Workload [solve]: the CLI-solve path over a seeded stream of
   generated nests at m = 2, cache off, timed as a closed loop by one
   caller.  Each nest is optimized, baselined and priced on the three
   models, then priced under a per-nest flaky:0.05 fault schedule,
   mapped with a per-nest-seeded search and bounded.  The validator
   checks every plan after the nest's timer stops. *)

open Resopt
module H = Harness

let m = 2
let span = H.Trace.span

let nest_seed ~seed i = (seed * 1_000_003) + i

(* What a nest's solve leaves to aggregate, besides its plan. *)
type out = {
  optimized : float;  (** summed over the models *)
  baseline : float;
  flows : bool;  (** the plan carries 2x2 residual flows *)
  perms : Mapping.t list;
  hop_bytes : (int * int) list;  (** (identity, mapped) per 2-D model *)
  effs : float list;
}

(* The placement block of [run --map]: the plan's residual traffic as
   a volume graph on the model's simulation grid, the searched
   placement, its hop-bytes against the fixed embedding, and the plan
   priced under it. *)
let map_block spec model vgrid (opt : Pipeline.result) =
  let topo = model.Machine.Models.topo in
  let layout = Distrib.Layout.all_cyclic 2 in
  let place v = Distrib.Layout.place layout ~vgrid ~topo v in
  let vol =
    Residual.volume_graph ~vgrid ~bytes:64 ~place
      (Residual.flows_of_plan opt.Pipeline.plan)
  in
  let perm = Mapping.compute spec topo vol in
  let hb_id = Mapping.hop_bytes topo vol (Mapping.identity (Machine.Topology.size topo)) in
  let hb = Mapping.hop_bytes topo vol perm in
  ignore (Cost.of_plan ~mapping:spec model opt.Pipeline.plan : Cost.breakdown);
  (perm, (hb_id, hb))

let solve models ~fseed ~mseed nest =
  Cache.scoped ~enable:false @@ fun () ->
  let opt = span "pipeline" (fun () -> Pipeline.run ~m ~cache:false nest) in
  let base = span "feautrier" (fun () -> Feautrier.run ~m nest) in
  let faults =
    Machine.Fault.make ~seed:fseed [ Machine.Fault.Flaky { link = None; prob = 0.05 } ]
  in
  let spec = Mapping.spec ~seed:mseed Mapping.Search in
  let per_model =
    List.map
      (fun model ->
        let price ?faults name plan =
          span name (fun () -> (Cost.of_plan ?faults model plan).Cost.total)
        in
        let o = price "cost" opt.Pipeline.plan in
        let b = price "cost" base.Feautrier.plan in
        ignore (price ~faults "cost_faults" opt.Pipeline.plan : float);
        let mapped =
          Option.map
            (fun vgrid -> span "mapping" (fun () -> map_block spec model vgrid opt))
            (Cost.sim_vgrid model)
        in
        let eff =
          span "bounds" (fun () -> Efficiency.of_plan model opt.Pipeline.plan)
          |> Option.map (fun e -> e.Efficiency.time.Bounds.efficiency)
        in
        (o, b, mapped, eff))
      models
  in
  let out =
    {
      optimized = List.fold_left (fun a (o, _, _, _) -> a +. o) 0.0 per_model;
      baseline = List.fold_left (fun a (_, b, _, _) -> a +. b) 0.0 per_model;
      flows = Residual.flows_of_plan opt.Pipeline.plan <> [];
      perms = List.filter_map (fun (_, _, mp, _) -> Option.map fst mp) per_model;
      hop_bytes = List.filter_map (fun (_, _, mp, _) -> Option.map snd mp) per_model;
      effs = List.filter_map (fun (_, _, _, e) -> e) per_model;
    }
  in
  (opt, out)

(* The checks that run after a nest's timer stops. *)
let check opt out =
  Validate.is_valid opt
  && List.for_all Mapping.is_valid out.perms
  && List.for_all (fun e -> e > 0.0 && e <= 1.0) out.effs

(* Plan quality is summed over this many nests at the head of the
   stream, a fixed set for a given seed whatever the machine's speed;
   a run solves at least this many, which leaves ten beyond p99, so
   the tail is p99 on every run. *)
let plan_nests = 1000

type stream = { seed : int; mutable nests : Nestir.Loopnest.t array }

let nest st i =
  while i >= Array.length st.nests do
    let n = Array.length st.nests in
    st.nests <-
      Array.append st.nests
        (Array.init (max 64 n) (fun k -> Nestir.Gennest.generate ~seed:(nest_seed ~seed:st.seed (n + k))))
  done;
  st.nests.(i)

let solve_nth models st i =
  solve models ~fseed:(nest_seed ~seed:st.seed i land 0xffff)
    ~mseed:(nest_seed ~seed:st.seed i land 0xfff) (nest st i)

(* Set-up: generate the head of the stream and solve the first nests
   of a warm-up stream that is the same for every seed and that the
   timed loop never sees. *)
let setup ~seed =
  let models = Sweep_wl.models () in
  let st = { seed; nests = [||] } in
  ignore (nest st 511 : Nestir.Loopnest.t);
  let warm = { seed = -1; nests = [||] } in
  for i = 0 to 15 do
    ignore (solve_nth models warm i : Pipeline.result * out)
  done;
  (models, st)

(* What the loop keeps of a nest once it is checked: the plan itself
   is dropped, so the heap does not grow with the run.  [dt] is raw,
   [scaled] at nominal host speed. *)
type kept = { dt : float; scaled : float; ok : bool; out : out }

(* The closed loop over the stream, from nest 0. *)
let loop models st ~seconds ~min_nests =
  H.closed_loop ~seconds ~min_units:min_nests
    ~step:(fun i -> solve_nth models st i)
    ~check:(fun _ (opt, out) -> (check opt out, { out with perms = [] }))
    ()
  |> List.map (fun ((ok, out), dt, scaled) -> { dt; scaled; ok; out })

let outcomes results =
  (List.length results, List.length (List.filter (fun k -> not k.ok) results))

let end_to_end ~seconds ~seed ~setup_runs =
  let setups = List.init setup_runs (fun _ -> H.Speed.timed (fun () -> setup ~seed)) in
  let (models, st), _, _ = List.hd setups in
  let results = loop models st ~seconds ~min_nests:plan_nests in
  let attempted, failed = outcomes results in
  let lat = Array.of_list (List.map (fun k -> k.scaled *. 1000.0) results) in
  let busy = List.fold_left (fun a k -> a +. k.scaled) 0.0 results in
  let tail = H.tail lat in
  let head = List.filteri (fun i _ -> i < plan_nests) results in
  let opt = List.fold_left (fun a k -> a +. k.out.optimized) 0.0 head in
  let base = List.fold_left (fun a k -> a +. k.out.baseline) 0.0 head in
  let with_flows = List.length (List.filter (fun k -> k.out.flows) results) in
  Printf.printf
    "solve: %d nests, %.2f s scaled busy, %d (%.1f%%) with residual flows, tail_ms is p%g of %d nests\n"
    attempted busy with_flows
    (100.0 *. float_of_int with_flows /. float_of_int attempted)
    tail.H.pct tail.H.n;
  {
    H.correct = failed = 0;
    attempted;
    failed;
    values =
      [ ("setup_s", H.median (List.map (fun (_, _, s) -> s) setups));
        ("ok_frac", float_of_int (attempted - failed) /. float_of_int attempted);
        ("peak_rss_mb", H.self_peak_rss_mb ());
        ("throughput", H.chunked_rate ~chunk:100 (List.map (fun k -> k.scaled) results));
        ("p50_ms", H.percentile lat 50.0);
        ("tail_ms", tail.H.value);
        ("plan.comm_time", opt);
        ("plan.gain", base /. opt) ];
  }

(* Traced run: an untraced pass for half the time, then the same nests
   again under spans. *)
let per_layer ~seconds ~seed =
  let models, st = setup ~seed in
  let untraced, gc =
    H.gc_delta (fun () -> loop models st ~seconds:(seconds /. 2.0) ~min_nests:1)
  in
  let n = List.length untraced in
  H.Trace.reset ();
  H.Trace.on := true;
  let traced = loop models st ~seconds:0.0 ~min_nests:n in
  H.Trace.on := false;
  let attempted, failed = outcomes traced in
  let sum l = List.fold_left (fun a k -> a +. k.dt) 0.0 l in
  let t_u = sum untraced and t_t = sum traced in
  let aggs = H.Trace.aggregate () in
  let hb_id, hb =
    List.fold_left
      (fun (a, b) k ->
        List.fold_left (fun (a, b) (x, y) -> (a + x, b + y)) (a, b) k.out.hop_bytes)
      (0, 0) traced
  in
  let effs = List.concat_map (fun k -> k.out.effs) traced in
  {
    H.correct = failed = 0;
    attempted;
    failed;
    values =
      H.layer_values ~units:n aggs
        [ "pipeline"; "feautrier"; "cost"; "cost_faults"; "mapping"; "bounds" ]
      @ [ ("mapping.hop_bytes_ratio", float_of_int hb_id /. float_of_int (max 1 hb));
          ("bounds.eff_mean",
            List.fold_left ( +. ) 0.0 effs /. float_of_int (max 1 (List.length effs)));
          ("trace.coverage", H.Trace.self_sum aggs /. t_u);
          ("trace.overhead", (t_t /. t_u) -. 1.0) ]
      @ H.gc_values gc;
  }
