(* Workload [sweep]: Sweep.run over every named workload at m = 1, 2, 3
   on the three historical machine models, sequential, cache off — the
   CLI's [sweep --ms 1,2,3].  Timed as a closed loop by one caller, one
   (workload, m) cell per Sweep.run call. *)

open Resopt
module H = Harness

let ms = [ 1; 2; 3 ]

let models () =
  [ Machine.Models.cm5 (); Machine.Models.paragon (); Machine.Models.t3d () ]

type cell = { index : int; w : Workloads.t; m : int }

let cells () =
  List.concat_map (fun w -> List.map (fun m -> (w, m)) ms) (Workloads.all ())
  |> List.mapi (fun index (w, m) -> { index; w; m })

(* The seed only rotates the order cells are timed in: the inputs are
   the named workloads, which no seed changes. *)
let rotate seed l =
  let n = List.length l in
  let k = ((seed mod n) + n) mod n in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

let run_cell c = Sweep.run ~cache:false ~ms:[ c.m ] ~workloads:[ c.w ] ()

type totals = { rows : int; optimized : float; baseline : float }

let totals_of_rows rows =
  List.fold_left
    (fun t (r : Sweep.row) ->
      { rows = t.rows + 1; optimized = t.optimized +. r.optimized;
        baseline = t.baseline +. r.baseline })
    { rows = 0; optimized = 0.0; baseline = 0.0 }
    rows

(* The per-cell layers Sweep.run calls, called directly under a span
   each: Pipeline.run and Feautrier.run once per cell, the validator
   once, Cost.of_plan for both plans on every model.  Returns the
   priced totals — equal to Sweep.run's when the replay does the same
   work — and each cell's wall time in seconds. *)
let replay ?(workloads = Workloads.all ()) ~ms () =
  Cache.scoped ~enable:false @@ fun () ->
  let models = models () in
  let totals = ref { rows = 0; optimized = 0.0; baseline = 0.0 } in
  let cell_s = ref [] in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun m ->
          let t0 = H.now () in
          let schedule = w.Workloads.schedule and nest = w.Workloads.nest in
          (* Sweep.run skips a cell whose optimizer raises; so does the
             replay, and the row count comparison catches a divergence *)
          match
            ( H.Trace.span "pipeline" (fun () -> Pipeline.run ~m ~schedule nest),
              H.Trace.span "feautrier" (fun () -> Feautrier.run ~m ~schedule nest) )
          with
          | exception _ -> ()
          | opt, base ->
            ignore (H.Trace.span "validate" (fun () -> Validate.is_valid opt) : bool);
            List.iter
              (fun model ->
                let price plan =
                  H.Trace.span "cost" (fun () -> (Cost.of_plan model plan).Cost.total)
                in
                let o = price opt.Pipeline.plan in
                let b = price base.Feautrier.plan in
                let t = !totals in
                totals :=
                  { rows = t.rows + 1; optimized = t.optimized +. o;
                    baseline = t.baseline +. b })
              models;
            cell_s := (H.now () -. t0) :: !cell_s)
        ms)
    workloads;
  (!totals, List.rev !cell_s)

(* The expected CSV, split into its header and one block of model rows
   per cell in canonical order. *)
let load_expected file =
  match String.split_on_char '\n' (In_channel.with_open_text file In_channel.input_all) with
  | header :: body -> (header, Array.of_list (List.filter (( <> ) "") body))
  | [] -> failwith ("empty expected file " ^ file)

(* A cell passes when every row validated and its CSV rows are the
   expected ones. *)
let check_cell (header, expected) c rows =
  let n_models = List.length (models ()) in
  match String.split_on_char '\n' (Sweep.to_csv rows) with
  | h :: body ->
    let body = List.filter (( <> ) "") body in
    h = header
    && List.length body = n_models
    && List.for_all (fun (r : Sweep.row) -> r.validated) rows
    && List.for_all2
         (fun i line ->
           let k = (c.index * n_models) + i in
           k < Array.length expected && expected.(k) = line)
         (List.init n_models Fun.id) body
  | [] -> false

let setup ~data_dir =
  let cs = cells () in
  let expected = load_expected (Filename.concat data_dir "expected_sweep.csv") in
  (* warm-up: one untimed cell per workload at m = 1 *)
  List.iter (fun c -> if c.m = 1 then ignore (run_cell c : Sweep.row list)) cs;
  (cs, expected)

let plan_values rows =
  let t = totals_of_rows rows in
  [ ("plan.comm_time", t.optimized); ("plan.gain", t.baseline /. t.optimized) ]

(* The tail is p95 of the cell times, whatever the host's speed: a
   pass has 33 cells, so at least seven passes leave ten beyond it. *)
let tail_pct = 95.0
let tail_passes = 7

let end_to_end ~seconds ~seed ~data_dir ~setup_runs =
  let setups = List.init setup_runs (fun _ -> H.Speed.timed (fun () -> setup ~data_dir)) in
  let (cs, expected), _, _ = List.hd setups in
  let order = Array.of_list (rotate seed cs) in
  let n = Array.length order in
  let cells =
    H.closed_loop ~whole:n ~seconds ~min_units:(tail_passes * n)
      ~step:(fun i -> run_cell order.(i mod n))
      ~check:(fun i rows -> (rows, check_cell expected order.(i mod n) rows))
      ()
  in
  let attempted = List.length cells in
  let failed = List.length (List.filter (fun ((_, ok), _, _) -> not ok) cells) in
  let secs = List.map (fun (_, _, s) -> s) cells in
  let lat = Array.of_list (List.map (fun dt -> dt *. 1000.0) secs) in
  let tail = H.tail ~cap:tail_pct lat in
  Printf.printf "sweep: %d cells, %.2f s scaled busy, tail_ms is p%g of %d cells\n" attempted
    (List.fold_left ( +. ) 0.0 secs) tail.H.pct tail.H.n;
  let first_pass = List.filteri (fun i _ -> i < n) cells in
  let canonical =
    List.sort (fun (a, _) (b, _) -> compare a b)
      (List.mapi (fun i ((rows, _), _, _) -> (order.(i).index, rows)) first_pass)
  in
  {
    H.correct = failed = 0;
    attempted;
    failed;
    values =
      [ ("setup_s", H.median (List.map (fun (_, _, s) -> s) setups));
        ("ok_frac", float_of_int (attempted - failed) /. float_of_int attempted);
        ("peak_rss_mb", H.self_peak_rss_mb ());
        ("throughput", H.chunked_rate ~chunk:n secs);
        ("p50_ms", H.percentile lat 50.0);
        ("tail_ms", tail.H.value) ]
      @ plan_values (List.concat_map snd canonical);
  }

(* Traced run: alternate an untraced Sweep.run of the whole grid with a
   traced replay of its layers until the time is up, then one
   Sweep.run at jobs = nproc for the parallel speed-up. *)
let per_layer ~seconds ~data_dir =
  let _, expected = setup ~data_dir in
  let passes = ref 0 and failed = ref 0 in
  let untraced = ref 0.0 and traced = ref 0.0 and cell_max = ref 0.0 in
  let gc = ref (0.0, 0, 0) in
  H.Trace.reset ();
  let t_end = H.now () +. seconds in
  while H.now () < t_end || !passes = 0 do
    let (rows, dt), g =
      H.gc_delta (fun () -> H.time (fun () -> Sweep.run ~cache:false ~ms ()))
    in
    gc := H.gc_add !gc g;
    untraced := !untraced +. dt;
    H.Trace.on := true;
    let (totals, cell_s), dr = H.time (fun () -> replay ~ms ()) in
    H.Trace.on := false;
    traced := !traced +. dr;
    cell_max := List.fold_left max !cell_max cell_s;
    incr passes;
    let header, lines = expected in
    let csv = String.concat "\n" (header :: Array.to_list lines) ^ "\n" in
    if totals <> totals_of_rows rows || Sweep.to_csv rows <> csv then incr failed
  done;
  let t1 = !untraced /. float_of_int !passes in
  let _, tn =
    H.time (fun () -> Sweep.run ~cache:false ~ms ~jobs:(H.nproc ()) ())
  in
  let aggs = H.Trace.aggregate () in
  let validate = H.Trace.get aggs "validate" in
  {
    H.correct = !failed = 0;
    attempted = !passes;
    failed = !failed;
    values =
      H.layer_values ~units:!passes aggs [ "validate"; "pipeline"; "feautrier"; "cost" ]
      @ [ ("validate.share", validate.H.Trace.self_s /. !traced);
          ("par.speedup", t1 /. tn);
          ("sweep.cell_ms_max", !cell_max *. 1000.0);
          ("trace.coverage", H.Trace.self_sum aggs /. !untraced);
          ("trace.overhead", (!traced /. !untraced) -. 1.0) ]
      @ H.gc_values !gc;
  }
