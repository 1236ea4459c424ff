(* Entry point: [main.exe --workload NAME --seed N --seconds S --trace
   0|1 [--data-dir DIR] [--server-exe PATH]].  Human-readable lines
   first, the JSON result last on stdout. *)

module H = Perfbench.Harness

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let data_dir = ref "perfbench" and server_exe = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME sweep, solve or serve");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S measured time of the run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--data-dir", Arg.Set_string data_dir, "DIR where expected outputs live");
      ("--server-exe", Arg.Set_string server_exe, "PATH the resopt CLI, for serve") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  (* a signal still runs the at_exit handlers that stop the servers *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  let seconds = !seconds and seed = !seed and data_dir = !data_dir in
  let traced = !trace = 1 in
  let r =
    match (!workload, traced) with
    | "sweep", false -> Perfbench.Sweep_wl.end_to_end ~seconds ~seed ~data_dir ~setup_runs:5
    | "sweep", true -> Perfbench.Sweep_wl.per_layer ~seconds ~data_dir
    | "solve", false -> Perfbench.Solve_wl.end_to_end ~seconds ~seed ~setup_runs:5
    | "solve", true -> Perfbench.Solve_wl.per_layer ~seconds ~seed
    | "serve", false -> Perfbench.Serve_wl.end_to_end ~exe:!server_exe ~seconds ~seed
    | "serve", true -> Perfbench.Serve_wl.per_layer ~exe:!server_exe ~seconds ~seed
    | w, _ ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  let spec = if traced then H.per_layer_spec else H.end_to_end_spec in
  let metrics = H.metrics ~fill:traced spec r.H.values in
  List.iter
    (fun m -> Printf.printf "%-24s %14.6g %s\n" m.H.name m.H.value m.H.unit_)
    metrics;
  print_endline (H.result_json r metrics)
