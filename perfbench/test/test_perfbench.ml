(* Tests of the benchmark's own helpers. *)

open Perfbench
module H = Harness

let approx = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Percentile rule                                                     *)
(* ------------------------------------------------------------------ *)

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_tail_p99 () =
  let t = H.tail (ramp 1000) in
  Alcotest.(check (float 0.0)) "p99 once 10 samples lie beyond it" 99.0 t.H.pct;
  Alcotest.check approx "nearest rank" 990.0 t.H.value;
  Alcotest.(check int) "sample count" 1000 t.H.n

let test_tail_falls_back () =
  let t = H.tail (ramp 999) in
  Alcotest.(check (float 0.0)) "9 beyond p99: p95" 95.0 t.H.pct;
  Alcotest.check approx "p95 value" 950.0 t.H.value;
  let t = H.tail (ramp 20) in
  Alcotest.(check (float 0.0)) "20 samples: p50" 50.0 t.H.pct;
  let t = H.tail (ramp 5) in
  Alcotest.(check (float 0.0)) "too few for any: median" 50.0 t.H.pct;
  Alcotest.(check int) "count kept" 5 t.H.n

let test_tail_cap () =
  let t = H.tail (ramp 100_000) in
  Alcotest.(check (float 0.0)) "capped at p99 by default" 99.0 t.H.pct;
  let t = H.tail ~cap:99.9 (ramp 100_000) in
  Alcotest.(check (float 0.0)) "p99.9 when allowed" 99.9 t.H.pct

let test_percentile_unsorted () =
  Alcotest.check approx "median of unsorted" 3.0 (H.percentile [| 5.; 1.; 3.; 2.; 4. |] 50.0);
  Alcotest.check approx "empty" 0.0 (H.percentile [||] 50.0)

let test_chunked_rate () =
  (* chunks of two: 2/2 s, 2/2 s, 2/6 s; the slow stretch does not set it *)
  Alcotest.check approx "median chunk" 1.0 (H.chunked_rate ~chunk:2 [ 1.; 1.; 1.; 1.; 3.; 3. ]);
  Alcotest.check approx "short tail chunk dropped" 1.0
    (H.chunked_rate ~chunk:2 [ 1.; 1.; 1.; 1.; 9. ]);
  Alcotest.check approx "one short chunk kept" 0.5 (H.chunked_rate ~chunk:4 [ 2.; 2. ])

(* ------------------------------------------------------------------ *)
(* Open-loop due-time accounting                                        *)
(* ------------------------------------------------------------------ *)

(* One client at 1000/s on a fake clock; request 0 stalls for 50 ms,
   every other request takes 0.1 ms. *)
let stalled_run () =
  let t = ref 0.0 in
  let clock () = !t in
  let sleep_until d = t := Float.max !t d in
  let send ~worker:_ i =
    t := !t +. (if i = 0 then 0.050 else 0.0001);
    Openloop.Answered
  in
  Openloop.run ~clock ~sleep_until ~clients:1 ~rate:1000.0 ~n:100 send

let test_stall_charges_later_requests () =
  let s = stalled_run () in
  let lat = Openloop.latencies_ms s and lag = Openloop.lags_ms s in
  Alcotest.check (Alcotest.float 1e-6) "stalled request" 50.0 lat.(0);
  (* request 1 was due at 1 ms but could only go at 50 ms *)
  Alcotest.check (Alcotest.float 1e-6) "request 1 lag" 49.0 lag.(1);
  Alcotest.check (Alcotest.float 1e-6) "request 1 latency from due" 49.1 lat.(1);
  (* timing from send would have hidden the wait *)
  let from_send = (s.(1).Openloop.finished -. s.(1).Openloop.sent) *. 1000.0 in
  Alcotest.check (Alcotest.float 1e-6) "from send" 0.1 from_send;
  (* the generator catches up, and later requests are on time *)
  Alcotest.check (Alcotest.float 1e-6) "caught up" 0.0 lag.(99);
  Alcotest.check (Alcotest.float 1e-6) "on-time latency" 0.1 lat.(99)

let test_outcomes_counted () =
  let t = ref 0.0 in
  let send ~worker:_ i =
    t := !t +. 0.001;
    match i mod 4 with
    | 0 -> Openloop.Shed
    | 1 -> Openloop.Mismatched
    | _ -> Openloop.Answered
  in
  let s =
    Openloop.run ~clock:(fun () -> !t) ~sleep_until:(fun d -> t := Float.max !t d)
      ~clients:1 ~rate:100.0 ~n:40 send
  in
  Alcotest.(check int) "failures" 20 (Openloop.failures s);
  Alcotest.(check int) "latencies of answered only" 20 (Array.length (Openloop.latencies_ms s))

(* ------------------------------------------------------------------ *)
(* Metric grammar                                                      *)
(* ------------------------------------------------------------------ *)

let test_grammar () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (H.valid_name n))
    [ "setup_s"; "serve.p99_ms.r1000"; "0x"; "a-b_c.d" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (H.valid_name n))
    [ ""; ".x"; "_x"; "a b"; "a/b"; String.make 65 'a' ];
  List.iter
    (fun u -> Alcotest.(check bool) u true (H.valid_unit u))
    [ "ms"; "s"; "1/s"; "count"; "%"; "sim_time" ];
  List.iter
    (fun u -> Alcotest.(check bool) u false (H.valid_unit u))
    [ ""; "m s"; String.make 17 'u'; "ms\"" ]

let test_specs_well_formed () =
  let names = List.map fst (H.end_to_end_spec @ H.per_layer_spec) in
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("name " ^ n) true (H.valid_name n);
      Alcotest.(check bool) ("unit " ^ u) true (H.valid_unit u))
    (H.end_to_end_spec @ H.per_layer_spec);
  Alcotest.(check int) "names used once" (List.length names)
    (List.length (List.sort_uniq compare names))

(* The names BENCHMARK.json declares, in order, are the ones the
   benchmark prints. *)
let test_benchmark_json_matches () =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  let section key =
    let start = Str.search_forward (Str.regexp_string ("\"" ^ key ^ "\"")) text 0 in
    let stop = String.index_from text start ']' in
    let body = String.sub text start (stop - start) in
    let re = Str.regexp "\"name\": \"\\([^\"]*\\)\"" in
    let rec go pos acc =
      match Str.search_forward re body pos with
      | _ -> go (Str.match_end ()) (Str.matched_group 1 body :: acc)
      | exception Not_found -> List.rev acc
    in
    go 0 []
  in
  Alcotest.(check (list string)) "end_to_end" (List.map fst H.end_to_end_spec)
    (section "end_to_end");
  Alcotest.(check (list string)) "per_layer" (List.map fst H.per_layer_spec)
    (section "per_layer")

let test_missing_metric_rejected () =
  Alcotest.check_raises "missing end-to-end metric"
    (Invalid_argument "missing metric ok_frac")
    (fun () -> ignore (H.metrics ~fill:false [ ("setup_s", "s"); ("ok_frac", "frac") ] [ ("setup_s", 1.0) ]));
  let m = H.metrics ~fill:true [ ("a", "ms") ] [] in
  Alcotest.check approx "per-layer default" 0.0 (List.hd m).H.value

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_self_time () =
  H.Trace.reset ();
  H.Trace.on := true;
  H.Trace.span "outer" (fun () ->
      H.Trace.span "inner" (fun () -> Unix.sleepf 0.02);
      Unix.sleepf 0.01);
  H.Trace.on := false;
  let aggs = H.Trace.aggregate () in
  let outer = H.Trace.get aggs "outer" and inner = H.Trace.get aggs "inner" in
  Alcotest.(check int) "calls" 1 outer.H.Trace.calls;
  Alcotest.(check bool) "inner self is its duration" true
    (inner.H.Trace.self_s = inner.H.Trace.total_s);
  Alcotest.(check bool) "outer self excludes inner" true
    (outer.H.Trace.self_s < outer.H.Trace.total_s -. 0.015);
  Alcotest.check (Alcotest.float 1e-9) "self times add up to the root"
    outer.H.Trace.total_s (H.Trace.self_sum aggs)

(* ------------------------------------------------------------------ *)
(* Sweep replay                                                        *)
(* ------------------------------------------------------------------ *)

let test_replay_matches_sweep () =
  let workloads = List.filteri (fun i _ -> i < 3) (Resopt.Workloads.all ()) in
  let ms = [ 1; 2 ] in
  let rows = Resopt.Sweep.run ~cache:false ~ms ~workloads () in
  let totals, cells = Sweep_wl.replay ~workloads ~ms () in
  Alcotest.(check int) "rows" (List.length rows) totals.Sweep_wl.rows;
  Alcotest.(check int) "cells" (List.length workloads * List.length ms) (List.length cells);
  let want = Sweep_wl.totals_of_rows rows in
  Alcotest.(check (float 0.0)) "optimized total" want.Sweep_wl.optimized totals.Sweep_wl.optimized;
  Alcotest.(check (float 0.0)) "baseline total" want.Sweep_wl.baseline totals.Sweep_wl.baseline

let () =
  Alcotest.run "perfbench"
    [ ( "percentile",
        [ Alcotest.test_case "p99 with enough samples" `Quick test_tail_p99;
          Alcotest.test_case "falls back" `Quick test_tail_falls_back;
          Alcotest.test_case "cap" `Quick test_tail_cap;
          Alcotest.test_case "unsorted input" `Quick test_percentile_unsorted;
          Alcotest.test_case "chunked rate" `Quick test_chunked_rate ] );
      ( "openloop",
        [ Alcotest.test_case "stall charges later requests" `Quick
            test_stall_charges_later_requests;
          Alcotest.test_case "outcomes counted" `Quick test_outcomes_counted ] );
      ( "metrics",
        [ Alcotest.test_case "grammar" `Quick test_grammar;
          Alcotest.test_case "specs well formed" `Quick test_specs_well_formed;
          Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json_matches;
          Alcotest.test_case "missing metric rejected" `Quick test_missing_metric_rejected ] );
      ("trace", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ("sweep", [ Alcotest.test_case "replay matches Sweep.run" `Quick test_replay_matches_sweep ]) ]
