(* Golden snapshots of the paper's worked examples.  These pin the
   numbers the bench harness prints for Table 2 (direct vs decomposed
   cost of T = L.U on the Paragon model), Figure 8 (U_k under grouped
   and standard layouts) and the Figure 4-5 broadcast rotation, so a
   regression anywhere in the linalg -> decomp -> distrib -> machine
   stack shows up as a changed constant, not as a silently different
   table.  Table 2 and Figures 4-5 are also re-checked with the memo
   cache on: golden values must not depend on caching. *)

open Linalg

let paper_t = Mat.of_lists [ [ 1; 2 ]; [ 3; 7 ] ]
let paper_l = Mat.of_lists [ [ 1; 0 ]; [ 3; 1 ] ]
let paper_u = Mat.of_lists [ [ 1; 2 ]; [ 0; 1 ] ]

let check_f1 name expected actual =
  Alcotest.(check string) name expected (Printf.sprintf "%.1f" actual)

(* ------------------------------------------------------------------ *)
(* Table 2: direct vs decomposed on the Paragon                        *)
(* ------------------------------------------------------------------ *)

let table2_times () =
  let par = Machine.Models.paragon () in
  let vgrid = [| 64; 32 |] in
  let layout = Distrib.Layout.all_cyclic 2 in
  let direct =
    (Distrib.Foldsim.time ~coalesce:false par ~layout ~vgrid ~flow:paper_t ())
      .Machine.Netsim.time
  in
  match
    Distrib.Foldsim.decomposed_time par ~layout ~vgrid
      ~factors:[ paper_l; paper_u ] ()
  with
  | [ u_phase; l_phase ] ->
    (direct, l_phase.Machine.Netsim.time, u_phase.Machine.Netsim.time)
  | _ -> Alcotest.fail "expected two phases for L.U"

let check_table2 () =
  let direct, tl, tu = table2_times () in
  check_f1 "not decomposed" "848.4" direct;
  check_f1 "L" "113.6" tl;
  check_f1 "U" "217.2" tu;
  check_f1 "L.U" "330.8" (tl +. tu);
  Alcotest.(check string) "direct / decomposed" "2.56"
    (Printf.sprintf "%.2f" (direct /. (tl +. tu)))

let test_table2 () =
  Cache.disable ();
  check_table2 ()

let test_table2_cached () =
  Cache.clear ();
  Fun.protect ~finally:(fun () -> Cache.clear ()) @@ fun () ->
  Cache.scoped ~enable:true (fun () ->
      check_table2 ();
      (* warm pass: served from the memo tables, same constants *)
      check_table2 ())

let test_min_factors () =
  Alcotest.(check bool) "T = L(3) . U(2)" true
    (Decomp.Decompose.min_factors paper_t = Some [ paper_l; paper_u ]);
  Alcotest.(check string) "rendered factorization" "L(3) * U(2)"
    (Format.asprintf "%a" Decomp.Decompose.pp_factors [ paper_l; paper_u ])

(* ------------------------------------------------------------------ *)
(* Figures 4-5: the broadcast rotation of Example 1, F6                *)
(* ------------------------------------------------------------------ *)

let check_fig45 () =
  let f6 = Nestir.Paper_examples.example1_f 6 in
  let ms = Mat.of_lists [ [ 1; 1; 0 ]; [ 0; 1; 0 ] ] in
  (match Macrocomm.Broadcast.detect ~theta:(Mat.zero 1 3) ~f:f6 ~ms with
  | Some info ->
    Alcotest.(check string) "before rotation"
      "partial broadcast (p = 1), directions [1; -1]"
      (Format.asprintf "%a" Macrocomm.Broadcast.pp info)
  | None -> Alcotest.fail "F6 not detected as a broadcast");
  let v =
    match Macrocomm.Axis.aligning_matrix (Mat.of_col [| 1; -1 |]) with
    | Some v -> v
    | None -> Alcotest.fail "no aligning rotation for [1; -1]"
  in
  Alcotest.(check string) "rotation matrix" "[1 0; 1 1]"
    (Format.asprintf "%a" Mat.pp_flat v);
  match Macrocomm.Broadcast.detect ~theta:(Mat.zero 1 3) ~f:f6 ~ms:(Mat.mul v ms) with
  | Some info ->
    Alcotest.(check string) "after rotation"
      "partial broadcast (p = 1, axis-aligned), directions [1; 0]"
      (Format.asprintf "%a" Macrocomm.Broadcast.pp info)
  | None -> Alcotest.fail "rotated F6 not detected as a broadcast"

let test_fig45 () =
  Cache.disable ();
  check_fig45 ()

let test_fig45_cached () =
  Cache.clear ();
  Fun.protect ~finally:(fun () -> Cache.clear ()) @@ fun () ->
  Cache.scoped ~enable:true (fun () ->
      check_fig45 ();
      check_fig45 ())

(* ------------------------------------------------------------------ *)
(* Figure 8: U_k under standard distributions over grouped partition   *)
(* ------------------------------------------------------------------ *)

(* The rows bench/main.exe fig8 prints: grouped time of U_k on an
   840x8 virtual grid, then CYCLIC, BLOCK and CYCLIC(8) over grouped. *)
let fig8_row par k =
  let vgrid = [| 840; 8 |] in
  let uk = Mat.of_lists [ [ 1; k ]; [ 0; 1 ] ] in
  let t scheme =
    (Distrib.Foldsim.time par ~layout:[| scheme; Distrib.Layout.Block |] ~vgrid
       ~flow:uk ())
      .Machine.Netsim.time
  in
  let tg = t (Distrib.Layout.Grouped k) in
  if tg = 0.0 then Printf.sprintf "%2d %12s %14s %14s %14s" k "(all local)" "-" "-" "-"
  else
    Printf.sprintf "%2d %12.1f %14.2f %14.2f %14.2f" k tg
      (t Distrib.Layout.Cyclic /. tg)
      (t Distrib.Layout.Block /. tg)
      (t (Distrib.Layout.Cyclic_block 8) /. tg)

let fig8_expected =
  [
    ( 8,
      4,
      [
        " 1         23.2          26.33           1.00           6.38";
        " 2         21.6          24.37           1.56          13.57";
        " 3         31.6          14.01           1.39          13.87";
        " 4         20.8          16.71           2.62          27.58";
        " 5         31.2          14.19           2.08          21.12";
        " 6         30.8          17.09           2.44          19.62";
        " 7         30.8          19.83           2.78          20.71";
        " 8  (all local)              -              -              -";
      ] );
    ( 16,
      4,
      [
        " 1         26.4          22.29           1.00           3.74";
        " 2         33.6          18.74           1.10           5.70";
        " 3         32.4          18.16           1.46           8.16";
        " 4         42.0          12.79           1.37           8.03";
        " 5         31.6          15.84           2.15          13.53";
        " 6         41.6          11.13           1.88          11.55";
        " 7         41.6           8.36           2.38          12.88";
        " 8         41.2           8.40           2.65          13.85";
      ] );
    ( 16,
      8,
      [
        " 1         21.6          14.72           1.00           3.02";
        " 2         28.8          12.44           0.94           4.32";
        " 3         27.6          11.52           1.19           5.93";
        " 4         37.2           9.61           1.03           5.45";
        " 5         26.8          11.69           1.64           8.94";
        " 6         36.8           9.57           1.35           7.25";
        " 7         36.8           8.64           1.77           8.01";
        " 8         36.4           9.51           1.95           8.45";
      ] );
  ]

let test_fig8 () =
  Cache.disable ();
  List.iter
    (fun (p, q, rows) ->
      let par = Machine.Models.paragon ~p ~q () in
      List.iteri
        (fun i row ->
          Alcotest.(check string)
            (Printf.sprintf "%dx%d mesh, k = %d" p q (i + 1))
            row (fig8_row par (i + 1)))
        rows)
    fig8_expected

(* ------------------------------------------------------------------ *)
(* The §4.2 exhaustive scan at bound 3                                 *)
(* ------------------------------------------------------------------ *)

let test_search_bound3 () =
  Cache.disable ();
  let h = Decomp.Search.factor_histogram ~bound:3 () in
  Alcotest.(check int) "det-1 matrices" 116 h.Decomp.Search.total;
  Alcotest.(check (array int)) "factor counts" [| 1; 12; 36; 62; 5 |]
    h.Decomp.Search.by_factors;
  Alcotest.(check int) "none beyond four" 0 h.Decomp.Search.beyond_four

let () =
  Alcotest.run "golden"
    [
      ( "table2",
        [
          Alcotest.test_case "costs" `Quick test_table2;
          Alcotest.test_case "costs, cached" `Quick test_table2_cached;
          Alcotest.test_case "factorization" `Quick test_min_factors;
        ] );
      ( "fig45",
        [
          Alcotest.test_case "rotation" `Quick test_fig45;
          Alcotest.test_case "rotation, cached" `Quick test_fig45_cached;
        ] );
      ("fig8", [ Alcotest.test_case "grouped times and ratios" `Quick test_fig8 ]);
      ("search", [ Alcotest.test_case "bound 3 histogram" `Quick test_search_bound3 ]);
    ]
