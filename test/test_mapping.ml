(* Tests for the process-mapping subsystem: the Volgraph accumulator,
   the sparse-QAP search invariants (validity, cost ordering,
   seed determinism, pool indifference), a hand-computed 2x2-grid
   golden, a differential oracle against the dense-table kernels the
   sparse ones replaced, a digest pin of the served mapping block, and
   the zero-cost guarantee of the [?mapping] hooks. *)

(* ------------------------------------------------------------------ *)
(* Volgraph                                                            *)
(* ------------------------------------------------------------------ *)

let msg src dst bytes = Machine.Message.make ~src ~dst ~bytes

let test_volgraph_of_messages () =
  let vol =
    Machine.Volgraph.sorted
      (Machine.Volgraph.of_messages
         [ msg 0 1 10; msg 0 1 5; msg 2 2 7; msg 1 0 3 ])
  in
  (* duplicate (src, dst) pairs are summed; the two directions stay
     distinct; local traffic is kept *)
  Alcotest.(check (list (pair (pair int int) int)))
    "summed per directed pair"
    [ ((0, 1), 15); ((1, 0), 3); ((2, 2), 7) ]
    vol;
  Alcotest.(check int) "total counts everything" 25 (Machine.Volgraph.total vol);
  Alcotest.(check (list (pair (pair int int) int)))
    "nonlocal drops the diagonal"
    [ ((0, 1), 15); ((1, 0), 3) ]
    (Machine.Volgraph.nonlocal vol)

let test_volgraph_coalesce_agrees () =
  (* Netsim's message coalescing is the same accumulation: one message
     per pair, bytes summed *)
  let msgs = [ msg 0 1 10; msg 3 2 4; msg 0 1 1 ] in
  let coalesced = Machine.Netsim.coalesce_messages msgs in
  let as_pairs =
    List.sort compare
      (List.map
         (fun (m : Machine.Message.t) ->
           ((m.Machine.Message.src, m.Machine.Message.dst), m.Machine.Message.bytes))
         coalesced)
  in
  Alcotest.(check (list (pair (pair int int) int)))
    "coalesce = volgraph" [ ((0, 1), 11); ((3, 2), 4) ] as_pairs

(* ------------------------------------------------------------------ *)
(* 2x2-grid golden: the optimum is known by hand                       *)
(* ------------------------------------------------------------------ *)

(* On a 2x2 mesh (0=(0,0), 1=(0,1), 2=(1,0), 3=(1,1)) the diagonals
   0-3 and 1-2 are the only pairs at distance 2.  With volume 100 on
   (0,3) and 1 on (1,2), the identity embedding pays 2*100 + 2*1 =
   202 hop-bytes; any placement making both pairs adjacent pays
   1*100 + 1*1 = 101, the optimum.  The search must find it. *)
let test_grid_golden () =
  let topo = Machine.Topology.make ~torus:false [| 2; 2 |] in
  let vol = [ ((0, 3), 100); ((1, 2), 1) ] in
  let id = Mapping.identity 4 in
  Alcotest.(check int) "identity pays the diagonals" 202
    (Mapping.hop_bytes topo vol id);
  let s = Mapping.search ~seed:0 topo vol in
  Alcotest.(check bool) "search returns a permutation" true (Mapping.is_valid s);
  Alcotest.(check int) "search finds the optimum" 101
    (Mapping.hop_bytes topo vol s);
  Alcotest.(check int) "0 and 3 end up adjacent" 1
    (Machine.Route.hops topo ~src:s.(0) ~dst:s.(3));
  Alcotest.(check int) "1 and 2 end up adjacent" 1
    (Machine.Route.hops topo ~src:s.(1) ~dst:s.(2));
  (* greedy alone already beats identity here *)
  Alcotest.(check bool) "greedy <= identity" true
    (Mapping.hop_bytes topo vol (Mapping.greedy topo vol) <= 202)

(* ------------------------------------------------------------------ *)
(* qcheck invariants                                                   *)
(* ------------------------------------------------------------------ *)

(* A random mapping instance: a small mesh or torus plus raw traffic
   whose endpoints are folded into range. *)
let case_gen =
  QCheck.Gen.(
    map3
      (fun torus dims raw -> (torus, dims, raw))
      bool
      (oneofl [ [| 2; 2 |]; [| 4; 2 |]; [| 3; 3 |]; [| 4; 4 |] ])
      (list_size (int_range 0 30)
         (pair (pair (int_range 0 15) (int_range 0 15)) (int_range 0 512))))

let case_print (torus, dims, raw) =
  Printf.sprintf "torus=%b dims=%dx%d msgs=%d" torus dims.(0) dims.(1)
    (List.length raw)

let case_arb = QCheck.make ~print:case_print case_gen

let instance (torus, dims, raw) =
  let topo = Machine.Topology.make ~torus dims in
  let n = Machine.Topology.size topo in
  let vol =
    Machine.Volgraph.of_messages
      (List.map (fun ((s, d), b) -> msg (s mod n) (d mod n) b) raw)
  in
  (topo, vol)

let prop_search_valid =
  QCheck.Test.make ~count:60 ~name:"search result is a valid permutation"
    case_arb (fun case ->
      let topo, vol = instance case in
      Mapping.is_valid (Mapping.search ~seed:3 ~restarts:2 topo vol))

let prop_cost_ordering =
  QCheck.Test.make ~count:60 ~name:"search <= greedy <= identity hop-bytes"
    case_arb (fun case ->
      let topo, vol = instance case in
      let cost p = Mapping.hop_bytes topo vol p in
      let id = cost (Mapping.identity (Machine.Topology.size topo)) in
      let gr = cost (Mapping.greedy topo vol) in
      let se = cost (Mapping.search ~seed:1 ~restarts:2 topo vol) in
      se <= gr && gr <= id)

let prop_seed_deterministic =
  QCheck.Test.make ~count:30
    ~name:"same seed is byte-identical, sequential or pooled" case_arb
    (fun case ->
      let topo, vol = instance case in
      let s1 = Mapping.search ~seed:11 ~restarts:4 topo vol in
      let s2 = Mapping.search ~seed:11 ~restarts:4 topo vol in
      let sp =
        Mapping.search ~pool:(Par.Shared.get ~jobs:4) ~seed:11 ~restarts:4 topo
          vol
      in
      s1 = s2 && s1 = sp)

let prop_apply_preserves_traffic =
  QCheck.Test.make ~count:60 ~name:"apply permutes endpoints, keeps bytes"
    case_arb (fun case ->
      let topo, vol = instance case in
      let n = Machine.Topology.size topo in
      let msgs =
        List.map (fun ((s, d), b) -> msg s d b) (Machine.Volgraph.nonlocal vol)
      in
      let perm = Mapping.search ~seed:5 ~restarts:1 topo vol in
      let mapped = Mapping.apply perm msgs in
      List.length mapped = List.length msgs
      && List.for_all2
           (fun (a : Machine.Message.t) (b : Machine.Message.t) ->
             b.Machine.Message.src = perm.(a.Machine.Message.src)
             && b.Machine.Message.dst = perm.(a.Machine.Message.dst)
             && b.Machine.Message.bytes = a.Machine.Message.bytes
             && a.Machine.Message.src < n
             && a.Machine.Message.dst < n)
           msgs mapped)

(* ------------------------------------------------------------------ *)
(* Differential oracle: the dense-table kernels                        *)
(* ------------------------------------------------------------------ *)

(* The placement kernels as they were before they went sparse: full
   n x n distance and weight tables, O(n^3) growing, hop-bytes over the
   upper triangle.  Slow and obviously faithful to the objective, they
   are the reference the edge-list kernels must match permutation for
   permutation and byte for byte. *)
module Dense = struct
  let dist_table topo =
    let n = Machine.Topology.size topo in
    Array.init n (fun src ->
        Array.init n (fun dst -> Machine.Topology.distance topo ~src ~dst))

  let weight_matrix n vol =
    let w = Array.make_matrix n n 0 in
    List.iter
      (fun ((p, q), b) ->
        if p <> q && p >= 0 && p < n && q >= 0 && q < n then begin
          w.(p).(q) <- w.(p).(q) + b;
          w.(q).(p) <- w.(q).(p) + b
        end)
      vol;
    w

  let cost_w dist w perm =
    let n = Array.length perm in
    let acc = ref 0 in
    for p = 0 to n - 1 do
      for q = p + 1 to n - 1 do
        if w.(p).(q) <> 0 then
          acc := !acc + (w.(p).(q) * dist.(perm.(p)).(perm.(q)))
      done
    done;
    !acc

  let hop_bytes topo vol perm =
    cost_w (dist_table topo) (weight_matrix (Array.length perm) vol) perm

  let grow dist w n =
    let perm = Array.make n (-1) in
    let placed = Array.make n false in
    let used = Array.make n false in
    let strength = Array.map (Array.fold_left ( + ) 0) w in
    let first_proc =
      let best = ref 0 in
      for p = 1 to n - 1 do
        if strength.(p) > strength.(!best) then best := p
      done;
      !best
    in
    let central =
      let best = ref 0 and best_d = ref max_int in
      for node = 0 to n - 1 do
        let d = Array.fold_left ( + ) 0 dist.(node) in
        if d < !best_d then begin
          best := node;
          best_d := d
        end
      done;
      !best
    in
    perm.(first_proc) <- central;
    placed.(first_proc) <- true;
    used.(central) <- true;
    for _ = 2 to n do
      let next = ref (-1) and next_conn = ref (-1) in
      for p = 0 to n - 1 do
        if not placed.(p) then begin
          let conn = ref 0 in
          for q = 0 to n - 1 do
            if placed.(q) then conn := !conn + w.(p).(q)
          done;
          if !conn > !next_conn then begin
            next := p;
            next_conn := !conn
          end
        end
      done;
      let p = !next in
      let best_node = ref (-1) and best_cost = ref max_int in
      for node = 0 to n - 1 do
        if not used.(node) then begin
          let c = ref 0 in
          for q = 0 to n - 1 do
            if placed.(q) && w.(p).(q) <> 0 then
              c := !c + (w.(p).(q) * dist.(node).(perm.(q)))
          done;
          if !c < !best_cost then begin
            best_node := node;
            best_cost := !c
          end
        end
      done;
      perm.(p) <- !best_node;
      placed.(p) <- true;
      used.(!best_node) <- true
    done;
    perm

  let greedy topo vol =
    let n = Machine.Topology.size topo in
    let dist = dist_table topo in
    let w = weight_matrix n vol in
    let grown = grow dist w n in
    let id = Mapping.identity n in
    if cost_w dist w grown <= cost_w dist w id then grown else id

  let swap_delta dist w perm a b =
    let n = Array.length perm in
    let pa = perm.(a) and pb = perm.(b) in
    let d = ref 0 in
    for c = 0 to n - 1 do
      if c <> a && c <> b then begin
        let pc = perm.(c) in
        let wd = w.(a).(c) - w.(b).(c) in
        if wd <> 0 then d := !d + (wd * (dist.(pb).(pc) - dist.(pa).(pc)))
      end
    done;
    !d

  let climb dist w perm =
    let n = Array.length perm in
    let improved = ref true in
    while !improved do
      improved := false;
      let best_a = ref 0 and best_b = ref 0 and best_d = ref 0 in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          let d = swap_delta dist w perm a b in
          if d < !best_d then begin
            best_a := a;
            best_b := b;
            best_d := d
          end
        done
      done;
      if !best_d < 0 then begin
        let tmp = perm.(!best_a) in
        perm.(!best_a) <- perm.(!best_b);
        perm.(!best_b) <- tmp;
        improved := true
      end
    done;
    perm

  let random_perm rng n =
    let perm = Mapping.identity n in
    for i = n - 1 downto 1 do
      let j = Machine.Fault.Rng.int rng (i + 1) in
      let tmp = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- tmp
    done;
    perm

  let better (c1, p1) (c2, p2) = c1 < c2 || (c1 = c2 && compare p1 p2 < 0)

  let search ~seed ~restarts topo vol =
    let n = Machine.Topology.size topo in
    let dist = dist_table topo in
    let w = weight_matrix n vol in
    let attempt r =
      let start =
        if r = 0 then greedy topo vol
        else random_perm (Machine.Fault.Rng.make (seed + r)) n
      in
      let p = climb dist w start in
      (cost_w dist w p, p)
    in
    match List.map attempt (List.init (restarts + 1) Fun.id) with
    | [] -> Mapping.identity n
    | first :: rest ->
      snd (List.fold_left (fun acc x -> if better x acc then x else acc) first rest)
end

let topologies = Array.of_list Topo_matrix.all

(* Sparse and dense agree on one instance: the same greedy and searched
   permutations, and the same hop-bytes for those, for identity, and
   for a fixed shuffle.  [None] when they agree, a description of the
   first disagreement otherwise. *)
let disagreement (topo_i, seed, vol) =
  let name, topo = topologies.(topo_i) in
  let n = Machine.Topology.size topo in
  let g = Mapping.greedy topo vol and g' = Dense.greedy topo vol in
  let s = Mapping.search ~seed ~restarts:2 topo vol
  and s' = Dense.search ~seed ~restarts:2 topo vol in
  let shuffled = Dense.random_perm (Machine.Fault.Rng.make seed) n in
  let perms =
    [ ("identity", Mapping.identity n); ("greedy", g'); ("search", s');
      ("shuffle", shuffled) ]
  in
  let show p = Format.asprintf "%a" Mapping.pp p in
  if g <> g' then Some (Printf.sprintf "%s: greedy %s, dense %s" name (show g) (show g'))
  else if s <> s' then
    Some (Printf.sprintf "%s: search %s, dense %s" name (show s) (show s'))
  else
    List.find_map
      (fun (label, p) ->
        let hb = Mapping.hop_bytes topo vol p and hb' = Dense.hop_bytes topo vol p in
        if hb = hb' then None
        else Some (Printf.sprintf "%s: hop_bytes of %s %d, dense %d" name label hb hb'))
      perms

(* Random volume graphs over the shared topology instances.  The
   generator leans on the cases an edge-list rewrite gets wrong: empty
   graphs, self-pairs, endpoints outside [0, n) on either side, and
   weights from a tiny set so equal-weight ties are the norm. *)
let oracle_gen =
  QCheck.Gen.(
    int_range 0 (Array.length topologies - 1) >>= fun topo_i ->
    let n = Machine.Topology.size (snd topologies.(topo_i)) in
    let endpoint =
      frequency [ (8, int_range 0 (n - 1)); (1, int_range n (n + 4)); (1, int_range (-3) (-1)) ]
    in
    let entry =
      endpoint >>= fun p ->
      frequency [ (5, endpoint); (1, return p) ] >>= fun q ->
      map (fun b -> ((p, q), b))
        (frequency [ (4, oneofl [ 1; 64 ]); (1, int_range 0 1000) ])
    in
    map3
      (fun topo_i seed vol -> (topo_i, seed, vol))
      (return topo_i) (int_range 0 1000)
      (frequency [ (1, return []); (5, list_size (int_range 1 24) entry) ]))

let oracle_arb =
  QCheck.make
    ~print:(fun (topo_i, seed, vol) ->
      Printf.sprintf "%s seed=%d vol=[%s]" (fst topologies.(topo_i)) seed
        (String.concat "; "
           (List.map (fun ((p, q), b) -> Printf.sprintf "(%d,%d)=%d" p q b) vol)))
    oracle_gen

let prop_sparse_matches_dense =
  QCheck.Test.make ~count:300 ~name:"sparse kernels = dense oracle" oracle_arb
    (fun case ->
      match disagreement case with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* The four shapes the generator leans on, pinned on every instance so
   they run whatever the random draw. *)
let test_oracle_edge_cases () =
  Array.iteri
    (fun topo_i (_, topo) ->
      let n = Machine.Topology.size topo in
      List.iter
        (fun vol ->
          match disagreement (topo_i, 5, vol) with
          | None -> ()
          | Some msg -> Alcotest.fail msg)
        [
          [];
          [ ((0, 0), 100); ((3, 3), 7) ];
          [ ((0, n), 50); ((-1, 2), 50); ((n + 2, n + 2), 9); ((1, 2), 5) ];
          [ ((0, 1), 64); ((2, 3), 64); ((1, 0), 64); ((4, 5), 64); ((n - 1, 0), 64) ];
          [ ((0, 1), 0); ((1, 2), 0) ];
        ])
    topologies

(* ------------------------------------------------------------------ *)
(* Golden: the served mapping block                                    *)
(* ------------------------------------------------------------------ *)

(* served_mapping.golden holds the digest of every rendered answer
   with a mapping block, taken before the kernels went sparse; the
   rendered hop-bytes and mapped prices must not move a byte. *)
let test_served_mapping_golden () =
  let lines =
    In_channel.with_open_text
      (Filename.concat (Filename.dirname Sys.executable_name) "served_mapping.golden")
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check int) "11 workloads x m 1-3 x 2 placements" 66 (List.length lines);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; m; label; digest ] ->
        let spec =
          match label with
          | "greedy" -> Mapping.spec Mapping.Greedy
          | "search7" -> Mapping.spec ~seed:7 Mapping.Search
          | _ -> Alcotest.failf "unknown placement %S" label
        in
        let body =
          Serve.Answer.render ~mapping:spec ~m:(int_of_string m)
            (Resopt.Workloads.find name)
        in
        Alcotest.(check string)
          (Printf.sprintf "%s m=%s %s" name m label)
          digest
          (Digest.to_hex (Digest.string body))
      | _ -> Alcotest.failf "malformed golden line %S" line)
    lines

(* the same digests through the solved-stage cache: cold, then warm *)
let test_served_mapping_golden_cached () =
  Cache.clear ();
  Fun.protect ~finally:Cache.clear @@ fun () ->
  Cache.scoped ~enable:true (fun () ->
      test_served_mapping_golden ();
      test_served_mapping_golden ())

(* ------------------------------------------------------------------ *)
(* Zero-cost and no-harm guarantees of the ?mapping hooks              *)
(* ------------------------------------------------------------------ *)

let example1_plan () =
  let w = Resopt.Workloads.find "example1" in
  (Resopt.Pipeline.run ~m:2 ~schedule:w.Resopt.Workloads.schedule
     w.Resopt.Workloads.nest)
    .Resopt.Pipeline.plan

let test_identity_mapping_is_free () =
  let plan = example1_plan () in
  let cm5 = Machine.Models.cm5 () in
  let plain = (Resopt.Cost.of_plan cm5 plan).Resopt.Cost.total in
  let under_id =
    (Resopt.Cost.of_plan ~mapping:(Mapping.spec Mapping.Identity) cm5 plan)
      .Resopt.Cost.total
  in
  Alcotest.(check (float 1e-9)) "identity mapping prices identically" plain
    under_id;
  (* t3d has no 2-D simulation grid: any mapping is a no-op there *)
  Alcotest.(check bool) "t3d has no simulation grid" true
    (Resopt.Cost.sim_vgrid (Machine.Models.t3d ()) = None);
  let t3d = Machine.Models.t3d () in
  let p = (Resopt.Cost.of_plan t3d plan).Resopt.Cost.total in
  let m =
    (Resopt.Cost.of_plan
       ~mapping:(Mapping.spec ~restarts:0 Mapping.Search)
       t3d plan)
      .Resopt.Cost.total
  in
  Alcotest.(check (float 1e-9)) "mapping is a no-op on t3d" p m

let test_search_mapping_never_hurts () =
  let plan = example1_plan () in
  let cm5 = Machine.Models.cm5 () in
  let plain = (Resopt.Cost.of_plan cm5 plan).Resopt.Cost.total in
  let searched =
    (Resopt.Cost.of_plan
       ~mapping:(Mapping.spec ~restarts:0 Mapping.Search)
       cm5 plan)
      .Resopt.Cost.total
  in
  Alcotest.(check bool)
    (Printf.sprintf "searched %.1f <= plain %.1f" searched plain)
    true
    (searched <= plain)

let contains re s =
  try
    ignore (Str.search_forward (Str.regexp_string re) s 0);
    true
  with Not_found -> false

let test_sweep_gain_map_column () =
  let workloads = [ Resopt.Workloads.find "example1" ] in
  let models = [ Machine.Models.cm5 () ] in
  let plain_rows = Resopt.Sweep.run ~models ~workloads () in
  let plain_csv = Resopt.Sweep.to_csv plain_rows in
  Alcotest.(check bool) "no gain_map column without mapping" false
    (contains "gain_map" plain_csv);
  Alcotest.(check bool) "rows carry no map_gain" true
    (List.for_all (fun r -> r.Resopt.Sweep.map_gain = None) plain_rows);
  let rows =
    Resopt.Sweep.run ~models ~workloads
      ~mapping:(Mapping.spec ~restarts:0 Mapping.Search)
      ()
  in
  let csv = Resopt.Sweep.to_csv rows in
  Alcotest.(check bool) "gain_map column with mapping" true
    (contains ",gain_map" csv);
  List.iter
    (fun r ->
      match r.Resopt.Sweep.map_gain with
      | None -> Alcotest.fail "mapped sweep row without map_gain"
      | Some g ->
        Alcotest.(check bool)
          (Printf.sprintf "%s gain_map %.3f >= 1" r.Resopt.Sweep.model g)
          true (g >= 1.0))
    rows;
  (* the deterministic columns are unchanged by the mapping pricing *)
  let strip_last_col csv =
    String.concat "\n"
      (List.map
         (fun line ->
           match String.rindex_opt line ',' with
           | Some i -> String.sub line 0 i
           | None -> line)
         (String.split_on_char '\n' csv))
  in
  Alcotest.(check string) "mapping only appends a column" plain_csv
    (strip_last_col csv)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mapping"
    [
      ( "volgraph",
        [
          Alcotest.test_case "of_messages sums pairs" `Quick
            test_volgraph_of_messages;
          Alcotest.test_case "netsim coalesce agrees" `Quick
            test_volgraph_coalesce_agrees;
        ] );
      ( "golden",
        [
          Alcotest.test_case "2x2 grid optimum" `Quick test_grid_golden;
          Alcotest.test_case "served mapping block digests" `Quick
            test_served_mapping_golden;
          Alcotest.test_case "served mapping block digests, cache cold and warm" `Quick
            test_served_mapping_golden_cached;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "edge cases on every topology" `Quick
            test_oracle_edge_cases;
          QCheck_alcotest.to_alcotest prop_sparse_matches_dense;
        ] );
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest prop_search_valid;
          QCheck_alcotest.to_alcotest prop_cost_ordering;
          QCheck_alcotest.to_alcotest prop_seed_deterministic;
          QCheck_alcotest.to_alcotest prop_apply_preserves_traffic;
        ] );
      ( "zero-cost",
        [
          Alcotest.test_case "identity mapping is free" `Quick
            test_identity_mapping_is_free;
          Alcotest.test_case "search never hurts example1" `Quick
            test_search_mapping_never_hurts;
          Alcotest.test_case "sweep gain_map column" `Quick
            test_sweep_gain_map_column;
        ] );
    ]
