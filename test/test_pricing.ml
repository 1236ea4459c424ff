(* The grouped pricing core against the per-message pricing it
   replaced.  [Oracle] keeps the old Netsim.run / link_loads loop and
   the old message-building Foldsim as test-only code; every stats
   field, every link load and the netsim.* / fault.injected counter
   deltas must agree on random flows, factor lists, layouts, remaps
   and fault schedules. *)

open Linalg
open Machine

(* ------------------------------------------------------------------ *)
(* The per-message kernels, as they were                               *)
(* ------------------------------------------------------------------ *)

module Oracle = struct
  let route_of faults topo (m : Message.t) =
    if Fault.is_none faults then
      Some (Route.path topo ~src:m.Message.src ~dst:m.Message.dst)
    else Fault.route faults topo ~src:m.Message.src ~dst:m.Message.dst

  let effective_load topo faults l bytes =
    let cap = Topology.link_capacity topo l in
    if Fault.is_none faults && cap = 1 then bytes
    else
      let w =
        if Fault.is_none faults then 1.0
        else Fault.expected_transmissions faults l /. Fault.bandwidth_factor faults l
      in
      int_of_float (ceil (float_of_int bytes *. w /. float_of_int cap))

  let add_route_loads topo faults loads bytes path =
    List.iter
      (fun link -> Volgraph.add loads link (effective_load topo faults link bytes))
      path

  let link_loads ?(faults = Fault.none) topo msgs =
    let loads = Volgraph.acc () in
    List.iter
      (fun (m : Message.t) ->
        if not (Message.is_local m) then
          match route_of faults topo m with
          | Some path -> add_route_loads topo faults loads m.Message.bytes path
          | None -> ())
      msgs;
    Volgraph.to_list loads

  let run ?(coalesce = true) ?(faults = Fault.none) topo (params : Netsim.params)
      msgs =
    let remote = List.filter (fun m -> not (Message.is_local m)) msgs in
    let remote = if coalesce then Netsim.coalesce_messages remote else remote in
    let n = Topology.size topo in
    let send = Array.make n 0 and recv = Array.make n 0 in
    let total_bytes = ref 0 and total_hops = ref 0 and max_hops = ref 0 in
    let unreachable = ref 0 and priced = ref 0 in
    let loads = Volgraph.acc () in
    List.iter
      (fun (m : Message.t) ->
        match route_of faults topo m with
        | None ->
          incr unreachable;
          if Obs.enabled () then Obs.incr "fault.injected"
        | Some path ->
          incr priced;
          send.(m.Message.src) <- send.(m.Message.src) + 1;
          recv.(m.Message.dst) <- recv.(m.Message.dst) + 1;
          total_bytes := !total_bytes + m.Message.bytes;
          let h = List.length path in
          total_hops := !total_hops + h;
          if h > !max_hops then max_hops := h;
          add_route_loads topo faults loads m.Message.bytes path)
      remote;
    let max_link_load = Volgraph.fold (fun _ v acc -> max v acc) loads 0 in
    let max_sender = Array.fold_left max 0 send in
    let max_receiver = Array.fold_left max 0 recv in
    let serial = max max_sender max_receiver in
    let time =
      if !priced = 0 then 0.0
      else
        (params.Netsim.alpha *. float_of_int serial)
        +. (params.Netsim.beta *. float_of_int max_link_load)
        +. (params.Netsim.hop *. float_of_int !max_hops)
    in
    if Obs.enabled () then begin
      Obs.incr "netsim.runs";
      Obs.incr ~by:!priced "netsim.messages"
    end;
    {
      Netsim.time;
      messages = !priced;
      total_bytes = !total_bytes;
      total_hops = !total_hops;
      max_link_load;
      max_sender;
      max_receiver;
      max_hops = !max_hops;
      unreachable = !unreachable;
    }

  let place_fn ?remap (model : Models.t) ~layout ~vgrid =
    let fold v = Distrib.Layout.place layout ~vgrid ~topo:model.Models.topo v in
    match remap with None -> fold | Some perm -> fun v -> perm.(fold v)

  let time ?coalesce ?faults ?remap (model : Models.t) ~layout ~vgrid ~flow ?offset
      ?(bytes = 8) () =
    let place = place_fn ?remap model ~layout ~vgrid in
    let msgs = Patterns.affine_messages ~vgrid ~flow ?offset ~bytes ~place () in
    run ?coalesce ?faults model.Models.topo model.Models.net msgs

  let decomposed_time ?faults ?remap (model : Models.t) ~layout ~vgrid ~factors
      ?(bytes = 8) () =
    let place = place_fn ?remap model ~layout ~vgrid in
    let wrap v = Array.map2 (fun x e -> ((x mod e) + e) mod e) v vgrid in
    let positions = ref [] in
    Patterns.iter_box vgrid (fun v -> positions := v :: !positions);
    List.map
      (fun f ->
        let moved = ref [] and msgs = ref [] in
        List.iter
          (fun v ->
            let dst = wrap (Mat.mul_vec f v) in
            moved := dst :: !moved;
            msgs := Message.make ~src:(place v) ~dst:(place dst) ~bytes :: !msgs)
          !positions;
        positions := !moved;
        run ?faults model.Models.topo model.Models.net !msgs)
      (List.rev factors)
end

(* ------------------------------------------------------------------ *)
(* Comparing the two                                                   *)
(* ------------------------------------------------------------------ *)

let counters () =
  List.map Obs.counter [ "netsim.runs"; "netsim.messages"; "fault.injected" ]

(* Run [f] with Obs on; its result and the counter deltas it caused. *)
let observed f =
  let was = Obs.enabled () in
  Obs.enable ();
  Fun.protect ~finally:(fun () -> if not was then Obs.disable ()) @@ fun () ->
  let before = counters () in
  let r = f () in
  (r, List.map2 ( - ) (counters ()) before)

let show_stats (s : Netsim.stats) =
  Printf.sprintf
    "{time=%h msgs=%d bytes=%d hops=%d link=%d send=%d recv=%d maxhops=%d unreach=%d}"
    s.Netsim.time s.Netsim.messages s.Netsim.total_bytes s.Netsim.total_hops
    s.Netsim.max_link_load s.Netsim.max_sender s.Netsim.max_receiver
    s.Netsim.max_hops s.Netsim.unreachable

let show_counts c = String.concat "/" (List.map string_of_int c)

(* [None] when new and old agree on the stats and the counter deltas,
   a description of the disagreement otherwise. *)
let compare_runs what ~fresh ~oracle =
  let s, c = observed fresh and s', c' = observed oracle in
  if s <> s' then
    Some
      (Printf.sprintf "%s: stats %s, oracle %s" what
         (String.concat " " (List.map show_stats s))
         (String.concat " " (List.map show_stats s')))
  else if c <> c' then
    Some (Printf.sprintf "%s: counters %s, oracle %s" what (show_counts c) (show_counts c'))
  else None

(* ------------------------------------------------------------------ *)
(* Random cases                                                        *)
(* ------------------------------------------------------------------ *)

(* The 2-D grid instances of the shared topology matrix. *)
let grids =
  Array.of_list
    (List.filter
       (fun (_, t) -> Topology.is_grid t && Topology.ndims t = 2)
       Topo_matrix.all)

type case = {
  topo_i : int;
  vgrid : int array;
  layout : Distrib.Layout.t;
  remap : int array option;
  flow : Mat.t;
  offset : int array option;
  factors : Mat.t list;
  coalesce : bool;
  fault_seed : int option;  (* Fault.random_specs drawn from this seed *)
  bytes : int;
}

let model_of c =
  let _, topo = grids.(c.topo_i) in
  (Models.of_topo topo, topo)

let faults_of c topo =
  match c.fault_seed with
  | None -> Fault.none
  | Some seed -> Fault.make ~seed (Fault.random_specs (Fault.Rng.make seed) topo)

let elementary =
  QCheck.Gen.(
    map2
      (fun lower k ->
        if lower then Mat.of_lists [ [ 1; 0 ]; [ k; 1 ] ]
        else Mat.of_lists [ [ 1; k ]; [ 0; 1 ] ])
      bool (int_range (-4) 4))

(* A random unimodular 2x2: a product of elementary factors, sometimes
   times the swap or a sign flip. *)
let unimodular =
  QCheck.Gen.(
    map2
      (fun fs twist -> List.fold_left Mat.mul twist fs)
      (list_size (int_range 1 3) elementary)
      (oneofl
         [
           Mat.identity 2;
           Mat.of_lists [ [ 0; 1 ]; [ 1; 0 ] ];
           Mat.of_lists [ [ -1; 0 ]; [ 0; 1 ] ];
         ]))

let scheme =
  QCheck.Gen.(
    frequency
      [
        (2, return Distrib.Layout.Cyclic);
        (2, return Distrib.Layout.Block);
        (1, map (fun b -> Distrib.Layout.Cyclic_block b) (int_range 1 3));
        (2, map (fun k -> Distrib.Layout.Grouped k) (int_range 1 5));
      ])

let permutation n =
  QCheck.Gen.(
    map
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let p = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = p.(i) in
          p.(i) <- p.(j);
          p.(j) <- t
        done;
        p)
      int)

let case_gen =
  QCheck.Gen.(
    int_range 0 (Array.length grids - 1) >>= fun topo_i ->
    let topo = snd grids.(topo_i) in
    let extent d =
      let np = Topology.dim topo d in
      frequency [ (2, return np); (3, return (4 * np)); (2, int_range 1 (3 * np)) ]
    in
    extent 0 >>= fun e0 ->
    extent 1 >>= fun e1 ->
    pair scheme scheme >>= fun (s0, s1) ->
    opt ~ratio:0.4 (permutation (Topology.size topo)) >>= fun remap ->
    unimodular >>= fun flow ->
    opt ~ratio:0.3 (map (fun (a, b) -> [| a; b |]) (pair (int_range (-3) 3) (int_range (-3) 3)))
    >>= fun offset ->
    list_size (int_range 1 3) (frequency [ (3, elementary); (1, unimodular) ])
    >>= fun factors ->
    bool >>= fun coalesce ->
    opt ~ratio:0.7 (int_range 0 10_000) >>= fun fault_seed ->
    oneofl [ 1; 8; 64 ] >>= fun bytes ->
    return
      {
        topo_i;
        vgrid = [| e0; e1 |];
        layout = [| s0; s1 |];
        remap;
        flow;
        offset;
        factors;
        coalesce;
        fault_seed;
        bytes;
      })

let show_case c =
  let _, topo = model_of c in
  Printf.sprintf "%s vgrid=%dx%d layout=%s remap=%b flow=%s offset=%s factors=%s coalesce=%b faults=%s bytes=%d"
    (fst grids.(c.topo_i)) c.vgrid.(0) c.vgrid.(1)
    (String.concat "," (List.map (Format.asprintf "%a" Distrib.Layout.pp_scheme) (Array.to_list c.layout)))
    (c.remap <> None) (Mat.encode c.flow)
    (match c.offset with None -> "-" | Some o -> Printf.sprintf "%d,%d" o.(0) o.(1))
    (String.concat "*" (List.map Mat.encode c.factors))
    c.coalesce
    (Fault.label (faults_of c topo))
    c.bytes

(* Fold the case's flow into a message list the way the old Foldsim
   did, for the list-path comparisons. *)
let case_messages c (model : Models.t) =
  let place = Oracle.place_fn ?remap:c.remap model ~layout:c.layout ~vgrid:c.vgrid in
  Patterns.affine_messages ~vgrid:c.vgrid ~flow:c.flow ?offset:c.offset ~bytes:c.bytes
    ~place ()

let disagreement c =
  let model, topo = model_of c in
  let faults = faults_of c topo in
  let { layout; vgrid; remap; flow; offset; factors; coalesce; bytes; _ } = c in
  let msgs = case_messages c model in
  let checks =
    [
      (fun () ->
        compare_runs "Foldsim.time"
          ~fresh:(fun () ->
            [ Distrib.Foldsim.time ~coalesce ~faults ?remap model ~layout ~vgrid ~flow
                ?offset ~bytes () ])
          ~oracle:(fun () ->
            [ Oracle.time ~coalesce ~faults ?remap model ~layout ~vgrid ~flow ?offset
                ~bytes () ]));
      (fun () ->
        compare_runs "Foldsim.decomposed_time"
          ~fresh:(fun () ->
            Distrib.Foldsim.decomposed_time ~faults ?remap model ~layout ~vgrid ~factors
              ~bytes ())
          ~oracle:(fun () ->
            Oracle.decomposed_time ~faults ?remap model ~layout ~vgrid ~factors ~bytes
              ()));
      (fun () ->
        compare_runs "Netsim.run"
          ~fresh:(fun () -> [ Netsim.run ~coalesce ~faults topo model.Models.net msgs ])
          ~oracle:(fun () -> [ Oracle.run ~coalesce ~faults topo model.Models.net msgs ]));
      (fun () ->
        let fresh = Netsim.link_loads ~faults topo msgs
        and oracle = Oracle.link_loads ~faults topo msgs in
        if fresh = oracle then None
        else Some "Netsim.link_loads: loads (or their order) differ from the oracle");
    ]
  in
  List.find_map (fun check -> check ()) checks

let prop_grouped_matches_oracle =
  QCheck.Test.make ~count:400 ~name:"grouped pricing = per-message oracle"
    (QCheck.make ~print:show_case case_gen)
    (fun c ->
      match disagreement c with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* Pinned extremes                                                     *)
(* ------------------------------------------------------------------ *)

let base_case topo_i =
  let topo = snd grids.(topo_i) in
  {
    topo_i;
    vgrid = [| Topology.dim topo 0; Topology.dim topo 1 |];
    layout = Distrib.Layout.all_cyclic 2;
    remap = None;
    flow = Mat.identity 2;
    offset = None;
    factors = [ Mat.identity 2 ];
    coalesce = false;
    fault_seed = None;
    bytes = 8;
  }

let expect_agreement c =
  match disagreement c with None -> () | Some msg -> Alcotest.fail msg

(* The identity flow under a one-to-one fold: every message is local,
   so nothing is priced. *)
let test_all_local () =
  Array.iteri
    (fun topo_i _ ->
      let c = base_case topo_i in
      expect_agreement c;
      let model, _ = model_of c in
      let s =
        Distrib.Foldsim.time ~coalesce:false model ~layout:c.layout ~vgrid:c.vgrid
          ~flow:c.flow ()
      in
      Alcotest.(check int) "nothing priced" 0 s.Netsim.messages;
      Alcotest.(check int) "nothing unreachable" 0 s.Netsim.unreachable;
      Alcotest.(check (float 0.0)) "free" 0.0 s.Netsim.time)
    grids

(* A unit translation with every node dead: every message is remote
   and none can be delivered. *)
let test_all_unreachable () =
  Array.iteri
    (fun topo_i (_, topo) ->
      let c = { (base_case topo_i) with offset = Some [| 1; 0 |] } in
      let everyone = List.init (Topology.size topo) (fun r -> Fault.Dead_node r) in
      let faults = Fault.make everyone in
      let model, _ = model_of c in
      let fresh () =
        Distrib.Foldsim.time ~coalesce:false ~faults model ~layout:c.layout
          ~vgrid:c.vgrid ~flow:c.flow ?offset:c.offset ()
      and oracle () =
        Oracle.time ~coalesce:false ~faults model ~layout:c.layout ~vgrid:c.vgrid
          ~flow:c.flow ?offset:c.offset ()
      in
      (match
         compare_runs "all unreachable"
           ~fresh:(fun () -> [ fresh () ])
           ~oracle:(fun () -> [ oracle () ])
       with
      | None -> ()
      | Some msg -> Alcotest.fail msg);
      let s = fresh () in
      Alcotest.(check int) "nothing priced" 0 s.Netsim.messages;
      Alcotest.(check int) "every message unreachable" (Topology.size topo)
        s.Netsim.unreachable;
      Alcotest.(check (float 0.0)) "free" 0.0 s.Netsim.time)
    grids

(* A Foldsim phase's telemetry record lists every virtual point's
   message, in (src, dst) order, and no observer effect on the stats. *)
let test_telemetry_order () =
  let model = Models.paragon () in
  let layout = Distrib.Layout.all_cyclic 2 and vgrid = [| 16; 8 |] in
  let flow = Mat.of_lists [ [ 1; 2 ]; [ 3; 7 ] ] in
  let price () = Distrib.Foldsim.time ~coalesce:false model ~layout ~vgrid ~flow () in
  let quiet = price () in
  Obs.Telemetry.reset ();
  Obs.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Telemetry.disable ();
      Obs.Telemetry.reset ())
  @@ fun () ->
  Alcotest.(check bool) "same stats with telemetry on" true (price () = quiet);
  match Obs.Telemetry.last_run () with
  | None -> Alcotest.fail "no telemetry record"
  | Some run ->
    let pairs =
      List.map
        (fun m -> (m.Obs.Telemetry.msg_src, m.Obs.Telemetry.msg_dst))
        run.Obs.Telemetry.messages
    in
    Alcotest.(check int) "one message per virtual point" (16 * 8) (List.length pairs);
    Alcotest.(check bool) "in (src, dst) order" true (List.sort compare pairs = pairs)

(* ------------------------------------------------------------------ *)
(* Golden: the served resilience block                                 *)
(* ------------------------------------------------------------------ *)

(* served_resilience.golden holds the digest of every rendered answer
   with a resilience block, taken before pricing went grouped; no
   faulted price may move a byte. *)
let test_served_resilience_golden () =
  let lines =
    In_channel.with_open_text
      (Filename.concat (Filename.dirname Sys.executable_name) "served_resilience.golden")
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check int) "11 workloads x m 1-3 x 3 schedules" 99 (List.length lines);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; m; spec; seed; digest ] ->
        let faults =
          match Fault.parse spec with
          | Ok specs -> Fault.make ~seed:(int_of_string seed) specs
          | Error e -> Alcotest.failf "bad spec %S: %s" spec e
        in
        let body =
          Serve.Answer.render ~faults ~m:(int_of_string m) (Resopt.Workloads.find name)
        in
        Alcotest.(check string)
          (Printf.sprintf "%s m=%s %s seed %s" name m spec seed)
          digest
          (Digest.to_hex (Digest.string body))
      | _ -> Alcotest.failf "malformed golden line %S" line)
    lines

(* the same digests through the solved-stage cache: cold, then warm *)
let test_served_resilience_golden_cached () =
  Cache.clear ();
  Fun.protect ~finally:Cache.clear @@ fun () ->
  Cache.scoped ~enable:true (fun () ->
      test_served_resilience_golden ();
      test_served_resilience_golden ())

let () =
  Alcotest.run "pricing"
    [
      ( "oracle",
        [
          Alcotest.test_case "every message local" `Quick test_all_local;
          Alcotest.test_case "every message unreachable" `Quick test_all_unreachable;
          QCheck_alcotest.to_alcotest prop_grouped_matches_oracle;
        ] );
      ("telemetry", [ Alcotest.test_case "(src, dst) order" `Quick test_telemetry_order ]);
      ( "golden",
        [
          Alcotest.test_case "served resilience block digests" `Quick
            test_served_resilience_golden;
          Alcotest.test_case "served resilience block digests, cache cold and warm" `Quick
            test_served_resilience_golden_cached;
        ] );
    ]
