open Linalg

(* [Layout.place] is separable: a virtual point's physical rank is the
   sum over dimensions d of [tabs.(d).(v_d)], the folded coordinate
   along d times the row-major stride of d. *)
let rank_tables topo ~layout ~vgrid =
  let n = Array.length vgrid in
  if Array.length layout <> n || Machine.Topology.ndims topo <> n then
    invalid_arg "Layout.place: dimension mismatch";
  let tabs = Array.make n [||] and stride = ref 1 in
  for d = n - 1 downto 0 do
    let np = Machine.Topology.dim topo d and s = !stride in
    tabs.(d) <-
      Array.init vgrid.(d) (fun v -> s * Layout.place1d layout.(d) ~nv:vgrid.(d) ~np v);
    stride := s * np
  done;
  tabs

(* One phase's pair counts: [rows.(src)] lists each destination seen
   from [src] with its count.  A row holds at most as many entries as
   [src] owns virtual points (16 on the cost model's 4x-per-dimension
   grid), so a lookup is a short scan, and every allocation is a small
   young block: no per-point arrays, no nodes² table. *)
type pair = { dst : int; mutable count : int }

let count_pair rows src dst =
  let rec bump = function
    | [] -> rows.(src) <- { dst; count = 1 } :: rows.(src)
    | p :: rest -> if p.dst = dst then p.count <- p.count + 1 else bump rest
  in
  bump rows.(src)

(* One phase's traffic as Netsim groups: its distinct (src, dst) pairs
   with their counts, in (src, dst) order.  [coalesce] merges each
   remote pair into one message of summed bytes; local pairs, which
   carry no price, keep their multiplicity. *)
let pair_groups ~coalesce ~bytes rows : Machine.Netsim.groups =
 fun f ->
  Array.iteri
    (fun src row ->
      List.iter
        (fun { dst; count } ->
          if coalesce && src <> dst then f ~src ~dst ~bytes:(count * bytes) ~count:1
          else f ~src ~dst ~bytes ~count)
        (List.sort (fun a b -> Int.compare a.dst b.dst) row))
    rows

(* Advance [v] to the next point of the box, last dimension fastest. *)
let next_point vgrid v =
  let d = ref (Array.length v - 1) in
  while !d >= 0 && v.(!d) = vgrid.(!d) - 1 do
    v.(!d) <- 0;
    decr d
  done;
  if !d >= 0 then v.(!d) <- v.(!d) + 1

(* [x <- f x + b], wrapped onto the virtual torus; [tmp] is scratch. *)
let move vgrid (f, b) x tmp =
  let n = Array.length x in
  for i = 0 to n - 1 do
    let y = ref b.(i) in
    for j = 0 to n - 1 do
      y := !y + (f.(i).(j) * x.(j))
    done;
    let e = vgrid.(i) in
    tmp.(i) <- ((!y mod e) + e) mod e
  done;
  for i = 0 to n - 1 do
    x.(i) <- tmp.(i)
  done

(* One priced phase per affine map [(f, b)], applied in list order:
   every virtual point's datum moves from where the earlier phases left
   it to [f x + b] wrapped onto the virtual torus, and the phase's
   traffic is the (src, dst) rank pairs of those moves.  A datum's
   position is replayed from its starting point each phase rather than
   stored, so the scratch is one row array per phase whatever the
   number of virtual points; decompositions have only a few factors,
   so the replay stays cheap. *)
let phases ?(coalesce = true) ?faults ?remap (model : Machine.Models.t) ~layout
    ~vgrid ~bytes maps =
  if bytes < 0 then invalid_arg "Foldsim: negative size";
  let topo = model.Machine.Models.topo in
  let nodes = Machine.Topology.size topo in
  let tabs = rank_tables topo ~layout ~vgrid in
  let n = Array.length vgrid in
  let points = if n = 0 then 0 else Array.fold_left ( * ) 1 vgrid in
  let rank x =
    let r = ref 0 in
    for d = 0 to n - 1 do
      r := !r + tabs.(d).(x.(d))
    done;
    match remap with None -> !r | Some perm -> perm.(!r)
  in
  let maps =
    List.map
      (fun (f, b) ->
        if Mat.rows f <> n || Mat.cols f <> n || Array.length b <> n then
          invalid_arg "Foldsim: dimension mismatch";
        (Mat.to_arrays f, b))
      maps
  in
  let v = Array.make n 0 and x = Array.make n 0 and tmp = Array.make n 0 in
  let apply map = move vgrid map x tmp in
  List.mapi
    (fun k map ->
      let earlier = List.filteri (fun i _ -> i < k) maps in
      let rows = Array.make nodes [] in
      Array.fill v 0 n 0;
      for _ = 1 to points do
        for d = 0 to n - 1 do
          x.(d) <- v.(d)
        done;
        List.iter apply earlier;
        let src = rank x in
        apply map;
        count_pair rows src (rank x);
        next_point vgrid v
      done;
      Machine.Netsim.price ?faults topo model.Machine.Models.net
        (pair_groups ~coalesce ~bytes rows))
    maps

let time ?coalesce ?faults ?remap model ~layout ~vgrid ~flow ?offset ?(bytes = 8) () =
  let offset =
    match offset with Some o -> o | None -> Array.make (Array.length vgrid) 0
  in
  List.hd (phases ?coalesce ?faults ?remap model ~layout ~vgrid ~bytes [ (flow, offset) ])

(* The rightmost factor moves first: T = f1 f2 ... fn applied to v is
   realised as v -> fn v -> f(n-1) fn v -> ...; positions live on the
   virtual torus. *)
let decomposed_time ?faults ?remap model ~layout ~vgrid ~factors ?(bytes = 8) () =
  let zero = Array.make (Array.length vgrid) 0 in
  phases ?faults ?remap model ~layout ~vgrid ~bytes
    (List.rev_map (fun f -> (f, zero)) factors)

let total_time stats =
  List.fold_left (fun acc (s : Machine.Netsim.stats) -> acc +. s.Machine.Netsim.time) 0.0 stats
