type params = { alpha : float; beta : float; hop : float }

type stats = {
  time : float;
  messages : int;
  total_bytes : int;
  total_hops : int;
  max_link_load : int;
  max_sender : int;
  max_receiver : int;
  max_hops : int;
  unreachable : int;
}

(* The route a message takes under the fault model, or None when it
   cannot be delivered at all. *)
let route_of faults topo ~src ~dst =
  if Fault.is_none faults then Some (Route.path topo ~src ~dst)
  else Fault.route faults topo ~src ~dst

(* Effective bytes a link must carry for [bytes] payload bytes:
   expected retransmissions over a flaky link divided by the remaining
   bandwidth fraction — the degraded-capacity cost model — and by the
   link's capacity (a fat-tree uplink of capacity k moves k bytes per
   unit load).  Exact integer identity (no float round-trip) on a
   healthy unit-capacity link, i.e. every fault-free grid link. *)
let effective_load topo faults l bytes =
  let cap = Topology.link_capacity topo l in
  if Fault.is_none faults && cap = 1 then bytes
  else
    let w =
      if Fault.is_none faults then 1.0
      else Fault.expected_transmissions faults l /. Fault.bandwidth_factor faults l
    in
    int_of_float (ceil (float_of_int bytes *. w /. float_of_int cap))

type groups = (src:int -> dst:int -> bytes:int -> count:int -> unit) -> unit

(* Everything one pricing accumulates, before the closed-form time. *)
type tally = {
  loads : Volgraph.acc;  (* effective bytes per directed link *)
  send : int array;
  recv : int array;
  mutable priced : int;
  mutable total_bytes : int;
  mutable total_hops : int;
  mutable max_hops : int;
  mutable unreachable : int;
  mutable t_msgs : Obs.Telemetry.message list;  (* reverse; telemetry only *)
  t_packets : (int * int, int) Hashtbl.t;  (* telemetry only *)
}

let tele_message ~src ~dst ~bytes hops outcome =
  let at = match outcome with Obs.Telemetry.Unreachable -> -1 | _ -> 0 in
  {
    Obs.Telemetry.msg_src = src;
    msg_dst = dst;
    msg_bytes = bytes;
    injected_at = at;
    finished_at = at;
    hops;
    queue_wait = 0;
    retransmits = 0;
    outcome;
  }

(* The one pricing core: each distinct (src, dst, bytes) group is
   routed once and weighted by its multiplicity.  Every figure is an
   integer sum, so [count] copies of a message add exactly what [count]
   separate messages would.  Local groups carry no price; they only
   appear in the telemetry record. *)
let tally ~tele faults topo (groups : groups) =
  let n = Topology.size topo in
  let t =
    {
      loads = Volgraph.acc ();
      send = Array.make n 0;
      recv = Array.make n 0;
      priced = 0;
      total_bytes = 0;
      total_hops = 0;
      max_hops = 0;
      unreachable = 0;
      t_msgs = [];
      t_packets = Hashtbl.create (if tele then 64 else 1);
    }
  in
  let record count msg =
    for _ = 1 to count do
      t.t_msgs <- msg :: t.t_msgs
    done
  in
  groups (fun ~src ~dst ~bytes ~count ->
      if src = dst then begin
        if tele then record count (tele_message ~src ~dst ~bytes 0 Obs.Telemetry.Delivered)
      end
      else
        match route_of faults topo ~src ~dst with
        | None ->
          t.unreachable <- t.unreachable + count;
          if tele then
            record count (tele_message ~src ~dst ~bytes 0 Obs.Telemetry.Unreachable)
        | Some path ->
          t.priced <- t.priced + count;
          t.send.(src) <- t.send.(src) + count;
          t.recv.(dst) <- t.recv.(dst) + count;
          t.total_bytes <- t.total_bytes + (count * bytes);
          (* hops follow the actual route, detours included *)
          let h = List.length path in
          t.total_hops <- t.total_hops + (count * h);
          if h > t.max_hops then t.max_hops <- h;
          List.iter
            (fun link ->
              Volgraph.add t.loads link (count * effective_load topo faults link bytes))
            path;
          if tele then begin
            record count (tele_message ~src ~dst ~bytes h Obs.Telemetry.Delivered);
            List.iter
              (fun l ->
                Hashtbl.replace t.t_packets l
                  (count + Option.value ~default:0 (Hashtbl.find_opt t.t_packets l)))
              path
          end);
  t

let price ?(faults = Fault.none) ?(label = "") topo params groups =
  let tele = Obs.Telemetry.enabled () in
  let t = tally ~tele faults topo groups in
  let max_link_load = Volgraph.fold (fun _ v acc -> max v acc) t.loads 0 in
  let max_sender = Array.fold_left max 0 t.send in
  let max_receiver = Array.fold_left max 0 t.recv in
  let serial = max max_sender max_receiver in
  let time =
    if t.priced = 0 then 0.0
    else
      (params.alpha *. float_of_int serial)
      +. (params.beta *. float_of_int max_link_load)
      +. (params.hop *. float_of_int t.max_hops)
  in
  if Obs.enabled () then begin
    if t.unreachable > 0 then Obs.incr ~by:t.unreachable "fault.injected";
    Obs.incr "netsim.runs";
    Obs.incr ~by:t.priced "netsim.messages";
    Obs.observe "netsim.time" time;
    Obs.observe "netsim.max_link_load" (float_of_int max_link_load)
  end;
  if tele then begin
    let links =
      List.map
        (fun ((a, b), carried) ->
          {
            Obs.Telemetry.link_src = a;
            link_dst = b;
            busy = 0;
            carried;
            packets = Option.value ~default:0 (Hashtbl.find_opt t.t_packets (a, b));
            peak_queue = 0;
            queue_area = 0;
            stalled = 0;
          })
        (List.sort compare (Volgraph.to_list t.loads))
    in
    Obs.Telemetry.record_run
      {
        Obs.Telemetry.sim = "netsim";
        label;
        dims = (if Topology.is_grid topo then Topology.dims topo else [||]);
        torus = Topology.is_torus topo;
        topo_spec = (if Topology.is_grid topo then "" else Topology.to_string topo);
        total_cycles = 0;
        fault_spec = Fault.label faults;
        messages = List.rev t.t_msgs;
        links;
        events = [];
      }
  end;
  {
    time;
    messages = t.priced;
    total_bytes = t.total_bytes;
    total_hops = t.total_hops;
    max_link_load;
    max_sender;
    max_receiver;
    max_hops = t.max_hops;
    unreachable = t.unreachable;
  }

type pending = { src : int; dst : int; mutable bytes : int; mutable count : int }

(* A message list as groups: local messages as they come (telemetry
   only), then one group per remote pair ([coalesce], summed bytes) or
   per distinct remote message (with its multiplicity), in order of
   first appearance. *)
let groups_of_list ~coalesce msgs : groups =
 fun f ->
  let seen = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (m : Message.t) ->
      let src = m.Message.src and dst = m.Message.dst and bytes = m.Message.bytes in
      if src = dst then f ~src ~dst ~bytes ~count:1
      else
        let key = (src, dst, if coalesce then 0 else bytes) in
        match Hashtbl.find_opt seen key with
        | Some g ->
          if coalesce then g.bytes <- g.bytes + bytes else g.count <- g.count + 1
        | None ->
          let g = { src; dst; bytes; count = 1 } in
          Hashtbl.add seen key g;
          order := g :: !order)
    msgs;
  List.iter
    (fun g -> f ~src:g.src ~dst:g.dst ~bytes:g.bytes ~count:g.count)
    (List.rev !order)

let run ?(coalesce = true) ?faults ?label topo params msgs =
  price ?faults ?label topo params (groups_of_list ~coalesce msgs)

let link_loads ?(faults = Fault.none) topo msgs =
  Volgraph.to_list
    (tally ~tele:false faults topo (groups_of_list ~coalesce:false msgs)).loads

(* Coalesce messages sharing (src, dst): one start-up, summed bytes —
   the volume graph turned back into messages. *)
let coalesce_messages msgs =
  List.map
    (fun ((src, dst), bytes) -> Message.make ~src ~dst ~bytes)
    (Volgraph.of_messages msgs)

let pp_stats ppf s =
  Format.fprintf ppf
    "time %.2f (msgs %d, bytes %d, max link %d, max send %d, max recv %d, max hops %d%s)"
    s.time s.messages s.total_bytes s.max_link_load s.max_sender s.max_receiver
    s.max_hops
    (if s.unreachable > 0 then Printf.sprintf ", unreachable %d" s.unreachable
     else "")
