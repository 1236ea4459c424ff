(* Workload [serve]: open-loop load on a [resopt serve] process with the
   default configuration (jobs 1, max-queue 64, no deadline), started
   fresh for every load phase.  Requests come from Loadgen.mix; every
   ok body is compared with Answer.of_request, computed before timing
   starts. *)

module H = Harness
module O = Openloop
module Wire = Serve.Wire

let low_rate = 250.0
let high_rate = 1000.0

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; addr : Wire.addr }

let live : int list ref = ref []

let ping addr =
  match Serve.Client.connect addr with
  | Error _ -> false
  | Ok c ->
    let ok = Serve.Client.request c Wire.ping = Ok (Wire.Answer "pong") in
    Serve.Client.close c;
    ok

(* Spawn [exe serve] on a socket in the working directory and wait for
   its first pong. *)
let spawn exe =
  let sock = Printf.sprintf ".perfbench-%d.sock" (Unix.getpid ()) in
  let addr = Wire.Unix_sock sock in
  let t0 = H.now () in
  (* the server's output goes to stderr: stdout ends with the result *)
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; sock |] Unix.stdin Unix.stderr
      Unix.stderr
  in
  live := pid :: !live;
  let rec wait () =
    if ping addr then ()
    else if H.now () -. t0 > 30.0 then failwith "resopt serve did not answer within 30 s"
    else begin
      Unix.sleepf 0.001;
      wait ()
    end
  in
  wait ();
  { pid; addr }

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid : int * Unix.process_status);
  live := List.filter (( <> ) s.pid) !live

(* A run that dies half-way still takes its servers down with it. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid : int * Unix.process_status)
          with Unix.Unix_error _ -> ())
        !live)

(* The [stats] answer as key=value pairs. *)
let stats addr =
  match Serve.Client.connect addr with
  | Error e -> failwith e
  | Ok c ->
    let r = Serve.Client.request c Wire.stats in
    Serve.Client.close c;
    (match r with
    | Ok (Wire.Answer body) ->
      List.filter_map
        (fun line ->
          match String.index_opt line '=' with
          | Some i ->
            Option.map
              (fun v -> (String.sub line 0 i, v))
              (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)))
          | None -> None)
        (String.split_on_char '\n' body)
    | _ -> failwith "stats request failed")

let stat kvs k = Option.value ~default:0.0 (List.assoc_opt k kvs)

(* ------------------------------------------------------------------ *)
(* Requests and the oracle                                             *)
(* ------------------------------------------------------------------ *)

(* Answer.of_request over the stream with the server's response-memo
   semantics: a key's first request solves, a repeat is a lookup.
   Gives the expected body of every key and the solve time of every
   request, under a "solve" span. *)
let oracle requests =
  Cache.enable ();
  let expected = Hashtbl.create 1024 in
  let solve_ms =
    Array.map
      (fun req ->
        let key = Wire.solve_key req in
        let t0 = H.now () in
        H.Trace.span "solve" (fun () ->
            if not (Hashtbl.mem expected key) then
              Hashtbl.add expected key (Serve.Answer.of_request req));
        (H.now () -. t0) *. 1000.0)
      requests
  in
  Cache.disable ();
  (expected, solve_ms)

let distinct_share requests =
  let keys = Hashtbl.create 1024 in
  Array.iter (fun r -> Hashtbl.replace keys (Wire.solve_key r) ()) requests;
  float_of_int (Hashtbl.length keys) /. float_of_int (max 1 (Array.length requests))

(* ------------------------------------------------------------------ *)
(* One load phase                                                      *)
(* ------------------------------------------------------------------ *)

type phase = {
  samples : O.sample array;
  scaled_ms : float array;
      (** latency from due time of the answered requests, scaled to
          nominal host speed segment by segment *)
  factor : float;  (** mean host-speed scale of the segments *)
  server_setup_s : float;  (** scaled *)
  server_rss_mb : float;
  server : (string * float) list;  (** the stats answer at the end *)
}

(* Bring a fresh server to a steady state before it is timed: one
   client replays a warm-up stream, which fills the memo tables the way
   earlier traffic would.  Its answers are not counted. *)
let warm_up addr warm =
  match Serve.Client.connect addr with
  | Error e -> failwith e
  | Ok c ->
    Array.iter (fun r -> ignore (Serve.Client.request c r : (Wire.response, string) result)) warm;
    Serve.Client.close c

(* A fresh, warmed server, then [n] requests at [rate] per second from
   up to [clients] threads, each holding one connection at a time, in
   [segments] open-loop runs with a host-speed probe between them.
   Set-up runs from the spawn to the end of the warm-up. *)
let phase ?(segments = 1) ~exe ~clients ~expected ~warm requests ~rate ~n () =
  Gc.full_major ();
  let srv, _, setup_s =
    H.Speed.timed (fun () ->
        let srv = spawn exe in
        warm_up srv.addr warm;
        srv)
  in
  let conns = Array.make clients None in
  let conn w =
    match conns.(w) with
    | Some c -> Ok c
    | None ->
      Result.map
        (fun c ->
          conns.(w) <- Some c;
          c)
        (Serve.Client.connect srv.addr)
  in
  let send ~worker i =
    let req = requests.(i mod Array.length requests) in
    match conn worker with
    | Error _ -> O.Errored
    | Ok c -> (
      match Serve.Client.request c req with
      | Ok (Wire.Answer body) -> (
        match Hashtbl.find_opt expected (Wire.solve_key req) with
        | Some (Ok want) when want = body -> O.Answered
        | _ -> O.Mismatched)
      | Ok (Wire.Shed _) -> O.Shed
      | Ok (Wire.Timeout _) -> O.Timed_out
      | Ok (Wire.Failed _) -> O.Errored
      | Error _ ->
        Serve.Client.close c;
        conns.(worker) <- None;
        O.Errored)
  in
  let runs =
    List.init segments (fun k ->
        let first = k * n / segments and last = (k + 1) * n / segments in
        let samples, dt, scaled =
          H.Speed.timed (fun () ->
              O.run ~clients ~rate ~n:(last - first) (fun ~worker i -> send ~worker (first + i)))
        in
        (samples, scaled /. dt))
  in
  Array.iter (Option.iter Serve.Client.close) conns;
  let server = stats srv.addr in
  let server_rss_mb = H.peak_rss_mb (string_of_int srv.pid) in
  stop srv;
  {
    samples = Array.concat (List.map fst runs);
    scaled_ms =
      Array.concat (List.map (fun (s, f) -> Array.map (fun l -> l *. f) (O.latencies_ms s)) runs);
    factor = List.fold_left (fun a (_, f) -> a +. f) 0.0 runs /. float_of_int segments;
    server_setup_s = setup_s;
    server_rss_mb;
    server;
  }

(* The plans the phase served, one per distinct (workload, m), priced
   on the three models like a sweep row. *)
let plan_values requests =
  let pairs =
    Array.to_list requests
    |> List.map (fun r -> (r.Wire.workload, r.Wire.m))
    |> List.sort_uniq compare
  in
  let opt, base =
    List.fold_left
      (fun (o, b) (name, m) ->
        let w = Resopt.Workloads.find name in
        let schedule = w.Resopt.Workloads.schedule and nest = w.Resopt.Workloads.nest in
        let p = Resopt.Pipeline.run ~m ~schedule nest in
        let f = Resopt.Feautrier.run ~m ~schedule nest in
        List.fold_left
          (fun (o, b) model ->
            let price plan = (Resopt.Cost.of_plan model plan).Resopt.Cost.total in
            (o +. price p.Resopt.Pipeline.plan, b +. price f.Resopt.Feautrier.plan))
          (o, b) (Sweep_wl.models ()))
      (0.0, 0.0) pairs
  in
  [ ("plan.comm_time", opt); ("plan.gain", base /. opt) ]

let outcome_counts phases =
  let all = List.concat_map (fun p -> Array.to_list p.samples) phases in
  let a = Array.of_list all in
  (Array.length a, O.failures a)

let warm_requests = 300

(* The timed stream and a disjoint warm-up stream, both from the seed. *)
let mix ~seed ~n =
  ( Array.of_list (Serve.Loadgen.mix ~seed ~n ()),
    Array.of_list (Serve.Loadgen.mix ~seed:(seed lxor 0x5eed) ~n:warm_requests ()) )

(* The end-to-end figures come from one closed-loop caller replaying
   the stream, each replay on a fresh warmed server.  On two cores a
   second client thread competes with the server for the CPU and adds
   no throughput; and at 250/s the median is mostly the wake-up of idle
   cores and the tail a few cold solves, both of which drifted by more
   than 0.18 between runs on the shared host, against about 0.06 under
   back-to-back load.  The open-loop figures are per-layer. *)
let stream_length = 5000
let min_replays = 3

(* Completions are cut into chunks of [capacity_chunk]; throughput is
   the median chunk rate, so a stall in one stretch does not set it. *)
let capacity_chunk = 500

(* The open-loop phase is cut into this many segments, with a
   host-speed probe between them. *)
let low_segments = 10

let replay ~exe ~expected ~warm requests =
  let p =
    phase ~exe ~clients:1 ~expected ~warm requests ~rate:Float.infinity
      ~n:(Array.length requests) ()
  in
  let done_at = Array.map (fun s -> s.O.finished) p.samples in
  Array.sort compare done_at;
  let rates =
    List.init
      ((Array.length done_at - 1) / capacity_chunk)
      (fun j ->
        let dt = done_at.((j + 1) * capacity_chunk) -. done_at.(j * capacity_chunk) in
        float_of_int capacity_chunk /. (dt *. p.factor))
  in
  let lat_ms = Array.map (fun s -> (s.O.finished -. s.O.sent) *. 1000.0 *. p.factor) p.samples in
  (p, rates, lat_ms)

let end_to_end ~exe ~seconds ~seed =
  let clients = H.nproc () in
  let requests, warm = mix ~seed ~n:stream_length in
  let expected, _ = oracle requests in
  (* half the time open loop at 250/s, checked and printed; the other
     half replaying until at least [min_replays] are done *)
  let low =
    phase ~segments:low_segments ~exe ~clients ~expected ~warm requests ~rate:low_rate
      ~n:(int_of_float (low_rate *. seconds /. 2.0)) ()
  in
  let t_end = H.now () +. (seconds /. 2.0) in
  let rec replays acc =
    if List.length acc >= min_replays && H.now () >= t_end then List.rev acc
    else replays (replay ~exe ~expected ~warm requests :: acc)
  in
  let reps = replays [] in
  let phases = low :: List.map (fun (p, _, _) -> p) reps in
  let attempted, failed = outcome_counts phases in
  let lat = Array.concat (List.map (fun (_, _, l) -> l) reps) in
  let tail = H.tail lat in
  let low_tail = H.tail low.scaled_ms in
  Printf.printf
    "serve: %d requests, %.1f%% of the stream repeat a key; %d replays, tail_ms is p%g of %d; \
     at %g/s from due time: p50 %.3f ms, p%g %.3f ms of %d\n"
    attempted
    (100.0 *. (1.0 -. distinct_share requests))
    (List.length reps) tail.H.pct tail.H.n low_rate
    (H.percentile low.scaled_ms 50.0) low_tail.H.pct low_tail.H.value low_tail.H.n;
  {
    H.correct = failed = 0;
    attempted;
    failed;
    values =
      [ ("setup_s", H.median (List.map (fun p -> p.server_setup_s) phases));
        ("ok_frac", float_of_int (attempted - failed) /. float_of_int attempted);
        ("peak_rss_mb", H.median (List.map (fun p -> p.server_rss_mb) phases));
        ("throughput", H.median (List.concat_map (fun (_, r, _) -> r) reps));
        ("p50_ms", H.percentile lat 50.0);
        ("tail_ms", tail.H.value) ]
      @ plan_values requests;
  }

(* Traced run: the two fixed-rate phases only.  The oracle runs twice
   from a cleared cache, untraced then traced, for the tracing
   overhead; its per-request solve times are the solve layer. *)
let per_layer ~exe ~seconds ~seed =
  let clients = H.nproc () in
  let requests, warm = mix ~seed ~n:(int_of_float (high_rate *. seconds /. 4.0)) in
  Cache.clear ();
  let _, untraced_s = H.time (fun () -> oracle requests) in
  Cache.clear ();
  H.Trace.reset ();
  H.Trace.on := true;
  let (expected, solve_ms), traced_s = H.time (fun () -> oracle requests) in
  H.Trace.on := false;
  let run rate seconds =
    phase ~exe ~clients ~expected ~warm requests ~rate ~n:(int_of_float (rate *. seconds)) ()
  in
  let low = run low_rate (seconds /. 4.0) in
  let high, gc = H.gc_delta (fun () -> run high_rate (seconds /. 4.0)) in
  let attempted, failed = outcome_counts [ low; high ] in
  let n = Array.length high.samples in
  let solve = Array.sub solve_ms 0 n in
  let client_ms =
    Array.map (fun s -> (s.O.finished -. s.O.sent) *. 1000.0) high.samples
  in
  let srv = high.server in
  let server_p50 = stat srv "latency_ms_p50" in
  let hits = stat srv "cache_hits" and misses = stat srv "cache_misses" in
  let e2e_ms = Array.fold_left ( +. ) 0.0 (O.latencies_ms high.samples) in
  {
    H.correct = failed = 0;
    attempted;
    failed;
    values =
      [ ("serve.p50_ms.r250", H.percentile (O.latencies_ms low.samples) 50.0);
        ("serve.p99_ms.r250", (H.tail (O.latencies_ms low.samples)).H.value);
        ("serve.p50_ms.r1000", H.percentile (O.latencies_ms high.samples) 50.0);
        ("serve.p99_ms.r1000", (H.tail (O.latencies_ms high.samples)).H.value);
        ("serve.solve_ms.p50", H.percentile solve 50.0);
        ("serve.solve_ms.p99", (H.tail solve).H.value);
        ("serve.server_ms.p50", server_p50);
        ("serve.server_ms.p99", stat srv "latency_ms_p99");
        ("serve.transport_ms.p50", H.percentile client_ms 50.0 -. server_p50);
        ("serve.queue_ms.p50", server_p50 -. H.percentile solve 50.0);
        ("serve.gen_lag_ms.p99", (H.tail (O.lags_ms high.samples)).H.value);
        ("serve.coalesced", stat srv "coalesced");
        ("serve.shed", stat srv "shed");
        ("serve.timeout", stat srv "timeout");
        ("cache.hit_ratio", hits /. Float.max 1.0 (hits +. misses));
        ("cache.entries", stat srv "cache_entries");
        ("trace.coverage", Array.fold_left ( +. ) 0.0 solve /. e2e_ms);
        ("trace.overhead", (traced_s /. untraced_s) -. 1.0) ]
      @ H.gc_values gc;
  }
