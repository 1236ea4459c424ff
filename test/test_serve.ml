(* The serve tower, bottom-up: framing (property-tested — malformed
   bytes must come back as structured errors, never exceptions), the
   wire encoding, the shared backoff math, the crash-safe cache
   persistence, and finally an in-process server exercised end-to-end
   over real sockets: ok path byte-identical to the offline renderer,
   deadline -> timeout, full queue -> shed, coalesced concurrent
   clients, graceful drain, and a snapshot/restart answering warm. *)

open Serve

(* ------------------------------------------------------------------ *)
(* Frame                                                               *)
(* ------------------------------------------------------------------ *)

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"decode (encode s ^ rest) = Ok (s, rest)" ~count:200
    QCheck.(pair string string)
    (fun (s, rest) ->
      match Frame.decode (Frame.encode s ^ rest) with
      | Ok (s', rest') -> s' = s && rest' = rest
      | Error _ -> false)

let prop_frame_garbage_never_raises =
  QCheck.Test.make ~name:"decode never raises on garbage" ~count:500
    QCheck.string (fun junk ->
      match Frame.decode junk with Ok _ | Error _ -> true)

let test_frame_truncated_header () =
  match Frame.decode "ab" with
  | Error (Frame.Truncated { wanted = 4; got = 2 }) -> ()
  | _ -> Alcotest.fail "expected Truncated {wanted=4; got=2}"

let test_frame_truncated_payload () =
  let framed = Frame.encode "hello world" in
  let cut = String.sub framed 0 (String.length framed - 3) in
  match Frame.decode cut with
  | Error (Frame.Truncated { wanted; got }) ->
    Alcotest.(check int) "wanted" (String.length framed) wanted;
    Alcotest.(check int) "got" (String.length cut) got
  | _ -> Alcotest.fail "expected Truncated"

let test_frame_oversized () =
  (* a length header of 0xFFFFFFFF — what random garbage usually
     claims — must be refused as Oversized, not attempted *)
  match Frame.decode "\xff\xff\xff\xffjunk" with
  | Error (Frame.Oversized { length; limit }) ->
    Alcotest.(check bool) "length > limit" true (length > limit);
    Alcotest.(check int) "limit" Frame.max_payload limit
  | _ -> Alcotest.fail "expected Oversized"

let test_frame_encode_rejects_oversized () =
  Alcotest.check_raises "encode beyond max_payload"
    (Invalid_argument
       (Printf.sprintf "Frame.encode: payload %d > max %d"
          (Frame.max_payload + 1) Frame.max_payload))
    (fun () -> ignore (Frame.encode (String.make (Frame.max_payload + 1) 'x')))

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)
(* ------------------------------------------------------------------ *)

let sample_requests =
  [
    Wire.ping;
    Wire.stats;
    Wire.run "example1";
    Wire.run ~m:3 "matmul";
    Wire.run ~m:1 ~faults:"flaky:0.05" ~fseed:42 "example1";
    Wire.run ~map:"greedy" ~mseed:7 "gauss";
    Wire.run ~m:2 ~faults:"flaky:0.1;down:3-4" ~fseed:1 ~map:"search" ~mseed:3
      ~deadline_ms:250 "example5";
    Wire.run ~deadline_ms:0 "lu";
  ]

let test_wire_request_roundtrip () =
  List.iter
    (fun r ->
      match Wire.decode_request (Wire.encode_request r) with
      | Ok r' ->
        Alcotest.(check bool) "request round-trips" true (r = r')
      | Error e -> Alcotest.fail ("decode failed: " ^ e))
    sample_requests

let test_wire_solve_key_ignores_deadline () =
  let a = Wire.run ~m:2 ~deadline_ms:5 "example1" in
  let b = Wire.run ~m:2 ~deadline_ms:5000 "example1" in
  let c = Wire.run ~m:2 "example1" in
  Alcotest.(check string) "same key across deadlines" (Wire.solve_key a)
    (Wire.solve_key b);
  Alcotest.(check string) "same key without deadline" (Wire.solve_key a)
    (Wire.solve_key c);
  Alcotest.(check bool) "different m, different key" true
    (Wire.solve_key a <> Wire.solve_key (Wire.run ~m:3 "example1"))

let test_wire_request_rejects () =
  let bad s =
    match Wire.decode_request s with
    | Ok _ -> Alcotest.fail ("accepted: " ^ s)
    | Error _ -> ()
  in
  bad "";
  bad "not a request";
  bad "resopt-serve/2\nop=run\nworkload=x\n";
  bad "resopt-serve/1\nop=launch\n";
  bad "resopt-serve/1\nop=run\nm=2\n" (* run without workload *);
  bad "resopt-serve/1\nop=run\nworkload=x\nm=wat\n";
  bad "resopt-serve/1\nop=run\nworkload=x\nfrobnicate=1\n"

(* a grid needs at least one dimension: m < 1 is a decode error naming
   m, not a solver exception *)
let test_wire_rejects_m_below_one () =
  List.iter
    (fun m ->
      match Wire.decode_request (Wire.encode_request (Wire.run ~m "example1")) with
      | Ok _ -> Alcotest.failf "accepted m=%d" m
      | Error e -> Alcotest.(check string) "names m" (Printf.sprintf "m must be >= 1: %d" m) e)
    [ 0; -1 ];
  match Wire.decode_request (Wire.encode_request (Wire.run ~m:1 "example1")) with
  | Ok r -> Alcotest.(check int) "m=1 accepted" 1 r.Wire.m
  | Error e -> Alcotest.fail e

let test_wire_response_roundtrip () =
  List.iter
    (fun r ->
      match Wire.decode_response (Wire.encode_response r) with
      | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
      | Error e -> Alcotest.fail ("decode failed: " ^ e))
    [
      Wire.Answer "multi\nline\nbody\n";
      Wire.Answer "";
      Wire.Shed "queue full (64 pending)";
      Wire.Timeout "deadline 250ms expired";
      Wire.Failed "unknown workload nope";
    ];
  match Wire.decode_response "weird\nbody" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown status"

(* ------------------------------------------------------------------ *)
(* Backoff (shared with Fault's retransmission protocol)               *)
(* ------------------------------------------------------------------ *)

let test_backoff_matches_fault () =
  (* the client retry delays and the simulator's retransmission waits
     are the same function; pin them to each other *)
  let f = Machine.Fault.make ~ack_timeout:100 ~backoff_cap:500 [] in
  for attempt = 1 to 20 do
    Alcotest.(check int)
      (Printf.sprintf "attempt %d" attempt)
      (Machine.Fault.backoff f ~attempt)
      (Machine.Backoff.exp_delay ~base:100 ~cap:500 ~attempt)
  done

let test_backoff_jitter_bounds () =
  let b = Machine.Backoff.make ~jitter:0.5 ~seed:9 ~base:50 ~cap:1000 () in
  for attempt = 1 to 12 do
    let full = Machine.Backoff.exp_delay ~base:50 ~cap:1000 ~attempt in
    let d = Machine.Backoff.delay b ~attempt in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d in [half, full]" attempt)
      true
      (d >= full / 2 && d <= full);
    Alcotest.(check int) "deterministic" d (Machine.Backoff.delay b ~attempt)
  done

let test_backoff_no_jitter_is_exp () =
  let b = Machine.Backoff.make ~base:128 ~cap:4096 () in
  List.iter
    (fun (attempt, want) ->
      Alcotest.(check int)
        (Printf.sprintf "attempt %d" attempt)
        want
        (Machine.Backoff.delay b ~attempt))
    [ (1, 128); (2, 256); (3, 512); (6, 4096); (50, 4096) ]

let test_backoff_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "base 0" true
    (bad (fun () -> Machine.Backoff.make ~base:0 ~cap:10 ()));
  Alcotest.(check bool) "cap < base" true
    (bad (fun () -> Machine.Backoff.make ~base:10 ~cap:5 ()));
  Alcotest.(check bool) "jitter > 1" true
    (bad (fun () -> Machine.Backoff.make ~jitter:1.5 ~base:1 ~cap:2 ()))

let prop_hash_unit_in_range =
  QCheck.Test.make ~name:"hash_unit in [0, 1)" ~count:500
    QCheck.(pair small_int (small_list small_int))
    (fun (seed, ks) ->
      let u = Machine.Backoff.hash_unit ~seed ks in
      u >= 0.0 && u < 1.0)

(* ------------------------------------------------------------------ *)
(* Cache: atomic save, visible corrupt loads                           *)
(* ------------------------------------------------------------------ *)

let save_table : string Cache.Memo.t =
  Cache.Memo.create ~name:"test_serve.save" ~schema:"v1" ()

let test_cache_save_atomic () =
  let file = Filename.temp_file "serve_cache" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Cache.scoped ~enable:true (fun () ->
          ignore (Cache.Memo.find_or_compute save_table ~key:"k" (fun () -> "v"));
          Cache.save file;
          (* the temp staging file must be gone: only the complete,
             renamed-into-place file remains *)
          Alcotest.(check bool) "no .tmp left" false
            (Sys.file_exists (file ^ ".tmp"));
          Alcotest.(check bool) "file exists" true (Sys.file_exists file);
          Alcotest.(check bool) "loads back" true (Cache.load file)))

let test_cache_corrupt_load_counted () =
  let file = Filename.temp_file "serve_corrupt" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove file with Sys_error _ -> ());
      Obs.reset ();
      Obs.disable ())
    (fun () ->
      Obs.enable ();
      Obs.reset ();
      let oc = open_out_bin file in
      output_string oc "RESOPTCACHE1\ndeadbeefdeadbeef\ngarbage payload";
      close_out oc;
      Alcotest.(check bool) "corrupt load returns false" false (Cache.load file);
      Alcotest.(check int) "corrupt load counted" 1
        (Obs.counter "cache.load_corrupt");
      (* a merely missing file is a normal cold start, not corruption *)
      Alcotest.(check bool) "missing load returns false" false
        (Cache.load (file ^ ".nope"));
      Alcotest.(check int) "missing load not counted" 1
        (Obs.counter "cache.load_corrupt"))

(* ------------------------------------------------------------------ *)
(* Server end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

let local_server ?(jobs = 1) ?(max_queue = 64) ?(deadline_ms = 0) ?cache_file ()
    =
  let cfg =
    {
      (Server.default_config (Wire.Tcp ("127.0.0.1", 0))) with
      Server.jobs;
      max_queue;
      deadline_ms;
      snapshot_every = 1;
      cache_file;
    }
  in
  Server.start cfg

let with_server ?jobs ?max_queue ?deadline_ms ?cache_file f =
  let t = local_server ?jobs ?max_queue ?deadline_ms ?cache_file () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t)
    (fun () -> f t)

let must_connect t =
  match Client.connect (Server.address t) with
  | Ok c -> c
  | Error e -> Alcotest.fail ("connect: " ^ e)

let must_request c req =
  match Client.request c req with
  | Ok r -> r
  | Error e -> Alcotest.fail ("request: " ^ e)

let test_server_ok_bytes () =
  (* oracle computed before the server exists: afterwards the solver
     thread owns the ambient Cache/Obs state *)
  let req = Wire.run ~m:2 ~faults:"flaky:0.05" ~fseed:42 "example1" in
  let expected =
    match Answer.of_request req with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match must_request c req with
  | Wire.Answer body ->
    Alcotest.(check string) "served bytes = offline CLI bytes" expected body
  | r -> Alcotest.fail ("expected Answer, got " ^ Wire.status r));
  match must_request c Wire.ping with
  | Wire.Answer "pong" -> ()
  | _ -> Alcotest.fail "expected pong"

let test_server_repeat_and_stats () =
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let req = Wire.run ~m:1 "matmul" in
  let a = must_request c req in
  let b = must_request c req in
  Alcotest.(check bool) "repeat serves identical bytes" true (a = b);
  match must_request c Wire.stats with
  | Wire.Answer body ->
    let has needle =
      Alcotest.(check bool) ("stats mention " ^ needle) true
        (let re = Str.regexp_string needle in
         try ignore (Str.search_forward re body 0); true
         with Not_found -> false)
    in
    has "requests=";
    has "ok=";
    has "cache_hits=";
    (* two solves went through, so the latency histogram has samples
       and the bounds pipeline ran for (matmul, 1) *)
    has "latency_ms_p50=";
    has "latency_ms_p95=";
    has "latency_ms_p99=";
    has "bounds_computed=";
    has "bounds_eff_last="
  | r -> Alcotest.fail ("expected stats Answer, got " ^ Wire.status r)

(* A normal request stream bounds every solved (workload, m) pair
   without a single failure, and the stats answer says so. *)
let test_server_bounds_failed_zero () =
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter
    (fun (name, m) ->
      match must_request c (Wire.run ~m name) with
      | Wire.Answer _ -> ()
      | r -> Alcotest.fail ("expected Answer, got " ^ Wire.status r))
    [ ("example1", 2); ("transpose", 2); ("matmul", 1); ("example1", 3) ];
  match must_request c Wire.stats with
  | Wire.Answer body ->
    Alcotest.(check bool) "stats report bounds_failed=0" true
      (List.mem "bounds_failed=0" (String.split_on_char '\n' body))
  | r -> Alcotest.fail ("expected stats Answer, got " ^ Wire.status r)

let test_server_deadline_timeout () =
  (* deadline 0 expires immediately — but if the scheduler runs the
     solver to completion before this thread even reaches its wait, the
     server rightly hands over the finished answer instead.  So: fresh
     solve keys (the memo can never answer instantly), every outcome
     must be a named Timeout or the correct bytes, and across attempts
     at least one must actually time out. *)
  let reqs =
    List.init 5 (fun i -> Wire.run ~m:3 ~map:"search" ~mseed:i ~deadline_ms:0 "lu")
  in
  let expected =
    List.map
      (fun r ->
        match Answer.of_request { r with Wire.deadline_ms = None } with
        | Ok s -> s
        | Error e -> Alcotest.fail e)
      reqs
  in
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let timeouts = ref 0 in
  List.iter2
    (fun req want ->
      match must_request c req with
      | Wire.Timeout msg ->
        incr timeouts;
        Alcotest.(check string) "timeout names the deadline"
          "deadline 0ms expired" msg
      | Wire.Answer got ->
        (* the solve outran us — fine, but only with the right bytes *)
        Alcotest.(check string) "raced answer still correct" want got
      | r -> Alcotest.fail ("expected Timeout or Answer, got " ^ Wire.status r))
    reqs expected;
  Alcotest.(check bool) "at least one attempt timed out" true (!timeouts > 0)

let test_server_sheds_when_full () =
  with_server ~max_queue:0 @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match must_request c (Wire.run "example1") with
  | Wire.Shed _ -> ()
  | r -> Alcotest.fail ("expected Shed, got " ^ Wire.status r)

let test_server_malformed_frame () =
  with_server @@ fun t ->
  let port =
    match Server.address t with Wire.Tcp (_, p) -> p | _ -> assert false
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* a frame header claiming 4 GiB: the server must answer with a
     structured error, not die or hang *)
  let garbage = Bytes.of_string "\xff\xff\xff\xff\x00\x00" in
  ignore (Unix.write fd garbage 0 (Bytes.length garbage));
  match Frame.read_fd fd with
  | Ok payload -> (
    match Wire.decode_response payload with
    | Ok (Wire.Failed msg) ->
      Alcotest.(check bool) "names oversize" true
        (String.length msg > 0
        && Str.string_match (Str.regexp ".*oversized.*") msg 0)
    | _ -> Alcotest.fail "expected a Failed response")
  | Error _ -> Alcotest.fail "expected a framed error response"

let test_server_unknown_workload () =
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match must_request c (Wire.run "no_such_workload") with
  | Wire.Failed msg ->
    Alcotest.(check bool) "names the workload" true
      (Str.string_match (Str.regexp ".*no_such_workload.*") msg 0)
  | r -> Alcotest.fail ("expected Failed, got " ^ Wire.status r)

let test_server_concurrent_clients () =
  let reqs =
    [ Wire.run ~m:1 "example1"; Wire.run ~m:2 "gauss"; Wire.run ~m:1 "example1" ]
  in
  let expected =
    List.map
      (fun r ->
        match Answer.of_request r with Ok s -> s | Error e -> Alcotest.fail e)
      reqs
  in
  with_server ~jobs:2 @@ fun t ->
  let addr = Server.address t in
  let results = Array.make (List.length reqs) None in
  let ths =
    List.mapi
      (fun i req ->
        Thread.create
          (fun () -> results.(i) <- Some (Client.call ~attempts:3 addr req))
          ())
      reqs
  in
  List.iter Thread.join ths;
  List.iteri
    (fun i want ->
      match results.(i) with
      | Some (Ok (Wire.Answer got)) ->
        Alcotest.(check string)
          (Printf.sprintf "client %d bytes" i)
          want got
      | Some (Ok r) -> Alcotest.fail ("client got " ^ Wire.status r)
      | Some (Error e) -> Alcotest.fail e
      | None -> Alcotest.fail "client never finished")
    expected

let test_server_rejects_m0 () =
  with_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match must_request c (Wire.run ~m:0 "example1") with
  | Wire.Failed msg -> Alcotest.(check string) "structured error" "m must be >= 1: 0" msg
  | r -> Alcotest.fail ("expected Failed, got " ^ Wire.status r)

let test_server_drain_refuses_new_work () =
  let t = local_server () in
  let addr = Server.address t in
  (* a request before the drain works *)
  (match Client.call ~attempts:1 addr (Wire.run ~m:1 "example2") with
  | Ok (Wire.Answer _) -> ()
  | _ -> Alcotest.fail "pre-drain request failed");
  Server.stop t;
  Server.wait t;
  (* fully drained: the socket is gone *)
  match Client.connect addr with
  | Error _ -> ()
  | Ok c ->
    (* the listener may linger closed-but-bound on some stacks; any
       admitted request must still be refused as shedding *)
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    (match Client.request c (Wire.run "example1") with
    | Ok (Wire.Shed _) | Error _ -> ()
    | Ok r -> Alcotest.fail ("expected refusal, got " ^ Wire.status r))

let test_server_snapshot_restart_warm () =
  let file = Filename.temp_file "serve_snap" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let req = Wire.run ~m:1 "gauss" in
      let answer_of t =
        match Client.call ~attempts:3 (Server.address t) req with
        | Ok (Wire.Answer s) -> s
        | Ok r -> Alcotest.fail ("expected Answer, got " ^ Wire.status r)
        | Error e -> Alcotest.fail e
      in
      let a = with_server ~cache_file:file answer_of in
      (* simulate the restart: drop every in-memory shard, then start a
         fresh server on the snapshot file *)
      Cache.clear ();
      Alcotest.(check int) "cleared" 0 (Cache.stats ()).Cache.entries;
      let entries_after_load, b =
        with_server ~cache_file:file (fun t ->
            ((Cache.stats ()).Cache.entries, answer_of t))
      in
      Alcotest.(check bool) "snapshot repopulated the tables" true
        (entries_after_load > 0);
      Alcotest.(check string) "warm restart serves identical bytes" a b)

(* The stats answer as (key, integer value) pairs. *)
let stats_ints c =
  match must_request c Wire.stats with
  | Wire.Answer body ->
    List.filter_map
      (fun line ->
        match String.split_on_char '=' line with
        | [ k; v ] -> Option.map (fun n -> (k, n)) (int_of_string_opt v)
        | _ -> None)
      (String.split_on_char '\n' body)
  | r -> Alcotest.fail ("expected stats Answer, got " ^ Wire.status r)

let stat kvs k =
  match List.assoc_opt k kvs with
  | Some v -> v
  | None -> Alcotest.fail ("stats lack " ^ k)

(* A fresh server whose metrics start from zero: Obs is reset while no
   server runs, and the memo tables are emptied. *)
let with_fresh_server ?jobs ?cache_file f =
  Cache.clear ();
  Obs.reset ();
  with_server ?jobs ?cache_file f

(* Repeats of one key are answered on the connection thread, yet the
   stats answer counts every one of them: its own request included,
   K + 1 requests, K ok, at least K - 1 response-memo hits and the
   pair bounded.  Each answer leaves one latency sample, and the stats
   answer one more after it renders. *)
let test_server_inline_repeats_counted () =
  let k = 8 in
  let req = Wire.run ~m:2 ~faults:"flaky:0.02" ~fseed:5 "transpose" in
  let kvs =
    with_fresh_server @@ fun t ->
    let c = must_connect t in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let first = must_request c req in
    for _ = 2 to k do
      Alcotest.(check bool) "repeat bytes" true (must_request c req = first)
    done;
    stats_ints c
  in
  Alcotest.(check int) "requests" (k + 1) (stat kvs "requests");
  Alcotest.(check int) "ok" k (stat kvs "ok");
  Alcotest.(check bool) "cache_hits >= K - 1" true (stat kvs "cache_hits" >= k - 1);
  Alcotest.(check int) "bounds_computed" 1 (stat kvs "bounds_computed");
  Alcotest.(check int) "conn_failed" 0 (stat kvs "conn_failed");
  match Obs.histogram "serve.latency_ms" with
  | Some h -> Alcotest.(check int) "latency samples" (k + 1) h.Obs.count
  | None -> Alcotest.fail "no serve.latency_ms samples"

(* After a snapshot and a restart, a stream the loaded memo answers
   entirely inline still bounds each of its (workload, m) pairs. *)
let test_server_restart_inline_bounds () =
  let file = Filename.temp_file "serve_bounds" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  let reqs =
    [ Wire.run ~m:2 "example1"; Wire.run ~m:1 "matmul"; Wire.run ~m:2 "example1" ]
  in
  let stream t =
    let c = must_connect t in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    List.iter
      (fun r ->
        match must_request c r with
        | Wire.Answer _ -> ()
        | r -> Alcotest.fail ("expected Answer, got " ^ Wire.status r))
      reqs;
    stats_ints c
  in
  ignore (with_fresh_server ~cache_file:file stream : (string * int) list);
  let kvs = with_fresh_server ~cache_file:file stream in
  Alcotest.(check int) "warm: no misses" 0 (stat kvs "cache_misses");
  Alcotest.(check int) "warm: every run ok" 3 (stat kvs "ok");
  Alcotest.(check int) "both pairs bounded" 2 (stat kvs "bounds_computed");
  Alcotest.(check int) "no bound failed" 0 (stat kvs "bounds_failed")

(* Clients racing over one server, each replaying a mix with repeats
   and misses: every body equals the offline answer, whichever thread
   answered it, and no connection fails. *)
let test_server_concurrent_mixed () =
  let streams = List.init 3 (fun i -> Loadgen.mix ~seed:(90 + (i mod 2)) ~n:30 ()) in
  let expected = List.map (List.map (fun r -> Answer.of_request r)) streams in
  with_fresh_server ~jobs:2 @@ fun t ->
  let addr = Server.address t in
  let got = Array.make (List.length streams) [] in
  let ths =
    List.mapi
      (fun i reqs ->
        Thread.create
          (fun () ->
            match Client.connect addr with
            | Error e -> got.(i) <- [ Error e ]
            | Ok c ->
              got.(i) <- List.map (fun r -> Client.request c r) reqs;
              Client.close c)
          ())
      streams
  in
  List.iter Thread.join ths;
  List.iteri
    (fun i want ->
      Alcotest.(check int) (Printf.sprintf "client %d answers" i) (List.length want)
        (List.length got.(i));
      List.iter2
        (fun want got ->
          match (want, got) with
          | Ok w, Ok (Wire.Answer g) -> Alcotest.(check string) "body" w g
          | Error w, Ok (Wire.Failed g) -> Alcotest.(check string) "error" w g
          | _, Ok r -> Alcotest.fail ("unexpected " ^ Wire.status r)
          | _, Error e -> Alcotest.fail e)
        want got.(i))
    expected;
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let kvs = stats_ints c in
  Alcotest.(check int) "conn_failed" 0 (stat kvs "conn_failed");
  (* a coalesced request shares its leader's ok *)
  Alcotest.(check int) "ok + coalesced = every run" 90
    (stat kvs "ok" + stat kvs "coalesced")

let body r = match Answer.of_request r with Ok s -> s | Error e -> Alcotest.fail e

(* Two requests that differ only in the fault seed share a template
   but not a body: sent at once, each gets its own seed back. *)
let test_server_fault_seeds_apart () =
  let reqs =
    List.init 10 (fun fseed ->
        Wire.run ~m:2 ~faults:"flaky:0.05" ~fseed ~map:"greedy" ~mseed:fseed "gauss")
  in
  let expected = List.map body reqs in
  with_fresh_server ~jobs:2 @@ fun t ->
  let addr = Server.address t in
  let results = Array.make (List.length reqs) None in
  let ths =
    List.mapi
      (fun i req ->
        Thread.create (fun () -> results.(i) <- Some (Client.call ~attempts:3 addr req)) ())
      reqs
  in
  List.iter Thread.join ths;
  List.iteri
    (fun i want ->
      match results.(i) with
      | Some (Ok (Wire.Answer got)) ->
        Alcotest.(check string) (Printf.sprintf "fseed %d body" i) want got;
        Alcotest.(check bool)
          (Printf.sprintf "fseed %d named" i)
          true
          (match
             Str.search_forward (Str.regexp_string (Printf.sprintf "(seed %d):" i)) got 0
           with
          | _ -> true
          | exception Not_found -> false)
      | Some (Ok r) -> Alcotest.fail ("client got " ^ Wire.status r)
      | Some (Error e) -> Alcotest.fail e
      | None -> Alcotest.fail "client never finished")
    expected

(* Once a stream has warmed the server, the same stream with other
   fault seeds and other greedy map seeds reads only templates that
   are already there: no table misses, every body its own. *)
let test_server_reseeded_stream_warm () =
  let warm = Loadgen.mix ~seed:23 ~n:40 () in
  let reseeded =
    List.mapi
      (fun i (r : Wire.request) ->
        { r with Wire.fseed = r.Wire.fseed + 100 + i; mseed = r.Wire.mseed + 7 + i })
      warm
  in
  let expected = List.map body reseeded in
  with_fresh_server @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter (fun r -> ignore (must_request c r : Wire.response)) warm;
  let before = stats_ints c in
  List.iter2
    (fun r want ->
      match must_request c r with
      | Wire.Answer got -> Alcotest.(check string) "reseeded body" want got
      | r -> Alcotest.fail ("expected Answer, got " ^ Wire.status r))
    reseeded expected;
  let after = stats_ints c in
  Alcotest.(check int) "no new cache_misses" (stat before "cache_misses")
    (stat after "cache_misses");
  Alcotest.(check int) "every reseeded run ok"
    (stat before "ok" + List.length reseeded + 1)
    (stat after "ok")

(* the cache file layout, written by hand: a magic line, the FNV-1a of
   the payload, then the marshalled section list *)
type fake_section = { p_name : string; p_schema : string; p_pairs : (string * string) list }

let write_cache_file file sections =
  let payload = Marshal.to_string (sections : fake_section list) [] in
  let h = ref 0xbf29ce484222325 in
  String.iter
    (fun ch ->
      h := !h lxor Char.code ch;
      h := !h * 0x100000001b3)
    payload;
  Out_channel.with_open_bin file (fun oc ->
      Printf.fprintf oc "RESOPTCACHE1\n%016x\n" (!h land max_int);
      output_string oc payload)

(* A snapshot from before templates holds whole bodies under schema
   resopt-serve/1: it loads cold, is not counted as corrupt, and never
   answers as a template. *)
let test_server_v1_snapshot_loads_cold () =
  let file = Filename.temp_file "serve_v1" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
  @@ fun () ->
  let req = Wire.run ~m:2 ~faults:"flaky:0.05" ~fseed:3 "example1" in
  let want = body req in
  write_cache_file file
    [
      {
        p_name = "serve.responses";
        p_schema = "resopt-serve/1";
        p_pairs = [ (Wire.solve_key req, Marshal.to_string "poison" []) ];
      };
    ];
  with_fresh_server ~cache_file:file @@ fun t ->
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let loaded = stats_ints c in
  Alcotest.(check int) "nothing loaded" 0 (stat loaded "cache_entries");
  Alcotest.(check int) "not corrupt" 0 (stat loaded "cache_load_corrupt");
  match must_request c req with
  | Wire.Answer got -> Alcotest.(check string) "solved afresh" want got
  | r -> Alcotest.fail ("expected Answer, got " ^ Wire.status r)

(* What the stats counters count, over concurrent streams of repeats,
   misses, errors and stats requests: each answered request lands in
   exactly one of ok, coalesced, errors, shed and timeout, and
   [requests] counts them all plus the stats request asking. *)
let test_server_stats_counters_add_up () =
  let stream i =
    List.mapi
      (fun j r ->
        if j mod 8 = 7 then Wire.stats
        else if j mod 11 = 5 then Wire.run "no_such_workload"
        else r)
      (Loadgen.mix ~seed:(60 + (i mod 2)) ~n:24 ())
  in
  let streams = List.init 3 stream in
  let sent = List.fold_left (fun n l -> n + List.length l) 0 streams in
  with_fresh_server ~jobs:2 @@ fun t ->
  let addr = Server.address t in
  let answered = Array.make (List.length streams) 0 in
  let ths =
    List.mapi
      (fun i reqs ->
        Thread.create
          (fun () ->
            match Client.connect addr with
            | Error _ -> ()
            | Ok c ->
              List.iter
                (fun r ->
                  match Client.request c r with
                  | Ok _ -> answered.(i) <- answered.(i) + 1
                  | Error _ -> ())
                reqs;
              Client.close c)
          ())
      streams
  in
  List.iter Thread.join ths;
  let answered = Array.fold_left ( + ) 0 answered in
  Alcotest.(check int) "every request answered" sent answered;
  let c = must_connect t in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let kvs = stats_ints c in
  Alcotest.(check bool) "some errors" true (stat kvs "errors" > 0);
  Alcotest.(check int) "ok + coalesced + errors + shed + timeout = answered" answered
    (List.fold_left (fun n k -> n + stat kvs k) 0
       [ "ok"; "coalesced"; "errors"; "shed"; "timeout" ]);
  Alcotest.(check int) "requests = answered + this stats" (answered + 1)
    (stat kvs "requests")

(* ------------------------------------------------------------------ *)
(* The solved stage: cache on = cache off                              *)
(* ------------------------------------------------------------------ *)

(* the body of every distinct solve key of [reqs], first-seen order,
   from an empty cache left on ([true]) or off *)
let bodies ~cache reqs =
  let seen = Hashtbl.create 512 in
  Cache.clear ();
  Fun.protect ~finally:Cache.clear @@ fun () ->
  Cache.scoped ~enable:cache @@ fun () ->
  List.filter_map
    (fun r ->
      let k = Wire.solve_key r in
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.add seen k ();
        Some (k, body r)
      end)
    reqs

(* most keys of a mix share their (workload, m) with an earlier one, so
   the cached pass answers them from a warm solved entry *)
let test_solved_mix_differential () =
  List.iter
    (fun seed ->
      let reqs = Loadgen.mix ~seed ~n:500 () in
      let off = bodies ~cache:false reqs and on = bodies ~cache:true reqs in
      Alcotest.(check int) "same keys" (List.length off) (List.length on);
      List.iter2
        (fun (k, a) (_, b) -> Alcotest.(check string) k a b)
        off on)
    [ 1; 7; 42 ]

(* a topology keys its own solved entry: rendering the historical
   machines first must not leak into the one-topology answer *)
let test_solved_topo_differential () =
  let topo =
    match Machine.Topology.of_string "fattree:3:4" with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let faults =
    match Machine.Fault.parse "flaky:0.05" with
    | Ok specs -> Machine.Fault.make ~seed:5 specs
    | Error e -> Alcotest.fail e
  in
  let mapping = Mapping.spec Mapping.Greedy in
  let w = Resopt.Workloads.find "example1" in
  let render ?topo () = Answer.render ~faults ~mapping ?topo ~m:2 w in
  let off = Cache.scoped ~enable:false (fun () -> render ~topo ()) in
  Cache.clear ();
  Fun.protect ~finally:Cache.clear @@ fun () ->
  Cache.scoped ~enable:true @@ fun () ->
  ignore (render () : string);
  Alcotest.(check string) "cold" off (render ~topo ());
  Alcotest.(check string) "warm" off (render ~topo ())

(* four domains miss on the same three solved keys at once; every
   body must still be the cache-off one *)
let test_solved_concurrent_misses () =
  let reqs =
    List.init 48 (fun i ->
        Wire.run ~m:2 ~faults:"flaky:0.05" ~fseed:(i / 3) ~map:"greedy" ~mseed:i
          (List.nth [ "example1"; "transpose"; "matmul" ] (i mod 3)))
  in
  let off = Cache.scoped ~enable:false (fun () -> List.map body reqs) in
  Cache.clear ();
  Fun.protect ~finally:Cache.clear @@ fun () ->
  let on =
    Cache.scoped ~enable:true (fun () ->
        Par.Pool.with_pool ~jobs:4 ~oversubscribe:true (fun pool ->
            Par.map pool body reqs))
  in
  List.iteri
    (fun i (a, b) -> Alcotest.(check string) (Printf.sprintf "request %d" i) a b)
    (List.combine off on)

(* The template path against the one-pass oracle: a Loadgen mix with
   its seeds redrawn, twice over with other seeds (the second pass
   shares the first's templates), and every few requests a fault spec
   of "none" or garbage (errors, never memoized) or a search map.
   Bodies and errors must match with the cache off, cold and warm; the
   warm pass fills templates kept by [Answer.template_key]. *)
let prop_template_matches_oracle =
  QCheck.Test.make ~count:20 ~name:"template bodies = one-pass oracle"
    QCheck.(quad small_nat int small_nat small_nat)
    (fun (seed, fseed, mseed, shape) ->
      let reqs =
        List.mapi
          (fun i (r : Wire.request) ->
            let r = { r with Wire.fseed = fseed + i; mseed = mseed + i } in
            match (shape + i) mod 6 with
            | 0 -> { r with Wire.faults = Some "none" }
            | 1 -> { r with Wire.faults = Some "flaky:1.5" }
            | 2 -> { r with Wire.map = Some "search" }
            | 3 -> { r with Wire.faults = Some "flaky:0.05" }
            | _ -> r)
          (Loadgen.mix ~seed ~n:5 ())
      in
      let reqs =
        reqs
        @ List.map
            (fun (r : Wire.request) ->
              { r with Wire.fseed = r.Wire.fseed lxor 0x55; mseed = r.Wire.mseed + 9 })
            reqs
      in
      let want =
        Cache.scoped ~enable:false (fun () -> List.map Answer_oracle.of_request reqs)
      in
      let off = Cache.scoped ~enable:false (fun () -> List.map Answer.of_request reqs) in
      Cache.clear ();
      Fun.protect ~finally:Cache.clear @@ fun () ->
      Cache.scoped ~enable:true @@ fun () ->
      let templates = Hashtbl.create 16 in
      let cold =
        List.map
          (fun r ->
            let res = Answer.template_of_request r in
            Result.iter (Hashtbl.replace templates (Answer.template_key r)) res;
            Result.map (Answer.fill ~seed:r.Wire.fseed) res)
          reqs
      in
      let warm =
        List.map
          (fun r ->
            match Hashtbl.find_opt templates (Answer.template_key r) with
            | Some tpl -> Ok (Answer.fill tpl ~seed:r.Wire.fseed)
            | None -> Answer.of_request r)
          reqs
      in
      want = off && want = cold && want = warm)

(* ------------------------------------------------------------------ *)
(* CLI: m < 1 is a usage error                                         *)
(* ------------------------------------------------------------------ *)

let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/resopt_cli.exe"

(* exit status and combined stdout/stderr of one CLI invocation *)
let cli_output args =
  let out = Filename.temp_file "resopt_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rc =
        Sys.command
          (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cli) args (Filename.quote out))
      in
      (rc, In_channel.with_open_bin out In_channel.input_all))

let test_cli_rejects_m_below_one () =
  List.iter
    (fun args ->
      let rc, out = cli_output args in
      Alcotest.(check int) (args ^ ": usage error") 124 rc;
      Alcotest.(check bool) (args ^ ": names the grid dimension") true
        (match Str.search_forward (Str.regexp_string "grid dimension") out 0 with
        | _ -> true
        | exception Not_found -> false))
    [ "run example1 -m 0"; "run example1 -m-2"; "sweep --ms 0"; "sweep --ms 1,0" ];
  let rc, _ = cli_output "run example1 -m 1" in
  Alcotest.(check int) "run -m 1 still works" 0 rc

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        [
          QCheck_alcotest.to_alcotest prop_frame_roundtrip;
          QCheck_alcotest.to_alcotest prop_frame_garbage_never_raises;
          Alcotest.test_case "truncated header" `Quick test_frame_truncated_header;
          Alcotest.test_case "truncated payload" `Quick
            test_frame_truncated_payload;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          Alcotest.test_case "encode rejects oversized" `Quick
            test_frame_encode_rejects_oversized;
        ] );
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_wire_request_roundtrip;
          Alcotest.test_case "solve_key ignores deadline" `Quick
            test_wire_solve_key_ignores_deadline;
          Alcotest.test_case "request rejects" `Quick test_wire_request_rejects;
          Alcotest.test_case "response roundtrip" `Quick
            test_wire_response_roundtrip;
          Alcotest.test_case "request rejects m < 1" `Quick
            test_wire_rejects_m_below_one;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "matches Fault.backoff" `Quick
            test_backoff_matches_fault;
          Alcotest.test_case "jitter bounded + deterministic" `Quick
            test_backoff_jitter_bounds;
          Alcotest.test_case "no jitter = exp_delay" `Quick
            test_backoff_no_jitter_is_exp;
          Alcotest.test_case "validation" `Quick test_backoff_validation;
          QCheck_alcotest.to_alcotest prop_hash_unit_in_range;
        ] );
      ( "cache",
        [
          Alcotest.test_case "save is atomic" `Quick test_cache_save_atomic;
          Alcotest.test_case "corrupt load counted" `Quick
            test_cache_corrupt_load_counted;
        ] );
      ( "server",
        [
          Alcotest.test_case "ok bytes = offline bytes" `Quick test_server_ok_bytes;
          Alcotest.test_case "repeat + stats" `Quick test_server_repeat_and_stats;
          Alcotest.test_case "deadline 0 times out" `Quick
            test_server_deadline_timeout;
          Alcotest.test_case "full queue sheds" `Quick test_server_sheds_when_full;
          Alcotest.test_case "malformed frame answered" `Quick
            test_server_malformed_frame;
          Alcotest.test_case "unknown workload fails" `Quick
            test_server_unknown_workload;
          Alcotest.test_case "concurrent clients" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "drain refuses new work" `Quick
            test_server_drain_refuses_new_work;
          Alcotest.test_case "snapshot restart warm" `Quick
            test_server_snapshot_restart_warm;
          Alcotest.test_case "stats bounds_failed=0" `Quick
            test_server_bounds_failed_zero;
          Alcotest.test_case "m=0 answered with an error" `Quick
            test_server_rejects_m0;
          Alcotest.test_case "inline repeats counted" `Quick
            test_server_inline_repeats_counted;
          Alcotest.test_case "restart: inline stream bounded" `Quick
            test_server_restart_inline_bounds;
          Alcotest.test_case "concurrent mixed clients" `Quick
            test_server_concurrent_mixed;
          Alcotest.test_case "fault seeds answered apart" `Quick
            test_server_fault_seeds_apart;
          Alcotest.test_case "reseeded stream stays warm" `Quick
            test_server_reseeded_stream_warm;
          Alcotest.test_case "resopt-serve/1 snapshot loads cold" `Quick
            test_server_v1_snapshot_loads_cold;
          Alcotest.test_case "stats counters add up" `Quick
            test_server_stats_counters_add_up;
        ] );
      ( "solved",
        [
          Alcotest.test_case "mix bodies: cache on = off" `Quick
            test_solved_mix_differential;
          Alcotest.test_case "topology keys its own entry" `Quick
            test_solved_topo_differential;
          Alcotest.test_case "concurrent misses on one key" `Quick
            test_solved_concurrent_misses;
          QCheck_alcotest.to_alcotest prop_template_matches_oracle;
        ] );
      ("cli", [ Alcotest.test_case "m < 1 rejected" `Quick test_cli_rejects_m_below_one ]);
    ]
