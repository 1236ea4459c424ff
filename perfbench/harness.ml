(* Shared machinery of the benchmark: clock, percentile rule, metric
   grammar, the in-memory span recorder of traced runs, process probes
   and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Work per second, robust to a burst of load from outside: the median
   over consecutive chunks of [chunk] samples (a shorter last chunk is
   dropped unless it is the only one) of each chunk's count over its
   summed seconds. *)
let chunked_rate ~chunk secs =
  let rec go acc = function
    | [] -> acc
    | l ->
      let c = List.filteri (fun i _ -> i < chunk) l in
      let rest = List.filteri (fun i _ -> i >= chunk) l in
      let rate = float_of_int (List.length c) /. List.fold_left ( +. ) 0.0 c in
      if List.length c < chunk && acc <> [] then acc else go (rate :: acc) rest
  in
  median (go [] secs)

(* ------------------------------------------------------------------ *)
(* Percentiles                                                         *)
(* ------------------------------------------------------------------ *)

(* Nearest rank: the smallest sample with at least [p]% of the samples
   at or below it. *)
let rank n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    s.(rank n p - 1)
  end

type tail = { pct : float; value : float; n : int }

let tail_ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The tail rule: the highest percentile, no higher than [cap], that
   still has at least ten samples beyond it.  With fewer than eleven
   samples no percentile qualifies and the median stands in, flagged
   by its [pct] of 50. *)
let tail ?(cap = 99.0) xs =
  let n = Array.length xs in
  let ok p = p <= cap && n - rank n p >= 10 in
  let pct =
    match List.find_opt ok tail_ladder with Some p -> p | None -> 50.0
  in
  { pct; value = percentile xs pct; n }

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* The 2-core host this benchmark was sized on changes speed by about
   25% from one few-second stretch to the next (its neighbours' load),
   and the program's times follow it closely.  So every reported time
   is scaled to a nominal speed: a fixed unit of CPU work in this
   benchmark's own code — never the program's — is run between units
   of the program's work, and a time measured between two probes is
   multiplied by [nominal_s] over their mean.  On that host the
   reference takes about [nominal_s]. *)
module Speed = struct
  let nominal_s = 0.006

  let reference () =
    let a = Array.init 20000 (fun i -> i * 7919 mod 20011) in
    Array.sort compare a;
    let h = Hashtbl.create 1024 in
    Array.iter (fun x -> Hashtbl.replace h (x land 1023) x) a;
    ignore (Sys.opaque_identity (List.fold_left ( + ) 0 (List.init 5000 (fun i -> i * i mod 7))))

  type t = { mutable probes : float list; mutable count : int; mutable last : float }

  (* the median of three runs, so one preempted run does not skew it *)
  let probe t =
    let d = median (List.init 3 (fun _ -> snd (time reference))) in
    t.probes <- d :: t.probes;
    t.count <- t.count + 1;
    t.last <- now ()

  let create () =
    let t = { probes = []; count = 0; last = 0.0 } in
    probe t;
    t

  (* The index of the latest probe, to tag a unit about to run. *)
  let mark t = t.count - 1

  let maybe_probe t ~every = if now () -. t.last >= every then probe t

  (* After a final [probe]: the scale of a unit tagged [k]. *)
  let factors t =
    let r = Array.of_list (List.rev t.probes) in
    fun k -> nominal_s /. ((r.(k) +. r.(min (k + 1) (Array.length r - 1))) /. 2.0)

  (* [f ()] between two probes: its result, and its time in seconds
     raw and scaled. *)
  let timed f =
    let t = create () in
    let r, dt = time f in
    probe t;
    (r, dt, dt *. factors t 0)
end

(* A closed loop with one caller: [step i] for i = 0, 1, ... until
   [seconds] have passed and at least [min_units] ran, stopping only
   after a multiple of [whole] units.  [check i r] runs after unit [i]'s
   timer stops.  The host speed is probed between units at most every
   quarter second.  Returns each unit's checked result and its seconds,
   raw and scaled, in order. *)
let closed_loop ?(whole = 1) ~seconds ~min_units ~step ~check () =
  let speed = Speed.create () in
  let t_end = now () +. seconds in
  let rec go i acc =
    if now () >= t_end && i >= min_units && i mod whole = 0 then List.rev acc
    else begin
      Speed.maybe_probe speed ~every:0.25;
      let k = Speed.mark speed in
      let r, dt = time (fun () -> step i) in
      go (i + 1) ((check i r, dt, k) :: acc)
    end
  in
  let units = go 0 [] in
  Speed.probe speed;
  let scale = Speed.factors speed in
  List.map (fun (r, dt, k) -> (r, dt, dt *. scale k)) units

(* ------------------------------------------------------------------ *)
(* Metric grammar                                                      *)
(* ------------------------------------------------------------------ *)

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Spans of the traced runs, recorded in this benchmark's own code
   around each call into a layer.  Off by default: [span] then costs a
   flag test.  The recorder is single-threaded by design — every traced
   call site runs on the main thread. *)
module Trace = struct
  type span = {
    id : int;
    parent : int;  (* -1 at the root *)
    name : string;
    start : float;
    stop : float;
  }

  let on = ref false
  let recorded : span list ref = ref []
  let stack : int list ref = ref []
  let next_id = ref 0

  let reset () =
    recorded := [];
    stack := [];
    next_id := 0

  let span name f =
    if not !on then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let start = now () in
      Fun.protect
        ~finally:(fun () ->
          let stop = now () in
          stack := List.tl !stack;
          recorded := { id; parent; name; start; stop } :: !recorded)
        f
    end

  type agg = { calls : int; total_s : float; self_s : float }

  (* Per-name call count, total and self time; a span's self time is
     its duration minus the time its direct children cover. *)
  let aggregate () =
    let child = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            ((s.stop -. s.start)
            +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
      !recorded;
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let dur = s.stop -. s.start in
        let self = dur -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
        let a =
          Option.value ~default:{ calls = 0; total_s = 0.0; self_s = 0.0 }
            (Hashtbl.find_opt by_name s.name)
        in
        Hashtbl.replace by_name s.name
          { calls = a.calls + 1; total_s = a.total_s +. dur; self_s = a.self_s +. self })
      !recorded;
    by_name

  let get aggs name =
    Option.value ~default:{ calls = 0; total_s = 0.0; self_s = 0.0 }
      (Hashtbl.find_opt aggs name)

  let self_sum aggs = Hashtbl.fold (fun _ a acc -> acc +. a.self_s) aggs 0.0
end

(* ------------------------------------------------------------------ *)
(* Process probes                                                      *)
(* ------------------------------------------------------------------ *)

(* VmHWM of a process, in MB; 0.0 where /proc is unavailable. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.0
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> acc)
      0.0
      (String.split_on_char '\n' text)

let self_peak_rss_mb () = peak_rss_mb "self"

let nproc () = max 1 (Domain.recommended_domain_count ())

(* Gc.quick_stat deltas over [f]: allocated MB, minor and major
   collections. *)
let gc_delta f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  let words s = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  ( r,
    ( (words b -. words a) *. float_of_int (Sys.word_size / 8) /. 1048576.0,
      b.Gc.minor_collections - a.Gc.minor_collections,
      b.Gc.major_collections - a.Gc.major_collections ) )

let gc_add (a, b, c) (a', b', c') = (a +. a', b + b', c + c')

(* ------------------------------------------------------------------ *)
(* Result                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

(* Every run prints every metric of its kind, by these names and units:
   the end-to-end ones from an untraced run, the per-layer ones from a
   traced run.  BENCHMARK.json lists the same names. *)
let end_to_end_spec =
  [ ("setup_s", "s"); ("ok_frac", "frac"); ("peak_rss_mb", "MB");
    ("throughput", "1/s"); ("p50_ms", "ms"); ("tail_ms", "ms");
    ("plan.comm_time", "sim_time"); ("plan.gain", "x") ]

let per_layer_spec =
  [ ("validate.ms", "ms"); ("validate.calls", "count"); ("validate.share", "frac");
    ("pipeline.ms", "ms"); ("pipeline.calls", "count"); ("feautrier.ms", "ms");
    ("feautrier.calls", "count");
    ("cost.ms", "ms"); ("cost.calls", "count");
    ("cost_faults.ms", "ms"); ("cost_faults.calls", "count");
    ("mapping.ms", "ms"); ("mapping.calls", "count"); ("mapping.hop_bytes_ratio", "x");
    ("bounds.ms", "ms"); ("bounds.calls", "count"); ("bounds.eff_mean", "frac");
    ("serve.p50_ms.r250", "ms"); ("serve.p99_ms.r250", "ms");
    ("serve.p50_ms.r1000", "ms"); ("serve.p99_ms.r1000", "ms");
    ("serve.solve_ms.p50", "ms"); ("serve.solve_ms.p99", "ms");
    ("serve.server_ms.p50", "ms"); ("serve.server_ms.p99", "ms");
    ("serve.transport_ms.p50", "ms"); ("serve.queue_ms.p50", "ms");
    ("serve.gen_lag_ms.p99", "ms"); ("serve.coalesced", "count");
    ("serve.shed", "count"); ("serve.timeout", "count");
    ("cache.hit_ratio", "frac"); ("cache.entries", "count");
    ("par.speedup", "x"); ("sweep.cell_ms_max", "ms");
    ("gc.alloc_mb", "MB"); ("gc.minor", "count"); ("gc.major", "count");
    ("trace.coverage", "frac"); ("trace.overhead", "frac") ]

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

(* The metrics of [spec] from a workload's values.  An end-to-end run
   must give every one ([fill] false); a traced run reports 0 for a
   layer its workload does not drive ([fill] true).  A value under a
   name the spec lacks is a bug in this benchmark. *)
let metrics ~fill spec values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name spec) then invalid_arg ("unknown metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some value -> { name; value; unit_ }
      | None when fill -> { name; value = 0.0; unit_ }
      | None -> invalid_arg ("missing metric " ^ name))
    spec

(* Per-layer values from the recorded spans: self time per unit of
   work ([units] sweep passes, nests or requests) and total calls. *)
let layer_values ~units aggs names =
  List.concat_map
    (fun name ->
      let a = Trace.get aggs name in
      [ (name ^ ".ms", a.Trace.self_s *. 1000.0 /. float_of_int (max 1 units));
        (name ^ ".calls", float_of_int a.Trace.calls) ])
    names

let gc_values (alloc_mb, minor, major) =
  [ ("gc.alloc_mb", alloc_mb); ("gc.minor", float_of_int minor);
    ("gc.major", float_of_int major) ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "json_number: not finite"

(* The one-line JSON object the benchmark ends its output with.  A
   metric with a malformed name or unit, or a value that is not a
   finite number, is a bug in this benchmark: raise rather than print a
   line the contract rejects. *)
let result_json r metrics =
  List.iter
    (fun m ->
      if not (valid_name m.name && valid_unit m.unit_) then
        invalid_arg ("malformed metric " ^ m.name ^ " / " ^ m.unit_);
      if not (Float.is_finite m.value) then
        invalid_arg ("metric " ^ m.name ^ " is not finite"))
    metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " fields)
