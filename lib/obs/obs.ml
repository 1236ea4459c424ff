(* Instrumentation state, one collector per domain.  The hot-path
   contract: every recording entry point first tests [enabled_flag],
   so a disabled build does no allocation and no table lookup (not
   even the domain-local-storage read).

   Each domain records into its own collector (held in [Domain.DLS]),
   so parallel workers spawned by [Par] never contend on the
   registries; [Worker.capture] gives a task a fresh collector and
   [Worker.merge] folds it back into the caller's registry at join. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let clock = ref Sys.time

let set_clock f =
  clock := f;
  (* the profiler keeps its own clock so it can be used without spans;
     installing one time source here keeps both sinks on it *)
  Profile.set_clock f

let now_us () = !clock () *. 1e6

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let enabled_flag = ref false

type span = {
  span_name : string;
  ts_us : float;
  dur_us : float;
  depth : int;
  args : (string * string) list;
}

type series_point = { point_name : string; point_ts : float; value : float }

type histogram = { count : int; sum : float; min_v : float; max_v : float }

(* A histogram's most recent [histogram_window] samples, which is what
   percentiles read; count/sum/min/max stay exact over all of them.
   The buffer grows by doubling up to the window, then [next] is the
   oldest slot and the next one overwritten. *)
let histogram_window = 65_536

type ring = { mutable buf : float array; mutable filled : int; mutable next : int }

let ring_add r v =
  if r.filled < histogram_window then begin
    if r.filled = Array.length r.buf then begin
      let grown = Array.make (min histogram_window (max 16 (2 * r.filled))) 0.0 in
      Array.blit r.buf 0 grown 0 r.filled;
      r.buf <- grown
    end;
    r.buf.(r.filled) <- v;
    r.filled <- r.filled + 1
  end
  else begin
    r.buf.(r.next) <- v;
    r.next <- (r.next + 1) mod histogram_window
  end

(* oldest first *)
let ring_to_array r =
  if r.filled < histogram_window then Array.sub r.buf 0 r.filled
  else
    Array.append
      (Array.sub r.buf r.next (histogram_window - r.next))
      (Array.sub r.buf 0 r.next)

type collector = {
  mutable span_log : span list; (* reverse completion order *)
  mutable point_log : series_point list; (* reverse order *)
  mutable cur_depth : int;
  counters : (string, int) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  histos : (string, histogram) Hashtbl.t;
  histo_samples : (string, ring) Hashtbl.t;
}

let new_collector () =
  {
    span_log = [];
    point_log = [];
    cur_depth = 0;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histos = Hashtbl.create 16;
    histo_samples = Hashtbl.create 16;
  }

(* The main domain's slot is the parent registry every exporter reads;
   a freshly spawned domain starts with an empty collector of its own. *)
let collector_key : collector Domain.DLS.key = Domain.DLS.new_key new_collector

let cur () = Domain.DLS.get collector_key

let enable () = enabled_flag := true
let disable () = enabled_flag := false
let enabled () = !enabled_flag

let reset () =
  let c = cur () in
  c.span_log <- [];
  c.point_log <- [];
  c.cur_depth <- 0;
  Hashtbl.reset c.counters;
  Hashtbl.reset c.gauges;
  Hashtbl.reset c.histos;
  Hashtbl.reset c.histo_samples

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let with_span ?(args = []) name f =
  if not !enabled_flag then f ()
  else begin
    let c = cur () in
    let depth = c.cur_depth in
    c.cur_depth <- depth + 1;
    let t0 = now_us () in
    let finish () =
      let t1 = now_us () in
      c.cur_depth <- depth;
      c.span_log <-
        { span_name = name; ts_us = t0; dur_us = t1 -. t0; depth; args }
        :: c.span_log
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans () = List.rev (cur ()).span_log

let time_ms f =
  let t0 = !clock () in
  let v = f () in
  (v, (!clock () -. t0) *. 1e3)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let incr ?(by = 1) name =
  if !enabled_flag then
    let counters = (cur ()).counters in
    Hashtbl.replace counters name
      (by + Option.value ~default:0 (Hashtbl.find_opt counters name))

let counter name =
  Option.value ~default:0 (Hashtbl.find_opt (cur ()).counters name)

let set_gauge name v = if !enabled_flag then Hashtbl.replace (cur ()).gauges name v

let gauge name = Hashtbl.find_opt (cur ()).gauges name

let ring_of c name =
  match Hashtbl.find_opt c.histo_samples name with
  | Some r -> r
  | None ->
    let r = { buf = [||]; filled = 0; next = 0 } in
    Hashtbl.replace c.histo_samples name r;
    r

let observe name v =
  if !enabled_flag then
    let histos = (cur ()).histos in
    let h =
      match Hashtbl.find_opt histos name with
      | None -> { count = 1; sum = v; min_v = v; max_v = v }
      | Some h ->
        {
          count = h.count + 1;
          sum = h.sum +. v;
          min_v = min h.min_v v;
          max_v = max h.max_v v;
        }
    in
    Hashtbl.replace histos name h;
    ring_add (ring_of (cur ()) name) v

let histogram name = Hashtbl.find_opt (cur ()).histos name

let histo_array c name =
  match Hashtbl.find_opt c.histo_samples name with
  | Some r -> ring_to_array r
  | None -> [||]

let histogram_samples name = histo_array (cur ()) name

let histogram_percentiles name =
  let c = cur () in
  match histo_array c name with
  | [||] -> None
  | xs ->
    Some
      ( Telemetry.percentile xs 50.0,
        Telemetry.percentile xs 95.0,
        Telemetry.percentile xs 99.0 )

let point name ~ts v =
  if !enabled_flag then
    let c = cur () in
    c.point_log <- { point_name = name; point_ts = ts; value = v } :: c.point_log

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                        *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_str s = "\"" ^ json_escape s ^ "\""

(* JSON floats: [Printf %g] can print [inf]/[nan], which are not JSON;
   clamp them to null-safe zero (metrics should never produce them). *)
let json_float v =
  if Float.is_finite v then Printf.sprintf "%.3f" v else "0.000"

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields) ^ "}"

let args_obj args = json_obj (List.map (fun (k, v) -> (k, json_str v)) args)

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let span_event (s : span) =
  json_obj
    [
      ("name", json_str s.span_name);
      ("cat", json_str "obs");
      ("ph", json_str "X");
      ("ts", json_float s.ts_us);
      ("dur", json_float s.dur_us);
      ("pid", "1");
      ("tid", "1");
      ("args", args_obj (("depth", string_of_int s.depth) :: s.args));
    ]

(* Time-series points live on their own pid so the viewer draws them
   as counter tracks below the span flame graph. *)
let point_event (p : series_point) =
  json_obj
    [
      ("name", json_str p.point_name);
      ("ph", json_str "C");
      ("ts", json_float p.point_ts);
      ("pid", "2");
      ("args", json_obj [ ("value", json_float p.value) ]);
    ]

let counter_event ~ts name v =
  json_obj
    [
      ("name", json_str name);
      ("ph", json_str "C");
      ("ts", json_float ts);
      ("pid", "1");
      ("args", json_obj [ ("value", string_of_int v) ]);
    ]

let chrome_trace () =
  let c = cur () in
  let spans = List.rev c.span_log in
  let points = List.rev c.point_log in
  let end_ts =
    List.fold_left (fun acc (s : span) -> Float.max acc (s.ts_us +. s.dur_us)) 0.0 spans
  in
  let events =
    List.map span_event spans
    @ List.map point_event points
    @ List.map
        (fun (k, v) -> counter_event ~ts:end_ts k v)
        (sorted_bindings c.counters)
    @ Profile.chrome_events ()
  in
  "{\"traceEvents\":[" ^ String.concat "," events ^ "],\"displayTimeUnit\":\"ms\"}"

let jsonl () =
  let c = cur () in
  let buf = Buffer.create 1024 in
  let line s = Buffer.add_string buf (s ^ "\n") in
  List.iter
    (fun (s : span) ->
      line
        (json_obj
           ([
              ("type", json_str "span");
              ("name", json_str s.span_name);
              ("ts_us", json_float s.ts_us);
              ("dur_us", json_float s.dur_us);
              ("depth", string_of_int s.depth);
            ]
           @ if s.args = [] then [] else [ ("args", args_obj s.args) ])))
    (List.rev c.span_log);
  List.iter
    (fun (p : series_point) ->
      line
        (json_obj
           [
             ("type", json_str "point");
             ("name", json_str p.point_name);
             ("ts", json_float p.point_ts);
             ("value", json_float p.value);
           ]))
    (List.rev c.point_log);
  List.iter
    (fun (k, v) ->
      line
        (json_obj
           [ ("type", json_str "counter"); ("name", json_str k); ("value", string_of_int v) ]))
    (sorted_bindings c.counters);
  List.iter
    (fun (k, v) ->
      line
        (json_obj
           [ ("type", json_str "gauge"); ("name", json_str k); ("value", json_float v) ]))
    (sorted_bindings c.gauges);
  List.iter
    (fun (k, (h : histogram)) ->
      line
        (json_obj
           [
             ("type", json_str "histogram");
             ("name", json_str k);
             ("count", string_of_int h.count);
             ("sum", json_float h.sum);
             ("min", json_float h.min_v);
             ("max", json_float h.max_v);
           ]))
    (sorted_bindings c.histos);
  Buffer.contents buf

(* per-name span aggregates: count, total duration, max duration *)
let span_aggregates () =
  let tbl : (string, int * float * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      let n, tot, mx =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.span_name)
      in
      Hashtbl.replace tbl s.span_name
        (n + 1, tot +. s.dur_us, Float.max mx s.dur_us))
    (cur ()).span_log;
  sorted_bindings tbl

let metrics_json () =
  let c = cur () in
  let field_list to_json tbl_bindings =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> json_str k ^ ":" ^ to_json v) tbl_bindings)
    ^ "}"
  in
  json_obj
    [
      ("counters", field_list string_of_int (sorted_bindings c.counters));
      ("gauges", field_list json_float (sorted_bindings c.gauges));
      ( "histograms",
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, (h : histogram)) ->
                 let xs = histo_array c k in
                 json_str k ^ ":"
                 ^ json_obj
                     [
                       ("count", string_of_int h.count);
                       ("sum", json_float h.sum);
                       ("min", json_float h.min_v);
                       ("max", json_float h.max_v);
                       ("p50", json_float (Telemetry.percentile xs 50.0));
                       ("p95", json_float (Telemetry.percentile xs 95.0));
                       ("p99", json_float (Telemetry.percentile xs 99.0));
                     ])
               (sorted_bindings c.histos))
        ^ "}" );
      ( "spans",
        field_list
          (fun (n, tot, mx) ->
            json_obj
              [
                ("count", string_of_int n);
                ("total_us", json_float tot);
                ("max_us", json_float mx);
              ])
          (span_aggregates ()) );
    ]

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let pp_summary ppf () =
  let c = cur () in
  let aggs = span_aggregates () in
  if aggs <> [] then begin
    Format.fprintf ppf "spans:@\n";
    Format.fprintf ppf "  %-32s %6s %12s %12s@\n" "name" "count" "total ms" "max ms";
    List.iter
      (fun (name, (n, tot, mx)) ->
        Format.fprintf ppf "  %-32s %6d %12.3f %12.3f@\n" name n (tot /. 1e3)
          (mx /. 1e3))
      aggs
  end;
  let cs = sorted_bindings c.counters in
  if cs <> [] then begin
    Format.fprintf ppf "counters:@\n";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %12d@\n" k v) cs
  end;
  let gs = sorted_bindings c.gauges in
  if gs <> [] then begin
    Format.fprintf ppf "gauges:@\n";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-32s %12.3f@\n" k v) gs
  end;
  let hs = sorted_bindings c.histos in
  if hs <> [] then begin
    Format.fprintf ppf "histograms:@\n";
    Format.fprintf ppf "  %-32s %6s %10s %10s %10s %10s %10s %10s@\n" "name"
      "count" "mean" "min" "p50" "p95" "p99" "max";
    List.iter
      (fun (k, (h : histogram)) ->
        let xs = histo_array c k in
        Format.fprintf ppf "  %-32s %6d %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f@\n"
          k h.count
          (h.sum /. float_of_int h.count)
          h.min_v
          (Telemetry.percentile xs 50.0)
          (Telemetry.percentile xs 95.0)
          (Telemetry.percentile xs 99.0)
          h.max_v)
      hs
  end;
  if aggs = [] && cs = [] && gs = [] && hs = [] then
    Format.fprintf ppf "no observations recorded@\n"

(* ------------------------------------------------------------------ *)
(* Parallel workers                                                    *)
(* ------------------------------------------------------------------ *)

module Worker = struct
  (* [collected = None] when recording was disabled during the capture:
     there is nothing to merge and [merge] is a no-op. *)
  type snapshot = { worker_id : int; collected : collector option }

  let capture ~worker f =
    if not !enabled_flag then
      let v = f () in
      (v, { worker_id = worker; collected = None })
    else begin
      let fresh = new_collector () in
      let prev = cur () in
      Domain.DLS.set collector_key fresh;
      match f () with
      | v ->
        Domain.DLS.set collector_key prev;
        (v, { worker_id = worker; collected = Some fresh })
      | exception e ->
        Domain.DLS.set collector_key prev;
        raise e
    end

  let merge { worker_id; collected } =
    match collected with
    | None -> ()
    | Some w ->
      let c = cur () in
      let tag = ("worker", string_of_int worker_id) in
      (* both logs are kept in reverse order; rev_map + rev_append keeps
         the worker's internal ordering and places its events after
         everything already recorded here *)
      c.span_log <-
        List.rev_append
          (List.rev_map (fun s -> { s with args = tag :: s.args }) w.span_log)
          c.span_log;
      c.point_log <- List.rev_append (List.rev w.point_log) c.point_log;
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace c.counters k
            (v + Option.value ~default:0 (Hashtbl.find_opt c.counters k)))
        w.counters;
      Hashtbl.iter (fun k v -> Hashtbl.replace c.gauges k v) w.gauges;
      Hashtbl.iter
        (fun k (h : histogram) ->
          let merged =
            match Hashtbl.find_opt c.histos k with
            | None -> h
            | Some g ->
              {
                count = g.count + h.count;
                sum = g.sum +. h.sum;
                min_v = min g.min_v h.min_v;
                max_v = max g.max_v h.max_v;
              }
          in
          Hashtbl.replace c.histos k merged)
        w.histos;
      (* the worker's samples count as the newest: appended oldest
         first, so the window keeps the most recent of both *)
      Hashtbl.iter
        (fun k r -> Array.iter (ring_add (ring_of c k)) (ring_to_array r))
        w.histo_samples
end

(* ------------------------------------------------------------------ *)
(* Companion sinks                                                     *)
(* ------------------------------------------------------------------ *)

module Telemetry = Telemetry
module Benchstore = Benchstore
module Profile = Profile
