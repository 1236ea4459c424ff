(* The memo-cache layer: LRU mechanics, persistence hygiene, sharing
   across domains, and — the property the whole subsystem rests on —
   that caching never changes a result: every memoized path must
   produce byte-identical output with the cache off, on and warm. *)

(* run [f] with the cache on and empty, leaving it off and empty *)
let fresh f =
  Cache.clear ();
  Fun.protect
    ~finally:(fun () -> Cache.clear ())
    (fun () -> Cache.scoped ~enable:true f)

let temp_file () = Filename.temp_file "resopt_cache" ".bin"

(* ------------------------------------------------------------------ *)
(* LRU mechanics                                                       *)
(* ------------------------------------------------------------------ *)

let lru = Cache.Memo.create ~capacity:3 ~name:"test.lru" ~schema:"v1" ()

let get t key = Cache.Memo.find_or_compute t ~key (fun () -> "v:" ^ key)

let test_lru_eviction_order () =
  fresh @@ fun () ->
  List.iter (fun k -> ignore (get lru k)) [ "a"; "b"; "c" ];
  Alcotest.(check (list string)) "MRU first" [ "c"; "b"; "a" ] (Cache.Memo.keys lru);
  ignore (get lru "a");
  Alcotest.(check (list string)) "touch refreshes" [ "a"; "c"; "b" ]
    (Cache.Memo.keys lru);
  ignore (get lru "d");
  Alcotest.(check (list string)) "LRU (b) evicted" [ "d"; "a"; "c" ]
    (Cache.Memo.keys lru);
  Alcotest.(check bool) "b gone" false (Cache.Memo.mem lru "b");
  Alcotest.(check bool) "a kept" true (Cache.Memo.mem lru "a");
  let s = Cache.Memo.stats lru in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions

let test_capacity_bound () =
  fresh @@ fun () ->
  let t = Cache.Memo.create ~capacity:8 ~name:"test.bound" ~schema:"v1" () in
  for i = 0 to 99 do
    ignore (Cache.Memo.find_or_compute t ~key:(string_of_int i) (fun () -> i))
  done;
  Alcotest.(check int) "never exceeds capacity" 8 (Cache.Memo.length t);
  Alcotest.(check int) "evicted the rest" 92 (Cache.Memo.stats t).Cache.evictions;
  Alcotest.(check (list string)) "the 8 most recent survive"
    (List.init 8 (fun i -> string_of_int (99 - i)))
    (Cache.Memo.keys t)

let test_hit_miss_tallies () =
  fresh @@ fun () ->
  let t = Cache.Memo.create ~name:"test.tallies" ~schema:"v1" () in
  let runs = ref 0 in
  let look key =
    Cache.Memo.find_or_compute t ~key (fun () -> incr runs; !runs)
  in
  let first = look "k" in
  let second = look "k" in
  Alcotest.(check int) "thunk ran once" 1 !runs;
  Alcotest.(check int) "hit returns the stored value" first second;
  let s = Cache.Memo.stats t in
  Alcotest.(check (pair int int)) "1 hit, 1 miss" (1, 1) (s.Cache.hits, s.Cache.misses)

let test_disabled_is_passthrough () =
  Cache.clear ();
  Alcotest.(check bool) "cache off" false (Cache.enabled ());
  let t = Cache.Memo.create ~name:"test.disabled" ~schema:"v1" () in
  let runs = ref 0 in
  let look () = Cache.Memo.find_or_compute t ~key:"k" (fun () -> incr runs) in
  look ();
  look ();
  Alcotest.(check int) "thunk runs every time" 2 !runs;
  Alcotest.(check int) "nothing stored" 0 (Cache.Memo.length t)

let test_scoped_restores () =
  Cache.disable ();
  Cache.scoped ~enable:true (fun () ->
      Alcotest.(check bool) "on inside" true (Cache.enabled ()));
  Alcotest.(check bool) "off after" false (Cache.enabled ());
  (try
     Cache.scoped ~enable:true (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "off after exception" false (Cache.enabled ())

let test_raising_thunk_not_cached () =
  fresh @@ fun () ->
  let t = Cache.Memo.create ~name:"test.raise" ~schema:"v1" () in
  (try
     ignore (Cache.Memo.find_or_compute t ~key:"k" (fun () -> failwith "no"))
   with Failure _ -> ());
  Alcotest.(check bool) "failure not stored" false (Cache.Memo.mem t "k");
  let v = Cache.Memo.find_or_compute t ~key:"k" (fun () -> 41) in
  Alcotest.(check int) "later success stored" 41 v;
  Alcotest.(check bool) "stored now" true (Cache.Memo.mem t "k")

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let persist = Cache.Memo.create ~name:"test.persist" ~schema:"v1" ()

let test_save_load_roundtrip () =
  fresh @@ fun () ->
  List.iter (fun k -> ignore (get persist k)) [ "a"; "b"; "c" ];
  let file = temp_file () in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Cache.save file;
  Cache.clear ();
  Alcotest.(check int) "cleared" 0 (Cache.Memo.length persist);
  Alcotest.(check bool) "load succeeds" true (Cache.load file);
  Alcotest.(check (list string)) "entries and recency restored" [ "c"; "b"; "a" ]
    (Cache.Memo.keys persist);
  let runs = ref 0 in
  let v = Cache.Memo.find_or_compute persist ~key:"b" (fun () -> incr runs; "x") in
  Alcotest.(check int) "loaded entry is a hit" 0 !runs;
  Alcotest.(check string) "loaded value intact" "v:b" v

let test_corrupted_file_ignored () =
  fresh @@ fun () ->
  ignore (get persist "k");
  let file = temp_file () in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Cache.save file;
  (* flip one payload byte: the checksum must catch it *)
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len |> Bytes.of_string in
  close_in ic;
  let last = Bytes.length bytes - 1 in
  Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 0xff));
  let oc = open_out_bin file in
  output_bytes oc bytes;
  close_out oc;
  Cache.clear ();
  Alcotest.(check bool) "corrupted file rejected" false (Cache.load file);
  Alcotest.(check int) "table untouched" 0 (Cache.Memo.length persist)

let test_bad_files_ignored () =
  fresh @@ fun () ->
  let file = temp_file () in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let write s =
    let oc = open_out_bin file in
    output_string oc s;
    close_out oc
  in
  write "this is not a cache file\n";
  Alcotest.(check bool) "foreign file rejected" false (Cache.load file);
  write "RESOPTCACHE1\n";
  Alcotest.(check bool) "truncated file rejected" false (Cache.load file);
  write "";
  Alcotest.(check bool) "empty file rejected" false (Cache.load file);
  Alcotest.(check bool) "missing file rejected" false
    (Cache.load (file ^ ".does-not-exist"))

(* the on-disk layout, reproduced by hand: a magic line, a 16-digit
   hex FNV-1a of the payload, then the marshalled section list.  The
   record below matches Cache's internal section representation
   structurally — this test pins the format. *)
type fake_section = { p_name : string; p_schema : string; p_pairs : (string * string) list }

let fnv1a s =
  let h = ref 0xbf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

let write_cache_file file sections =
  let payload = Marshal.to_string (sections : fake_section list) [] in
  let oc = open_out_bin file in
  Printf.fprintf oc "RESOPTCACHE1\n%016x\n" (fnv1a payload);
  output_string oc payload;
  close_out oc

let test_stale_sections_skipped () =
  fresh @@ fun () ->
  (* a well-formed file from an older build: one section whose schema
     tag no longer matches, one for a table that no longer exists, one
     current — only the current one may be absorbed *)
  let file = temp_file () in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  write_cache_file file
    [
      {
        p_name = "test.persist";
        p_schema = "v999";
        p_pairs = [ ("stale", Marshal.to_string "poison" []) ];
      };
      {
        p_name = "test.no-such-table";
        p_schema = "v1";
        p_pairs = [ ("orphan", Marshal.to_string "poison" []) ];
      };
      {
        p_name = "test.persist";
        p_schema = "v1";
        p_pairs = [ ("fresh", Marshal.to_string "v:fresh" []) ];
      };
    ];
  Alcotest.(check bool) "well-formed file loads" true (Cache.load file);
  Alcotest.(check bool) "stale-schema section skipped" false
    (Cache.Memo.mem persist "stale");
  Alcotest.(check bool) "current section absorbed" true
    (Cache.Memo.mem persist "fresh");
  Alcotest.(check string) "absorbed value intact" "v:fresh" (get persist "fresh")

let test_undecodable_section_counted () =
  fresh @@ fun () ->
  (* name, schema and checksum all match, but one value's bytes are
     not a marshalled value: the whole section is skipped, visibly *)
  let file = temp_file () in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove file;
      Obs.reset ();
      Obs.disable ())
  @@ fun () ->
  Obs.enable ();
  Obs.reset ();
  write_cache_file file
    [
      {
        p_name = "test.persist";
        p_schema = "v1";
        p_pairs =
          [ ("good", Marshal.to_string "v:good" []); ("bad", "garbage bytes") ];
      };
    ];
  Alcotest.(check bool) "the file itself loads" true (Cache.load file);
  Alcotest.(check int) "undecodable section counted" 1
    (Obs.counter "cache.load_corrupt");
  Alcotest.(check bool) "bad entry skipped" false (Cache.Memo.mem persist "bad");
  Alcotest.(check bool) "rest of the section skipped too" false
    (Cache.Memo.mem persist "good")

(* ------------------------------------------------------------------ *)
(* The cost.of_plan key                                                *)
(* ------------------------------------------------------------------ *)

let example1_plan () =
  let w = Resopt.Workloads.find "example1" in
  (Resopt.Pipeline.run ~m:2 ~schedule:w.Resopt.Workloads.schedule
     w.Resopt.Workloads.nest)
    .Resopt.Pipeline.plan

(* Only [Search] reads a mapping spec's seed and restarts, so only its
   pricings key on them: greedy or identity under sixteen seeds is one
   entry with one breakdown, while search seeds stay apart. *)
let test_cost_key_seed_free_kinds () =
  let plan = example1_plan () and cm5 = Machine.Models.cm5 () in
  let price spec = Resopt.Cost.of_plan ~mapping:spec cm5 plan in
  fresh @@ fun () ->
  List.iter
    (fun kind ->
      let before = (Cache.stats ()).Cache.entries in
      let first = price (Mapping.spec ~seed:0 kind) in
      for seed = 1 to 15 do
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d: same breakdown" (Mapping.kind_to_string kind) seed)
          true
          (price (Mapping.spec ~seed kind) = first)
      done;
      Alcotest.(check int)
        (Mapping.kind_to_string kind ^ ": one entry for sixteen seeds")
        (before + 1)
        (Cache.stats ()).Cache.entries)
    [ Mapping.Greedy; Mapping.Identity ];
  let before = (Cache.stats ()).Cache.entries in
  for seed = 0 to 3 do
    ignore (price (Mapping.spec ~seed ~restarts:1 Mapping.Search) : Resopt.Cost.breakdown)
  done;
  Alcotest.(check int) "search: one entry per seed" (before + 4)
    (Cache.stats ()).Cache.entries

(* No pricing formula reads the fault seed (only Eventsim's drop
   hashes do), so faulted pricings differing only in seed are one
   entry with one breakdown. *)
let test_cost_key_fault_seed_free () =
  let plan = example1_plan () and cm5 = Machine.Models.cm5 () in
  let price seed =
    Resopt.Cost.of_plan
      ~faults:(Machine.Fault.make ~seed [ Machine.Fault.Flaky { link = None; prob = 0.05 } ])
      cm5 plan
  in
  fresh @@ fun () ->
  let first = price 0 in
  for seed = 1 to 15 do
    Alcotest.(check bool) (Printf.sprintf "fault seed %d: same breakdown" seed) true
      (price seed = first)
  done;
  Alcotest.(check int) "flaky:0.05: one entry for sixteen seeds" 1
    (Cache.stats ()).Cache.entries

(* Two probabilities that agree to six digits print apart, each
   parsing back to its value, and are two entries, each with its own
   price. *)
let test_cost_key_exact_probabilities () =
  let plan = example1_plan () and cm5 = Machine.Models.cm5 () in
  let faults prob = Machine.Fault.make [ Machine.Fault.Flaky { link = None; prob } ] in
  let price ?cache prob = Resopt.Cost.of_plan ?cache ~faults:(faults prob) cm5 plan in
  Alcotest.(check bool) "they print apart" true
    (Machine.Fault.label (faults 0.1234567) <> Machine.Fault.label (faults 0.1234568));
  List.iter
    (fun prob ->
      Alcotest.(check bool)
        (Printf.sprintf "%h parses back" prob)
        true
        (Machine.Fault.parse (Machine.Fault.label (faults prob))
        = Ok [ Machine.Fault.Flaky { link = None; prob } ]))
    [ 0.1234567; 0.1234568 ];
  fresh @@ fun () ->
  ignore (price 0.1234567 : Resopt.Cost.breakdown);
  Alcotest.(check bool) "second probability priced afresh" true
    (price 0.1234568 = price ~cache:false 0.1234568);
  Alcotest.(check int) "two entries" 2 (Cache.stats ()).Cache.entries

(* What guards that key: with the cache off, a plan priced under a
   random fault schedule costs the same under two different seeds, on
   every model. *)
let prop_pricing_ignores_fault_seed =
  QCheck.Test.make ~count:60 ~name:"faulted pricing ignores the fault seed"
    QCheck.(quad small_nat small_nat int int)
    (fun (nest_seed, schedule_seed, s1, s2) ->
      match
        Resopt.Pipeline.run ~m:2 (Nestir.Gennest.generate ~seed:(7_000_000 + nest_seed))
      with
      | exception Failure _ -> QCheck.assume_fail ()
      | r ->
        List.for_all
          (fun (model : Machine.Models.t) ->
            let specs =
              Machine.Fault.random_specs
                (Machine.Fault.Rng.make schedule_seed)
                model.Machine.Models.topo
            in
            let price seed =
              Resopt.Cost.of_plan ~cache:false
                ~faults:(Machine.Fault.make ~seed specs)
                model r.Resopt.Pipeline.plan
            in
            compare (price s1) (price s2) = 0)
          [ Machine.Models.cm5 (); Machine.Models.paragon (); Machine.Models.t3d () ])

(* The cost.of_plan section of a saved file, with [schema] and every
   value replaced by [poison]. *)
let relabelled_cost_section file ~schema poison =
  let payload =
    In_channel.with_open_bin file @@ fun ic ->
    ignore (input_line ic : string);
    ignore (input_line ic : string);
    In_channel.input_all ic
  in
  List.filter_map
    (fun (sec : fake_section) ->
      if sec.p_name <> "cost.of_plan" then None
      else
        Some
          {
            sec with
            p_schema = schema;
            p_pairs = List.map (fun (k, _) -> (k, Marshal.to_string poison [])) sec.p_pairs;
          })
    (Marshal.from_string payload 0 : fake_section list)

(* v2 and v3 snapshots keyed a fault-free, mapping-free pricing
   exactly as v4 does; their sections must still load cold (skipped,
   not absorbed) and must not count as corruption.  The same section
   relabelled v4 is absorbed, which shows the keys would have
   matched. *)
let test_cost_v2_section_loads_cold () =
  let plan = example1_plan () and cm5 = Machine.Models.cm5 () in
  let file = temp_file () in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove file;
      Obs.reset ();
      Obs.disable ())
  @@ fun () ->
  let real =
    fresh (fun () ->
        let b = Resopt.Cost.of_plan cm5 plan in
        Cache.save file;
        b)
  in
  let poison = { real with Resopt.Cost.total = -1.0 } in
  let load_as schema =
    let sections = relabelled_cost_section file ~schema poison in
    let relabelled = temp_file () in
    Fun.protect ~finally:(fun () -> Sys.remove relabelled) @@ fun () ->
    write_cache_file relabelled sections;
    fresh @@ fun () ->
    Obs.enable ();
    Obs.reset ();
    Alcotest.(check bool) (schema ^ " file loads") true (Cache.load relabelled);
    Alcotest.(check int) (schema ^ ": not corrupt") 0 (Obs.counter "cache.load_corrupt");
    let entries = (Cache.stats ()).Cache.entries in
    (entries, Resopt.Cost.of_plan cm5 plan)
  in
  let entries, priced = load_as "v2" in
  Alcotest.(check int) "v2 section skipped" 0 entries;
  Alcotest.(check bool) "v2: priced afresh" true (priced = real);
  let entries, priced = load_as "v3" in
  Alcotest.(check int) "v3 section skipped" 0 entries;
  Alcotest.(check bool) "v3: priced afresh" true (priced = real);
  let entries, priced = load_as "v4" in
  Alcotest.(check int) "v4 section absorbed" 1 entries;
  Alcotest.(check bool) "v4: served from the file" true (priced = poison)

(* ------------------------------------------------------------------ *)
(* Differential properties: cached = uncached, everywhere              *)
(* ------------------------------------------------------------------ *)

(* [off = cold = warm] for one memoized computation *)
let differential f x =
  Cache.disable ();
  let off = f x in
  fresh (fun () ->
      let cold = f x in
      let warm = f x in
      off = cold && cold = warm)

let test_cost_differential () =
  let w = Resopt.Workloads.find "example1" in
  let r =
    Resopt.Pipeline.run ~m:2 ~schedule:w.Resopt.Workloads.schedule
      w.Resopt.Workloads.nest
  in
  let faults =
    Machine.Fault.make ~seed:7 [ Machine.Fault.Flaky { link = None; prob = 0.05 } ]
  in
  List.iter
    (fun model ->
      Alcotest.(check bool)
        (model.Machine.Models.name ^ " breakdown identical")
        true
        (differential
           (Resopt.Cost.of_plan ~faults model)
           r.Resopt.Pipeline.plan))
    [ Machine.Models.cm5 (); Machine.Models.paragon (); Machine.Models.t3d () ]

let test_validate_differential () =
  let checked =
    List.fold_left
      (fun checked nest ->
        match Resopt.Pipeline.run ~m:2 nest with
        | exception Failure _ -> checked
        | r ->
          Alcotest.(check bool)
            (nest.Nestir.Loopnest.nest_name ^ " violations identical")
            true
            (differential Resopt.Validate.check r);
          checked + 1)
      0
      (Nestir.Gennest.generate_many ~seed:5_000_000 ~count:60)
  in
  Alcotest.(check bool) "at least 40 nests validated" true (checked >= 40)

(* ------------------------------------------------------------------ *)
(* Parallel safety: shared cache under Par                             *)
(* ------------------------------------------------------------------ *)

let strip_rows rows =
  List.map
    (fun (r : Resopt.Sweep.row) ->
      { r with Resopt.Sweep.time_ms = 0.0; cost_ms = 0.0 })
    rows

let test_sweep_parallel_cache () =
  Cache.disable ();
  Cache.clear ();
  let uncached = strip_rows (Resopt.Sweep.run ~ms:[ 2 ] ()) in
  Cache.clear ();
  let seq = strip_rows (Resopt.Sweep.run ~ms:[ 2 ] ~cache:true ()) in
  Cache.clear ();
  let par = strip_rows (Resopt.Sweep.run ~jobs:4 ~ms:[ 2 ] ~cache:true ()) in
  Cache.clear ();
  let warm =
    Cache.scoped ~enable:true (fun () ->
        ignore (Resopt.Sweep.run ~jobs:4 ~ms:[ 2 ] ());
        strip_rows (Resopt.Sweep.run ~jobs:4 ~ms:[ 2 ] ()))
  in
  Cache.clear ();
  Alcotest.(check bool) "cached jobs:1 = uncached" true (seq = uncached);
  Alcotest.(check bool) "cached jobs:4 = uncached" true (par = uncached);
  Alcotest.(check bool) "warm jobs:4 = uncached" true (warm = uncached);
  Alcotest.(check string) "CSV byte-identical" (Resopt.Sweep.to_csv uncached)
    (Resopt.Sweep.to_csv par)

(* workers read the caller's tables: once a sequential run has cached
   every cell, a parallel rerun must not miss once *)
let test_warm_parallel_hits () =
  Cache.clear ();
  Fun.protect ~finally:Cache.clear @@ fun () ->
  let seq = strip_rows (Resopt.Sweep.run ~ms:[ 2 ] ~cache:true ()) in
  let before = (Cache.stats ()).Cache.misses in
  let par = strip_rows (Resopt.Sweep.run ~jobs:2 ~ms:[ 2 ] ~cache:true ()) in
  Alcotest.(check int) "no misses when warm" before (Cache.stats ()).Cache.misses;
  Alcotest.(check bool) "same rows" true (par = seq)

(* four domains hammer one small table with overlapping keys *)
let test_shared_table_concurrency () =
  let t = Cache.Memo.create ~capacity:8 ~name:"test.concurrent" ~schema:"v1" () in
  let n = 2_000 in
  let key i = string_of_int (i mod 13) in
  fresh @@ fun () ->
  Fun.protect ~finally:(fun () ->
      Obs.reset ();
      Obs.disable ())
  @@ fun () ->
  Obs.enable ();
  Obs.reset ();
  let results =
    Par.Pool.with_pool ~jobs:4 ~oversubscribe:true (fun pool ->
        Par.map pool
          (fun i ->
            let v =
              Cache.Memo.find_or_compute t ~key:(key i) (fun () -> "v:" ^ key i)
            in
            (v, Cache.Memo.length t))
          (List.init n Fun.id))
  in
  List.iteri
    (fun i (v, len) ->
      Alcotest.(check string) "value = thunk result" ("v:" ^ key i) v;
      Alcotest.(check bool) "length within capacity" true (len <= 8))
    results;
  Alcotest.(check bool) "final length within capacity" true
    (Cache.Memo.length t <= 8);
  let s = Cache.Memo.stats t in
  Alcotest.(check int) "table: hits + misses = lookups" n
    (s.Cache.hits + s.Cache.misses);
  Alcotest.(check int) "counters: hits + misses = lookups"
    (Obs.counter "cache.lookups")
    (Obs.counter "cache.hits" + Obs.counter "cache.misses");
  Alcotest.(check int) "every lookup counted" n (Obs.counter "cache.lookups")

let test_counters_consistent_after_merge () =
  Obs.enable ();
  Obs.reset ();
  Cache.clear ();
  Fun.protect ~finally:(fun () ->
      Cache.clear ();
      Obs.reset ();
      Obs.disable ())
  @@ fun () ->
  ignore (Resopt.Sweep.run ~jobs:4 ~ms:[ 1; 2 ] ~cache:true ());
  let lookups = Obs.counter "cache.lookups" in
  let hits = Obs.counter "cache.hits" in
  let misses = Obs.counter "cache.misses" in
  Alcotest.(check bool) "cache was exercised" true (lookups > 0);
  Alcotest.(check int) "hits + misses = lookups after worker merge" lookups
    (hits + misses)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "capacity bound" `Quick test_capacity_bound;
          Alcotest.test_case "hit/miss tallies" `Quick test_hit_miss_tallies;
          Alcotest.test_case "disabled passthrough" `Quick
            test_disabled_is_passthrough;
          Alcotest.test_case "scoped restores" `Quick test_scoped_restores;
          Alcotest.test_case "raising thunk not cached" `Quick
            test_raising_thunk_not_cached;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "corrupted file ignored" `Quick
            test_corrupted_file_ignored;
          Alcotest.test_case "bad files ignored" `Quick test_bad_files_ignored;
          Alcotest.test_case "stale sections skipped" `Quick
            test_stale_sections_skipped;
          Alcotest.test_case "undecodable section counted" `Quick
            test_undecodable_section_counted;
        ] );
      ( "cost-key",
        [
          Alcotest.test_case "seed-free placements share an entry" `Quick
            test_cost_key_seed_free_kinds;
          Alcotest.test_case "v2 section loads cold" `Quick
            test_cost_v2_section_loads_cold;
          Alcotest.test_case "fault seeds share an entry" `Quick
            test_cost_key_fault_seed_free;
          QCheck_alcotest.to_alcotest prop_pricing_ignores_fault_seed;
          Alcotest.test_case "exact fault probabilities" `Quick
            test_cost_key_exact_probabilities;
        ] );
      ( "differential",
        [
          Alcotest.test_case "cost breakdowns" `Quick test_cost_differential;
          Alcotest.test_case "validate violations" `Quick
            test_validate_differential;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "sweep: cached/parallel = uncached" `Quick
            test_sweep_parallel_cache;
          Alcotest.test_case "counters consistent after merge" `Quick
            test_counters_consistent_after_merge;
          Alcotest.test_case "warm parallel sweep never misses" `Quick
            test_warm_parallel_hits;
          Alcotest.test_case "shared table under four domains" `Quick
            test_shared_table_concurrency;
        ] );
    ]
