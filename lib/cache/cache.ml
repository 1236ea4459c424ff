(* Content-addressed memo tables: one mutex-guarded LRU per table,
   shared by every domain.  The hot-path contract matches Obs: every
   entry point first tests [enabled_flag], so a disabled build runs
   the thunk directly and touches no table and no lock. *)

let enabled_flag = ref false
let enable () = enabled_flag := true
let disable () = enabled_flag := false
let enabled () = !enabled_flag

let scoped ?enable:want f =
  match want with
  | None -> f ()
  | Some v ->
    let prev = !enabled_flag in
    enabled_flag := v;
    Fun.protect ~finally:(fun () -> enabled_flag := prev) f

type stats = { hits : int; misses : int; evictions : int; entries : int }

(* ------------------------------------------------------------------ *)
(* LRU table                                                           *)
(* ------------------------------------------------------------------ *)

(* Doubly-linked recency list threaded through the hash table's nodes:
   [first] is the most recently used entry, [last] the next eviction
   victim.  All operations are O(1); every access to the mutable
   fields holds [mu]. *)
type 'v node = {
  nkey : string;
  nvalue : 'v;
  mutable prev : 'v node option; (* towards [first] *)
  mutable next : 'v node option; (* towards [last] *)
}

type 'v table = {
  capacity : int; (* >= 1 *)
  mu : Mutex.t;
  tbl : (string, 'v node) Hashtbl.t;
  mutable first : 'v node option;
  mutable last : 'v node option;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
}

let unlink l n =
  (match n.prev with Some p -> p.next <- n.next | None -> l.first <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> l.last <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front l n =
  n.prev <- None;
  n.next <- l.first;
  (match l.first with Some f -> f.prev <- Some n | None -> l.last <- Some n);
  l.first <- Some n

let touch l n =
  if l.first != Some n then begin
    unlink l n;
    push_front l n
  end

let locked l f = Mutex.protect l.mu f

(* Insert or refresh [key]; evicts the tail when a fresh key would
   overflow the capacity. *)
let put l key value =
  match Hashtbl.find_opt l.tbl key with
  | Some n ->
    (* same key: the value is a function of the key, keep the old node
       (values are equal by construction), just refresh recency.  The
       later of two domains that missed on the same key lands here. *)
    touch l n
  | None ->
    if Hashtbl.length l.tbl >= l.capacity then begin
      match l.last with
      | Some victim ->
        unlink l victim;
        Hashtbl.remove l.tbl victim.nkey;
        l.s_evictions <- l.s_evictions + 1;
        Obs.incr "cache.evictions"
      | None -> ()
    end;
    let n = { nkey = key; nvalue = value; prev = None; next = None } in
    Hashtbl.replace l.tbl key n;
    push_front l n

(* entries oldest-first: replaying them through [put] in this order
   rebuilds the same recency order *)
let entries_oldest_first l =
  let rec walk acc = function
    | None -> acc
    | Some n -> walk ((n.nkey, n.nvalue) :: acc) n.next
  in
  walk [] l.first

(* ------------------------------------------------------------------ *)
(* Registry of tables                                                  *)
(* ------------------------------------------------------------------ *)

(* Everything the module-level operations (clear, stats, save, load)
   need from a table, with the value type hidden behind closures.
   Tables are created at module initialization, but tests create them
   dynamically too, so the list is mutex-protected. *)
type ops = {
  o_name : string;
  o_schema : string;
  o_clear : unit -> unit;
  o_stats : unit -> stats;
  (* persistence: marshalled (key, value) pairs, oldest-first *)
  o_dump : unit -> (string * string) list;
  o_absorb : (string * string) list -> unit;
}

let registry : ops list ref = ref []
let registry_mutex = Mutex.create ()

let registered () = List.rev (Mutex.protect registry_mutex (fun () -> !registry))

let register o =
  Mutex.protect registry_mutex @@ fun () ->
  if List.exists (fun r -> r.o_name = o.o_name) !registry then
    invalid_arg ("Cache.Memo.create: duplicate table name " ^ o.o_name);
  registry := o :: !registry

let clear () = List.iter (fun o -> o.o_clear ()) (registered ())

let stats () =
  List.fold_left
    (fun acc o ->
      let s = o.o_stats () in
      {
        hits = acc.hits + s.hits;
        misses = acc.misses + s.misses;
        evictions = acc.evictions + s.evictions;
        entries = acc.entries + s.entries;
      })
    { hits = 0; misses = 0; evictions = 0; entries = 0 }
    (registered ())

(* ------------------------------------------------------------------ *)
(* Memo tables                                                         *)
(* ------------------------------------------------------------------ *)

module Memo = struct
  type 'a t = 'a table

  let stats l =
    locked l @@ fun () ->
    {
      hits = l.s_hits;
      misses = l.s_misses;
      evictions = l.s_evictions;
      entries = Hashtbl.length l.tbl;
    }

  let create ?(capacity = 1024) ~name ~schema () =
    let l =
      {
        capacity = max 1 capacity;
        mu = Mutex.create ();
        tbl = Hashtbl.create 64;
        first = None;
        last = None;
        s_hits = 0;
        s_misses = 0;
        s_evictions = 0;
      }
    in
    register
      {
        o_name = name;
        o_schema = schema;
        o_clear =
          (fun () ->
            locked l @@ fun () ->
            Hashtbl.reset l.tbl;
            l.first <- None;
            l.last <- None;
            l.s_hits <- 0;
            l.s_misses <- 0;
            l.s_evictions <- 0);
        o_stats = (fun () -> stats l);
        o_dump =
          (fun () ->
            List.map
              (fun (k, v) -> (k, Marshal.to_string v []))
              (locked l (fun () -> entries_oldest_first l)));
        o_absorb =
          (fun pairs ->
            (* unmarshal everything before inserting anything, so a
               section that fails to decode leaves the table as it was *)
            let decoded =
              List.map (fun (k, bytes) -> (k, Marshal.from_string bytes 0)) pairs
            in
            locked l (fun () -> List.iter (fun (k, v) -> put l k v) decoded));
      };
    l

  (* The lock covers only the table operations: a miss computes
     outside it, so a slow thunk never blocks other domains' lookups.
     Two domains missing on one key both compute (the same value) and
     both insert; [put] keeps the first. *)
  let find_or_compute l ~key f =
    if not !enabled_flag then f ()
    else begin
      Obs.incr "cache.lookups";
      let cached =
        locked l @@ fun () ->
        match Hashtbl.find_opt l.tbl key with
        | Some n ->
          l.s_hits <- l.s_hits + 1;
          touch l n;
          Some n.nvalue
        | None ->
          l.s_misses <- l.s_misses + 1;
          None
      in
      match cached with
      | Some v ->
        Obs.incr "cache.hits";
        v
      | None ->
        Obs.incr "cache.misses";
        let v = f () in
        locked l (fun () -> put l key v);
        v
    end

  (* A hit costs one lock and never touches Obs, so threads other than
     the Obs owner may call it; a miss is counted by the
     [find_or_compute] that later fills the key. *)
  let find_opt l key =
    if not !enabled_flag then None
    else
      locked l @@ fun () ->
      match Hashtbl.find_opt l.tbl key with
      | Some n ->
        l.s_hits <- l.s_hits + 1;
        touch l n;
        Some n.nvalue
      | None -> None

  let mem l key = locked l (fun () -> Hashtbl.mem l.tbl key)
  let length l = locked l (fun () -> Hashtbl.length l.tbl)
  let capacity l = l.capacity

  let keys l =
    locked l @@ fun () ->
    let rec walk acc = function
      | None -> List.rev acc
      | Some n -> walk (n.nkey :: acc) n.next
    in
    walk [] l.first
end

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let magic = "RESOPTCACHE1"

(* FNV-1a over OCaml's 63-bit ints (the offset basis is the 64-bit one
   with its top nibble dropped; any fixed odd seed detects corruption
   equally well as long as save and load agree). *)
let fnv1a s =
  let h = ref 0xbf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

type section = { p_name : string; p_schema : string; p_pairs : (string * string) list }

(* Crash safety: the file is written beside its destination and moved
   into place with [Sys.rename], which is atomic on POSIX within one
   directory.  A crash (even kill -9) mid-save therefore leaves either
   the previous complete file or an orphaned [.tmp] — never a
   truncated cache that [load] would have to discard. *)
let save path =
  let sections =
    List.map
      (fun o -> { p_name = o.o_name; p_schema = o.o_schema; p_pairs = o.o_dump () })
      (registered ())
  in
  let payload = Marshal.to_string sections [] in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         Printf.fprintf oc "%s\n%016x\n" magic (fnv1a payload);
         output_string oc payload)
   with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path

let load path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic -> (
    let parse () =
      let line1 = input_line ic in
      if line1 <> magic then None
      else begin
        let sum = input_line ic in
        let len = in_channel_length ic - pos_in ic in
        let payload = really_input_string ic len in
        if Printf.sprintf "%016x" (fnv1a payload) <> sum then None
        else (Marshal.from_string payload 0 : section list) |> Option.some
      end
    in
    (* a bad file or section of any flavour — truncated header,
       checksum mismatch, unmarshalable payload — degrades to a cold
       cache, but visibly: the discard feeds the [cache.load_corrupt]
       counter (the file existed, so silence would hide real loss).
       [Marshal] reports bad bytes as [Failure] or [Invalid_argument]. *)
    let corrupt () = Obs.incr "cache.load_corrupt" in
    match Fun.protect ~finally:(fun () -> close_in ic) parse with
    | exception (End_of_file | Sys_error _ | Failure _ | Invalid_argument _) ->
      corrupt ();
      false
    | None ->
      corrupt ();
      false
    | Some sections ->
      let tables = registered () in
      List.iter
        (fun s ->
          match
            List.find_opt
              (fun o -> o.o_name = s.p_name && o.o_schema = s.p_schema)
              tables
          with
          | Some o -> (
            try o.o_absorb s.p_pairs
            with Failure _ | Invalid_argument _ -> corrupt ())
          | None -> () (* stale or foreign section: skip *))
        sections;
      true)
