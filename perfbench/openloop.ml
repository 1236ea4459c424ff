(* Open-loop load: request [i] is due at [start + i / rate] whether or
   not earlier requests have finished.  Up to [clients] threads take
   requests in due order; a thread that falls behind sends late, and
   the request is still timed from its due time, so a stall shows in
   the latency of every request it delayed.  [clock] and [sleep_until]
   are parameters so the accounting can be tested with a fake clock. *)

type outcome = Answered | Shed | Timed_out | Errored | Mismatched

type sample = {
  due : float;
  sent : float;
  finished : float;
  outcome : outcome;
}

let due_time ~start ~rate i = start +. (float_of_int i /. rate)

let real_sleep_until t =
  let d = t -. Unix.gettimeofday () in
  if d > 0.0 then Unix.sleepf d

let run ?(clock = Unix.gettimeofday) ?(sleep_until = real_sleep_until) ~clients
    ~rate ~n (send : worker:int -> int -> outcome) =
  let samples =
    Array.make n { due = 0.0; sent = 0.0; finished = 0.0; outcome = Errored }
  in
  let next = Atomic.make 0 in
  let start = clock () in
  let worker w =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let due = due_time ~start ~rate i in
        if clock () < due then sleep_until due;
        let sent = clock () in
        let outcome = send ~worker:w i in
        samples.(i) <- { due; sent; finished = clock (); outcome };
        loop ()
      end
    in
    loop ()
  in
  if clients <= 1 then worker 0
  else
    List.init clients (fun w -> Thread.create worker w) |> List.iter Thread.join;
  samples

(* Latency from due time, in ms, of the requests that succeeded. *)
let latencies_ms samples =
  Array.of_list
    (List.filter_map
       (fun s -> if s.outcome = Answered then Some ((s.finished -. s.due) *. 1000.0) else None)
       (Array.to_list samples))

(* How late the generator sent each request, in ms. *)
let lags_ms samples = Array.map (fun s -> (s.sent -. s.due) *. 1000.0) samples

(* Requests that were shed, timed out, errored or answered wrongly. *)
let failures samples =
  Array.fold_left (fun acc s -> if s.outcome = Answered then acc else acc + 1) 0 samples
