(* Operation accounting shared by the workloads.

   Every operation a workload issues is [attempt]ed once and then
   either [complete]d with its latency in simulated cycles, or
   [fail]ed. An operation still open when the event loop drains never
   finished, and [close] counts it as failed. *)

open Semperos

type t = {
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
  mutable lat : int array;  (** latencies of completed operations, cycles *)
  mutable last_end : int64;
  mutable errors : string list;  (** first few error descriptions *)
}

let create () =
  {
    attempted = 0;
    completed = 0;
    failed = 0;
    lat = Array.make 1024 0;
    last_end = 0L;
    errors = [];
  }

let attempt t = t.attempted <- t.attempted + 1

let finish t now = if now > t.last_end then t.last_end <- now

(* [start] is when the operation was due: the arrival time in an open
   loop, the issue time in a closed one. *)
let complete t ~start ~now =
  if t.completed = Array.length t.lat then
    t.lat <- Array.append t.lat (Array.make (Array.length t.lat) 0);
  t.lat.(t.completed) <- Int64.to_int (Int64.sub now start);
  t.completed <- t.completed + 1;
  finish t now

let fail t ~now what =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then t.errors <- what :: t.errors;
  finish t now

let fail_reply t ~now what r = fail t ~now (Format.asprintf "%s: %a" what Protocol.pp_reply r)

(* After the loop drained: operations still open never finished, and
   count as failed. *)
let close t ~now =
  let n = t.attempted - t.completed - t.failed in
  if n > 0 then begin
    t.failed <- t.failed + n;
    t.errors <- Printf.sprintf "%d operations never finished" n :: t.errors;
    finish t now
  end

(* Simulated time from [origin], the start of the event loop, to the
   last finished operation. Every workload releases its load when the
   loop starts, so this is one interval on all of them, and the one
   over which the kernels' capability operations are counted. *)
let makespan t ~origin = if t.completed + t.failed = 0 then 0L else Int64.sub t.last_end origin

(* Latency percentile ([p] in [0, 100]) of the completed operations;
   0 when none completed. *)
let percentile t p =
  if t.completed = 0 then 0.0
  else Stats.percentile p (List.init t.completed (fun i -> float_of_int t.lat.(i)))
