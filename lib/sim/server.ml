type job = Fixed of { cost : int; k : unit -> unit } | Dynamic of (unit -> int64 * (unit -> unit))

type t = {
  engine : Engine.t;
  name : string;
  waiting : job Queue.t;
  mutable in_service : bool;
  (* The job in service, and its completion, built once in [create]. *)
  mutable cost : int;
  mutable post : unit -> unit;
  mutable complete : unit -> unit;
  mutable busy : int;
  mutable completed : int;
  mutable max_queue : int;
}

let start_next t =
  if (not t.in_service) && not (Queue.is_empty t.waiting) then begin
    t.in_service <- true;
    (match Queue.pop t.waiting with
     | Fixed { cost; k } ->
       t.cost <- cost;
       t.post <- k
     | Dynamic f ->
       let cost, post = f () in
       if Int64.compare cost 0L < 0 then invalid_arg "Server: negative dynamic cost";
       t.cost <- Int64.to_int cost;
       t.post <- post);
    Engine.after_int t.engine t.cost t.complete
  end

let create engine ~name =
  let t =
    {
      engine;
      name;
      waiting = Queue.create ();
      in_service = false;
      cost = 0;
      post = ignore;
      complete = ignore;
      busy = 0;
      completed = 0;
      max_queue = 0;
    }
  in
  t.complete <-
    (fun () ->
      t.in_service <- false;
      t.busy <- t.busy + t.cost;
      t.completed <- t.completed + 1;
      t.post ();
      start_next t);
  t

let name t = t.name

let enqueue t job =
  Queue.push job t.waiting;
  if Queue.length t.waiting > t.max_queue then t.max_queue <- Queue.length t.waiting;
  start_next t

let submit t ~cost k =
  if Int64.compare cost 0L < 0 then invalid_arg "Server.submit: negative cost";
  enqueue t (Fixed { cost = Int64.to_int cost; k })

let submit_work t f = enqueue t (Dynamic f)

let busy_cycles t = Int64.of_int t.busy
let completed t = t.completed
let queue_length t = Queue.length t.waiting
let max_queue_length t = t.max_queue

let utilisation t ~horizon =
  if Int64.compare horizon 0L <= 0 then 0.0
  else float_of_int t.busy /. Int64.to_float horizon
