(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent) on the host's monotonic clock,
   in nanoseconds. Spans are recorded only around the benchmark's own
   calls into the simulator: setup phases, [System.run], reply
   continuations, service handlers, audits and shutdown. When recording
   is off, [enter] and [leave] return at once and allocate nothing, so
   the untraced run measures the program alone.

   OCaml GC phases come from the runtime's own event ring
   ([Runtime_events]) and are kept as parentless spans on the same
   clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let on = ref false

(* Interned span names. *)
let names : string array ref = ref [||]

let name s =
  let rec find i =
    if i = Array.length !names then -1 else if !names.(i) = s then i else find (i + 1)
  in
  match find 0 with
  | -1 ->
    names := Array.append !names [| s |];
    Array.length !names - 1
  | i -> i

(* Growable parallel arrays, one slot per span. *)
let cap = ref 0
let sp_name = ref [||]
let sp_start = ref [||]
let sp_end = ref [||]
let sp_parent = ref [||]
let count = ref 0

(* Indices of the open spans, innermost on top. *)
let stack = ref (Array.make 64 0)
let depth = ref 0

let reset () =
  count := 0;
  depth := 0

let grow () =
  let n = max 1024 (2 * !cap) in
  let ext a = Array.append a (Array.make (n - !cap) 0) in
  sp_name := ext !sp_name;
  sp_start := ext !sp_start;
  sp_end := ext !sp_end;
  sp_parent := ext !sp_parent;
  cap := n

let push ~name ~parent ~start ~stop =
  if !count = !cap then grow ();
  let i = !count in
  !sp_name.(i) <- name;
  !sp_parent.(i) <- parent;
  !sp_start.(i) <- start;
  !sp_end.(i) <- stop;
  count := i + 1;
  i

(* Open a span; the value returned goes to [leave]. *)
let enter id =
  if not !on then -1
  else begin
    let parent = if !depth = 0 then -1 else !stack.(!depth - 1) in
    let i = push ~name:id ~parent ~start:(now_ns ()) ~stop:0 in
    if !depth = Array.length !stack then stack := Array.append !stack (Array.make !depth 0);
    !stack.(!depth) <- i;
    incr depth;
    i
  end

let leave i =
  if i >= 0 then begin
    !sp_end.(i) <- now_ns ();
    decr depth
  end

(* GC phases from the runtime event ring. Only the outermost minor
   collection and major slice phases are kept; nested sub-phases would
   count the same time twice. *)
module Gc_phases = struct
  let started = ref false
  let cursor = ref None
  let minor = name "gc.minor"
  let major = name "gc.major_slice"
  let open_minor = ref (-1)
  let open_major = ref (-1)
  let lost = ref 0

  let callbacks =
    let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t phase ->
        match phase with
        | Runtime_events.EV_MINOR -> open_minor := ts t
        | Runtime_events.EV_MAJOR_SLICE -> open_major := ts t
        | _ -> ())
      ~runtime_end:(fun _ t phase ->
        let close r id =
          if !r >= 0 && !on then ignore (push ~name:id ~parent:(-1) ~start:!r ~stop:(ts t));
          r := -1
        in
        match phase with
        | Runtime_events.EV_MINOR -> close open_minor minor
        | Runtime_events.EV_MAJOR_SLICE -> close open_major major
        | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()

  (* Record GC phases while [f] runs. *)
  let around f =
    if not !started then begin
      Runtime_events.start ();
      cursor := Some (Runtime_events.create_cursor None);
      started := true
    end
    else Runtime_events.resume ();
    poll ();
    Fun.protect f ~finally:(fun () ->
        poll ();
        Runtime_events.pause ())
end

(* Drain the GC ring every so many closed callback spans, so a long
   event loop cannot overrun it. *)
let polls = ref 0

let leave_polling i =
  if i >= 0 then begin
    leave i;
    incr polls;
    if !polls land 1023 = 0 then Gc_phases.poll ()
  end

(* Self time per span name, in seconds: each span's duration minus the
   part of it covered by its direct children, summed. *)
let self_times () =
  let n = !count in
  let child = Array.make n 0 in
  for i = 0 to n - 1 do
    let p = !sp_parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (!sp_end.(i) - !sp_start.(i))
  done;
  let k = Array.length !names in
  let self = Array.make k 0 in
  for i = 0 to n - 1 do
    let id = !sp_name.(i) in
    self.(id) <- self.(id) + (!sp_end.(i) - !sp_start.(i)) - child.(i)
  done;
  List.init k (fun id -> (!names.(id), float_of_int self.(id) *. 1e-9))

(* One tab-separated line per span: id, parent, name, start, end (ns
   since the first span). *)
let write path =
  let oc = open_out path in
  let t0 = if !count = 0 then 0 else !sp_start.(0) in
  output_string oc "id\tparent\tname\tstart_ns\tend_ns\n";
  for i = 0 to !count - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" i !sp_parent.(i) !names.(!sp_name.(i))
      (!sp_start.(i) - t0) (!sp_end.(i) - t0)
  done;
  close_out oc
