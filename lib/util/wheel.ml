(* Hierarchical timer wheel. See wheel.mli for the layout and the
   determinism argument; the short version:

   - level l covers spans of 32^(l+1) ticks split into 32 slots;
   - a cell lives at the lowest level whose slot span contains both its
     time and the cursor (shared high prefix, not a delta bound);
   - per-level 32-bit occupancy bitmaps make "next occupied slot at or
     after the cursor's slot" a mask + ctz;
   - cascading a level-l slot re-buckets its cells front to back; every
     target slot is strictly lower-level and empty at that instant, so
     list order (= insertion order) survives all the way down. *)

let bits = 5
let slot_count = 1 lsl bits (* 32 *)
let slot_mask = slot_count - 1
let levels = 13 (* 13 * 5 = 65 bits >= 63-bit int range *)

(* A cell that is not queued points at itself, so it needs no flag. *)
type 'a cell = {
  w_time : int;
  w_value : 'a;
  mutable w_stamp : int;
  mutable w_prev : 'a cell;
  mutable w_next : 'a cell;
}

type 'a t = {
  (* slots.(l * slot_count + s) is the sentinel of level l, slot s. *)
  slots : 'a cell array;
  (* occupancy bitmap per level: bit s set iff slot s is non-empty. *)
  occ : int array;
  (* Never linked: a fresh cell's first neighbour (so [add] builds no
     recursive value) and [pop]'s "nothing due" (so no option). *)
  none : 'a cell;
  mutable cur : int;
  mutable len : int;
}

let time c = c.w_time
let value c = c.w_value
let stamp c = c.w_stamp
let linked c = c.w_next != c
let none t = t.none
let length t = t.len

let create ~dummy () =
  let mk_sentinel () =
    let rec c =
      { w_time = -1; w_value = dummy; w_stamp = 0; w_prev = c; w_next = c }
    in
    c
  in
  {
    slots = Array.init (levels * slot_count) (fun _ -> mk_sentinel ());
    occ = Array.make levels 0;
    none = mk_sentinel ();
    cur = 0;
    len = 0;
  }

(* Count trailing zeros of a non-zero masked-to-32-bits value. *)
let ctz32 x =
  let n = ref 0 and x = ref (x land 0xffffffff) in
  if !x land 0xffff = 0 then (n := !n + 16; x := !x lsr 16);
  if !x land 0xff = 0 then (n := !n + 8; x := !x lsr 8);
  if !x land 0xf = 0 then (n := !n + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (n := !n + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then n := !n + 1;
  !n

(* Level for [time] under cursor [cur]: smallest l such that time and
   cur agree above bit 5*(l+1). The top level spans every non-negative
   int, so it needs no test (which would shift by 65, past the word). *)
let level_of t ~time =
  let x = time lxor t.cur in
  let l = ref 0 in
  while !l < levels - 1 && x lsr (bits * (!l + 1)) <> 0 do
    incr l
  done;
  !l

let slot_index ~level ~time = (time lsr (bits * level)) land slot_mask

(* Append [c] to the slot list for its (recomputed) level. *)
let link t c =
  let level = level_of t ~time:c.w_time in
  let slot = slot_index ~level ~time:c.w_time in
  let s = t.slots.(level * slot_count + slot) in
  let last = s.w_prev in
  c.w_prev <- last;
  c.w_next <- s;
  last.w_next <- c;
  s.w_prev <- c;
  t.occ.(level) <- t.occ.(level) lor (1 lsl slot)

let unlink t c ~level ~slot =
  c.w_prev.w_next <- c.w_next;
  c.w_next.w_prev <- c.w_prev;
  c.w_prev <- c;
  c.w_next <- c;
  let s = t.slots.((level * slot_count) + slot) in
  if s.w_next == s then t.occ.(level) <- t.occ.(level) land lnot (1 lsl slot)

let add t ~time ~stamp v =
  if time < t.cur || time < 0 then
    invalid_arg "Wheel.add: time precedes cursor";
  let c =
    { w_time = time; w_value = v; w_stamp = stamp; w_prev = t.none; w_next = t.none }
  in
  link t c;
  t.len <- t.len + 1;
  c

let remove t c =
  if linked c then begin
    let level = level_of t ~time:c.w_time in
    unlink t c ~level ~slot:(slot_index ~level ~time:c.w_time);
    t.len <- t.len - 1
  end

(* Re-bucket every cell of level [level], slot [slot] one or more
   levels down, preserving list order. Caller guarantees the cursor
   has entered this slot's span (so each cell now maps strictly
   lower) and that all lower levels are empty below that span. *)
let cascade t ~level ~slot =
  let s = t.slots.((level * slot_count) + slot) in
  t.occ.(level) <- t.occ.(level) land lnot (1 lsl slot);
  (* Detach the whole list first: link re-walks from the sentinel. *)
  let first = s.w_next in
  s.w_next <- s;
  s.w_prev <- s;
  let c = ref first in
  while !c != s do
    let next = !c.w_next in
    link t !c;
    c := next
  done

(* Occupied slots of [level] at or after the cursor's slot there, as
   a bitmap. At level l the cursor's own slot is (cur lsr 5l) land 31;
   any occupied slot at an index >= that (within the cursor's current
   rotation at that level — guaranteed by the shared-prefix placement
   rule) is reachable without wrapping. *)
let occupied_from t level =
  t.occ.(level) land ((-1) lsl ((t.cur lsr (bits * level)) land slot_mask))

(* The lowest level, from [level] up, with such a slot: it holds the
   earliest cell, and a non-empty wheel always has one. *)
let rec lowest_occupied t level =
  if occupied_from t level <> 0 then level else lowest_occupied t (level + 1)

let rec pop t ~limit =
  if t.len = 0 then t.none
  else
    let level = lowest_occupied t 0 in
    let slot = ctz32 (occupied_from t level) in
    if level = 0 then begin
      let s = t.slots.(slot) in
      let c = s.w_next in
      (* Level-0 slots hold exactly one time value. *)
      if c.w_time > limit then t.none
      else begin
        unlink t c ~level:0 ~slot;
        t.len <- t.len - 1;
        t.cur <- c.w_time;
        c
      end
    end
    else begin
      (* The earliest pending time lives in this higher-level slot;
         its span starts at an aligned boundary >= cur. Only advance
         the cursor (and cascade) if that boundary is within limit —
         otherwise report "nothing due" without moving. *)
      let span = bits * level in
      let start = (t.slots.((level * slot_count) + slot)).w_next in
      let span_start = (start.w_time lsr span) lsl span in
      let span_start = if span_start < t.cur then t.cur else span_start in
      if span_start > limit then t.none
      else begin
        t.cur <- span_start;
        cascade t ~level ~slot;
        pop t ~limit
      end
    end

let restamp t stamp =
  for i = 0 to (levels * slot_count) - 1 do
    let s = t.slots.(i) in
    let c = ref s.w_next in
    while !c != s do
      !c.w_stamp <- stamp;
      c := !c.w_next
    done
  done
