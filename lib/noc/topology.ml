type t = { width : int; height : int }

let mesh ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Topology.mesh: non-positive dimension";
  { width; height }

let square n =
  if n <= 0 then invalid_arg "Topology.square: non-positive size";
  let rec side s = if s * s >= n then s else side (s + 1) in
  let s = side 1 in
  { width = s; height = s }

let pe_count t = t.width * t.height
let width t = t.width
let height t = t.height

let coords t pe =
  if pe < 0 || pe >= pe_count t then invalid_arg "Topology.coords: PE out of range";
  (pe mod t.width, pe / t.width)

(* As [coords] on both ends, without building their tuples. *)
let hops t a b =
  let n = pe_count t in
  if a < 0 || a >= n || b < 0 || b >= n then invalid_arg "Topology.coords: PE out of range";
  abs ((a mod t.width) - (b mod t.width)) + abs ((a / t.width) - (b / t.width))
