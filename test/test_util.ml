(* Unit and property tests for the utility substrate: RNG, statistics,
   table rendering. *)

open Semperos

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    if v < 0 || v >= 10 then Alcotest.fail "int out of bounds";
    let v = Rng.int_in r 5 9 in
    if v < 5 || v > 9 then Alcotest.fail "int_in out of bounds";
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of bounds"
  done

let test_rng_invalid () =
  let r = Rng.create 1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_split_independent () =
  let a = Rng.create 5L in
  let b = Rng.split a in
  check Alcotest.bool "split differs from parent" true (Rng.next a <> Rng.next b)

let test_rng_exponential_positive () =
  let r = Rng.create 11L in
  for _ = 1 to 100 do
    if Rng.exponential r ~mean:10.0 < 0.0 then Alcotest.fail "negative exponential"
  done

let prop_rng_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:100
    QCheck.(pair int64 (list small_int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Rng.shuffle (Rng.create seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_acc () =
  let a = Stats.Acc.create () in
  List.iter (Stats.Acc.add a) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "count" 4 (Stats.Acc.count a);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.Acc.mean a);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.Acc.min a);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.Acc.max a);
  check (Alcotest.float 1e-9) "sum" 10.0 (Stats.Acc.sum a);
  check (Alcotest.float 1e-6) "stddev" 1.2909944487 (Stats.Acc.stddev a)

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check (Alcotest.float 1e-9) "median" 3.0 (Stats.percentile 50.0 xs);
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile 0.0 xs);
  check (Alcotest.float 1e-9) "p100" 5.0 (Stats.percentile 100.0 xs);
  check (Alcotest.float 1e-9) "p25" 2.0 (Stats.percentile 25.0 xs);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentile 50.0 []))

let test_histogram () =
  let h = Stats.Histogram.create ~buckets:[| 10.0; 20.0 |] in
  List.iter (Stats.Histogram.add h) [ 5.0; 10.0; 15.0; 25.0; 100.0 ];
  check Alcotest.(array int) "counts" [| 2; 1; 2 |] (Stats.Histogram.counts h);
  check Alcotest.int "total" 5 (Stats.Histogram.total h)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let m = Stats.mean xs in
      let lo = List.fold_left min infinity xs and hi = List.fold_left max neg_infinity xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "line count" 4 (List.length lines);
  (* Aligned: every line has the same width. *)
  match lines with
  | first :: rest ->
    List.iter
      (fun l -> check Alcotest.int "width" (String.length first) (String.length l))
      rest
  | [] -> Alcotest.fail "no lines"

let test_table_arity () =
  Alcotest.check_raises "bad arity" (Invalid_argument "Table.render: row arity differs from header")
    (fun () -> ignore (Table.render ~header:[ "a" ] [ [ "1"; "2" ] ]))

let test_series () =
  let s = Table.Series.create ~x_label:"x" ~labels:[ "y1"; "y2" ] in
  Table.Series.add_row s ~x:1.0 [ Some 2.0; None ];
  Table.Series.add_row s ~x:2.0 [ Some 4.5; Some 1.0 ];
  let out = Table.Series.render s in
  check Alcotest.bool "contains dash for missing" true (String.contains out '-');
  check Alcotest.bool "contains 4.50" true
    (String.length out > 0
    && Str_contains.contains out "4.50")

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng invalid" `Quick test_rng_invalid;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng exponential" `Quick test_rng_exponential_positive;
    qcheck prop_rng_shuffle_permutation;
    Alcotest.test_case "stats acc" `Quick test_acc;
    Alcotest.test_case "stats percentile" `Quick test_percentile;
    Alcotest.test_case "stats histogram" `Quick test_histogram;
    qcheck prop_mean_bounded;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity;
    Alcotest.test_case "series render" `Quick test_series;
  ]
