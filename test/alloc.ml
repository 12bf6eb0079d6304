(* Allocation measurement for budget tests. *)

(* Minor-heap words allocated by [n] calls of [f]; [Gc.minor_words] is
   read unboxed, so the measurement itself allocates nothing. *)
let minor_words_of n f =
  let before = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  Gc.minor_words () -. before

(* Assert that each of 10K calls of [f] allocates exactly [words]
   minor-heap words. *)
let check_words_per_call what words f =
  let n = 10_000 in
  Alcotest.check (Alcotest.float 0.0)
    (what ^ ": minor words per call over 10K calls")
    words
    (minor_words_of n f /. float_of_int n)
