(* Deterministic observability: a metrics registry, a span-trace ring
   buffer, and a hand-rolled JSON emitter.  Everything here is driven by
   values the caller passes in (simulated cycles, instrument names);
   nothing reads wall-clock time or other ambient state, so two runs with
   the same seeds produce byte-identical snapshots and traces. *)

module Stats = Semper_util.Stats

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let add_escaped buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  (* A fixed, locale-independent float rendering: integral values print
     with one decimal, everything else with enough digits to round-trip.
     Non-finite values have no JSON spelling and become null upstream. *)
  let float_repr f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_repr f)
      else Buffer.add_string buf "null"
    | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\":";
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    emit buf j;
    Buffer.contents buf

  (* Minimal recursive-descent parser, used by tests and the smoke
     harness to validate that emitted output is well-formed JSON.
     Escapes are decoded approximately (\uXXXX collapses to '?'), which
     is enough for validation. *)
  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
        pos := !pos + String.length word;
        value
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance ()
          | Some '/' -> Buffer.add_char buf '/'; advance ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "truncated \\u escape";
            String.iter
              (fun c ->
                match c with
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                | _ -> fail "bad \\u escape")
              (String.sub s !pos 4);
            pos := !pos + 4;
            Buffer.add_char buf '?'
          | _ -> fail "bad escape");
          loop ()
        | Some c when Char.code c < 0x20 -> fail "raw control character in string"
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
      in
      loop ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let consume_while p =
        while (match peek () with Some c when p c -> true | _ -> false) do
          advance ()
        done
      in
      if peek () = Some '-' then advance ();
      consume_while (fun c -> c >= '0' && c <= '9');
      let is_float = ref false in
      if peek () = Some '.' then begin
        is_float := true;
        advance ();
        consume_while (fun c -> c >= '0' && c <= '9')
      end;
      (match peek () with
      | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        consume_while (fun c -> c >= '0' && c <= '9')
      | _ -> ());
      let text = String.sub s start (!pos - start) in
      if text = "" || text = "-" then fail "bad number";
      if !is_float then Float (float_of_string text)
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> Float (float_of_string text)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let items = ref [ member () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := member () :: !items;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !items)
        end
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg
end

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

module Registry = struct
  type counter = { mutable count : int }

  (* A histogram's running moments live in an all-float record, which
     OCaml stores flat: updating them writes unboxed doubles, so
     [observe] allocates nothing (a [Stats.Acc.t] mixes an [int] field
     in and boxes every float it stores). The arithmetic is exactly
     [Stats.Acc.add]'s, so [acc] and [dump] report the same values. *)
  type moments = {
    mutable sum : float;
    mutable mean : float;
    mutable m2 : float;
    mutable lo : float;
    mutable hi : float;
  }

  type histogram = {
    bounds : float array;
    bucket_counts : int array; (* length = Array.length bounds + 1; last is overflow *)
    mutable n : int;
    m : moments;
  }

  type instrument =
    | Counter of counter
    | Gauge of (unit -> float)
    | Histogram of histogram

  type t = { instruments : (string, instrument) Hashtbl.t }

  let create () = { instruments = Hashtbl.create 64 }

  let kind_name = function
    | Counter _ -> "counter"
    | Gauge _ -> "gauge"
    | Histogram _ -> "histogram"

  let clash name got want =
    invalid_arg
      (Printf.sprintf "Obs.Registry: %s already registered as a %s, not a %s" name
         (kind_name got) want)

  let counter t name =
    match Hashtbl.find_opt t.instruments name with
    | Some (Counter c) -> c
    | Some other -> clash name other "counter"
    | None ->
      let c = { count = 0 } in
      Hashtbl.add t.instruments name (Counter c);
      c

  let incr c = c.count <- c.count + 1
  let add c n = c.count <- c.count + n
  let value c = c.count

  let gauge t name f =
    match Hashtbl.find_opt t.instruments name with
    | Some (Gauge _) | None -> Hashtbl.replace t.instruments name (Gauge f)
    | Some other -> clash name other "gauge"

  let histogram t name ~buckets =
    match Hashtbl.find_opt t.instruments name with
    | Some (Histogram h) ->
      if h.bounds <> buckets then
        invalid_arg
          (Printf.sprintf "Obs.Registry: histogram %s re-registered with different buckets" name);
      h
    | Some other -> clash name other "histogram"
    | None ->
      let h =
        {
          bounds = Array.copy buckets;
          bucket_counts = Array.make (Array.length buckets + 1) 0;
          n = 0;
          m = { sum = 0.0; mean = 0.0; m2 = 0.0; lo = infinity; hi = neg_infinity };
        }
      in
      Hashtbl.add t.instruments name (Histogram h);
      h

  (* Inlined into both entry points so [x] stays an unboxed double. *)
  let[@inline] observe_unboxed h x =
    let nb = Array.length h.bounds in
    let i = ref 0 in
    while !i < nb && not (x <= h.bounds.(!i)) do
      i := !i + 1
    done;
    h.bucket_counts.(!i) <- h.bucket_counts.(!i) + 1;
    let m = h.m in
    h.n <- h.n + 1;
    m.sum <- m.sum +. x;
    let delta = x -. m.mean in
    m.mean <- m.mean +. (delta /. float_of_int h.n);
    m.m2 <- m.m2 +. (delta *. (x -. m.mean));
    if x < m.lo then m.lo <- x;
    if x > m.hi then m.hi <- x

  let observe h x = observe_unboxed h x
  let observe_int h v = observe_unboxed h (float_of_int v)
  let bucket_counts h = Array.copy h.bucket_counts

  let acc_state h =
    {
      Stats.Acc.s_n = h.n;
      s_mean = h.m.mean;
      s_m2 = h.m.m2;
      s_min = h.m.lo;
      s_max = h.m.hi;
      s_sum = h.m.sum;
    }

  let acc h =
    let a = Stats.Acc.create () in
    Stats.Acc.restore a (acc_state h);
    a

  let names t =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.instruments []
    |> List.sort String.compare

  (* Closure-free image of every instrument, keyed and sorted by name.
     Gauges are sampled (their value is derived from live state and is
     recomputed, not restored); counters and histograms restore in
     place. *)
  type instrument_state =
    | S_counter of int
    | S_gauge of float
    | S_histogram of { h_buckets : int array; h_acc : Stats.Acc.state }

  type state = (string * instrument_state) list

  let dump t =
    List.map
      (fun name ->
        let st =
          match Hashtbl.find t.instruments name with
          | Counter c -> S_counter c.count
          | Gauge f -> S_gauge (f ())
          | Histogram h ->
            S_histogram { h_buckets = Array.copy h.bucket_counts; h_acc = acc_state h }
        in
        (name, st))
      (names t)

  let restore t state =
    List.iter
      (fun (name, st) ->
        match (Hashtbl.find_opt t.instruments name, st) with
        | Some (Counter c), S_counter v -> c.count <- v
        | None, S_counter v -> Hashtbl.add t.instruments name (Counter { count = v })
        | (Some (Gauge _) | None), S_gauge _ -> ()
        | Some (Histogram h), S_histogram { h_buckets; h_acc = a } ->
          if Array.length h_buckets <> Array.length h.bucket_counts then
            invalid_arg
              (Printf.sprintf "Obs.Registry.restore: histogram %s has different buckets" name);
          Array.blit h_buckets 0 h.bucket_counts 0 (Array.length h_buckets);
          h.n <- a.Stats.Acc.s_n;
          h.m.sum <- a.s_sum;
          h.m.mean <- a.s_mean;
          h.m.m2 <- a.s_m2;
          h.m.lo <- a.s_min;
          h.m.hi <- a.s_max
        | Some other, _ ->
          invalid_arg
            (Printf.sprintf "Obs.Registry.restore: %s is a %s in the live registry" name
               (kind_name other))
        | None, S_histogram _ ->
          invalid_arg
            (Printf.sprintf "Obs.Registry.restore: histogram %s missing from live registry" name))
      state

  (* The snapshot is sorted by instrument name so that lazy creation
     order (which depends on which ops a workload happens to exercise
     first) never shows through in the output. *)
  let snapshot t =
    let instrument_json = function
      | Counter c -> Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int c.count) ]
      | Gauge f -> Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Float (f ())) ]
      | Histogram h ->
        let opt v = if h.n = 0 then Json.Null else Json.Float v in
        Json.Obj
          [
            ("type", Json.Str "histogram");
            ("count", Json.Int h.n);
            ("sum", opt h.m.sum);
            ("mean", opt h.m.mean);
            ("min", opt h.m.lo);
            ("max", opt h.m.hi);
            ("bounds", Json.Arr (Array.to_list h.bounds |> List.map (fun b -> Json.Float b)));
            ( "buckets",
              Json.Arr (Array.to_list h.bucket_counts |> List.map (fun c -> Json.Int c)) );
          ]
    in
    Json.Obj
      (List.map
         (fun name ->
           (name, instrument_json (Hashtbl.find t.instruments name)))
         (names t))
end

(* ------------------------------------------------------------------ *)
(* Span tracing                                                        *)

module Trace = struct
  type event = {
    ts : int64; (* simulated cycle of the event *)
    kind : string; (* e.g. "syscall_enter", "ikc_send", "revoke_mark" *)
    op : int; (* protocol op id, or -1 when not op-tagged *)
    src : int; (* source kernel id, or -1 *)
    dst : int; (* destination kernel id, or -1 *)
    detail : string; (* free-form: syscall or IKC message name, counts *)
  }

  (* Where a slot's detail comes from: verbatim text, or the pieces of
     a template between its [%d] holes ([k] holes, [k + 1] pieces),
     filled from the slot's integer arguments on read. A layout is an
     [Ints] value built once, so storing it allocates nothing. *)
  type layout = Text | Ints of string array

  let max_holes = 3

  let layout template =
    let pieces = ref [] and start = ref 0 and i = ref 0 in
    let n = String.length template in
    while !i < n - 1 do
      if template.[!i] = '%' && template.[!i + 1] = 'd' then begin
        pieces := String.sub template !start (!i - !start) :: !pieces;
        i := !i + 2;
        start := !i
      end
      else i := !i + 1
    done;
    let pieces = Array.of_list (List.rev (String.sub template !start (n - !start) :: !pieces)) in
    if Array.length pieces > max_holes + 1 then
      invalid_arg (Printf.sprintf "Obs.Trace.layout: more than %d holes in %S" max_holes template);
    Ints pieces

  (* Struct-of-arrays ring: one column per field, so recording stores
     immediates and pointers to existing strings and allocates nothing.
     Unwritten slots hold the values of an empty event. *)
  type t = {
    capacity : int;
    stamps : int array;
    kinds : string array;
    ops : int array;
    srcs : int array;
    dsts : int array;
    texts : string array; (* the detail of a [Text] slot *)
    fmts : layout array;
    args : int array; (* [max_holes] per slot *)
    mutable recorded : int;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Obs.Trace.create: non-positive capacity";
    {
      capacity;
      stamps = Array.make capacity 0;
      kinds = Array.make capacity "";
      ops = Array.make capacity (-1);
      srcs = Array.make capacity (-1);
      dsts = Array.make capacity (-1);
      texts = Array.make capacity "";
      fmts = Array.make capacity Text;
      args = Array.make (capacity * max_holes) 0;
      recorded = 0;
    }

  (* Fills the common columns and returns the slot written. *)
  let[@inline] claim t ~ts ~kind ~op ~src ~dst =
    let i = t.recorded mod t.capacity in
    t.stamps.(i) <- ts;
    t.kinds.(i) <- kind;
    t.ops.(i) <- op;
    t.srcs.(i) <- src;
    t.dsts.(i) <- dst;
    t.recorded <- t.recorded + 1;
    i

  let emit t ~ts ~kind ~op ~src ~dst detail =
    let i = claim t ~ts ~kind ~op ~src ~dst in
    t.texts.(i) <- detail;
    t.fmts.(i) <- Text

  let emit_ints t ~ts ~kind ~op ~src ~dst layout a b c =
    let i = claim t ~ts ~kind ~op ~src ~dst in
    t.fmts.(i) <- layout;
    let j = i * max_holes in
    t.args.(j) <- a;
    t.args.(j + 1) <- b;
    t.args.(j + 2) <- c

  let recorded t = t.recorded
  let dropped t = Stdlib.max 0 (t.recorded - t.capacity)

  let render_detail t i =
    match t.fmts.(i) with
    | Text -> t.texts.(i)
    | Ints pieces ->
      let buf = Buffer.create 32 in
      Array.iteri
        (fun k piece ->
          if k > 0 then Buffer.add_string buf (string_of_int t.args.((i * max_holes) + k - 1));
          Buffer.add_string buf piece)
        pieces;
      Buffer.contents buf

  let event_at t i =
    {
      ts = Int64.of_int t.stamps.(i);
      kind = t.kinds.(i);
      op = t.ops.(i);
      src = t.srcs.(i);
      dst = t.dsts.(i);
      detail = render_detail t i;
    }

  (* The last [n] retained events, oldest first, read straight from
     their slots. *)
  let last t n =
    let n = Stdlib.max 0 (Stdlib.min n (Stdlib.min t.recorded t.capacity)) in
    let first = t.recorded - n in
    List.init n (fun k -> event_at t ((first + k) mod t.capacity))

  let events t = last t t.capacity
  let tail t ~n = last t n

  let event_json e =
    Json.Obj
      [
        ("ts", Json.Int (Int64.to_int e.ts));
        ("kind", Json.Str e.kind);
        ("op", Json.Int e.op);
        ("src", Json.Int e.src);
        ("dst", Json.Int e.dst);
        ("detail", Json.Str e.detail);
      ]

  let to_jsonl t =
    let buf = Buffer.create 4096 in
    List.iter
      (fun e ->
        Buffer.add_string buf (Json.to_string (event_json e));
        Buffer.add_char buf '\n')
      (events t);
    Buffer.contents buf

  (* The checkpoint image keeps the slot-for-slot [event] array it has
     always had, details rendered, so fingerprints do not depend on how
     the live ring stores them. *)
  type state = { st_ring : event array; st_recorded : int }

  let dump t = { st_ring = Array.init t.capacity (event_at t); st_recorded = t.recorded }

  let restore t s =
    if Array.length s.st_ring <> t.capacity then
      invalid_arg "Obs.Trace.restore: ring capacity does not match the snapshot";
    Array.iteri
      (fun i e ->
        t.stamps.(i) <- Int64.to_int e.ts;
        t.kinds.(i) <- e.kind;
        t.ops.(i) <- e.op;
        t.srcs.(i) <- e.src;
        t.dsts.(i) <- e.dst;
        t.texts.(i) <- e.detail;
        t.fmts.(i) <- Text)
      s.st_ring;
    t.recorded <- s.st_recorded
end
