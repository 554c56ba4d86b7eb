(* Tests for the sequence utilities and the deterministic PRNG. *)

open Gcs_stdx

let eq = Int.equal

let test_is_prefix () =
  Alcotest.(check bool) "empty prefix" true (Seqx.is_prefix ~equal:eq [] [ 1 ]);
  Alcotest.(check bool) "proper prefix" true (Seqx.is_prefix ~equal:eq [ 1; 2 ] [ 1; 2; 3 ]);
  Alcotest.(check bool) "equal" true (Seqx.is_prefix ~equal:eq [ 1; 2 ] [ 1; 2 ]);
  Alcotest.(check bool) "not prefix" false (Seqx.is_prefix ~equal:eq [ 2 ] [ 1; 2 ]);
  Alcotest.(check bool) "longer" false (Seqx.is_prefix ~equal:eq [ 1; 2; 3 ] [ 1; 2 ])

let test_consistent () =
  Alcotest.(check bool) "consistent" true (Seqx.consistent ~equal:eq [ 1 ] [ 1; 2 ]);
  Alcotest.(check bool) "inconsistent" false (Seqx.consistent ~equal:eq [ 1; 3 ] [ 1; 2 ])

let test_lub () =
  Alcotest.(check (option (list int))) "lub of consistent"
    (Some [ 1; 2; 3 ])
    (Seqx.lub ~equal:eq [ [ 1 ]; [ 1; 2; 3 ]; [ 1; 2 ] ]);
  Alcotest.(check (option (list int))) "lub of empty collection" (Some [])
    (Seqx.lub ~equal:eq []);
  Alcotest.(check (option (list int))) "lub of inconsistent" None
    (Seqx.lub ~equal:eq [ [ 1; 2 ]; [ 1; 3 ] ])

let test_nth1 () =
  Alcotest.(check (option int)) "first" (Some 10) (Seqx.nth1 [ 10; 20 ] 1);
  Alcotest.(check (option int)) "second" (Some 20) (Seqx.nth1 [ 10; 20 ] 2);
  Alcotest.(check (option int)) "past end" None (Seqx.nth1 [ 10; 20 ] 3);
  Alcotest.(check (option int)) "zero" None (Seqx.nth1 [ 10; 20 ] 0)

let test_take_drop () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Seqx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take beyond" [ 1; 2; 3 ] (Seqx.take 5 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Seqx.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop all" [] (Seqx.drop 5 [ 1; 2; 3 ])

let test_applyall () =
  let f x = if x < 3 then Some (x * 10) else None in
  Alcotest.(check (option (list int))) "all in domain" (Some [ 10; 20 ])
    (Seqx.applyall f [ 1; 2 ]);
  Alcotest.(check (option (list int))) "outside domain" None
    (Seqx.applyall f [ 1; 5 ])

let test_index_of () =
  Alcotest.(check (option int)) "found" (Some 2) (Seqx.index_of ~equal:eq 5 [ 4; 5; 6 ]);
  Alcotest.(check (option int)) "missing" None (Seqx.index_of ~equal:eq 9 [ 4; 5 ])

let test_lcp () =
  Alcotest.(check (list int)) "lcp" [ 1; 2 ]
    (Seqx.longest_common_prefix ~equal:eq [ 1; 2; 3 ] [ 1; 2; 4 ])

let test_sorted_helpers () =
  Alcotest.(check bool) "strictly sorted" true
    (Seqx.is_strictly_sorted ~compare:Int.compare [ 1; 2; 5 ]);
  Alcotest.(check bool) "duplicate" false
    (Seqx.is_strictly_sorted ~compare:Int.compare [ 1; 1; 5 ]);
  Alcotest.(check (list int)) "dedup" [ 1; 2; 3 ]
    (Seqx.dedup_sorted ~compare:Int.compare [ 3; 1; 2; 1; 3 ])

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let take n t = List.init n (fun _ -> Prng.int t 1000) in
  Alcotest.(check (list int)) "same seed same stream" (take 20 a) (take 20 b);
  let c = Prng.create 43 in
  Alcotest.(check bool) "different seed differs" true
    (take 20 (Prng.create 42) <> take 20 c)

let test_prng_bounds () =
  let t = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int t 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10);
    let y = Prng.int_in t 5 9 in
    Alcotest.(check bool) "int_in range" true (y >= 5 && y <= 9);
    let f = Prng.float t in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 1.0)
  done

let test_prng_pick_shuffle () =
  let t = Prng.create 11 in
  Alcotest.(check (option int)) "pick empty" None (Prng.pick t []);
  let xs = [ 1; 2; 3; 4; 5 ] in
  for _ = 1 to 50 do
    match Prng.pick t xs with
    | Some x -> Alcotest.(check bool) "pick member" true (List.mem x xs)
    | None -> Alcotest.fail "pick returned None on nonempty"
  done;
  let shuffled = Prng.shuffle t xs in
  Alcotest.(check (list int)) "shuffle is a permutation" xs
    (List.sort Int.compare shuffled)

(* ---------------- Ixq: int-indexed persistent queue ---------------- *)

let test_ixq_basics () =
  let q = List.fold_left Ixq.snoc Ixq.empty [ 10; 20; 30 ] in
  Alcotest.(check int) "length" 3 (Ixq.length q);
  Alcotest.(check bool) "not empty" false (Ixq.is_empty q);
  Alcotest.(check bool) "empty is empty" true (Ixq.is_empty Ixq.empty);
  Alcotest.(check (option int)) "nth1 1" (Some 10) (Ixq.nth1 q 1);
  Alcotest.(check (option int)) "nth1 3" (Some 30) (Ixq.nth1 q 3);
  Alcotest.(check (option int)) "nth1 0" None (Ixq.nth1 q 0);
  Alcotest.(check (option int)) "nth1 past end" None (Ixq.nth1 q 4);
  Alcotest.(check (option int)) "last" (Some 30) (Ixq.last q);
  Alcotest.(check (option int)) "last of empty" None (Ixq.last Ixq.empty);
  Alcotest.(check (list int)) "to_list" [ 10; 20; 30 ] (Ixq.to_list q);
  Alcotest.(check (list int)) "prefix 2" [ 10; 20 ] (Ixq.prefix 2 q);
  Alcotest.(check (list int)) "prefix 0" [] (Ixq.prefix 0 q);
  Alcotest.(check (list int)) "prefix beyond" [ 10; 20; 30 ] (Ixq.prefix 9 q)

let test_ixq_persistence () =
  (* snoc never mutates: the original survives extension. *)
  let q2 = Ixq.snoc (Ixq.snoc Ixq.empty 1) 2 in
  let _q3 = Ixq.snoc q2 3 in
  Alcotest.(check (list int)) "old version intact" [ 1; 2 ] (Ixq.to_list q2)

let prop_ixq_models_list =
  QCheck.Test.make ~name:"Ixq.of_list round-trips and indexes like a list"
    ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let q = Ixq.of_list xs in
      Ixq.to_list q = xs
      && Ixq.length q = List.length xs
      && List.for_all
           (fun i -> Ixq.nth1 q (i + 1) = Some (List.nth xs i))
           (List.init (List.length xs) (fun i -> i))
      && Ixq.fold (fun acc x -> x :: acc) [] q = List.rev xs)

(* ---------------- Tape: persistent append-only vector ---------------- *)

let test_tape_basics () =
  let t = Tape.append (Tape.empty ()) [ 10; 20; 30 ] in
  Alcotest.(check int) "length" 3 (Tape.length t);
  Alcotest.(check bool) "not empty" false (Tape.is_empty t);
  Alcotest.(check bool) "empty is empty" true (Tape.is_empty (Tape.empty ()));
  Alcotest.(check int) "get 0" 10 (Tape.get t 0);
  Alcotest.(check int) "get 2" 30 (Tape.get t 2);
  Alcotest.(check (option int)) "nth1 1" (Some 10) (Tape.nth1 t 1);
  Alcotest.(check (option int)) "nth1 3" (Some 30) (Tape.nth1 t 3);
  Alcotest.(check (option int)) "nth1 0" None (Tape.nth1 t 0);
  Alcotest.(check (option int)) "nth1 past end" None (Tape.nth1 t 4);
  Alcotest.(check (option int)) "first" (Some 10) (Tape.first t);
  Alcotest.(check (list int)) "to_list" [ 10; 20; 30 ] (Tape.to_list t);
  Alcotest.(check (list int)) "rest" [ 20; 30 ] (Tape.to_list (Tape.rest t));
  Alcotest.(check (list int)) "drop 2" [ 30 ] (Tape.to_list (Tape.drop 2 t));
  Alcotest.(check (list int)) "drop beyond" [] (Tape.to_list (Tape.drop 9 t));
  Alcotest.(check bool) "get out of bounds raises" true
    (try
       ignore (Tape.get t 3);
       false
     with Invalid_argument _ -> true)

let test_tape_persistence () =
  (* Extending an older slice must not disturb any other slice, even
     though the newest slice extends its buffer in place. *)
  let t2 = Tape.snoc (Tape.snoc (Tape.empty ()) 1) 2 in
  let t3 = Tape.snoc t2 3 in
  let t2' = Tape.snoc t2 99 in
  Alcotest.(check (list int)) "fork a: linear extension" [ 1; 2; 3 ]
    (Tape.to_list t3);
  Alcotest.(check (list int)) "fork b: diverging extension" [ 1; 2; 99 ]
    (Tape.to_list t2');
  Alcotest.(check (list int)) "base version intact" [ 1; 2 ] (Tape.to_list t2);
  (* Dropped-prefix slices share the buffer but keep their own window. *)
  let d = Tape.drop 1 t3 in
  let d' = Tape.snoc d 4 in
  Alcotest.(check (list int)) "suffix slice" [ 2; 3 ] (Tape.to_list d);
  Alcotest.(check (list int)) "suffix extension" [ 2; 3; 4 ] (Tape.to_list d');
  Alcotest.(check (list int)) "origin of suffix intact" [ 1; 2; 3 ]
    (Tape.to_list t3);
  (* Growth copies: an older slice reads the same after the frontier
     outgrows the buffer they share, and after a diverging snoc. *)
  let old = Tape.of_list (List.init 8 Fun.id) in
  let grown = Tape.append old (List.init 600 (fun i -> 100 + i)) in
  let diverged = Tape.snoc old 99 in
  Alcotest.(check (list int)) "older slice after growth and divergence"
    (List.init 8 Fun.id) (Tape.to_list old);
  Alcotest.(check (list int)) "diverged slice" (List.init 8 Fun.id @ [ 99 ])
    (Tape.to_list diverged);
  Alcotest.(check (list int)) "grown slice"
    (List.init 8 Fun.id @ List.init 600 (fun i -> 100 + i))
    (Tape.to_list grown)

(* Growing a buffer, at the frontier or by diverging from an older slice,
   must not empty the minor heap, whatever the appended value. *)
let test_tape_growth_forces_no_collection () =
  let n = 100_000 in
  let older = ref [] in
  let t =
    Gc_bound.unforced "frontier growth" (fun () ->
        let t = ref (Tape.empty ()) in
        for i = 1 to n do
          t := Tape.snoc !t (ref i);
          if i mod 10_000 = 5_000 then older := !t :: !older
        done;
        !t)
  in
  let d =
    Gc_bound.unforced "diverging growth" (fun () ->
        List.iter (fun s -> ignore (Tape.snoc s (ref 0))) !older;
        let d = ref (List.nth !older 0) in
        for i = 1 to n do
          d := Tape.snoc !d (ref i)
        done;
        !d)
  in
  Alcotest.(check int) "frontier length" n (Tape.length t);
  Alcotest.(check int) "diverged length" (n + 95_000) (Tape.length d);
  Alcotest.(check int) "diverged reads its own values" 1 !(Tape.get d 95_000)

(* A drop that empties a tape lets go of its buffer, so the values it
   dropped can be collected while the empty tape lives on. *)
let test_tape_drop_releases () =
  let w = Weak.create 2 in
  let filled slot k =
    let t = ref (Tape.empty ()) in
    for i = 1 to k do
      let v = ref i in
      if i = 1 then Weak.set w slot (Some v);
      t := Tape.snoc !t v
    done;
    !t
  in
  let dropped = Tape.drop 10 (filled 0 10) in
  let rested = Tape.rest (filled 1 1) in
  Gc.full_major ();
  Alcotest.(check bool) "drop of everything" false (Weak.check w 0);
  Alcotest.(check bool) "rest of one" false (Weak.check w 1);
  let dropped = Sys.opaque_identity dropped
  and rested = Sys.opaque_identity rested in
  Alcotest.(check int) "emptied tapes still extend" 2
    (Tape.length (Tape.snoc dropped (ref 0))
    + Tape.length (Tape.snoc rested (ref 0)))

let test_tape_equal () =
  let a = Tape.of_list [ 1; 2; 3 ] and b = Tape.append (Tape.empty ()) [ 1; 2; 3 ] in
  Alcotest.(check bool) "structural equality across buffers" true
    (Tape.equal Int.equal a b);
  Alcotest.(check bool) "length mismatch" false
    (Tape.equal Int.equal a (Tape.of_list [ 1; 2 ]));
  Alcotest.(check bool) "element mismatch" false
    (Tape.equal Int.equal a (Tape.of_list [ 1; 2; 4 ]))

let prop_tape_models_list =
  QCheck.Test.make ~name:"Tape.of_list round-trips and indexes like a list"
    ~count:300
    QCheck.(pair (list small_int) (list small_int))
    (fun (xs, ys) ->
      let t = Tape.append (Tape.of_list xs) ys in
      let model = xs @ ys in
      Tape.to_list t = model
      && Tape.length t = List.length model
      && Tape.fold_left (fun acc x -> x :: acc) [] t = List.rev model
      && List.for_all
           (fun i -> Tape.get t i = List.nth model i)
           (List.init (List.length model) (fun i -> i)))

let prop_tape_drop_snoc =
  QCheck.Test.make ~name:"Tape drop/snoc interleaving models list ops"
    ~count:300
    QCheck.(pair small_nat (list small_int))
    (fun (n, xs) ->
      let t = Tape.of_list xs in
      let d = Tape.drop n t in
      let d' = Tape.snoc d 999 in
      Tape.to_list d = Seqx.drop n xs
      && Tape.to_list d' = Seqx.drop n xs @ [ 999 ]
      && Tape.to_list t = xs)

(* ---------------- Fq: persistent FIFO ---------------- *)

let test_fq_basics () =
  let q = List.fold_left Fq.push Fq.empty [ 1; 2; 3 ] in
  Alcotest.(check int) "length" 3 (Fq.length q);
  Alcotest.(check (option int)) "peek" (Some 1) (Fq.peek q);
  (match Fq.pop q with
  | Some (1, q') ->
      Alcotest.(check (list int)) "rest after pop" [ 2; 3 ] (Fq.to_list q');
      (* Persistence: popping q' does not disturb q. *)
      ignore (Fq.pop q');
      Alcotest.(check (list int)) "original intact" [ 1; 2; 3 ] (Fq.to_list q)
  | _ -> Alcotest.fail "pop returned wrong head");
  Alcotest.(check bool) "pop empty" true (Fq.pop Fq.empty = None);
  Alcotest.(check bool) "peek empty" true (Fq.peek Fq.empty = None)

let prop_fq_is_fifo =
  (* Interpret booleans as push(counter++) / pop and compare against a
     plain list model throughout the walk. *)
  QCheck.Test.make ~name:"Fq behaves like a list FIFO under random ops"
    ~count:300
    QCheck.(list bool)
    (fun ops ->
      let step (q, model, n, ok) push =
        if not ok then (q, model, n, false)
        else if push then (Fq.push q n, model @ [ n ], n + 1, true)
        else
          match (Fq.pop q, model) with
          | None, [] -> (q, model, n, true)
          | Some (x, q'), m :: rest -> (q', rest, n, x = m)
          | Some _, [] | None, _ :: _ -> (q, model, n, false)
      in
      let q, model, _, ok =
        List.fold_left step (Fq.empty, [], 0, true) ops
      in
      ok && Fq.to_list q = model && Fq.length q = List.length model)

let prop_lub_is_upper_bound =
  QCheck.Test.make ~name:"lub bounds all consistent prefixes" ~count:200
    QCheck.(list_of_size (Gen.int_bound 40) small_int)
    (fun base ->
      (* Build a consistent family: all prefixes of one list. The size is
         bounded because the family is quadratic in the list length. *)
      let prefixes = List.mapi (fun i _ -> Seqx.take i base) base in
      match Seqx.lub ~equal:eq prefixes with
      | None -> prefixes <> [] && false
      | Some lub -> List.for_all (fun p -> Seqx.is_prefix ~equal:eq p lub) prefixes)

let prop_take_drop_append =
  QCheck.Test.make ~name:"take n ++ drop n = id" ~count:200
    QCheck.(pair small_nat (list small_int))
    (fun (n, xs) -> Seqx.take n xs @ Seqx.drop n xs = xs)


(* ---------------- metrics ---------------- *)

let test_metrics_counters () =
  let m = Gcs_stdx.Metrics.create () in
  Alcotest.(check int) "unregistered counter reads 0" 0
    (Gcs_stdx.Metrics.counter m "a");
  Gcs_stdx.Metrics.incr m "a";
  Gcs_stdx.Metrics.incr m "a" ~by:4;
  Gcs_stdx.Metrics.incr m "b";
  Alcotest.(check int) "accumulates" 5 (Gcs_stdx.Metrics.counter m "a");
  Alcotest.(check int) "independent names" 1 (Gcs_stdx.Metrics.counter m "b")

let test_metrics_gauges () =
  let m = Gcs_stdx.Metrics.create () in
  Alcotest.(check (option (float 0.0))) "unset gauge" None
    (Gcs_stdx.Metrics.gauge m "g");
  Gcs_stdx.Metrics.set_gauge m "g" 2.5;
  Gcs_stdx.Metrics.set_gauge m "g" 1.0;
  Alcotest.(check (option (float 0.0001))) "set overwrites" (Some 1.0)
    (Gcs_stdx.Metrics.gauge m "g");
  Gcs_stdx.Metrics.max_gauge m "h" 3.0;
  Gcs_stdx.Metrics.max_gauge m "h" 2.0;
  Gcs_stdx.Metrics.max_gauge m "h" 7.0;
  Alcotest.(check (option (float 0.0001))) "max keeps high-water" (Some 7.0)
    (Gcs_stdx.Metrics.gauge m "h")

let test_metrics_histogram () =
  let m = Gcs_stdx.Metrics.create () in
  List.iter
    (Gcs_stdx.Metrics.observe ~buckets:[ 1.0; 10.0 ] m "lat")
    [ 0.5; 0.9; 5.0; 50.0 ];
  match Gcs_stdx.Metrics.histogram m "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some (buckets, count, sum, max_v) ->
      Alcotest.(check int) "observations" 4 count;
      Alcotest.(check (float 0.0001)) "sum" 56.4 sum;
      Alcotest.(check (float 0.0001)) "max" 50.0 max_v;
      Alcotest.(check (list (pair (float 0.0001) int)))
        "bucket counts (cumulative le semantics per slot)"
        [ (1.0, 2); (10.0, 1); (infinity, 1) ]
        buckets

let test_metrics_nearest_rank () =
  let q = Gcs_stdx.Metrics.nearest_rank in
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (q hundred 0.5);
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 (q hundred 0.99);
  Alcotest.(check (float 0.0)) "p7 of 1..100 (no float round-up)" 7.0
    (q hundred 0.07);
  Alcotest.(check (float 0.0)) "p100 is the max" 100.0 (q hundred 1.0);
  Alcotest.(check (float 0.0)) "p0 is the min" 1.0 (q hundred 0.0);
  Alcotest.(check (float 0.0)) "p50 of four rounds down" 2.0
    (q [| 1.0; 2.0; 3.0; 4.0 |] 0.5);
  Alcotest.(check (float 0.0)) "p99 of four is the max" 4.0
    (q [| 1.0; 2.0; 3.0; 4.0 |] 0.99);
  Alcotest.(check (float 0.0)) "singleton" 3.5 (q [| 3.5 |] 0.5);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (q [||] 0.5))

let test_metrics_kind_clash () =
  let m = Gcs_stdx.Metrics.create () in
  Gcs_stdx.Metrics.incr m "x";
  Alcotest.(check bool) "kind clash raises" true
    (try
       Gcs_stdx.Metrics.set_gauge m "x" 1.0;
       false
     with Invalid_argument _ -> true)

let test_metrics_json_deterministic () =
  let mk () =
    let m = Gcs_stdx.Metrics.create () in
    (* Register in different orders; the snapshot sorts by name. *)
    m
  in
  let m1 = mk () and m2 = mk () in
  Gcs_stdx.Metrics.incr m1 "z";
  Gcs_stdx.Metrics.incr m1 "a" ~by:2;
  Gcs_stdx.Metrics.observe m1 "lat" 3.0;
  Gcs_stdx.Metrics.observe m2 "lat" 3.0;
  Gcs_stdx.Metrics.incr m2 "a" ~by:2;
  Gcs_stdx.Metrics.incr m2 "z";
  Alcotest.(check string) "insertion order does not leak"
    (Gcs_stdx.Metrics.to_json m1) (Gcs_stdx.Metrics.to_json m2);
  (* And the emitted JSON parses with the real parser. *)
  match Gcs_stdx.Jsonx.of_string (Gcs_stdx.Metrics.to_json m1) with
  | Ok (Gcs_stdx.Jsonx.Obj fields) ->
      Alcotest.(check (list string)) "sorted keys" [ "a"; "lat"; "z" ]
        (List.map fst fields)
  | Ok _ -> Alcotest.fail "snapshot is not an object"
  | Error e -> Alcotest.failf "snapshot does not parse: %s" e

(* ---------------- jsonx ---------------- *)

let jx = Alcotest.testable (fun ppf _ -> Format.fprintf ppf "<json>") ( = )

let test_jsonx_values () =
  let ok s = match Gcs_stdx.Jsonx.of_string s with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  Alcotest.check jx "null" Gcs_stdx.Jsonx.Null (ok "null");
  Alcotest.check jx "bools" (Gcs_stdx.Jsonx.Bool true) (ok " true ");
  Alcotest.check jx "number" (Gcs_stdx.Jsonx.Num (-3.25)) (ok "-3.25");
  Alcotest.check jx "exponent" (Gcs_stdx.Jsonx.Num 1200.0) (ok "1.2e3");
  Alcotest.check jx "string escapes"
    (Gcs_stdx.Jsonx.Str "a\"b\\c\nd\te/")
    (ok {|"a\"b\\c\nd\te\/"|});
  Alcotest.check jx "unicode escape" (Gcs_stdx.Jsonx.Str "A\xc3\xa9")
    (ok {|"\u0041\u00e9"|});
  Alcotest.check jx "nested"
    (Gcs_stdx.Jsonx.Obj
       [
         ("xs", Gcs_stdx.Jsonx.Arr [ Gcs_stdx.Jsonx.Num 1.0; Gcs_stdx.Jsonx.Null ]);
         ("o", Gcs_stdx.Jsonx.Obj []);
       ])
    (ok {|{"xs":[1,null],"o":{}}|})

let test_jsonx_rejects () =
  List.iter
    (fun s ->
      match Gcs_stdx.Jsonx.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "tru";
      "1 2";
      "\"unterminated";
      "\"bad \\x escape\"" |> String.map (fun c -> c);
      "{\"a\" 1}";
    ]

let test_jsonx_accessors () =
  match Gcs_stdx.Jsonx.of_string {|{"s":"v","n":2,"xs":[1]}|} with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check (option string)) "member+string" (Some "v")
        (Option.bind (Gcs_stdx.Jsonx.member "s" v) Gcs_stdx.Jsonx.to_string);
      Alcotest.(check (option (float 0.0001))) "member+float" (Some 2.0)
        (Option.bind (Gcs_stdx.Jsonx.member "n" v) Gcs_stdx.Jsonx.to_float);
      Alcotest.(check bool) "kind mismatch is None" true
        (Option.bind (Gcs_stdx.Jsonx.member "s" v) Gcs_stdx.Jsonx.to_float
        = None);
      Alcotest.(check bool) "missing member" true
        (Gcs_stdx.Jsonx.member "zz" v = None)

(* Encoding then parsing gives the value back; a non-finite number has
   no JSON form and comes back as null. *)
let test_jsonx_round_trip () =
  let open Gcs_stdx.Jsonx in
  let back v =
    match of_string (encode v) with
    | Ok v' -> v'
    | Error e -> Alcotest.failf "%s does not parse: %s" (encode v) e
  in
  let v =
    Obj
      [
        ("s", Str "a\"b\\c\n\x01");
        ("xs", Arr [ Num 1.0; Num (-0.1); Num 1e300; Num 3.25e-7; Null ]);
        ("b", Bool false);
        ("o", Obj [ ("k", Arr []) ]);
      ]
  in
  Alcotest.check jx "finite values round-trip" v (back v);
  Alcotest.(check string) "non-finite numbers encode as null"
    {|[null,null,null]|}
    (encode (Arr [ Num Float.nan; Num Float.infinity; Num Float.neg_infinity ]));
  Alcotest.check jx "and parse back as null"
    (Obj [ ("latency_p50", Null) ])
    (back (Obj [ ("latency_p50", Num Float.nan) ]))

(* ------------------------------------------------------------------ *)
(* Graphx: the cycle detector under both lock-order analyses. *)

let sccs edges =
  Gcs_stdx.Graphx.cyclic_sccs ~compare:String.compare ~edges

let test_graphx_acyclic () =
  Alcotest.(check (list (list string)))
    "a chain has no cyclic SCC" []
    (sccs [ ("a", "b"); ("b", "c"); ("a", "c") ])

let test_graphx_two_cycle () =
  Alcotest.(check (list (list string)))
    "inverted pair" [ [ "a"; "b" ] ]
    (sccs [ ("a", "b"); ("b", "a") ])

let test_graphx_self_loop () =
  Alcotest.(check (list (list string)))
    "self-edge is a cycle" [ [ "x" ] ]
    (sccs [ ("x", "x"); ("x", "y") ])

let test_graphx_two_components () =
  Alcotest.(check (list (list string)))
    "distinct cycles kept apart, sorted"
    [ [ "a"; "b" ]; [ "c"; "d" ] ]
    (sccs [ ("c", "d"); ("d", "c"); ("a", "b"); ("b", "a"); ("b", "c") ])

let test_graphx_edge_order_irrelevant () =
  let edges = [ ("a", "b"); ("b", "c"); ("c", "a"); ("c", "d") ] in
  Alcotest.(check (list (list string)))
    "deterministic at any edge order"
    (sccs edges)
    (sccs (List.rev edges))

let test_graphx_reachable () =
  let reach =
    Gcs_stdx.Graphx.reachable ~compare:String.compare
      ~edges:[ ("a", "b"); ("b", "c"); ("c", "a"); ("x", "y") ]
  in
  Alcotest.(check (list string))
    "cycle members reach themselves" [ "a"; "b"; "c" ] (reach "a");
  Alcotest.(check (list string)) "dag tail" [ "y" ] (reach "x");
  Alcotest.(check (list string)) "sink reaches nothing" [] (reach "y")

let () =
  Alcotest.run "stdx"
    [
      ( "graphx",
        [
          Alcotest.test_case "acyclic" `Quick test_graphx_acyclic;
          Alcotest.test_case "two-cycle" `Quick test_graphx_two_cycle;
          Alcotest.test_case "self-loop" `Quick test_graphx_self_loop;
          Alcotest.test_case "two components" `Quick
            test_graphx_two_components;
          Alcotest.test_case "edge order irrelevant" `Quick
            test_graphx_edge_order_irrelevant;
          Alcotest.test_case "reachable" `Quick test_graphx_reachable;
        ] );
      ( "seqx",
        [
          Alcotest.test_case "is_prefix" `Quick test_is_prefix;
          Alcotest.test_case "consistent" `Quick test_consistent;
          Alcotest.test_case "lub" `Quick test_lub;
          Alcotest.test_case "nth1" `Quick test_nth1;
          Alcotest.test_case "take/drop" `Quick test_take_drop;
          Alcotest.test_case "applyall" `Quick test_applyall;
          Alcotest.test_case "index_of" `Quick test_index_of;
          Alcotest.test_case "longest_common_prefix" `Quick test_lcp;
          Alcotest.test_case "sorted helpers" `Quick test_sorted_helpers;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "pick/shuffle" `Quick test_prng_pick_shuffle;
        ] );
      ( "ixq",
        [
          Alcotest.test_case "basics" `Quick test_ixq_basics;
          Alcotest.test_case "persistence" `Quick test_ixq_persistence;
        ] );
      ( "fq",
        [ Alcotest.test_case "basics" `Quick test_fq_basics ] );
      ( "tape",
        [
          Alcotest.test_case "basics" `Quick test_tape_basics;
          Alcotest.test_case "persistence" `Quick test_tape_persistence;
          Alcotest.test_case "equal" `Quick test_tape_equal;
          Alcotest.test_case "growth forces no collection" `Quick
            test_tape_growth_forces_no_collection;
          Alcotest.test_case "drop releases the buffer" `Quick
            test_tape_drop_releases;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "gauges" `Quick test_metrics_gauges;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "nearest-rank quantile" `Quick
            test_metrics_nearest_rank;
          Alcotest.test_case "kind clash" `Quick test_metrics_kind_clash;
          Alcotest.test_case "deterministic JSON snapshot" `Quick
            test_metrics_json_deterministic;
        ] );
      ( "jsonx",
        [
          Alcotest.test_case "values" `Quick test_jsonx_values;
          Alcotest.test_case "rejects malformed input" `Quick
            test_jsonx_rejects;
          Alcotest.test_case "accessors" `Quick test_jsonx_accessors;
          Alcotest.test_case "round trip" `Quick test_jsonx_round_trip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lub_is_upper_bound;
            prop_take_drop_append;
            prop_ixq_models_list;
            prop_fq_is_fifo;
            prop_tape_models_list;
            prop_tape_drop_snoc;
          ] );
    ]
