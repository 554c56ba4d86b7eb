(* In OCaml 5.1 every minor collection stops all running domains, so a
   node path must take none that its allocation does not explain.
   [unforced label f] runs [f ()] in this domain and fails unless it took
   at most one minor collection per minor heap its allocation fills, one
   per major cycle that ended (each empties the minor heaps), and one
   for the heap already partly filled when it started. *)
let unforced label f =
  let stat () = Gc.quick_stat () in
  let s0 = stat () and w0 = Gc.minor_words () in
  let result = f () in
  let s1 = stat () and words = Gc.minor_words () -. w0 in
  let heaps = Float.ceil (words /. float_of_int (Gc.get ()).Gc.minor_heap_size) in
  let majors = s1.Gc.major_collections - s0.Gc.major_collections in
  let allowed = int_of_float heaps + majors + 1 in
  let taken = s1.Gc.minor_collections - s0.Gc.minor_collections in
  if taken > allowed then
    Alcotest.failf
      "%s: %d minor collections, but %.0f minor words and %d major cycles \
       explain at most %d"
      label taken words majors allowed;
  result
