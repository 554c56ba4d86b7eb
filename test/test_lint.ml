(* Unit tests for the gcs lint pass.

   For every rule: a positive fixture that must fire, negatives that
   must stay silent (including the sanctioned-sink and scoping
   exemptions), and an allow-attributed variant that must downgrade the
   finding to a suppression. Fixtures are inline sources handed to
   [Lint.lint_source] under a fake repo-relative path, since the
   path-dependent rules (D2's prng exemption, D3's core/impl scope,
   P1's lib scope) key off it. The suite ends with a self-lint: the
   real repo tree must report zero non-suppressed findings. *)

let lint ~path src = Gcs_lint.Lint.lint_source ~path src

let live ~path src =
  List.filter (fun f -> not f.Gcs_lint.Finding.suppressed) (lint ~path src)

let allowed ~path src =
  List.filter (fun f -> f.Gcs_lint.Finding.suppressed) (lint ~path src)

let rules_of fs = List.map (fun f -> f.Gcs_lint.Finding.rule) fs

let fires name ~path ~rule src =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string))
        "live findings" [ rule ]
        (rules_of (live ~path src)))

let silent name ~path src =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string))
        "live findings" [] (rules_of (live ~path src)))

let downgraded name ~path ~rule src =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string))
        "live findings" [] (rules_of (live ~path src));
      Alcotest.(check (list string))
        "suppressed findings" [ rule ]
        (rules_of (allowed ~path src)))

let downgraded_rules name ~path ~rules src =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string))
        "live findings" [] (rules_of (live ~path src));
      Alcotest.(check (list string))
        "suppressed findings" rules
        (rules_of (allowed ~path src)))

(* Scopes: D3 only looks under lib/core and lib/impl, so the other
   rules' fixtures live under lib/apps to keep each test single-rule. *)
let apps = "lib/apps/fixture.ml"
let core = "lib/core/fixture.ml"

let d1 =
  [
    fires "fold without sink fires" ~path:apps ~rule:"D1"
      "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []";
    fires "iter fires" ~path:apps ~rule:"D1"
      "let dump out tbl = Hashtbl.iter (fun k v -> out k v) tbl";
    fires "to_seq fires" ~path:apps ~rule:"D1"
      "let s tbl = Hashtbl.to_seq tbl";
    silent "fold into direct List.sort is sanctioned" ~path:apps
      "let keys tbl =\n\
      \  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])";
    silent "fold piped into List.sort is sanctioned" ~path:apps
      "let keys tbl =\n\
      \  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int.compare";
    silent "fold under List.sort via @@ is sanctioned" ~path:apps
      "let keys tbl =\n\
      \  List.sort Int.compare @@ Hashtbl.fold (fun k _ acc -> k :: acc) tbl []";
    silent "sort_uniq counts as a sink" ~path:apps
      "let keys tbl =\n\
      \  List.sort_uniq Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])";
    downgraded "allow attribute on the expression" ~path:apps ~rule:"D1"
      "let keys tbl =\n\
      \  (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] [@gcs.lint.allow \"D1\"])";
  ]

let d2 =
  [
    fires "Random outside prng fires" ~path:apps ~rule:"D2"
      "let roll () = Random.int 6";
    fires "Random.State outside prng fires" ~path:apps ~rule:"D2"
      "let roll st = Random.State.int st 6";
    fires "gettimeofday fires" ~path:apps ~rule:"D2"
      "let now () = Unix.gettimeofday ()";
    fires "Sys.time fires" ~path:apps ~rule:"D2" "let now () = Sys.time ()";
    silent "Random inside lib/stdx/prng.ml is the one sanctioned home"
      ~path:"lib/stdx/prng.ml" "let draw st = Random.State.int st 10";
    silent "gettimeofday inside lib/transport/clock.ml is sanctioned"
      ~path:"lib/transport/clock.ml" "let read () = Unix.gettimeofday ()";
    fires "entropy is not sanctioned in the clock module"
      ~path:"lib/transport/clock.ml" ~rule:"D2" "let roll () = Random.int 6";
    fires "wall clock is not sanctioned in the prng module"
      ~path:"lib/stdx/prng.ml" ~rule:"D2" "let now () = Unix.gettimeofday ()";
    downgraded "allow attribute on the binding" ~path:apps ~rule:"D2"
      "let now () = Unix.gettimeofday () [@@gcs.lint.allow \"D2\"]";
    downgraded "floating allow covers the rest of the file" ~path:apps
      ~rule:"D2" "[@@@gcs.lint.allow \"D2\"]\n\nlet roll () = Random.int 6";
  ]

let d3 =
  [
    fires "= on a constructor fires in core" ~path:core ~rule:"D3"
      "let f x = x = Some 1";
    fires "<> on a list fires in core" ~path:core ~rule:"D3"
      "let f x = x <> []";
    fires "= on a tuple fires in core" ~path:core ~rule:"D3"
      "let f a b = (a, b) = (1, 2)";
    fires "bare polymorphic compare fires in core" ~path:core ~rule:"D3"
      "let f a b = compare a b";
    fires "compare passed higher-order fires in core" ~path:core ~rule:"D3"
      "let sorted xs = List.sort compare xs";
    fires "Hashtbl.hash fires in core" ~path:core ~rule:"D3"
      "let h x = Hashtbl.hash x";
    silent "= against an int literal is scalar" ~path:core "let f x = x = 1";
    silent "= against a string literal is scalar" ~path:core
      "let f x = x = \"tag\"";
    silent "outside core/impl the rule is off" ~path:apps
      "let f x = x = Some 1";
    silent "a file defining its own compare shadows the polymorphic one"
      ~path:core "let compare a b = Int.compare a b\nlet f a b = compare a b";
    downgraded "allow attribute respected" ~path:core ~rule:"D3"
      "let f x = ((x = Some 1) [@gcs.lint.allow \"D3\"])";
  ]

let p1 =
  [
    fires "List.hd fires in lib" ~path:apps ~rule:"P1"
      "let first xs = List.hd xs";
    fires "Option.get fires in lib" ~path:apps ~rule:"P1"
      "let v o = Option.get o";
    fires "Array.unsafe_get fires in lib" ~path:apps ~rule:"P1"
      "let g a = Array.unsafe_get a 0";
    silent "outside lib the rule is off" ~path:"bin/fixture.ml"
      "let first xs = List.hd xs";
    silent "total match is the fix" ~path:apps
      "let first = function x :: _ -> x | [] -> invalid_arg \"empty\"";
    downgraded "allow attribute respected" ~path:apps ~rule:"P1"
      "let first xs = (List.hd xs [@gcs.lint.allow \"P1\"])";
    downgraded_rules "allow payload may list several rules" ~path:apps
      ~rules:[ "D1"; "P1" ]
      "let first tbl xs =\n\
      \  ((ignore (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []);\n\
      \    List.hd xs)\n\
      \  [@gcs.lint.allow \"D1, P1\"])";
  ]

let p2 =
  [
    fires "catch-all wildcard swallow fires" ~path:apps ~rule:"P2"
      "let f g = try g () with _ -> 0";
    fires "catch-all variable swallow fires" ~path:apps ~rule:"P2"
      "let f g = try g () with e -> ignore e; 0";
    silent "re-raising catch-all is fine" ~path:apps
      "let f g = try g () with e -> raise e";
    silent "specific constructor is fine" ~path:apps
      "let f g = try g () with Not_found -> 0";
    silent "guarded catch-all is a deliberate filter" ~path:apps
      "let f g p = try g () with e when p e -> 0";
    downgraded "allow attribute respected" ~path:apps ~rule:"P2"
      "let f g = ((try g () with _ -> 0) [@gcs.lint.allow \"P2\"])";
  ]

let c1 =
  [
    fires "ref write in a Domain.spawn lambda fires" ~path:apps ~rule:"C1"
      "let f () =\n\
      \  let total = ref 0 in\n\
      \  let d = Domain.spawn (fun () -> total := 1) in\n\
      \  Domain.join d";
    fires "Hashtbl write in a Pool closure fires" ~path:apps ~rule:"C1"
      "let f tbl xs = Pool.iter (fun x -> Hashtbl.replace tbl x x) xs";
    fires "array write in a Pool closure fires" ~path:apps ~rule:"C1"
      "let f a xs = Pool.iter (fun i -> a.(i) <- 1) xs";
    fires "a named local function spawned by name is analyzed" ~path:apps
      ~rule:"C1"
      "let f () =\n\
      \  let r = ref 0 in\n\
      \  let worker () = r := 1 in\n\
      \  Domain.join (Domain.spawn worker)";
    fires "one trampoline call deep is analyzed" ~path:apps ~rule:"C1"
      "let f r =\n\
      \  let node p = r := p in\n\
      \  Domain.join (Domain.spawn (fun () -> node 3))";
    silent "closure-local mutable state is domain-local" ~path:apps
      "let f xs = Pool.iter (fun x -> let r = ref 0 in r := x; ignore !r) xs";
    silent "Atomic routing is sanctioned" ~path:apps
      "let f c xs = Pool.iter (fun x -> Atomic.set c x) xs";
    silent "a write under Lock.with_lock is sanctioned" ~path:apps
      "let f l r xs = Pool.iter (fun x -> Lock.with_lock l (fun () -> r := x)) xs";
    silent "mutation outside any spawn closure is not C1's business"
      ~path:apps "let f r = r := 1";
    downgraded "allow attribute respected" ~path:apps ~rule:"C1"
      "let f tbl xs =\n\
      \  Pool.iter (fun x -> (Hashtbl.replace tbl x x [@gcs.lint.allow \
       \"C1\"])) xs";
  ]

let c2 =
  [
    fires "a call that can raise between lock and unlock fires" ~path:apps
      ~rule:"C2" "let f m g = Mutex.lock m; g (); Mutex.unlock m";
    fires "lock with no unlock on the path fires" ~path:apps ~rule:"C2"
      "let f m r = Mutex.lock m; r := 1";
    fires "a bare Mutex.lock outside a sequence fires" ~path:apps ~rule:"C2"
      "let f m = Mutex.lock m";
    silent "harmless straight-line section is provably paired" ~path:apps
      "let f m r = Mutex.lock m; r := 1; Mutex.unlock m; !r";
    silent "match-with-exception that unlocks in every case is safe"
      ~path:apps
      "let f m g =\n\
      \  Mutex.lock m;\n\
      \  match g () with\n\
      \  | v -> Mutex.unlock m; v\n\
      \  | exception e -> Mutex.unlock m; raise e";
    silent "lib/stdx/lock.ml is the sanctioned home of raw Mutex"
      ~path:"lib/stdx/lock.ml"
      "let f m g = Mutex.lock m; g (); Mutex.unlock m";
    downgraded "allow attribute respected" ~path:apps ~rule:"C2"
      "let f m g = ((Mutex.lock m; g (); Mutex.unlock m) [@gcs.lint.allow \
       \"C2\"])";
  ]

let c3 =
  [
    fires "Atomic.set of a function of Atomic.get fires" ~path:apps
      ~rule:"C3" "let f c = Atomic.set c (Atomic.get c + 1)";
    fires "let-bound get followed by set fires" ~path:apps ~rule:"C3"
      "let f c = let v = Atomic.get c in Atomic.set c (v + 1)";
    fires "check-then-act max update fires" ~path:apps ~rule:"C3"
      "let f c r = if r > Atomic.get c then Atomic.set c r";
    silent "a compare_and_set retry loop is the fix" ~path:apps
      "let rec f c v =\n\
      \  let seen = Atomic.get c in\n\
      \  if v > seen then\n\
      \    if not (Atomic.compare_and_set c seen v) then f c v";
    silent "an idempotent latch (set of a literal) is not a lost update"
      ~path:apps "let f c = if not (Atomic.get c) then Atomic.set c true";
    silent "get and set on different atomics are unrelated" ~path:apps
      "let f a b = Atomic.set b (Atomic.get a)";
    downgraded "allow attribute respected" ~path:apps ~rule:"C3"
      "let f c = (Atomic.set c (Atomic.get c + 1) [@gcs.lint.allow \"C3\"])";
  ]

let c4 =
  [
    fires "Condition.wait under a held lock fires" ~path:apps ~rule:"C4"
      "let f l c m = Lock.with_lock l (fun () -> Condition.wait c m)";
    fires "a blocking Mailbox.recv under a held lock fires" ~path:apps
      ~rule:"C4"
      "let f l mb = Lock.with_lock l (fun () -> Mailbox.recv mb)";
    fires "a timed Clock.wait under a held lock fires" ~path:apps ~rule:"C4"
      "let f l k = Lock.with_lock l (fun () -> Clock.wait k 0.01)";
    fires "Unix.select under a held lock fires" ~path:apps ~rule:"C4"
      "let f l r = Lock.with_lock l (fun () -> Unix.select [ r ] [] [] 0.01)";
    fires "Lock.wait while holding a second lock fires" ~path:apps
      ~rule:"C4"
      "let f a b c =\n\
      \  Lock.with_lock a (fun () ->\n\
      \      Lock.with_lock b (fun () -> Lock.wait c b))";
    silent "Lock.wait on the one held lock is the sanctioned block"
      ~path:apps
      "let f l c = Lock.with_lock l (fun () -> Lock.wait c l)";
    fires "an inverted acquisition order is a static cycle" ~path:apps
      ~rule:"C4"
      "let f a b = Lock.with_lock a (fun () -> Lock.with_lock b (fun () -> \
       ()))\n\
       let g a b = Lock.with_lock b (fun () -> Lock.with_lock a (fun () -> \
       ()))";
    silent "a consistent acquisition order has no cycle" ~path:apps
      "let f a b = Lock.with_lock a (fun () -> Lock.with_lock b (fun () -> \
       ()))\n\
       let g a b = Lock.with_lock a (fun () -> Lock.with_lock b (fun () -> \
       ()))";
    silent "Mutex.protect nests count as ordered, not as raw locks"
      ~path:apps
      "let f a b = Mutex.protect a (fun () -> Mutex.protect b (fun () -> ()))";
    downgraded "floating allow downgrades the cycle" ~path:apps ~rule:"C4"
      "[@@@gcs.lint.allow \"C4\"]\n\
       let f a b = Lock.with_lock a (fun () -> Lock.with_lock b (fun () -> \
       ()))\n\
       let g a b = Lock.with_lock b (fun () -> Lock.with_lock a (fun () -> \
       ()))";
  ]

let a1 =
  [
    fires "an allow under which nothing fires is itself a finding"
      ~path:apps ~rule:"A1" "let f x = (x + 1 [@gcs.lint.allow \"D1\"])";
    fires "a stale floating allow is flagged" ~path:apps ~rule:"A1"
      "[@@@gcs.lint.allow \"P2\"]\nlet f x = x";
    Alcotest.test_case "a partially stale rule list names the dead rule"
      `Quick
      (fun () ->
        let src = "let first xs = (List.hd xs [@gcs.lint.allow \"D1, P1\"])" in
        Alcotest.(check (list string))
          "live findings" [ "A1" ]
          (rules_of (live ~path:apps src));
        Alcotest.(check (list string))
          "suppressed findings" [ "P1" ]
          (rules_of (allowed ~path:apps src)));
    silent "a used allow is not flagged" ~path:apps
      "let now () = (Unix.gettimeofday () [@gcs.lint.allow \"D2\"])";
    fires "A1 is not itself suppressible" ~path:apps ~rule:"A1"
      "let f x = (x + 1 [@gcs.lint.allow \"D1, A1\"])";
  ]

let e0 =
  [
    fires "syntax error reports E0, not an exception" ~path:apps ~rule:"E0"
      "let let = 3";
  ]

(* The same inverted-order shape `gcs lockcheck` must catch dynamically
   (see test_lock.ml): the static C4 pass and the runtime detector
   cross-validate on one fixture. *)
let static_dynamic_cross_validation () =
  let src =
    "let f a b = Lock.with_lock a (fun () -> Lock.with_lock b (fun () -> \
     ()))\n\
     let g a b = Lock.with_lock b (fun () -> Lock.with_lock a (fun () -> \
     ()))"
  in
  let findings, edges = Gcs_lint.Lint.analyze ~path:apps src in
  Alcotest.(check (list string)) "static C4 cycle" [ "C4" ]
    (rules_of (List.filter (fun f -> not f.Gcs_lint.Finding.suppressed) findings));
  Alcotest.(check (list (pair string string)))
    "both edge directions recorded"
    [ ("a", "b"); ("b", "a") ]
    edges

(* The linter's own verdict on the real tree: zero live findings. This
   is the test-suite twin of the CI `gcs lint` gate, so a hazard
   introduced without an explicit allow breaks `dune runtest` locally
   long before CI. *)
let self_lint () =
  match Gcs_lint.Driver.find_root () with
  | None -> Alcotest.fail "no dune-project above the test's cwd"
  | Some root ->
      let report = Gcs_lint.Driver.run ~root in
      if report.Gcs_lint.Driver.files = 0 then
        Alcotest.fail "self-lint scanned zero files";
      if not (Gcs_lint.Driver.clean report) then
        Alcotest.failf "repo does not lint clean:\n%s"
          (String.concat "\n"
             (List.map Gcs_lint.Finding.to_string
                report.Gcs_lint.Driver.findings))

let () =
  Alcotest.run "lint"
    [
      ("D1 unordered iteration", d1);
      ("D2 entropy and wall clock", d2);
      ("D3 polymorphic structural ops", d3);
      ("P1 partial stdlib functions", p1);
      ("P2 exception swallowing", p2);
      ("C1 cross-domain closure writes", c1);
      ("C2 exception-unsafe critical sections", c2);
      ("C3 atomic read-modify-write", c3);
      ("C4 blocking and lock order", c4);
      ("A1 suppression audit", a1);
      ("E0 parse failure", e0);
      ( "static/dynamic cross-validation",
        [
          Alcotest.test_case "inverted order yields C4 and both edges"
            `Quick static_dynamic_cross_validation;
        ] );
      ( "self-lint",
        [ Alcotest.test_case "repo tree is clean" `Quick self_lint ] );
    ]
