(** Determinism, totality & domain-safety static analysis over one
    OCaml source.

    An AST-level pass built on [compiler-libs.common]: the source is
    parsed with {!Parse.implementation} and walked with
    {!Ast_iterator}. No typing information is used, so every rule is a
    syntactic heuristic — precise enough to ban the hazard classes that
    have actually bitten this repo, and cheap enough to run on every
    build.

    Rules (see DESIGN.md "Static analysis" and "Domain-safety
    analysis" for the rationale):

    - [D1] unordered iteration: [Hashtbl.iter]/[fold]/[to_seq] whose
      result does not flow into an immediately enclosing [List.sort]
      family sink (directly, via [|>] or via [@@]). Hash-order
      iteration is the classic byte-determinism leak.
    - [D2] entropy / wall clock: any [Random.*] outside
      [lib/stdx/prng.ml], plus [Sys.time], [Unix.gettimeofday] and
      [Unix.time] outside [lib/transport/clock.ml]. All nondeterminism
      must flow through the seeded {!Gcs_stdx.Prng}; all wall-clock
      reads through the bus transport's monotonic clock.
    - [D3] (only under [lib/core/] and [lib/impl/]) polymorphic
      structural operations on non-scalar operands: [=] applied to a
      syntactically constructed operand (constructor, tuple, record,
      list, polymorphic variant, array), and bare [compare] /
      [Stdlib.compare] / [Hashtbl.hash] applied to, or passed over,
      anything that is not a scalar literal. Structural compare on
      [Set]/[Map] values compares tree shapes, not contents. Files
      that define their own [compare] are exempt from the bare
      [compare] check (the local definition shadows the polymorphic
      one).
    - [P1] (only under [lib/]) partial stdlib functions: [Option.get],
      [List.hd], [List.tl], [Array.unsafe_*], [String.unsafe_*]. The
      proof-grade checkers must fail with a diagnostic invariant
      error, never an anonymous [Invalid_argument].
    - [P2] exception swallowing: a [try ... with] whose handler has a
      catch-all pattern ([_] or a bare variable), no guard, and no
      re-raise in its body. Such handlers can eat invariant
      violations.

    The concurrency family ([C]) targets multi-domain hazards:

    - [C1] cross-domain closure capture: inside the closure run by
      [Domain.spawn] / [Pool.map] / [Pool.iter] (a literal lambda, a
      named local function, or one trampoline call deep), an in-place
      write ([:=], [incr]/[decr], [<-] field/array/bytes assignment,
      [Hashtbl]/[Queue]/[Stack]/[Buffer] mutators) whose target is not
      bound inside the closure itself and not performed under
      [Lock.with_lock] / [Mutex.protect]. Such a write races with the
      spawning domain. Route the data through {!Gcs_stdx.Mailbox}
      values, [Atomic.t], or a {!Gcs_stdx.Lock}.
    - [C2] exception-unsafe critical sections: a [Mutex.lock m] that is
      not provably paired with [Mutex.unlock m] on every exit path —
      anything that can raise between the two leaves [m] locked
      forever. The scan accepts straight-line harmless code, a
      [match ... with exception] wrapper whose every case unlocks, and
      [try]/handlers that unlock. [lib/stdx/lock.ml] (the sanctioned
      wrapper) is exempt; everyone else uses
      {!Gcs_stdx.Lock.with_lock}.
    - [C3] atomic read-modify-write: [Atomic.get x] feeding an
      [Atomic.set x] (same canonical [x]) — as [set (f (get x))], as
      [let v = get x in ... set x ...], or as
      [if ... get x ... then set x ...]. A concurrent writer between
      the read and the write is silently lost; use
      [Atomic.compare_and_set], [Atomic.fetch_and_add], or
      {!Gcs_stdx.Atomicx.store_max}.
    - [C4] blocking under a lock, and static lock-order cycles: a
      blocking call ([Condition.wait], [Mutex.lock], [Mailbox.wait] /
      [recv], [Domain.join], [Pool.map]/[iter], [Clock.sleep]/[wait],
      [Unix.select], ...)
      syntactically inside a [Lock.with_lock] / [Mutex.protect] body
      ([Lock.wait c l] on exactly the one held lock [l] is the
      sanctioned exception); and, per file, every nested
      [with_lock]/[protect] pair contributes an edge [outer -> inner]
      to a lock-order graph whose cyclic strongly-connected components
      are reported as deadlock candidates.

    - [A1] suppression audit: a [[@gcs.lint.allow]] attribute naming a
      rule that never fires under it is itself a finding — stale
      suppressions rot into blanket immunity. [A1] is never
      suppressible.

    Any other finding is suppressible in source with
    [[@gcs.lint.allow "RULE"]] on the enclosing expression,
    [[@@gcs.lint.allow "RULE"]] on the enclosing value binding, or
    [[@@@gcs.lint.allow "RULE"]] floating (rest of the file). Several
    rules may be given separated by spaces or commas. Suppressed
    findings are still returned, marked, so they stay auditable.

    The missing-interface rule [M1] needs the file tree, not an AST;
    it lives in {!Driver}. *)

val rules : (string * string) list
(** [(id, one-line description)] for every rule, including [M1] and
    the parse-failure pseudo-rule [E0]. *)

val in_lib : string -> bool
(** The path is under [lib/] — the P1 (and {!Driver}'s M1) scope. *)

val lint_source : path:string -> string -> Finding.t list
(** [lint_source ~path source] parses and checks one [.ml] source.
    [path] must be the repo-relative path with ['/'] separators; it
    scopes the path-dependent rules (D2's prng exemption, D3's
    core/impl scope, P1's lib scope, C2's lock-home exemption). A file
    that does not parse yields a single [E0] finding. Results are
    sorted with {!Finding.compare}. *)

val analyze : path:string -> string -> Finding.t list * (string * string) list
(** Like {!lint_source}, but also returns the file's static lock-order
    edges [(outer, inner)] — one per nested [with_lock]/[protect]
    pair, deduplicated and sorted. {!Driver} aggregates these across
    the repo so [gcs lockcheck] can cross-validate the static graph
    against the dynamically observed one. *)
