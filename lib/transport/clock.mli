(** Monotonic wall clock for real transports.

    The repository's determinism discipline (lint rule D2) forbids reading
    the wall clock anywhere: simulated time and seeds are the only
    admissible time sources, so every run is reproducible. A {e real}
    transport is the one place where wall time is the semantics, not an
    escape — this module is the single sanctioned sink (rule D2 exempts
    [lib/transport/clock.ml] exactly as it exempts [lib/stdx/prng.ml] for
    entropy). Everything else on the bus path asks a [Clock.t] for the
    time, so a test can still substitute a fake.

    A clock reads as seconds since its creation and is clamped monotone
    across domains: concurrent readers never observe time going
    backwards, even if the underlying source is adjusted. *)

type t

val create : unit -> t
(** A fresh clock; [now] counts from (approximately) this moment. *)

val now : t -> float
(** Seconds since [create]. Monotone: for any two calls, in any domains,
    the later-returning call yields a value [>=] every earlier one. *)

val sleep : float -> unit
(** Block the calling domain for (at least) the given seconds; negative
    or zero durations return immediately. *)

(** {2 Timed waits}

    OCaml's [Condition] has no timed wait, so a domain that must wake at
    a deadline {e or} on another domain's signal sleeps here instead: a
    [wait] on a {!waker} returns once its timeout elapses or once any
    domain calls {!wake}, whichever comes first. *)

type waker

val with_waker : (waker -> 'a) -> 'a
(** [with_waker f] runs [f] on a fresh waker (a non-blocking self-pipe)
    and closes both of its ends when [f] returns or raises, so a process
    that makes thousands of runs keeps its descriptors below
    [FD_SETSIZE]. The waker must not be used after [f] returns. *)

val wake : waker -> unit
(** Make the current or next [wait] return at once. Never blocks; wakes
    that pile up before a [wait] coalesce into one. Safe from any
    domain. *)

val wait : waker -> float -> unit
(** [wait k timeout] blocks the calling domain until a {!wake} or
    [timeout] seconds (a non-positive timeout only polls), then clears
    every pending wake. It may also return early (an interrupted
    system call); callers recheck their deadlines. *)
