(** Per-run metrics registry: counters, gauges and fixed-bucket latency
    histograms.

    A registry is an explicit value threaded through a run — there are no
    globals — so independent seeded runs fanned out over a {!Pool} of
    domains each own their registry and the rendered snapshot of a run is
    a pure function of its inputs (byte-identical at any job count).

    Metrics are registered lazily on first use, keyed by name; snapshots
    ({!pp}, {!to_json}) list them sorted by name. Registering the same
    name as two different kinds raises [Invalid_argument]. *)

type t

val create : unit -> t

(** {2 Counters} *)

val incr : ?by:int -> t -> string -> unit
val counter : t -> string -> int
(** 0 when the counter was never incremented. *)

(** {2 Gauges} *)

val set_gauge : t -> string -> float -> unit
val max_gauge : t -> string -> float -> unit
(** Keep the maximum of the recorded values (high-water mark). *)

val gauge : t -> string -> float option

(** {2 Histograms} *)

val default_buckets : float array
(** [1, 2, 5, 10, 20, 50, 100, 200, 500] — decade steps in simulated time
    units, sized for bcast-to-brcv latencies at δ = 1. *)

val observe : ?buckets:float list -> t -> string -> float -> unit
(** Record one observation. [buckets] (strictly increasing upper bounds)
    is honored on the first observation of the name and ignored after;
    values above the last bound land in an overflow bucket. *)

val histogram : t -> string -> ((float * int) list * int * float * float) option
(** [(bucket upper bound, count) list including the +inf overflow bucket,
    observation count, sum, max)]. *)

val nearest_rank : float array -> float -> float
(** [nearest_rank sorted q] is the nearest-rank [q]-quantile of an
    ascending array: its [⌈q·n⌉]-th smallest element (the smallest for
    [q <= 1/n], the largest for [q >= 1]), so it is always a recorded
    value. [nan] on an empty array. *)

(** {2 Snapshots} *)

val pp : Format.formatter -> t -> unit
val to_json : t -> string
(** One JSON object, metrics sorted by name. Deterministic: equal
    recorded values render to equal bytes. *)
