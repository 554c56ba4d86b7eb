(** Abstract-state coverage maps.

    A coverage map is a set of {e features} — short strings naming an
    abstract behaviour an execution exhibited: a VStoTO status-pair
    transition, a primary/non-primary switch, a (bucketed) view-id edge,
    a bucketed packet- or delivery-count. The fuzzer keeps the union over
    all executions and admits an input into the corpus exactly when its
    run contributed a feature the union did not already contain
    (greybox feedback, StateAFL-style but over protocol state instead of
    branch edges). Features are deterministic functions of the run, so
    coverage — like everything else — is reproducible from the seed. *)

type t

val empty : t
val add : t -> string -> t
val of_list : string list -> t
val union : t -> t -> t
val cardinal : t -> int

val novel : base:t -> t -> int
(** Features in the second map that [base] lacks. *)

val to_list : t -> string list
(** Sorted; snapshots of equal maps render to equal bytes. *)

val fuzzy_features : tag:string -> string list -> t
(** Locality-sensitive hash features over serialized node-state
    snapshots (StateAFL-style): each snapshot is cut into
    content-defined chunks by a rolling hash, each chunk contributes a
    12-bit FNV hash, and the run's multiset of chunk hashes enters the
    map as one feature per hash plus one per (hash, bucketed
    multiplicity). A novel protocol state thus earns corpus energy
    without any hand-curated feature — while a state differing only in
    uninteresting magnitudes maps to the features already seen. The
    result is independent of snapshot order. *)
