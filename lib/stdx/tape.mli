(** A persistent append-only vector: a slice over a shared growable
    buffer, replacing [xs @ [x]] accumulation on delivery hot paths.

    [snoc] on the newest slice writes in place (O(1) amortized); [snoc]
    on an older slice copies it first, so every previously created value
    stays valid — tapes behave as immutable values and are safe to keep
    in automaton states that are snapshotted, compared, hashed or
    explored. Reads ([get]/[nth1]) are O(1), and dropping a prefix is a
    cursor move, not a copy; a drop that empties the tape returns a
    fresh [empty ()], so the dropped values do not stay reachable.

    Growth copies the buffer ([Array.append], [Array.sub]) and never
    fills a new one with the appended value: in OCaml 5.1 an
    [Array.make] of more than 256 slots with a young fill empties the
    minor heap first, and every minor collection stops all running
    domains, so on the bus it would stall every node.

    Buffers are never shared between tapes built from separate [empty]
    or [of_list] calls, so states created inside different domains do
    not alias each other's storage. *)

type 'a t

val empty : unit -> 'a t
(** A fresh empty tape with its own (empty) buffer. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val snoc : 'a t -> 'a -> 'a t
(** Append one element at the end. *)

val get : 'a t -> int -> 'a
(** 0-indexed read. Raises [Invalid_argument] out of bounds. *)

val nth1 : 'a t -> int -> 'a option
(** 1-indexed lookup, as in the paper's sequence notation. *)

val first : 'a t -> 'a option

val rest : 'a t -> 'a t
(** [drop 1]. Raises [Invalid_argument] on an empty tape. *)

val drop : int -> 'a t -> 'a t
(** Drop the first [n] elements (all of them if the tape is shorter;
    then the result is a fresh [empty ()]). *)

val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val iter : ('a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t

val append : 'a t -> 'a list -> 'a t
(** [snoc] every element of the list in order. *)

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
(** Element-wise equality of the slices (buffer identity is irrelevant). *)

val exists : ('a -> bool) -> 'a t -> bool
