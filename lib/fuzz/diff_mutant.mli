(** Planted divergence-only bugs — reorderings indistinguishable, within
    one execution, from legitimate network or client timing. Every
    single-execution oracle accepts a tampered run; only a second
    execution of the same schedule on the reference backend exposes it.
    They gauge {!Differential} the way the services' own planted bugs
    ({!Mutant}, {!Skeen_mutant}) gauge the single-execution oracle
    battery: [gcs fuzz --diff PAIR
    --mutant NAME --expect-failure] must find and shrink each one
    within CI budgets.

    Each mutant infects the {e candidate} side of one pair, either as a
    transport tamper ({!Gcs_transport.Bus.tamper}: a transposed input
    queue) or as a handler rewrite on the candidate's service (VStoTO or
    Skeen) that hands a delivery to the client one delivery late, FIFO
    preserved. *)

type t = {
  name : string;
  doc : string;  (** the emulated defect, one line *)
  pair : Differential.pair;  (** the pair whose candidate side it infects *)
  tamper : Gcs_transport.Bus.tamper option;
  mutant : Gcs_conformance.Service.tagged option;
      (** a handler rewrite of the pair's candidate service *)
}

val all : t list
val find : string -> t option
val names : string list

val check : t -> Differential.pair -> unit
(** Raises [Invalid_argument] unless the mutant infects that pair (pairs
    compare by name). *)
