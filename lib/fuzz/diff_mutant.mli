(** Planted divergence-only bugs — reorderings indistinguishable, within
    one execution, from legitimate network or client timing. Every
    single-execution oracle accepts a tampered run; only a second
    execution of the same schedule on the reference backend exposes it.
    They gauge {!Differential} the way the services' own planted bugs
    ({!Mutant}, {!Skeen_mutant}) gauge the single-execution oracle
    battery: [gcs fuzz --diff PAIR
    --mutant NAME --expect-failure] must find and shrink each one
    within CI budgets.

    Each mutant infects the {e candidate} side of one pair, either as an
    input-queue tamper ({!Differential.tamper}: the candidate runs a
    transposed schedule) or as a handler rewrite on the candidate's
    service (VStoTO or Skeen) that hands a delivery to the client one
    delivery late, FIFO preserved. *)

type t = {
  name : string;
  doc : string;  (** the emulated defect, one line *)
  pair : Differential.pair;  (** the pair whose candidate side it infects *)
  tamper : Differential.tamper option;
  mutant : Gcs_conformance.Service.tagged option;
      (** a handler rewrite of the pair's candidate service *)
  withholds_outputs : bool;
      (** the rewrite may hold a client output back, so the pair must not
          pace submissions on outputs ({!Differential.execute}) *)
}

val all : t list
val find : string -> t option
val names : string list

val check : t -> Differential.pair -> unit
(** Raises [Invalid_argument] unless the mutant infects that pair (pairs
    compare by name). *)
