open Gcs_core
open Gcs_skeen

(** Planted bugs for the Skeen backend, validating that Skeen's oracle
    chain ({!Gcs_conformance.Oracle.skeen}) can catch real protocol
    defects: a skewed final timestamp at one destination (order
    disagreement), a lost timestamp proposal (wedged destinations, caught
    by fault-free completeness), and a duplicated client delivery. Same
    contract as {!Mutant}: each rewrite fires once per run behind a
    state-dependent trigger. *)

type t =
  ( Skeen.config,
    Skeen.node,
    Skeen.input,
    Skeen.packet,
    Value.t To_action.t )
  Gcs_conformance.Service.mutant

val all : t list
