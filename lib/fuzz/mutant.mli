open Gcs_core
open Gcs_impl

(** Planted bugs in the VStoTO service, for validating the fuzzer end to
    end.

    A mutant emulates a protocol-level defect in VStoTO / VS-node
    behaviour by rewriting the effect batches the real handlers produce —
    dropping, duplicating, reordering or misattributing deliveries and
    view events. Each rewrite fires {e once} per run, and only when a
    state-dependent trigger holds (enough views installed, a minority
    view, a multi-delivery batch), so a mutant is only observable on
    schedules that actually reach the triggering region — exactly what
    the fuzzer must be able to find, and what the shrinker must preserve
    while minimizing. Every mutant is constructed so that some run-level
    oracle (TO/VS conformance, the Theorem 7.2 delivery bound, or a
    node-local invariant) flags the rewritten run. The mutant type and
    its rewrite combinators are generic ({!Gcs_conformance.Service.mutant});
    this module holds only the VStoTO list. *)

type t =
  ( To_service.config,
    To_service.node,
    Value.t,
    Msg.t Wire.packet,
    To_service.out )
  Gcs_conformance.Service.mutant

val vstoto : t list

val all : Gcs_conformance.Service.tagged list
(** Every service's planted bugs, in registry order — the
    [--list-mutants] catalog. *)

val find : string -> Gcs_conformance.Service.tagged option
