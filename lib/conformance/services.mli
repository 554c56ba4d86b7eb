open Gcs_core
open Gcs_impl

(** The total-order services, as instances of
    {!Service.S}, and their registry.

    Adding a backend is one module here plus one entry in {!all}: the
    conformance suite, the fuzz runner, [gcs fuzz --service] and
    [gcs load --backend] pick it up from the registry (its planted bugs,
    if any, are one more entry in the fuzzer's catalog,
    [Gcs_fuzz.Mutant.all]). *)

module Vstoto :
  Service.S
    with type config = To_service.config
     and type node = To_service.node
     and type input = Value.t
     and type packet = Msg.t Wire.packet
     and type out = To_service.out
(** VStoTO over the Section 8 VS implementation ({!To_service}). *)

module Skeen :
  Service.S
    with type config = Gcs_skeen.Skeen.config
     and type node = Gcs_skeen.Skeen.node
     and type input = Gcs_skeen.Skeen.input
     and type packet = Gcs_skeen.Skeen.packet
     and type out = Value.t To_action.t
(** Skeen's timestamp multicast. A client value's destination subset is
    derived from a deterministic hash of (origin, value) (an empty pick
    is the full group), so a fuzz input replays to the identical
    multi-group workload everywhere. *)

module Sequencer :
  Service.S
    with type config = Gcs_baseline.Sequencer.config
     and type node = Gcs_baseline.Sequencer.node
     and type input = Value.t
     and type packet = Gcs_baseline.Sequencer.packet
     and type out = Value.t To_action.t
(** The fixed-sequencer baseline. *)

val vstoto : Service.t
val skeen : Service.t
val sequencer : Service.t

val all : Service.t list
(** The registry, in [--service] order; VStoTO first (the default). *)

val names : string list
val find : string -> Service.t option
