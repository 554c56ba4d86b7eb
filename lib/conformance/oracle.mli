open Gcs_impl

(** Node-local VStoTO state invariants, shared by every judge.

    These used to live inside the fuzzer's runner; they moved here so
    the conformance suite, the CLI and the fuzzer (which now depends on
    this library for the divergence comparator) all apply the exact same
    oracle set without a dependency cycle. *)

val vstoto_invariants :
  Gcs_core.Vstoto.state Gcs_automata.Invariant.t list
(** Counter ordering ([1 <= nextreport <= nextconfirm <= |order|+1]),
    duplicate-free delivery order, reported-prefix content presence, and
    [exchange-safe-before-confirm]: a confirmed label of the current view
    implies that every member's summary is safe ([safe_exch] is the
    view's member set); the initial view, which has no exchange, is
    exempt. *)

val node_invariant_failure :
  To_service.node Gcs_core.Proc.Map.t -> (string * string) option
(** First {!vstoto_invariants} violation over a fleet's final states, as
    a [(check, detail)] pair with [check = "node-invariant"]. *)

(** {2 Oracle chains}

    Each total-order service's whole battery, first failure as
    [(check, detail)]. The service instances ({!Service.S.verdict}) are
    these functions. *)

val vstoto :
  To_service.config ->
  until:float ->
  To_service.out Gcs_core.Timed.t ->
  To_service.node Gcs_core.Proc.Map.t ->
  (string * string) option
(** TO-machine conformance of the client trace, VS-machine conformance
    of the VS-layer trace, the Theorem 7.2 delivery bound with horizon
    [until] (the run must end fully good), view-homogeneous batches, and
    {!node_invariant_failure}. *)

val skeen :
  Gcs_skeen.Skeen.config ->
  faulty:bool ->
  workload:(float * Gcs_core.Proc.t * Gcs_skeen.Skeen.input) list ->
  Gcs_core.Value.t Gcs_core.To_action.t Gcs_core.Timed.t ->
  Gcs_skeen.Skeen.node Gcs_core.Proc.Map.t ->
  (string * string) option
(** The multi-group order oracle and the node invariants on every run;
    completeness only when not [faulty] (no retransmission). *)

val sequencer :
  Gcs_baseline.Sequencer.config ->
  faulty:bool ->
  workload:(float * Gcs_core.Proc.t * Gcs_core.Value.t) list ->
  Gcs_core.Value.t Gcs_core.To_action.t Gcs_core.Timed.t ->
  (string * string) option
(** On fault-free runs TO-machine conformance and completeness (every
    member delivered every submission). Under faults only agreement:
    every node's delivered sequence is a prefix of one total order — a
    request lost on a cut link leaves a gap in its sender's order, which
    the baseline (no retransmission, no reconciliation) cannot repair. *)
