open Gcs_core

(** Per-node delivered-order comparison — the shared judge behind the
    differential fuzzing mode and the tests.

    Two executions of the same workload on two backends (or two
    protocols) agree when every node delivered the same messages; for
    same-protocol pairs they must agree on the {e sequence}, for
    cross-protocol pairs (whose tie-breaking legitimately differs) on
    the {e multiset}. Any disagreement is crash-grade: the protocols
    promise total order within each configuration, so two correct
    executions of one schedule cannot tell different stories. *)

type orders = (Proc.t * string list) list
(** Per-node delivered sequences, in delivery order; each element is
    ["src:value"]. *)

val orders :
  procs:Proc.t list -> Value.t To_action.t Timed.t -> orders
(** Fold a client trace's [Brcv] actions into per-node sequences. Every
    processor in [procs] appears, delivering nothing being an
    observation too. *)

type verdict =
  | Agree
  | Diverged of {
      node : Proc.t;  (** first divergent node, in [procs] order *)
      index : int;  (** first divergent delivery position *)
      left : string list;  (** that node's full left sequence *)
      right : string list;  (** … and right sequence (projected) *)
    }

val compare_orders : left:orders -> right:orders -> verdict
(** Exact sequence equality per node — same-protocol pairs (sim vs bus),
    where the anchored workload makes delivered orders identical. *)

val compare_contents : left:orders -> right:orders -> verdict
(** Sorted-multiset equality per node — cross-protocol pairs (VStoTO vs
    Skeen vs sequencer), where each protocol picks its own total order
    but must deliver the same messages to the same members. *)

val incomplete :
  expected:(Proc.t -> int) -> orders -> (Proc.t * int) list
(** Nodes that delivered fewer than [expected] messages, with their
    counts. *)

val describe :
  left_label:string -> right_label:string -> verdict -> string
(** One-line human rendering with an excerpt around the mismatch. *)
