open Gcs_core

(** One processor of the Section 8 VS implementation.

    Normal operation: the view is "held together" by a token launched by
    the ring leader (the member with the smallest id). When the token
    returns to the leader still carrying entries that are not yet safe at
    every member, the leader relaunches it at once; when it returns empty
    after pruning, the leader absorbs it and launches the next one [pi]
    after the last launch, a heartbeat the token-loss timeout relies on.
    A member whose client send is the first no token has collected since
    its last visit sends the leader a [Want]: the leader launches a
    resting token at once (through its launch timer, at delay 0) and
    relaunches one in flight when it returns, so a new message does not
    wait out the heartbeat.
    The token carries the per-view message sequence, per-member delivery
    counts (from which safe notifications are derived) and per-member
    append counts. A missing token (timeout) or contact from a processor
    outside the current membership triggers the membership protocol:
    broadcast [Newgroup] with a fresh identifier, collect [Accept] replies
    for [2δ], announce the membership with [ViewMsg], and let the new
    leader launch a fresh token.

    The node emits the VS external actions ([gpsnd]/[gprcv]/[safe]/
    [newview]) as simulator outputs, so a run's timed trace can be checked
    against VS-machine and VS-property. *)

type config = {
  procs : Proc.t list;
  p0 : Proc.t list;
  pi : float;
      (** heartbeat spacing π of an idle token (must exceed nδ) *)
  mu : float;  (** discovery-probe spacing μ *)
  delta : float;  (** good-link delay bound δ (for timeouts) *)
}

type protocol =
  | Three_round  (** the Cristian–Schmuck protocol as sketched in §8 *)
  | One_round
      (** the one-round alternative of §8 footnote 7: announce membership
          directly from the local connectivity estimate; stabilizes less
          quickly because inaccurate estimates force extra view changes *)

type 'm state

val initial : config -> Proc.t -> 'm state

val handlers :
  ?metrics:Gcs_stdx.Metrics.t ->
  ?protocol:protocol ->
  config ->
  ('m state, 'm, 'm Wire.packet, 'm Vs_action.t) Gcs_sim.Engine.handlers
(** Inputs are client messages ([gpsnd]); outputs are VS external
    actions. When [metrics] is given, the node counts [vs.*] events
    into it: views installed, tokens launched ([vs.tokens_launched],
    counting heartbeat launches, launches on a [Want] and immediate
    relaunches of a token that still carries entries or was asked for
    while in flight), leader token round-trips
    ([vs.token_roundtrips], every return to the leader) and membership
    rounds initiated.

    A leader launches the token as soon as its view exists: at
    [on_start] for the initial view, at install for a later one. Later
    launches follow one rule: immediately while the returned token
    carries entries or a [Want] arrived while it was out, at once on a
    [Want] while it rests, and otherwise [pi] after the last launch. *)

val client_send :
  config ->
  Proc.t ->
  'm ->
  'm state ->
  'm state * ('m Wire.packet, 'm Vs_action.t) Gcs_sim.Engine.effect list
(** Hand a client message to the node outside the engine's input path —
    used by layers stacked on top (e.g. the TO service). Equivalent to the
    [on_input] handler. *)

(** Observers used by tests and benchmarks. *)

val ring_successor : View.t -> Proc.t -> Proc.t
(** The next member after [me] on the token ring: the smallest member id
    greater than [me], wrapping to the smallest member overall. Raises
    [Invalid_argument] on an empty view — membership never builds one,
    so an empty member set here is a corrupted view. *)

val current_view : 'm state -> View.t option
val views_installed : 'm state -> int
(** Number of [newview] events at this node (view-churn metric). *)

val uncollected : 'm state -> int
(** Client sends of the current view that no token visit has collected
    yet: the outbuf past its length at the last visit. The TO service
    closes a batch when this is 0: a token has carried the node's
    previous send, so holding the next values back only adds delay. *)

val stored_token_entries : 'm state -> int option
(** Number of entries in the absorbed token at the leader ([None] at
    non-leaders or while the token circulates). *)

val max_token_entries : 'm state -> int
(** High-water mark of token entries seen by this node — pruning of the
    all-safe prefix keeps it bounded by the in-flight window rather than
    the whole history. *)

val token_timeout : config -> float
(** The timeout after which a missing token triggers a view change. *)

val paper_b : config -> float
(** The Section 8 stabilization bound b = 9δ + max(π + (n+3)δ, μ). *)

val paper_d : config -> float
(** The Section 8 delivery bound d = 2π + nδ. *)

val impl_b : config -> float
(** Conservative stabilization bound for {e this} implementation variant:
    the paper bound plus slack for the Nack-assisted identifier catch-up
    round and the initiation debounce (see DESIGN.md). *)

val impl_d : config -> float
(** Conservative safe-delivery bound for this variant: a message waits up
    to π for a token, a full round delivers it everywhere (earlier ring
    positions see it on the following pass), and safe notifications
    propagate on one more pass — 3(π + nδ) plus two hops of slack. An
    immediate relaunch or a launch on a [Want] only brings a launch
    earlier, so consecutive launches stay at most π apart and the bound
    still holds; with the token launched on demand and kept moving, a
    lone value is in fact safe within about (3n + 3)δ, with no π term. *)
