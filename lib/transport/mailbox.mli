(** Mutex/condition FIFO mailboxes — the bus's links.

    One mailbox per processor; senders [push] from their own domains and
    the owner drains with [pop_opt] / [wait]. Per-sender FIFO order is
    inherited from the queue: a sender's consecutive pushes are popped in
    push order (the per-directed-link FIFO the bus promises).

    OCaml's [Condition] has no timed wait, and a node must also wake for
    its {e timer} deadlines and status changes, not just for traffic — so
    the bus's controller calls [tick] on a mailbox when its owner's next
    timer falls due or a failure event is applied. A wake is versioned:
    the owner reads {!version} {e before} it looks at its timers, status
    and queue, and [wait]s on that version, so a tick that lands anywhere
    after the read ends the wait instead of being lost. *)

type 'a t

val create : ?registry:Gcs_stdx.Lock.registry -> ?name:string -> unit -> 'a t
(** The mailbox's internal lock is a {!Gcs_stdx.Lock}; pass [registry]
    (and a distinguishing [name]) to enroll it in a lock-order /
    contention observation run ([gcs lockcheck]). *)

val push : 'a t -> 'a -> unit
(** Append and wake the owner. *)

val pop_opt : 'a t -> 'a option
(** The oldest element, if any. Never blocks. *)

val recv : 'a t -> 'a option
(** Blocking receive: the oldest element, waiting for one if the
    mailbox is empty. Returns [None] only once the mailbox is closed
    {e and} drained. A recv blocked (or arriving) while [close] runs
    must return — closed is a state checked under the mailbox lock, so
    the close broadcast cannot slip between the emptiness check and the
    park. *)

val length : 'a t -> int

val version : 'a t -> int
(** The number of [push]es and [tick]s so far. Lock-free. *)

val wait : 'a t -> int -> unit
(** [wait t v] blocks until the mailbox is closed or its {!version}
    differs from [v] (immediately if either already holds). Elements
    pushed before [v] was read do not end the wait, so an owner that
    must not handle them yet (a crashed node) parks instead of
    spinning. Returns with no element guarantee — callers recheck. *)

val close : 'a t -> unit
(** Make [wait] non-blocking forever after (and [recv] return [None]
    once drained). Shutdown uses this instead
    of a final [tick]: a tick only wakes waiters already parked, so a
    node that checks the stop flag and {e then} parks would sleep through
    it, whereas closing is a state, not an edge. [push]/[pop_opt] still
    work on a closed mailbox (the owner drains nothing after stop anyway
    — it rechecks the stop flag on every wake). *)

val tick : 'a t -> unit
(** Wake the owner without delivering anything (a due timer or a status
    change for it to recheck). *)
