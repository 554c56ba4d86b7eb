module Lock = Gcs_stdx.Lock

type 'a t = {
  lock : Lock.t;
  cond : Condition.t;
  mutable front : 'a list;  (* oldest first *)
  mutable back : 'a list;  (* newest first *)
  mutable size : int;
  wakes : int Atomic.t;
      (* pushes + ticks; versions the condition. Bumped under [lock],
         read without it by [version]. *)
  mutable closed : bool;  (* once set, wait/recv never block again *)
}

let create ?registry ?(name = "mailbox") () =
  {
    lock = Lock.create ?registry name;
    cond = Condition.create ();
    front = [];
    back = [];
    size = 0;
    wakes = Atomic.make 0;
    closed = false;
  }

let push t x =
  Lock.with_lock t.lock (fun () ->
      t.back <- x :: t.back;
      t.size <- t.size + 1;
      Atomic.incr t.wakes;
      Condition.broadcast t.cond)

(* Caller holds [t.lock]. *)
let pop_locked t =
  match t.front with
  | x :: rest ->
      t.front <- rest;
      t.size <- t.size - 1;
      Some x
  | [] -> (
      match List.rev t.back with
      | [] -> None
      | x :: rest ->
          t.front <- rest;
          t.back <- [];
          t.size <- t.size - 1;
          Some x)

let pop_opt t = Lock.with_lock t.lock (fun () -> pop_locked t)

let length t = Lock.with_lock t.lock (fun () -> t.size)

let version t = Atomic.get t.wakes

let wait t since =
  Lock.with_lock t.lock (fun () ->
      while (not t.closed) && Atomic.get t.wakes = since do
        Lock.wait t.cond t.lock
      done)

let recv t =
  Lock.with_lock t.lock (fun () ->
      let rec go () =
        match pop_locked t with
        | Some _ as v -> v
        | None ->
            (* Closed is a *state*, checked under the same lock that
               [close] sets it under: a recv that parks after close
               began cannot miss the broadcast, and one parked before it
               is woken by it — either way it returns, never hangs. *)
            if t.closed then None
            else begin
              Lock.wait t.cond t.lock;
              go ()
            end
      in
      go ())

let tick t =
  Lock.with_lock t.lock (fun () ->
      Atomic.incr t.wakes;
      Condition.broadcast t.cond)

let close t =
  Lock.with_lock t.lock (fun () ->
      t.closed <- true;
      Condition.broadcast t.cond)
