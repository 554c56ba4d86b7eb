(* The one sanctioned wall-clock sink (lint rule D2): real transports get
   their time here and nowhere else. *)

type t = { t0 : float; last : float Atomic.t }

let read () = Unix.gettimeofday ()

let create () = { t0 = read (); last = Atomic.make 0.0 }

(* Clamp monotone across domains with a CAS max-loop: a reader never
   returns less than any value already returned by another domain. *)
let now t =
  let raw = read () -. t.t0 in
  let rec clamp () =
    let seen = Atomic.get t.last in
    if raw <= seen then seen
    else if Atomic.compare_and_set t.last seen raw then raw
    else clamp ()
  in
  clamp ()

let sleep s = if s > 0.0 then Unix.sleepf s

(* A non-blocking self-pipe: a full pipe already holds a pending wake, so
   [wake] drops the byte instead of blocking, and [wait] drains whatever
   accumulated. *)
type waker = { r : Unix.file_descr; w : Unix.file_descr }

let with_waker f =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () -> f { r; w })

let byte = Bytes.make 1 '!'

let wake k =
  match Unix.single_write k.w byte 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let wait k timeout =
  match Unix.select [ k.r ] [] [] (Float.max 0.0 timeout) with
  | [], _, _ -> ()
  | _ ->
      let buf = Bytes.create 64 in
      let rec drain () =
        match Unix.read k.r buf 0 64 with
        | 64 -> drain ()
        | _ -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
      in
      drain ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
