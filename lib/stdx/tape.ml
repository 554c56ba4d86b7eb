(* A persistent append-only vector ("tape"): a slice over a shared
   growable buffer. The common case — extending the newest slice — writes
   in place and is O(1) amortized; extending an older slice copies it
   first, so every previously created value remains valid forever. Slots
   below [committed] are never overwritten, which is what makes sharing
   the buffer between many slices safe.

   Growth never fills a new buffer with the value being appended. In
   OCaml 5.1, [Array.make] of more than 256 slots with a fill that is
   still in the minor heap empties the minor heap first, and every minor
   collection stops all running domains; the appended value is almost
   always young. [Array.append] and [Array.sub] copy instead: a large
   result goes straight to the major heap with no collection. *)

type 'a buf = { mutable data : 'a array; mutable committed : int }
type 'a t = { buf : 'a buf; start : int; stop : int }

let empty () = { buf = { data = [||]; committed = 0 }; start = 0; stop = 0 }

let length t = t.stop - t.start
let is_empty t = t.stop = t.start

let snoc t x =
  let b = t.buf in
  if t.stop = b.committed then begin
    (* Fast path: this slice is the frontier of the buffer. *)
    (if b.committed = Array.length b.data then
       b.data <-
         (if b.committed = 0 then Array.make 8 x
          else Array.append b.data b.data));
    b.data.(b.committed) <- x;
    b.committed <- b.committed + 1;
    { t with stop = t.stop + 1 }
  end
  else begin
    (* Diverging from an older slice: copy it into a fresh buffer. *)
    let n = length t in
    (* [t.stop < committed], so slot [n] of the copy exists; overwrite it. *)
    let data = Array.sub t.buf.data t.start (n + 1) in
    data.(n) <- x;
    { buf = { data; committed = n + 1 }; start = 0; stop = n + 1 }
  end

let get t i =
  if i < 0 || i >= length t then
    invalid_arg
      (Printf.sprintf "Tape.get: index %d out of bounds [0,%d)" i (length t))
  else t.buf.data.(t.start + i)

let nth1 t i = if i < 1 || i > length t then None else Some (get t (i - 1))

let first t = if is_empty t then None else Some (get t 0)

let fold_left f acc t =
  let acc = ref acc in
  for i = t.start to t.stop - 1 do
    acc := f !acc t.buf.data.(i)
  done;
  !acc

let iter f t =
  for i = t.start to t.stop - 1 do
    f t.buf.data.(i)
  done

let to_list t =
  let rec go i acc =
    if i < t.start then acc else go (i - 1) (t.buf.data.(i) :: acc)
  in
  go (t.stop - 1) []

let of_list xs = List.fold_left snoc (empty ()) xs

let append t xs = List.fold_left snoc t xs

(* A drop that takes everything lets go of the buffer, so the values it
   held can be collected and the next [snoc] starts a small one. *)
let drop n t =
  if n <= 0 then t
  else if n >= length t then empty ()
  else { t with start = t.start + n }

let rest t = if is_empty t then invalid_arg "Tape.rest: empty tape" else drop 1 t

let equal eq a b =
  length a = length b
  &&
  let rec go i = i >= length a || (eq (get a i) (get b i) && go (i + 1)) in
  go 0

let exists pred t =
  let rec go i = i < length t && (pred (get t i) || go (i + 1)) in
  go 0
