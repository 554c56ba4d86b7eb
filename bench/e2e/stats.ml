(* Sample buffers, nearest-rank quantiles and the tail-support guard. *)

(* A growable float buffer: the per-run sample sets reach hundreds of
   thousands of entries, so a list would triple their footprint. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let append dst src =
    for i = 0 to src.len - 1 do
      add dst src.data.(i)
    done

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Float.compare a;
    a

  let of_list xs =
    let t = create () in
    List.iter (add t) xs;
    t
end

(* Nearest rank of percentile [pct] (0 < pct <= 100) in [n] samples,
   1-based: the smallest rank r with r/n >= pct/100. Integer arithmetic,
   so p99 of 1000 samples is rank 990 exactly. *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

(* Samples strictly above the percentile's rank. *)
let beyond ~pct n = n - rank ~pct n

(* A percentile is reported only when at least ten samples lie beyond it;
   below that a single outlier moves it. p50 needs 20 samples, p99 1000. *)
let min_beyond = 10

let supported ~pct n = n > 0 && beyond ~pct n >= min_beyond

(* Nearest-rank percentile of an ascending array; 0 for no samples (a
   layer the workload never exercised). *)
let quantile ~pct sorted =
  let n = Array.length sorted in
  if n = 0 then 0.0 else sorted.(rank ~pct n - 1)

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio num den = if den > 0.0 then num /. den else 0.0
