type histogram = {
  buckets : float array;  (* upper bounds, strictly increasing *)
  counts : int array;  (* length = Array.length buckets + 1 (overflow) *)
  mutable observations : int;
  mutable sum : float;
  mutable max : float;
}

type metric =
  | Counter of int ref
  | Gauge of float ref
  | Histogram of histogram

type t = { table : (string, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 32 }

let default_buckets = [| 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0 |]

let wrong_kind name =
  invalid_arg (Printf.sprintf "Metrics: %s already registered as another kind" name)

let counter_ref t name =
  match Hashtbl.find_opt t.table name with
  | Some (Counter r) -> r
  | Some _ -> wrong_kind name
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.table name (Counter r);
      r

let incr ?(by = 1) t name =
  let r = counter_ref t name in
  r := !r + by

let counter t name =
  match Hashtbl.find_opt t.table name with Some (Counter r) -> !r | _ -> 0

let gauge_ref t name =
  match Hashtbl.find_opt t.table name with
  | Some (Gauge r) -> r
  | Some _ -> wrong_kind name
  | None ->
      let r = ref 0.0 in
      Hashtbl.replace t.table name (Gauge r);
      r

let set_gauge t name v = gauge_ref t name := v

let max_gauge t name v =
  let r = gauge_ref t name in
  if v > !r then r := v

let gauge t name =
  match Hashtbl.find_opt t.table name with Some (Gauge r) -> Some !r | _ -> None

let check_buckets buckets =
  let n = Array.length buckets in
  if n = 0 then invalid_arg "Metrics: histogram needs at least one bucket";
  for i = 0 to n - 2 do
    if buckets.(i) >= buckets.(i + 1) then
      invalid_arg "Metrics: histogram buckets must be strictly increasing"
  done

let histogram_of t ?buckets name =
  match Hashtbl.find_opt t.table name with
  | Some (Histogram h) -> h
  | Some _ -> wrong_kind name
  | None ->
      let buckets =
        match buckets with
        | Some bs ->
            let a = Array.of_list bs in
            check_buckets a;
            a
        | None -> Array.copy default_buckets
      in
      let h =
        {
          buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          observations = 0;
          sum = 0.0;
          max = neg_infinity;
        }
      in
      Hashtbl.replace t.table name (Histogram h);
      h

let observe ?buckets t name v =
  let h = histogram_of t ?buckets name in
  let rec slot i =
    if i >= Array.length h.buckets then i
    else if v <= h.buckets.(i) then i
    else slot (i + 1)
  in
  let i = slot 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.observations <- h.observations + 1;
  h.sum <- h.sum +. v;
  if v > h.max then h.max <- v

let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    (* The tolerance keeps a product such as 0.07 *. 100. from rounding
       up past the exact rank. *)
    let rank = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let histogram t name =
  match Hashtbl.find_opt t.table name with
  | Some (Histogram h) ->
      Some
        ( Array.to_list
            (Array.mapi (fun i le -> (le, h.counts.(i))) h.buckets)
          @ [ (infinity, h.counts.(Array.length h.buckets)) ],
          h.observations,
          h.sum,
          h.max )
  | _ -> None

(* Registry snapshots are sorted by name, so rendering is a pure function
   of the recorded values — the determinism tests compare these strings
   byte for byte across job counts. Sanctioned D1 sink: the fold feeds
   List.sort directly. *)
let sorted t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [])

(* %.17g prints the shortest digit string that round-trips a float, so
   snapshots never depend on printf rounding of intermediate widths. *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (name, metric) ->
      if i > 0 then Format.fprintf ppf "@,";
      match metric with
      | Counter r -> Format.fprintf ppf "%-44s %10d" name !r
      | Gauge r -> Format.fprintf ppf "%-44s %10s" name (float_str !r)
      | Histogram h ->
          Format.fprintf ppf "%-44s n=%d sum=%s max=%s" name h.observations
            (float_str h.sum)
            (float_str (if h.observations = 0 then 0.0 else h.max));
          Array.iteri
            (fun i le ->
              Format.fprintf ppf "@,  <= %-8s %10d" (float_str le) h.counts.(i))
            h.buckets;
          Format.fprintf ppf "@,  +inf      %10d" h.counts.(Array.length h.buckets))
    (sorted t);
  Format.fprintf ppf "@]"

let to_json t =
  let buf = Buffer.create 512 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, metric) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%S:" name);
      match metric with
      | Counter r -> Buffer.add_string buf (string_of_int !r)
      | Gauge r -> Buffer.add_string buf (float_str !r)
      | Histogram h ->
          Buffer.add_string buf
            (Printf.sprintf "{\"n\":%d,\"sum\":%s,\"max\":%s,\"buckets\":["
               h.observations (float_str h.sum)
               (float_str (if h.observations = 0 then 0.0 else h.max)));
          Array.iteri
            (fun i le ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf
                (Printf.sprintf "{\"le\":%s,\"count\":%d}" (float_str le)
                   h.counts.(i)))
            h.buckets;
          Buffer.add_string buf
            (Printf.sprintf ",{\"le\":\"+inf\",\"count\":%d}]}"
               h.counts.(Array.length h.buckets)))
    (sorted t);
  Buffer.add_char buf '}';
  Buffer.contents buf
