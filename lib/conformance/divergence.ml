open Gcs_core

type orders = (Proc.t * string list) list

let orders ~procs trace =
  let rev =
    List.fold_left
      (fun acc (_, action) ->
        match action with
        | To_action.Brcv { src; dst; value } ->
            let prev =
              match Proc.Map.find_opt dst acc with Some l -> l | None -> []
            in
            Proc.Map.add dst (Printf.sprintf "%d:%s" src value :: prev) acc
        | _ -> acc)
      Proc.Map.empty (Timed.actions trace)
  in
  List.map
    (fun p ->
      ( p,
        match Proc.Map.find_opt p rev with
        | Some l -> List.rev l
        | None -> [] ))
    procs

type verdict =
  | Agree
  | Diverged of {
      node : Proc.t;
      index : int;
      left : string list;
      right : string list;
    }

(* First position where two per-node sequences disagree (a missing tail
   counts: prefix agreement with unequal lengths diverges at the shorter
   length). *)
let first_mismatch xs ys =
  let rec go i xs ys =
    match (xs, ys) with
    | [], [] -> None
    | [], _ :: _ | _ :: _, [] -> Some i
    | x :: xs, y :: ys -> if String.equal x y then go (i + 1) xs ys else Some i
  in
  go 0 xs ys

let compare_with project ~left ~right =
  let right_map =
    List.fold_left (fun m (p, l) -> Proc.Map.add p l m) Proc.Map.empty right
  in
  let mismatch =
    List.find_map
      (fun (p, l) ->
        let r =
          match Proc.Map.find_opt p right_map with Some r -> r | None -> []
        in
        let l = project l and r = project r in
        match first_mismatch l r with
        | Some i -> Some (p, i, l, r)
        | None -> None)
      left
  in
  match mismatch with
  | None -> Agree
  | Some (node, index, left, right) -> Diverged { node; index; left; right }

let compare_orders ~left ~right = compare_with (fun l -> l) ~left ~right

let compare_contents ~left ~right =
  compare_with (List.sort String.compare) ~left ~right

let incomplete ~expected orders =
  List.filter_map
    (fun (p, delivered) ->
      let want = expected p in
      let got = List.length delivered in
      if got < want then Some (p, got) else None)
    orders

(* --------------------------- presentation ---------------------------- *)

let excerpt ~around l =
  let len = List.length l in
  let from = max 0 (around - 2) in
  let upto = min len (around + 3) in
  let slice =
    List.filteri (fun i _ -> i >= from && i < upto) l
  in
  Printf.sprintf "[%s%s%s]"
    (if from > 0 then "… " else "")
    (String.concat " " slice)
    (if upto < len then " …" else "")

let describe ~left_label ~right_label = function
  | Agree -> "orders agree"
  | Diverged { node; index; left; right } ->
      Printf.sprintf
        "node %d diverges at delivery %d: %s %s (%d total) vs %s %s (%d total)"
        node index left_label
        (excerpt ~around:index left)
        (List.length left) right_label
        (excerpt ~around:index right)
        (List.length right)
