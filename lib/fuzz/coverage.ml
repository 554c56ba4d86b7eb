module S = Set.Make (String)

type t = S.t

let empty = S.empty
let add t feature = S.add feature t
let of_list = S.of_list
let union = S.union
let cardinal = S.cardinal
let novel ~base t = S.cardinal (S.diff t base)
let to_list = S.elements

let bucket = Gcs_conformance.Service.bucket

(* ------------------------ fuzzy state hashing ------------------------ *)

(* Content-defined chunking (ssdeep-lite): a byte-wise rolling value
   marks a chunk boundary whenever its low 5 bits are all set, so
   boundaries stick to content, not offsets — a local edit to the
   serialized state perturbs the chunks around it and leaves the rest
   of the chunk stream intact (locality sensitivity). Each chunk maps
   to a 12-bit FNV-1a hash, bounding the feature universe. *)
let chunk_hashes s acc =
  let fnv_seed = 0x3bf29ce484222325 in
  let fnv_prime = 0x100000001b3 in
  let flush acc h = (h lxor (h lsr 24)) land 0xfff :: acc in
  let acc, h, len =
    String.fold_left
      (fun (acc, h, len) c ->
        let code = Char.code c in
        let h = (h lxor code) * fnv_prime in
        let roll = (h lxor (h lsr 13)) land 0x1f in
        if roll = 0x1f && len >= 4 then (flush acc h, fnv_seed, 0)
        else (acc, h, len + 1))
      (acc, fnv_seed, 0) s
  in
  if len > 0 then flush acc h else acc

let fuzzy_features ~tag snapshots =
  (* AFL-style: the multiset of chunk hashes across all of a run's
     snapshots, each hash contributing itself plus its bucketed
     multiplicity. The multiset view makes the features independent of
     snapshot order, so they stay deterministic even when snapshots are
     collected from concurrently observed nodes. *)
  let counts = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter
        (fun h ->
          let prev =
            match Hashtbl.find_opt counts h with Some n -> n | None -> 0
          in
          Hashtbl.replace counts h (prev + 1))
        (chunk_hashes s []))
    snapshots;
  (Hashtbl.fold
     (fun h n acc ->
       S.add
         (Printf.sprintf "sh:%s:%03x" tag h)
         (S.add (Printf.sprintf "shx:%s:%03x.%d" tag h (bucket n)) acc))
     counts S.empty)
  [@gcs.lint.allow "D1" (* folded into a set: order-independent *)]
