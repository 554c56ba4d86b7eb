(* Unit tests for the shared per-node delivered-order comparator behind
   gcs diff and the differential fuzzing mode: hand-built client traces
   with known divergences must be classified exactly — agreement, first
   divergent (node, index), content vs order comparison, incompleteness
   and the JSON rendering. *)

open Gcs_core
module Divergence = Gcs_conformance.Divergence

let procs = [ 0; 1; 2 ]

let brcv ~at ~src ~dst value =
  Timed.action at (To_action.Brcv { src; dst; value })

(* Every node delivers a@0 then b@1, with a bcast mixed in (ignored by
   the comparator). *)
let trace_ab =
  Timed.action 0.0 (To_action.Bcast (0, "a"))
  :: List.concat_map
       (fun dst ->
         [ brcv ~at:1.0 ~src:0 ~dst "a"; brcv ~at:2.0 ~src:1 ~dst "b" ])
       procs

(* Node 2 delivers b before a; others agree with [trace_ab]. *)
let trace_ab_swapped_at_2 =
  List.concat_map
    (fun dst ->
      if dst = 2 then
        [ brcv ~at:1.0 ~src:1 ~dst "b"; brcv ~at:2.0 ~src:0 ~dst "a" ]
      else [ brcv ~at:1.0 ~src:0 ~dst "a"; brcv ~at:2.0 ~src:1 ~dst "b" ])
    procs

(* Same as [trace_ab] but node 1 received b from a different origin. *)
let trace_ab_wrong_src =
  List.concat_map
    (fun dst ->
      [
        brcv ~at:1.0 ~src:0 ~dst "a";
        brcv ~at:2.0 ~src:(if dst = 1 then 2 else 1) ~dst "b";
      ])
    procs

let orders t = Divergence.orders ~procs t

let test_agree () =
  match Divergence.compare_orders ~left:(orders trace_ab) ~right:(orders trace_ab) with
  | Divergence.Agree -> ()
  | Divergence.Diverged _ -> Alcotest.fail "identical traces diverged"

let test_empty_nodes_present () =
  let o = orders [] in
  Alcotest.(check int) "every proc listed" (List.length procs) (List.length o);
  List.iter
    (fun (_, seq) -> Alcotest.(check (list string)) "empty" [] seq)
    o

let test_order_divergence_located () =
  match
    Divergence.compare_orders ~left:(orders trace_ab)
      ~right:(orders trace_ab_swapped_at_2)
  with
  | Divergence.Agree -> Alcotest.fail "reordered trace not flagged"
  | Divergence.Diverged { node; index; left; right } ->
      Alcotest.(check int) "first divergent node" 2 node;
      Alcotest.(check int) "first divergent index" 0 index;
      Alcotest.(check (list string)) "left sequence" [ "0:a"; "1:b" ] left;
      Alcotest.(check (list string)) "right sequence" [ "1:b"; "0:a" ] right

(* A pure reordering passes the content comparison — that is exactly why
   same-protocol pairs must use compare_orders. *)
let test_contents_ignore_order () =
  (match
     Divergence.compare_contents ~left:(orders trace_ab)
       ~right:(orders trace_ab_swapped_at_2)
   with
  | Divergence.Agree -> ()
  | Divergence.Diverged _ -> Alcotest.fail "reordering flagged by contents");
  match
    Divergence.compare_contents ~left:(orders trace_ab)
      ~right:(orders trace_ab_wrong_src)
  with
  | Divergence.Agree -> Alcotest.fail "misattributed src not flagged"
  | Divergence.Diverged { node; _ } ->
      Alcotest.(check int) "misattribution located" 1 node

let test_incomplete () =
  let short =
    List.filter
      (fun e ->
        match e.Timed.item with
        | Timed.Action (To_action.Brcv { dst = 1; value = "b"; _ }) -> false
        | _ -> true)
      trace_ab
  in
  match Divergence.incomplete ~expected:(fun _ -> 2) (orders short) with
  | [ (1, 1) ] -> ()
  | missing ->
      Alcotest.failf "expected node 1 at 1/2, got %s"
        (String.concat ", "
           (List.map (fun (p, k) -> Printf.sprintf "(%d,%d)" p k) missing))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_describe_mentions_labels () =
  let v =
    Divergence.compare_orders ~left:(orders trace_ab)
      ~right:(orders trace_ab_swapped_at_2)
  in
  let s =
    Divergence.describe ~left_label:"reference" ~right_label:"candidate" v
  in
  if not (contains s "reference" && contains s "candidate") then
    Alcotest.failf "describe lacks labels: %s" s

let () =
  Alcotest.run "divergence"
    [
      ( "comparator",
        [
          Alcotest.test_case "identical traces agree" `Quick test_agree;
          Alcotest.test_case "silent nodes observed" `Quick
            test_empty_nodes_present;
          Alcotest.test_case "first divergence located" `Quick
            test_order_divergence_located;
          Alcotest.test_case "contents ignore order, catch src" `Quick
            test_contents_ignore_order;
          Alcotest.test_case "incompleteness counted" `Quick test_incomplete;
          Alcotest.test_case "describe carries labels" `Quick
            test_describe_mentions_labels;
        ] );
    ]
