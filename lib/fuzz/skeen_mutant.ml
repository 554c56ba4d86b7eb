open Gcs_core
open Gcs_skeen
open Gcs_sim

type t =
  ( Skeen.config,
    Skeen.node,
    Skeen.input,
    Skeen.packet,
    Value.t To_action.t )
  Gcs_conformance.Service.mutant

let once = Gcs_conformance.Service.once
let split_at = Gcs_conformance.Service.split_at

let is_commit = function
  | Engine.Send { packet = Skeen.Commit _; _ } -> true
  | _ -> false

let commit_skew : t =
  {
    name = "skeen-commit-skew";
    doc =
      "one destination receives a commit with a lowered final timestamp \
       (the others keep the true maximum)";
    expected_checks = [ "skeen-group-order"; "skeen-node-invariant" ];
    instrument =
      (fun _config h ->
        once
          (fun _me _st es ->
            (* Trigger on a multi-destination commit fan-out whose final
               clock is high enough to lower meaningfully: the skewed
               destination sorts the message earlier than its peers. *)
            if List.length (List.filter is_commit es) < 2 then None
            else
              match split_at is_commit es with
              | Some
                  ( before,
                    Engine.Send
                      { dst; packet = Skeen.Commit { mid; ts } },
                    after )
                when ts.Skeen.clock >= 3 ->
                  Some
                    (before
                    @ Engine.Send
                        {
                          dst;
                          packet =
                            Skeen.Commit
                              { mid; ts = { ts with Skeen.clock = ts.Skeen.clock - 2 } };
                        }
                      :: after)
              | Some _ | None -> None)
          h);
  }

let drop_proposal : t =
  {
    name = "skeen-drop-proposal";
    doc =
      "a timestamp proposal is silently lost, so the origin never commits \
       and the message wedges its destinations";
    expected_checks = [ "skeen-completeness" ];
    instrument =
      (fun _config h ->
        once
          (fun _me st es ->
            if Skeen.node_clock st < 2 then None
            else
              match
                split_at
                  (function
                    | Engine.Send { packet = Skeen.Proposal _; _ } -> true
                    | _ -> false)
                  es
              with
              | Some (before, _, after) -> Some (before @ after)
              | None -> None)
          h);
  }

let is_brcv = function
  | Engine.Output (To_action.Brcv _) -> true
  | _ -> false

let dup_deliver : t =
  {
    name = "skeen-dup-deliver";
    doc = "a delivery is handed to the client twice";
    expected_checks = [ "skeen-group-order" ];
    instrument =
      (fun _config h ->
        once
          (fun _me st es ->
            if Skeen.node_delivered st < 2 then None
            else
              match split_at is_brcv es with
              | Some (before, hit, after) -> Some (before @ [ hit; hit ] @ after)
              | None -> None)
          h);
  }

let all = [ commit_skew; drop_proposal; dup_deliver ]
