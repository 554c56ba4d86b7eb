open Gcs_core
open Gcs_impl
open Gcs_sim

type t =
  ( To_service.config,
    To_service.node,
    Value.t,
    Msg.t Wire.packet,
    To_service.out )
  Gcs_conformance.Service.mutant

let once = Gcs_conformance.Service.once
let split_at = Gcs_conformance.Service.split_at

let is_brcv = function
  | Engine.Output (To_service.Client (To_action.Brcv _)) -> true
  | _ -> false

let dup_delivery : t =
  {
    name = "dup-delivery";
    doc = "a delivery is handed to the client twice after the third view";
    expected_checks = [ "to-conformance" ];
    instrument =
      (fun _config h ->
        once
          (fun _me st es ->
            if To_service.node_views_installed st < 3 then None
            else
              match split_at is_brcv es with
              | Some (before, hit, after) ->
                  Some (before @ [ hit; hit ] @ after)
              | None -> None)
          h);
  }

let drop_delivery : t =
  {
    name = "drop-delivery";
    doc = "a delivery is silently lost after the second view";
    expected_checks = [ "to-conformance"; "delivery-bound" ];
    instrument =
      (fun _config h ->
        once
          (fun _me st es ->
            if To_service.node_views_installed st < 2 then None
            else
              match split_at is_brcv es with
              | Some (before, _, after) -> Some (before @ after)
              | None -> None)
          h);
  }

let reorder_deliveries : t =
  {
    name = "reorder-deliveries";
    doc = "two same-batch deliveries reach the client in swapped order";
    expected_checks = [ "to-conformance" ];
    instrument =
      (fun _config h ->
        once
          (fun _me _st es ->
            match split_at is_brcv es with
            | Some (before, first, rest) -> (
                match split_at is_brcv rest with
                | Some (mid, second, after) ->
                    Some (before @ (second :: mid) @ (first :: after))
                | None -> None)
            | None -> None)
          h);
  }

let is_newview num = function
  | Engine.Output (To_service.Vs_layer (Vs_action.Newview { view; _ })) ->
      view.View.id.View_id.num >= num
  | _ -> false

let skip_newview : t =
  {
    name = "skip-newview";
    doc = "a newview announcement is swallowed once view numbers reach 2";
    expected_checks = [ "vs-conformance" ];
    instrument =
      (fun _config h ->
        once
          (fun _me _st es ->
            match split_at (is_newview 2) es with
            | Some (before, _, after) -> Some (before @ after)
            | None -> None)
          h);
  }

let gprcv_src = function
  | Engine.Output (To_service.Vs_layer (Vs_action.Gprcv { src; _ })) ->
      Some src
  | _ -> None

let reorder_gprcv : t =
  {
    name = "reorder-gprcv";
    doc = "two same-sender VS deliveries at a node are swapped";
    expected_checks = [ "vs-conformance" ];
    instrument =
      (fun _config h ->
        (* The first gprcv a node emits once it has installed two views
           trades places with the next gprcv from the same sender: in the
           same handler step when there is one, else it is held back and
           emitted right after that gprcv in a later step. A member sends
           nothing between its summary and its establish, so two
           deliveries from one sender rarely share a step. *)
        let held = ref None and fired = ref false in
        let same_src first e =
          match (gprcv_src first, gprcv_src e) with
          | Some a, Some b -> Proc.equal a b
          | _ -> false
        in
        Gcs_conformance.Service.rewrite
          (fun me st es ->
            if !fired then es
            else
              match !held with
              | Some (p, first) -> (
                  match split_at (same_src first) es with
                  | Some (before, second, after) when Proc.equal p me ->
                      fired := true;
                      before @ (second :: first :: after)
                  | Some _ | None -> es)
              | None -> (
                  if To_service.node_views_installed st < 2 then es
                  else
                    match split_at (fun e -> Option.is_some (gprcv_src e)) es with
                    | None -> es
                    | Some (before, first, rest) -> (
                        match split_at (same_src first) rest with
                        | Some (mid, second, after) ->
                            fired := true;
                            before @ (second :: mid) @ (first :: after)
                        | None ->
                            held := Some (me, first);
                            before @ rest)))
          h);
  }

let misattribute_delivery : t =
  {
    name = "misattribute-delivery";
    doc = "a delivery made in a minority view reports the wrong sender";
    expected_checks = [ "to-conformance" ];
    instrument =
      (fun config h ->
        let procs = config.To_service.vs.Vs_node.procs in
        let n = List.length procs in
        once
          (fun _me st es ->
            let minority =
              match To_service.node_view st with
              | Some v -> Proc.Set.cardinal v.View.set < n
              | None -> false
            in
            if not minority then None
            else
              match split_at is_brcv es with
              | Some
                  ( before,
                    Engine.Output
                      (To_service.Client (To_action.Brcv { src; dst; value })),
                    after ) ->
                  let src' = (src + 1) mod n in
                  Some
                    (before
                    @ Engine.Output
                        (To_service.Client
                           (To_action.Brcv { src = src'; dst; value }))
                      :: after)
              | Some _ | None -> None)
          h);
  }

let vstoto =
  [
    dup_delivery;
    drop_delivery;
    reorder_deliveries;
    skip_newview;
    reorder_gprcv;
    misattribute_delivery;
  ]

let all =
  Gcs_conformance.(
    Service.tag (module Services.Vstoto) vstoto
    @ Service.tag (module Services.Skeen) Skeen_mutant.all)

let find name =
  List.find_opt
    (fun m -> String.equal (Gcs_conformance.Service.mutant_name m) name)
    all
