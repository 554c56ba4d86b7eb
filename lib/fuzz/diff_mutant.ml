open Gcs_core
open Gcs_impl
open Gcs_sim
module Service = Gcs_conformance.Service
module Services = Gcs_conformance.Services

(* Planted bugs whose ONLY symptom is cross-backend divergence: each one
   reorders work in a way that is indistinguishable — to every
   single-execution oracle in the repository — from legitimate network
   or client timing. A tampered run, taken alone, is a valid execution
   of *some* schedule; only comparing it against a second execution of
   the *same* schedule exposes the lie. They gauge the differential
   mode the way the services' own planted bugs gauge the
   single-execution oracle battery. *)

type t = {
  name : string;
  doc : string;
  pair : Differential.pair;  (** the pair whose candidate side it infects *)
  tamper : Differential.tamper option;
  mutant : Service.tagged option;
  withholds_outputs : bool;
}

let pair_named name =
  match Differential.of_name name with
  | Some p -> p
  | None -> invalid_arg ("Diff_mutant: no pair " ^ name)

(* ------------------------ input-queue tampers ------------------------ *)

(* Swap the payloads of node 0's first two client submissions (times
   kept): the candidate runs a transposed schedule, so the token picks the
   values up in transposed order — a valid total order for the wrong
   workload. Deterministic: fires whenever node 0 submits twice. *)
let bus_swap_inputs =
  {
    name = "bus-swap-inputs";
    doc =
      "the bus transposes node 0's first two submissions (an input-queue \
       bug): every single-execution oracle accepts the reordered run";
    pair = pair_named "sim-bus";
    tamper = Some { Differential.swap_inputs_at = (0, 0) };
    mutant = None;
    withholds_outputs = false;
  }

(* The same input transposition on the Skeen pair: the serialized
   workload makes the divergence deterministic (the bus delivers the
   transposed values in submission-slot order). *)
let skeen_swap_inputs =
  {
    name = "skeen-swap-inputs";
    doc =
      "the Skeen bus transposes node 0's first two submissions — the \
       committed order matches the transposed schedule, not the real one";
    pair = pair_named "skeen-bus";
    tamper = Some { Differential.swap_inputs_at = (0, 0) };
    mutant = None;
    withholds_outputs = false;
  }

(* ---------------------- delivery-delay rewrites ---------------------- *)

(* Hold each node's 2nd delivery and release it just after the node's
   next delivery from a *different* origin (same-origin pairs are put
   back in place, keeping per-origin FIFO intact). The swap reorders
   only Output effects, so protocol state, timestamps and packets are
   untouched — the single-execution oracles see a node that was merely
   "slow to hand over" one delivery, yet the delivered sequence
   contradicts the reference execution. Applied uniformly at every
   node, so no agreement check between candidate nodes fires either. *)
let delay_k = 2

let delay_deliver (type c n i p o) ((module S) : (c, n, i, p, o) Service.s)
    ~name ~doc ~(brcv_src : o -> Proc.t option) =
  Service.Tagged
    ( (module S),
      {
        Service.name;
        doc;
        expected_checks = [ "divergence" ];
        instrument =
          (fun config h ->
            let n = 1 + List.fold_left max 0 (S.procs config) in
            (* One slot per node, each touched only by its own domain (the
               bus runs handlers on per-node domains); Atomic keeps the
               slots race-free by construction rather than by argument. *)
            let counts = Array.init n (fun _ -> Atomic.make 0) in
            let stash = Array.init n (fun _ -> Atomic.make None) in
            Service.rewrite
              (fun me _st es ->
                let out = ref [] in
                let emit e = out := e :: !out in
                List.iter
                  (fun e ->
                    let src =
                      match e with
                      | Engine.Output o -> brcv_src o
                      | _ -> None
                    in
                    match src with
                    | None -> emit e
                    | Some src -> (
                        match Atomic.get stash.(me) with
                        | Some (sorig, held) ->
                            Atomic.set stash.(me) None;
                            if Proc.equal sorig src then begin
                              (* Same origin: restore the original order —
                                 swapping here would break FIFO and light
                                 up a single-execution oracle. *)
                              emit held;
                              emit e
                            end
                            else begin
                              emit e;
                              emit held
                            end
                        | None ->
                            let c = 1 + Atomic.fetch_and_add counts.(me) 1 in
                            if c = delay_k then
                              Atomic.set stash.(me) (Some (src, e))
                            else emit e))
                  es;
                List.rev !out)
              h);
      } )

let skeen_delay_deliver =
  let doc =
    "each node hands its 2nd delivery to the client one delivery late \
     (after the next delivery from another origin) — FIFO-safe, so only \
     cross-backend comparison sees it"
  in
  {
    name = "skeen-delay-deliver";
    doc;
    pair = pair_named "skeen-bus";
    tamper = None;
    mutant =
      Some
        (delay_deliver
           (module Services.Skeen)
           ~name:"skeen-delay-deliver" ~doc
           ~brcv_src:(function To_action.Brcv { src; _ } -> Some src | _ -> None));
    withholds_outputs = true;
  }

(* The same delivery-queue bug in the VStoTO service running on the bus.
   Client deliveries are [To_service.Client (Brcv _)] effects inside a
   stream dominated by [Vs_layer] actions, so only a handler-level
   rewrite can target them — a transport-level output index cannot. *)
let vs_delay_deliver =
  let doc =
    "each VStoTO node hands its 2nd delivery to the client one delivery \
     late (after the next delivery from another origin) — FIFO-safe, so \
     only cross-backend comparison sees it"
  in
  {
    name = "vs-delay-deliver";
    doc;
    pair = pair_named "sim-bus";
    tamper = None;
    mutant =
      Some
        (delay_deliver
           (module Services.Vstoto)
           ~name:"vs-delay-deliver" ~doc
           ~brcv_src:(function
             | To_service.Client (To_action.Brcv { src; _ }) -> Some src
             | _ -> None));
    withholds_outputs = true;
  }

let all =
  [
    bus_swap_inputs;
    vs_delay_deliver;
    skeen_swap_inputs;
    skeen_delay_deliver;
  ]

let find name = List.find_opt (fun m -> String.equal m.name name) all
let names = List.map (fun m -> m.name) all

let check m (p : Differential.pair) =
  if not (String.equal m.pair.Differential.name p.Differential.name) then
    invalid_arg
      (Printf.sprintf "mutant %s targets pair %s, not %s" m.name
         m.pair.Differential.name p.Differential.name)
