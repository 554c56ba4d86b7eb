open Gcs_core
open Gcs_impl
open Gcs_nemesis
module Prng = Gcs_stdx.Prng
module Seqx = Gcs_stdx.Seqx

type stats = {
  execs : int;
  rounds : int;
  corpus_size : int;
  features : int;
}

type entry = { input : Input.t; novelty : int }

type outcome = {
  stats : stats;
  corpus : entry list;
  coverage : Coverage.t;
  failure : (Input.t * Runner.failure) option;
  failures : (Input.t * Runner.failure) list;
  shrunk : Shrink.result option;
}

(* --------------------------- seed corpus ----------------------------- *)

(* A handful of deterministic starting points spanning the fault model:
   fault-free, clean split+heal, leader crash+recover, and one short
   random schedule drawn from the master PRNG. *)
let seed_inputs ~procs ~prng =
  let n = List.length procs in
  let majority = List.filteri (fun i _ -> i < (n / 2) + 1) procs in
  let minority = List.filteri (fun i _ -> i >= (n / 2) + 1) procs in
  let leader = match procs with p :: _ -> p | [] -> 0 in
  let workload =
    Harness.default_workload ~procs ~from_time:8.0 ~spacing:12.0 ~count:2 ()
  in
  let base = { Input.seed = 1; steps = []; workload } in
  List.map Input.normalize
    [
      base;
      {
        base with
        Input.steps =
          [
            Scenario.at 20.0 (Scenario.Partition [ majority; minority ]);
            Scenario.at 60.0 Scenario.Heal;
          ];
      };
      {
        base with
        Input.steps =
          [
            Scenario.at 20.0 (Scenario.Crash leader);
            Scenario.at 55.0 (Scenario.Recover leader);
          ];
      };
      {
        base with
        Input.steps = Gen.steps ~procs ~events:4 ~start:15.0 ~spacing:12.0 ~prng ();
      };
    ]

(* ----------------------------- mutation ------------------------------ *)

let clamp_time at = Float.max 1.0 (Float.min 120.0 at)

(* Power schedule: energy grows with the coverage an entry discovered at
   admission, with a bonus for small schedules (cheaper to execute,
   easier to shrink). *)
let entry_weight e =
  1 + min e.novelty 16 + (if Input.events e.input <= 12 then 4 else 0)

let pick_entry prng corpus =
  Prng.weighted prng (List.map (fun e -> (entry_weight e, e)) corpus)

let delete_nth k xs = List.filteri (fun i _ -> i <> k) xs

(* The default profile spans the whole fault model; the differential
   profile touches only what that mode's genome reads — the submission
   sequence (order, origins, count) and the seed. Faults would be
   stripped at execution, and workload times are reassigned by the pair,
   so the diff ops work on sequence {e positions}: a swap exchanges the
   (origin, value) payloads of two adjacent slots, a retarget moves one
   submission to another origin, and a time jitter is a position move
   (the workload is kept time-sorted). *)
let default_choices =
  [
    (3, `Perturb_step);
    (2, `Delete_step);
    (3, `Insert_fault);
    (2, `Insert_partition);
    (2, `Perturb_load);
    (2, `Delete_load);
    (3, `Insert_load);
    (2, `Reseed);
    (2, `Splice);
  ]

let diff_choices =
  [
    (3, `Swap_load);
    (2, `Retarget_load);
    (2, `Perturb_load);
    (2, `Delete_load);
    (3, `Insert_load);
    (2, `Reseed);
    (2, `Splice);
  ]

let mutate ~procs ~prng ~fresh ~max_events ~choices corpus =
  let base = pick_entry prng corpus in
  let t = ref base.input in
  (* Mostly single mutations; occasionally a havoc burst of 2-4. *)
  let ops = if Prng.int prng 4 = 0 then 2 + Prng.int prng 3 else 1 in
  for _ = 1 to ops do
    let x = !t in
    let nsteps = List.length x.Input.steps in
    let nload = List.length x.Input.workload in
    let choice = Prng.weighted prng choices in
    t :=
      (match choice with
      | `Perturb_step when nsteps > 0 ->
          let k = Prng.int prng nsteps in
          let jitter = (Prng.float prng -. 0.5) *. 30.0 in
          {
            x with
            Input.steps =
              List.mapi
                (fun i s ->
                  if i = k then
                    { s with Scenario.at = clamp_time (s.Scenario.at +. jitter) }
                  else s)
                x.Input.steps;
          }
      | `Delete_step when nsteps > 0 ->
          { x with Input.steps = delete_nth (Prng.int prng nsteps) x.Input.steps }
      | `Insert_fault ->
          let start = 1.0 +. (Prng.float prng *. 90.0) in
          {
            x with
            Input.steps =
              x.Input.steps
              @ Gen.steps ~procs ~events:1 ~start ~spacing:10.0 ~prng ();
          }
      | `Insert_partition ->
          let shuffled = Prng.shuffle prng procs in
          let k = 1 + Prng.int prng (max 1 (List.length procs - 1)) in
          let a = List.sort Proc.compare (Seqx.take k shuffled) in
          let b = List.sort Proc.compare (Seqx.drop k shuffled) in
          let from = 1.0 +. (Prng.float prng *. 80.0) in
          let until = clamp_time (from +. 10.0 +. (Prng.float prng *. 40.0)) in
          {
            x with
            Input.steps =
              x.Input.steps
              @ [
                  Scenario.at from (Scenario.Partition [ a; b ]);
                  Scenario.at until Scenario.Heal;
                ];
          }
      | `Perturb_load when nload > 0 ->
          let k = Prng.int prng nload in
          let jitter = (Prng.float prng -. 0.5) *. 30.0 in
          {
            x with
            Input.workload =
              List.mapi
                (fun i (at, p, v) ->
                  if i = k then (clamp_time (at +. jitter), p, v) else (at, p, v))
                x.Input.workload;
          }
      | `Delete_load when nload > 0 ->
          {
            x with
            Input.workload = delete_nth (Prng.int prng nload) x.Input.workload;
          }
      | `Insert_load ->
          let p = Prng.pick_exn prng procs in
          let at = 1.0 +. (Prng.float prng *. 100.0) in
          incr fresh;
          {
            x with
            Input.workload =
              x.Input.workload @ [ (at, p, Printf.sprintf "f%d" !fresh) ];
          }
      | `Swap_load when nload > 1 ->
          (* Exchange payloads, keep times: the swap survives
             [Input.normalize]'s stable time sort, so it really
             transposes two adjacent sequence slots. *)
          let k = Prng.int prng (nload - 1) in
          let arr = Array.of_list x.Input.workload in
          let t1, p1, v1 = arr.(k) and t2, p2, v2 = arr.(k + 1) in
          arr.(k) <- (t1, p2, v2);
          arr.(k + 1) <- (t2, p1, v1);
          { x with Input.workload = Array.to_list arr }
      | `Retarget_load when nload > 0 ->
          let k = Prng.int prng nload in
          let p' = Prng.pick_exn prng procs in
          {
            x with
            Input.workload =
              List.mapi
                (fun i (at, p, v) -> if i = k then (at, p', v) else (at, p, v))
                x.Input.workload;
          }
      | `Reseed -> { x with Input.seed = Prng.int prng 1_000_000 }
      | `Splice ->
          let other = (pick_entry prng corpus).input in
          let head xs = Seqx.take ((List.length xs + 1) / 2) xs in
          let tail xs = Seqx.drop (List.length xs / 2) xs in
          {
            x with
            Input.steps = head x.Input.steps @ tail other.Input.steps;
            workload = head x.Input.workload @ tail other.Input.workload;
          }
      | _ -> x)
  done;
  (* Size cap: delete random events until within bounds, so mutation
     cannot snowball schedules past what a round can afford to run. *)
  let rec cap x =
    if Input.events x <= max_events then x
    else
      let nsteps = List.length x.Input.steps in
      let nload = List.length x.Input.workload in
      if nsteps > 0 && (nload = 0 || Prng.bool prng) then
        cap { x with Input.steps = delete_nth (Prng.int prng nsteps) x.Input.steps }
      else if nload > 0 then
        cap
          {
            x with
            Input.workload = delete_nth (Prng.int prng nload) x.Input.workload;
          }
      else x
  in
  Input.normalize (cap !t)

(* ----------------------------- main loop ----------------------------- *)

let run ?service ?mutant ?tamper ?withholds_outputs ?pair ?(seeds = []) ?jobs
    ?(batch = 8) ?(shrink_budget = 600) ?(max_events = 40) ?(stop_on_failure = true)
    ?should_stop ?progress ~config ~seed ~execs () =
  let procs = config.To_service.vs.Vs_node.procs in
  (* In differential mode [mutant] instruments the candidate side of the
     pair (a {!Diff_mutant} hook); otherwise it picks the service when
     none is named. Either way a mutant of the wrong service is refused
     here, before anything runs. *)
  let execute =
    match pair with
    | Some p ->
        Differential.execute ?tamper ?withholds_outputs ?mutant ~config p
    | None ->
        let service = Runner.subject ?service ?mutant () in
        fun input -> Runner.execute ~service ?mutant ~config input
  in
  let prng = Prng.create seed in
  let fresh = ref 0 in
  let coverage = ref Coverage.empty in
  let corpus = ref [] in
  let spent = ref 0 in
  let rounds = ref 0 in
  let failures = ref [] in
  let stats () =
    {
      execs = !spent;
      rounds = !rounds;
      corpus_size = List.length !corpus;
      features = Coverage.cardinal !coverage;
    }
  in
  (* Candidates are generated sequentially from the master PRNG and
     executed on the pool; results are folded back in input order, so
     coverage merging, corpus admission and failure selection do not
     depend on domain scheduling. *)
  let run_batch inputs =
    let results = Gcs_stdx.Pool.map ?jobs execute inputs in
    spent := !spent + List.length inputs;
    List.iter2
      (fun input obs ->
        let novelty = Coverage.novel ~base:!coverage obs.Runner.coverage in
        coverage := Coverage.union !coverage obs.Runner.coverage;
        match obs.Runner.verdict with
        | Some f ->
            failures := !failures @ [ (input, f) ];
            (* A soak run keeps going, so the failing input re-enters the
               corpus with boosted energy: its neighbourhood is where
               more divergence lives. *)
            if (not stop_on_failure) && List.length !corpus < 256 then
              corpus := !corpus @ [ { input; novelty = novelty + 32 } ]
        | None ->
            if novelty > 0 && List.length !corpus < 256 then
              corpus := !corpus @ [ { input; novelty } ])
      inputs results;
    match progress with Some f -> f (stats ()) | None -> ()
  in
  let choices =
    match pair with Some _ -> diff_choices | None -> default_choices
  in
  let builtin =
    match pair with
    | Some _ -> Differential.seed_inputs ~procs ~prng
    | None -> seed_inputs ~procs ~prng
  in
  run_batch (Seqx.take (max 1 execs) (builtin @ seeds));
  let halted () =
    match should_stop with Some f -> f () | None -> false
  in
  while
    ((not stop_on_failure) || List.is_empty !failures)
    && !spent < execs
    && (not (List.is_empty !corpus))
    && not (halted ())
  do
    incr rounds;
    let wanted = min batch (execs - !spent) in
    let rec gen k acc =
      if k = 0 then List.rev acc
      else
        gen (k - 1)
          (mutate ~procs ~prng ~fresh ~max_events ~choices !corpus :: acc)
    in
    run_batch (gen wanted [])
  done;
  let failure = match !failures with [] -> None | f :: _ -> Some f in
  let shrunk =
    match failure with
    | None -> None
    | Some (input, f) ->
        let oracle input =
          match pair with
          | Some p ->
              Differential.oracle ?tamper ?withholds_outputs ?mutant ~config
                ~check:f.Runner.check p input
          | None ->
              Runner.oracle ?service ?mutant ~config ~check:f.Runner.check
                input
        in
        Some (Shrink.minimize ~budget:shrink_budget ~oracle input f)
  in
  {
    stats = stats ();
    corpus = !corpus;
    coverage = !coverage;
    failure;
    failures = !failures;
    shrunk;
  }

(* ----------------------------- reporting ----------------------------- *)

module J = Gcs_stdx.Jsonx

let count i = J.Num (float_of_int i)

let stats_fields s =
  [
    ("execs", count s.execs);
    ("rounds", count s.rounds);
    ("corpus", count s.corpus_size);
    ("features", count s.features);
  ]

let stats_to_json outcome =
  let failure =
    match outcome.failure with
    | None -> J.Null
    | Some (input, f) ->
        J.Obj
          (("check", J.Str f.Runner.check)
           :: ("events", count (Input.events input))
           ::
           (match outcome.shrunk with
           | None -> []
           | Some s ->
               [
                 ("shrunk_events", count (Input.events s.Shrink.input));
                 ("shrink_execs", count s.Shrink.execs);
               ]))
  in
  J.encode
    (J.Obj
       (stats_fields outcome.stats
       @ [
           ("failures", count (List.length outcome.failures));
           ("failure", failure);
         ]))

let snapshot_to_json stats ~wall_s =
  J.encode (J.Obj (stats_fields stats @ [ ("wall_s", J.Num wall_s) ]))

let corpus_strings outcome =
  List.map (fun e -> Input.to_string e.input) outcome.corpus
