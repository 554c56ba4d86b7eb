type 'ca failure = {
  step_index : int;
  concrete_action : 'ca option;
  reason : string;
}

let run_abstract abstract start actions =
  let rec go state = function
    | [] -> Ok state
    | a :: rest -> (
        match abstract.Automaton.transition state a with
        | Some state' -> go state' rest
        | None -> Error "abstract action not enabled")
  in
  go start actions

(* [f] and [corresponds] reject a state they cannot abstract (an
   unreachable, bug-revealing one) by raising [Invalid_argument]; that
   fails the step like any other emulation failure. *)
let guarded thunk =
  match thunk () with
  | result -> result
  | exception Invalid_argument reason -> Error reason

let check_execution ~abstract ~f ~corresponds ~equal_abs
    (e : ('cs, 'ca) Exec.execution) =
  let initial () =
    if equal_abs (f e.Exec.init) abstract.Automaton.initial then Ok ()
    else Error "f(initial) differs from abstract initial state"
  in
  let emulate step () =
    let abs_actions =
      corresponds step.Exec.pre step.Exec.action step.Exec.post
    in
    match run_abstract abstract (f step.Exec.pre) abs_actions with
    | Error reason -> Error reason
    | Ok abs_final ->
        if equal_abs abs_final (f step.Exec.post) then Ok ()
        else Error "abstract state mismatch after emulation"
  in
  match guarded initial with
  | Error reason -> Error { step_index = 0; concrete_action = None; reason }
  | Ok () ->
      let rec go i = function
        | [] -> Ok ()
        | step :: rest -> (
            match guarded (emulate step) with
            | Ok () -> go (i + 1) rest
            | Error reason ->
                Error
                  {
                    step_index = i;
                    concrete_action = Some step.Exec.action;
                    reason;
                  })
      in
      go 1 e.Exec.steps
