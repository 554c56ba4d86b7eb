open Gcs_automata
module Tape = Gcs_stdx.Tape

type status = Normal | Send | Collect

let status_equal a b =
  match (a, b) with
  | Normal, Normal | Send, Send | Collect, Collect -> true
  | (Normal | Send | Collect), _ -> false

type state = {
  current : View.t option;
  status : status;
  content : Value.t Label.Map.t;
  nextseqno : int;
  buffer : Label.t Tape.t;
  order : Label.t Tape.t;
  nextconfirm : int;
  nextreport : int;
  highprimary : View_id.t option;
  delay : Value.t Tape.t;
  gotstate : Summary.t Proc.Map.t;
  safe_exch : Proc.Set.t;
  safe_labels : Label.Set.t;
}

type params = {
  me : Proc.t;
  p0 : Proc.t list;
  quorums : Quorum.t;
  literal_figure_10 : bool;
}

let default_params ~me ~p0 ~quorums () =
  { me; p0; quorums; literal_figure_10 = false }

let initial params =
  let in_p0 = List.mem params.me params.p0 in
  {
    current = (if in_p0 then Some (View.initial params.p0) else None);
    status = Normal;
    content = Label.Map.empty;
    nextseqno = 1;
    buffer = Tape.empty ();
    order = Tape.empty ();
    nextconfirm = 1;
    nextreport = 1;
    highprimary = (if in_p0 then Some View_id.g0 else None);
    delay = Tape.empty ();
    gotstate = Proc.Map.empty;
    safe_exch = Proc.Set.empty;
    safe_labels = Label.Set.empty;
  }

let primary params state =
  match state.current with
  | None -> false
  | Some v -> Quorum.contains_quorum params.quorums v.View.set

let summary_of_state state =
  Summary.make ~con:state.content ~ord:(Tape.to_list state.order)
    ~next:state.nextconfirm ~high:state.highprimary

(* The corrected precondition of [label]: normal processing (the Figure 10
   erratum needs a label created before the summary send). *)
let may_process params state =
  params.literal_figure_10 || status_equal state.status Normal

(* Completion of the state exchange: the processor "establishes" the view
   and resumes normal processing. *)
let establish params state =
  let nextconfirm = Summary.maxnextconfirm state.gotstate in
  if primary params state then
    let current =
      match state.current with
      | Some v -> v
      | None ->
          (* [primary] already demands a current view, so a [None] here
             is a protocol-logic bug; name the processor rather than
             dying with an anonymous [Option.get]. *)
          invalid_arg
            (Printf.sprintf
               "Vstoto.establish: invariant violation at proc %d: \
                completing the state exchange with no current view"
               params.me)
    in
    {
      state with
      nextconfirm;
      order = Tape.of_list (Summary.fullorder state.gotstate);
      highprimary = Some current.View.id;
      status = Normal;
    }
  else
    {
      state with
      nextconfirm;
      order = Tape.of_list (Summary.shortorder state.gotstate);
      highprimary = Summary.maxprimary state.gotstate;
      status = Normal;
    }

(* Receiving an application message: the content joins immediately and a
   primary extends its order. *)
let receive_app params state entries =
  let content =
    List.fold_left (fun c (l, a) -> Label.Map.add l a c) state.content entries
  in
  let state = { state with content } in
  if primary params state then
    {
      state with
      order = List.fold_left (fun t (l, _) -> Tape.snoc t l) state.order entries;
    }
  else state

let receive_safe_app params state entries =
  if primary params state then
    {
      state with
      safe_labels =
        List.fold_left
          (fun s (l, _) -> Label.Set.add l s)
          state.safe_labels entries;
    }
  else state

(* A batch [gpsnd] carries the whole buffer: every label in order, each
   bound to its content. *)
let batch_matches_buffer state entries =
  let rec go i = function
    | [] -> i = Tape.length state.buffer
    | (l, a) :: rest ->
        i < Tape.length state.buffer
        && Label.equal (Tape.get state.buffer i) l
        && (match Label.Map.find_opt l state.content with
           | Some v -> Value.equal v a
           | None -> false)
        && go (i + 1) rest
  in
  go 0 entries

let transition params state action =
  match action with
  | Sys_action.Bcast (p, a) ->
      assert (Proc.equal p params.me);
      Some { state with delay = Tape.snoc state.delay a }
  | Sys_action.Label_act (p, a) -> (
      if not (Proc.equal p params.me) then None
      else
        match (Tape.first state.delay, state.current) with
        | Some head, Some v when Value.equal head a && may_process params state
          ->
            let l =
              Label.make ~id:v.View.id ~seqno:state.nextseqno ~origin:p
            in
            Some
              {
                state with
                content = Label.Map.add l a state.content;
                buffer = Tape.snoc state.buffer l;
                nextseqno = state.nextseqno + 1;
                delay = Tape.rest state.delay;
              }
        | _ -> None)
  | Sys_action.Vs (Vs_action.Gpsnd { sender; msg }) -> (
      if not (Proc.equal sender params.me) then None
      else
        match msg with
        | Msg.App (l, a) -> (
            match Tape.first state.buffer with
            | Some head
              when status_equal state.status Normal
                   && Label.equal head l
                   && (match Label.Map.find_opt l state.content with
                      | Some v -> Value.equal v a
                      | None -> false) ->
                Some { state with buffer = Tape.rest state.buffer }
            | _ -> None)
        | Msg.Batch entries ->
            if
              status_equal state.status Normal
              && (not (List.is_empty entries))
              && batch_matches_buffer state entries
            then Some { state with buffer = Tape.empty () }
            else None
        | Msg.Summary x ->
            if
              status_equal state.status Send
              && Summary.equal x (summary_of_state state)
            then Some { state with status = Collect }
            else None)
  | Sys_action.Vs (Vs_action.Gprcv { dst; msg; src }) -> (
      if not (Proc.equal dst params.me) then None
      else
        match msg with
        | Msg.App (l, a) -> Some (receive_app params state [ (l, a) ])
        | Msg.Batch entries -> Some (receive_app params state entries)
        | Msg.Summary x ->
            let state =
              {
                state with
                content =
                  Label.Map.union
                    (fun _ v _ -> Some v)
                    state.content x.Summary.con;
                gotstate = Proc.Map.add src x state.gotstate;
              }
            in
            let complete =
              match state.current with
              | Some v ->
                  Proc.Set.equal
                    (Proc.Map.fold
                       (fun q _ acc -> Proc.Set.add q acc)
                       state.gotstate Proc.Set.empty)
                    v.View.set
              | None -> false
            in
            if complete && status_equal state.status Collect then
              Some (establish params state)
            else Some state)
  | Sys_action.Vs (Vs_action.Safe { dst; msg; src }) -> (
      if not (Proc.equal dst params.me) then None
      else
        match msg with
        | Msg.App (l, a) -> Some (receive_safe_app params state [ (l, a) ])
        | Msg.Batch entries -> Some (receive_safe_app params state entries)
        | Msg.Summary _ ->
            let safe_exch = Proc.Set.add src state.safe_exch in
            let state = { state with safe_exch } in
            let all_safe =
              match state.current with
              | Some v -> Proc.Set.equal safe_exch v.View.set
              | None -> false
            in
            if all_safe && primary params state then begin
              assert (not (Proc.Map.is_empty state.gotstate));
              Some
                {
                  state with
                  safe_labels =
                    List.fold_left
                      (fun acc l -> Label.Set.add l acc)
                      state.safe_labels
                      (Summary.fullorder state.gotstate);
                }
            end
            else Some state)
  | Sys_action.Confirm p -> (
      if not (Proc.equal p params.me) then None
      else
        match Tape.nth1 state.order state.nextconfirm with
        | Some l when primary params state && Label.Set.mem l state.safe_labels
          ->
            Some { state with nextconfirm = state.nextconfirm + 1 }
        | _ -> None)
  | Sys_action.Brcv { src; dst; value } -> (
      if not (Proc.equal dst params.me) then None
      else if state.nextreport >= state.nextconfirm then None
      else
        match Tape.nth1 state.order state.nextreport with
        | Some l
          when (match Label.Map.find_opt l state.content with
               | Some v -> Value.equal v value
               | None -> false)
               && Proc.equal l.Label.origin src ->
            Some { state with nextreport = state.nextreport + 1 }
        | _ -> None)
  | Sys_action.Vs (Vs_action.Newview { proc; view }) ->
      if not (Proc.equal proc params.me) then None
      else
        Some
          {
            state with
            current = Some view;
            nextseqno = 1;
            buffer = Tape.empty ();
            gotstate = Proc.Map.empty;
            safe_exch = Proc.Set.empty;
            safe_labels = Label.Set.empty;
            status = Send;
          }
  | Sys_action.Vs (Vs_action.Createview _)
  | Sys_action.Vs (Vs_action.Vs_order _) ->
      None

(* The sections of [enabled], in drain priority order. *)

let enabled_label params state =
  match (Tape.first state.delay, state.current) with
  | Some a, Some _ when may_process params state ->
      [ Sys_action.Label_act (params.me, a) ]
  | _ -> []

let enabled_gpsnd_app params state =
  if not (status_equal state.status Normal) then []
  else
    match Tape.length state.buffer with
    | 0 -> []
    | 1 -> (
        let l = Tape.get state.buffer 0 in
        match Label.Map.find_opt l state.content with
        | Some a ->
            [
              Sys_action.Vs
                (Vs_action.Gpsnd { sender = params.me; msg = Msg.App (l, a) });
            ]
        | None -> [])
    | _ ->
        let entries =
          List.rev
            (Tape.fold_left
               (fun acc l ->
                 match Label.Map.find_opt l state.content with
                 | Some a -> (l, a) :: acc
                 | None -> acc)
               [] state.buffer)
        in
        if List.length entries = Tape.length state.buffer then
          [
            Sys_action.Vs
              (Vs_action.Gpsnd { sender = params.me; msg = Msg.Batch entries });
          ]
        else []

let enabled_gpsnd_summary params state =
  if status_equal state.status Send then
    [
      Sys_action.Vs
        (Vs_action.Gpsnd
           { sender = params.me; msg = Msg.Summary (summary_of_state state) });
    ]
  else []

let enabled_confirm params state =
  match Tape.nth1 state.order state.nextconfirm with
  | Some l when primary params state && Label.Set.mem l state.safe_labels ->
      [ Sys_action.Confirm params.me ]
  | _ -> []

let enabled_brcv params state =
  if state.nextreport < state.nextconfirm then
    match Tape.nth1 state.order state.nextreport with
    | Some l -> (
        match Label.Map.find_opt l state.content with
        | Some a ->
            [
              Sys_action.Brcv
                { src = l.Label.origin; dst = params.me; value = a };
            ]
        | None -> [])
    | None -> []
  else []

let enabled params state =
  enabled_label params state
  @ enabled_gpsnd_app params state
  @ enabled_gpsnd_summary params state
  @ enabled_confirm params state
  @ enabled_brcv params state

(* The first enabled locally controlled action: only the first non-empty
   section is computed, so a drain never builds the (possibly large)
   batch or summary action behind an enabled [label]. *)
let first_enabled params state =
  match enabled_label params state with
  | a :: _ -> Some a
  | [] -> (
      match enabled_gpsnd_app params state with
      | a :: _ -> Some a
      | [] -> (
          match enabled_gpsnd_summary params state with
          | a :: _ -> Some a
          | [] -> (
              match enabled_confirm params state with
              | a :: _ -> Some a
              | [] -> (
                  match enabled_brcv params state with
                  | a :: _ -> Some a
                  | [] -> None))))

(* The three long runs of a drain, each applied in one pass. A run is the
   maximal sequence of that action which stepping [first_enabled] and
   [transition] would take: no action of the run enables a
   higher-priority section, so stepping would pick the same action again
   until the run's own precondition fails, which is where each loop
   stops. *)

(* [label] every delayed value. Labelling changes neither [current] nor
   [status], so [may_process] holds throughout. *)
let label_run params state =
  let id =
    match state.current with
    | Some v -> v.View.id
    | None -> invalid_arg "Vstoto.label_run: label enabled with no view"
  in
  let content, buffer, nextseqno =
    Tape.fold_left
      (fun (content, buffer, seqno) a ->
        let l = Label.make ~id ~seqno ~origin:params.me in
        (Label.Map.add l a content, Tape.snoc buffer l, seqno + 1))
      (state.content, state.buffer, state.nextseqno)
      state.delay
  in
  {
    state with
    content;
    buffer;
    nextseqno;
    delay = Tape.drop (Tape.length state.delay) state.delay;
  }

(* [confirm] every label that is safe and next in order. Called only
   when [confirm] is enabled, so [primary] holds, and confirming leaves
   [current] alone. *)
let confirm_run state =
  let rec go k =
    match Tape.nth1 state.order k with
    | Some l when Label.Set.mem l state.safe_labels -> go (k + 1)
    | _ -> k
  in
  { state with nextconfirm = go state.nextconfirm }

(* [brcv] every confirmed label, consing the reports onto [out_rev]. *)
let report_run params state out_rev =
  let rec go k out_rev =
    if k >= state.nextconfirm then (k, out_rev)
    else
      match Tape.nth1 state.order k with
      | None -> (k, out_rev)
      | Some l -> (
          match Label.Map.find_opt l state.content with
          | None -> (k, out_rev)
          | Some value ->
              go (k + 1)
                (Sys_action.Brcv
                   { src = l.Label.origin; dst = params.me; value }
                :: out_rev))
  in
  let nextreport, out_rev = go state.nextreport out_rev in
  ({ state with nextreport }, out_rev)

let drain params state =
  let rec go state out_rev =
    match first_enabled params state with
    | None -> (state, List.rev out_rev)
    | Some (Sys_action.Label_act _) -> go (label_run params state) out_rev
    | Some (Sys_action.Confirm _) -> go (confirm_run state) out_rev
    | Some (Sys_action.Brcv _) ->
        let state, out_rev = report_run params state out_rev in
        go state out_rev
    | Some action -> (
        match transition params state action with
        | Some state -> go state (action :: out_rev)
        | None ->
            invalid_arg
              (Format.asprintf "Vstoto.drain: %a enabled but rejected"
                 Sys_action.pp action))
  in
  go state []

let automaton params =
  {
    Automaton.name = Printf.sprintf "VStoTO_%d" params.me;
    initial = initial params;
    kind = Sys_action.vstoto_kind ~me:params.me;
    enabled = enabled params;
    transition = transition params;
  }

let equal_state a b =
  (match (a.current, b.current) with
  | None, None -> true
  | Some v, Some w -> View.equal v w
  | _ -> false)
  && status_equal a.status b.status
  && Label.Map.equal Value.equal a.content b.content
  && a.nextseqno = b.nextseqno
  && Tape.equal Label.equal a.buffer b.buffer
  && Tape.equal Label.equal a.order b.order
  && a.nextconfirm = b.nextconfirm
  && a.nextreport = b.nextreport
  && View_id.compare_opt a.highprimary b.highprimary = 0
  && Tape.equal Value.equal a.delay b.delay
  && Proc.Map.equal Summary.equal a.gotstate b.gotstate
  && Proc.Set.equal a.safe_exch b.safe_exch
  && Label.Set.equal a.safe_labels b.safe_labels

let pp_status ppf = function
  | Normal -> Format.pp_print_string ppf "normal"
  | Send -> Format.pp_print_string ppf "send"
  | Collect -> Format.pp_print_string ppf "collect"

let pp_state ppf s =
  Format.fprintf ppf
    "@[<v>current=%a status=%a nextconfirm=%d nextreport=%d order=[%a]@]"
    (Format.pp_print_option
       ~none:(fun ppf () -> Format.pp_print_string ppf "_|_")
       View.pp)
    s.current pp_status s.status s.nextconfirm s.nextreport
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Label.pp)
    (Tape.to_list s.order)
