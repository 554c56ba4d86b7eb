open Parsetree

let rules =
  [
    ( "D1",
      "Hashtbl.iter/fold/to_seq in hash order without an enclosing \
       List.sort sink" );
    ( "D2",
      "entropy source outside lib/stdx/prng.ml, or wall-clock source \
       outside lib/transport/clock.ml" );
    ( "D3",
      "polymorphic compare/=/Hashtbl.hash on constructed operands in \
       lib/core or lib/impl" );
    ("P1", "partial stdlib function (Option.get, List.hd, ...) in lib/");
    ("P2", "catch-all exception handler that neither matches nor re-raises");
    ( "C1",
      "mutable state captured by a Domain.spawn/Pool closure and written \
       without Mailbox, Atomic or Lock routing" );
    ( "C2",
      "Mutex.lock without a provable matching unlock on every exit path \
       (exception-unsafe critical section); use Gcs_stdx.Lock.with_lock" );
    ( "C3",
      "Atomic.get followed by Atomic.set on the same atomic: a lost-update \
       read-modify-write; use compare_and_set/fetch_and_add" );
    ( "C4",
      "blocking call while a lock is held, or a cycle in the static \
       lock-order graph (Lock.with_lock nesting)" );
    ( "A1",
      "[@gcs.lint.allow] suppression under which nothing fires; delete the \
       stale attribute" );
    ("M1", "lib/ module without an interface (.mli)");
    ("E0", "source file does not parse");
  ]

(* ------------------------- path predicates -------------------------- *)

let under prefix path =
  String.length path >= String.length prefix
  && String.equal (String.sub path 0 (String.length prefix)) prefix

let in_lib path = under "lib/" path
let in_d3_scope path = under "lib/core/" path || under "lib/impl/" path
let is_prng path = String.equal path "lib/stdx/prng.ml"

(* The bus transport's monotonic clock is the one sanctioned wall-clock
   sink: everything else must take time from a backend, so that the same
   automata stay replayable on the simulator. *)
let is_clock path = String.equal path "lib/transport/clock.ml"

(* The instrumented lock wrapper is the one sanctioned home of raw
   [Mutex.lock]/[unlock] (rule C2): it is where exception safety is
   proved once, by review, instead of at every call site. *)
let is_lock_home path = String.equal path "lib/stdx/lock.ml"

(* --------------------------- identifiers ---------------------------- *)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply (_, l) -> flatten l

(* Match on the last path components so [Stdlib.Hashtbl.fold] and
   [Hashtbl.fold] classify alike. *)
let last2 path =
  match List.rev path with
  | f :: m :: _ -> Some (m, f)
  | [ f ] -> Some ("", f)
  | [] -> None

let unordered_hashtbl path =
  match last2 path with
  | Some ("Hashtbl", ("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values" as f)) ->
      Some ("Hashtbl." ^ f)
  | _ -> None

let entropy path =
  match path with
  | "Random" :: rest -> Some (String.concat "." ("Random" :: rest))
  | _ -> None

let wall_clock path =
  match last2 path with
  | Some ("Sys", "time") -> Some "Sys.time"
  | Some ("Unix", "gettimeofday") -> Some "Unix.gettimeofday"
  | Some ("Unix", "time") -> Some "Unix.time"
  | _ -> None

let partial_fn path =
  match last2 path with
  | Some ("Option", "get") -> Some ("Option.get", "None")
  | Some ("List", "hd") -> Some ("List.hd", "the empty list")
  | Some ("List", "tl") -> Some ("List.tl", "the empty list")
  | Some (("Array" | "String") as m, f)
    when under "unsafe_" f ->
      Some (m ^ "." ^ f, "out-of-bounds access")
  | _ -> None

let sort_sink path =
  match last2 path with
  | Some ("List", ("sort" | "stable_sort" | "sort_uniq" | "fast_sort")) ->
      true
  | _ -> false

(* C1: spawn-like functions whose closure argument runs on another
   domain. *)
let spawn_like path =
  match last2 path with
  | Some ("Domain", "spawn") | Some ("Pool", ("map" | "iter")) -> true
  | _ -> false

(* C1: operations that write shared mutable state in place. Returns the
   expression holding the mutated value. *)
let mutation_of_apply path args =
  let first_nolabel () =
    List.find_map
      (function Asttypes.Nolabel, a -> Some a | _ -> None)
      args
  in
  match last2 path with
  | Some ("", ":=") -> (
      match first_nolabel () with Some a -> Some (a, ":=") | None -> None)
  | Some ("", ("incr" | "decr" as f)) | Some ("Ref", ("incr" | "decr" as f))
    -> (
      match first_nolabel () with Some a -> Some (a, f) | None -> None)
  | Some (("Array" | "Bytes") as m, (("set" | "fill" | "blit") as f))
  | Some
      ( ("Hashtbl" as m),
        (( "add" | "replace" | "remove" | "reset" | "clear"
         | "filter_map_inplace" ) as f) )
  | Some (("Queue" | "Stack" | "Buffer") as m, f) -> (
      match first_nolabel () with
      | Some a -> Some (a, m ^ "." ^ f)
      | None -> None)
  | _ -> None

(* C4: calls that can block the domain. *)
let blocking_call path =
  match last2 path with
  | Some ("Condition", "wait") -> Some "Condition.wait"
  | Some ("Mutex", "lock") -> Some "Mutex.lock"
  | Some ("Mailbox", ("wait" | "recv" as f)) -> Some ("Mailbox." ^ f)
  | Some ("Domain", "join") -> Some "Domain.join"
  | Some ("Pool", ("map" | "iter" as f)) -> Some ("Pool." ^ f)
  | Some ("Clock", ("sleep" | "wait" as f)) -> Some ("Clock." ^ f)
  | Some ("Unix", ("sleep" | "sleepf" | "select" as f)) -> Some ("Unix." ^ f)
  | Some ("Thread", "delay") -> Some "Thread.delay"
  | _ -> None

(* ------------------------ allow attributes -------------------------- *)

(* One entry per [@gcs.lint.allow] attribute: the rules it names and the
   attribute's own location (A1 reports stale attributes there). *)
let allow_scopes_of_attrs attrs =
  List.filter_map
    (fun (a : attribute) ->
      if String.equal a.attr_name.txt "gcs.lint.allow" then
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _;
              };
            ] ->
            let rules =
              String.split_on_char ' ' s
              |> List.concat_map (String.split_on_char ',')
              |> List.filter (fun r -> not (String.equal r ""))
            in
            Some (rules, a.attr_loc)
        | _ -> None
      else None)
    attrs

(* ----------------------------- context ------------------------------ *)

type scope = {
  s_rules : string list;
  s_loc : Location.t;
  mutable s_hits : string list;  (* rules that actually suppressed something *)
}

type ctx = {
  path : string;
  mutable scopes : scope list;  (* active allow scopes, innermost first *)
  mutable all_scopes : scope list;  (* every scope ever opened (A1 audit) *)
  mutable sanctioned : expression list;  (* by physical identity *)
  mutable handled_locks : expression list;  (* Mutex.lock already judged (C2) *)
  mutable spawn_frames : (string, unit) Hashtbl.t list;
      (* C1: bound-name sets of enclosing spawn closures, innermost first *)
  mutable held : string list;  (* C4: locks held syntactically, innermost first *)
  mutable lock_edges : (string * string * Location.t * bool) list;
      (* C4: (held, acquired, site, suppressed), in source order *)
  mutable spawn_lambdas : expression list;  (* by physical identity *)
  mutable acc : Finding.t list;
  local_compare : bool;  (* the file defines its own [compare] *)
}

let allowed ctx rule =
  let hit = ref false in
  List.iter
    (fun s ->
      if List.mem rule s.s_rules then begin
        hit := true;
        if not (List.mem rule s.s_hits) then s.s_hits <- rule :: s.s_hits
      end)
    ctx.scopes;
  !hit

let push ctx (rules, loc) =
  let s = { s_rules = rules; s_loc = loc; s_hits = [] } in
  ctx.scopes <- s :: ctx.scopes;
  ctx.all_scopes <- s :: ctx.all_scopes

let pop ctx =
  match ctx.scopes with _ :: rest -> ctx.scopes <- rest | [] -> ()

let report ?suppressed ctx (loc : Location.t) rule fmt =
  Printf.ksprintf
    (fun message ->
      let suppressed =
        match suppressed with Some s -> s | None -> allowed ctx rule
      in
      let p = loc.Location.loc_start in
      ctx.acc <-
        Finding.v ~file:ctx.path ~line:p.Lexing.pos_lnum
          ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
          ~rule ~suppressed message
        :: ctx.acc)
    fmt

(* --------------------------- expression helpers --------------------- *)

let rec head e =
  match e.pexp_desc with Pexp_apply (f, _) -> head f | _ -> e

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (flatten txt)
  | _ -> None

let head_path e = ident_path (head e)

let is_sort_sink e =
  match head_path e with Some p -> sort_sink p | None -> false

(* Canonical text of an ident-or-field chain ([l], [t.lock], [a.b.c]);
   [None] for anything else. Used to match lock values across C2/C3/C4
   sites within one file. *)
let rec canonical e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (String.concat "." (flatten txt))
  | Pexp_field (b, { txt; _ }) -> (
      match canonical b with
      | Some base -> Some (base ^ "." ^ String.concat "." (flatten txt))
      | None -> None)
  | _ -> None

(* The base variable of a mutation target: [r] for [r := v], [t] for
   [t.field <- v] and [Hashtbl.replace t k v]. Module-qualified targets
   yield [None]. *)
let rec base_var e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident v; _ } -> Some v
  | Pexp_field (b, _) -> base_var b
  | Pexp_apply (f, args) -> (
      (* a.(i) parses as Array.get a i: recurse into the collection *)
      match (ident_path f, args) with
      | Some p, (Asttypes.Nolabel, a) :: _
        when match last2 p with
             | Some (("Array" | "Bytes" | "String"), "get") -> true
             | _ -> false ->
          base_var a
      | _ -> None)
  | _ -> None

(* Mark the Hashtbl iteration at the head of [a] (if any) as flowing
   into a sanctioned sink, so the D1 check skips it. *)
let sanction ctx a =
  let h = head a in
  match ident_path h with
  | Some p when Option.is_some (unordered_hashtbl p) ->
      ctx.sanctioned <- h :: ctx.sanctioned
  | _ -> ()

let scalar_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_char _ | Pconst_string _) ->
      true
  | Pexp_construct ({ txt = Longident.Lident ("true" | "false"); _ }, None)
    ->
      true
  | _ -> false

let constructed e =
  match e.pexp_desc with
  | Pexp_construct _ | Pexp_variant _ | Pexp_tuple _ | Pexp_record _
  | Pexp_array _ ->
      true
  | _ -> false

(* A polymorphic structural primitive, by name. [compare] only counts
   when the file does not shadow it with its own definition. *)
let poly_primitive ctx path =
  match path with
  | [ "compare" ] when not ctx.local_compare -> Some "compare"
  | [ "Stdlib"; "compare" ] -> Some "Stdlib.compare"
  | _ -> (
      match last2 path with
      | Some ("Hashtbl", "hash") -> Some "Hashtbl.hash"
      | _ -> None)

(* Does a handler body re-raise (syntactically contain raise /
   raise_notrace / Printexc.raise_with_backtrace / exit)? *)
let reraises body =
  let found = ref false in
  let expr it e =
    (match ident_path e with
    | Some p -> (
        match List.rev p with
        | ("raise" | "raise_notrace" | "raise_with_backtrace" | "reraise")
          :: _ ->
            found := true
        | _ -> ())
    | None -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it body;
  !found

let rec catch_all_pattern p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (q, _) | Ppat_constraint (q, _) -> catch_all_pattern q
  | Ppat_or (a, b) -> catch_all_pattern a || catch_all_pattern b
  | _ -> false

(* Every variable name bound by any pattern inside [e] (function
   parameters, lets, match cases, for indices). Over-approximate on
   purpose: a name bound anywhere inside a spawn closure is treated as
   domain-local (C1 under-reports rather than cries wolf). *)
let bound_names e =
  let tbl = Hashtbl.create 16 in
  let pat it p =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
        Hashtbl.replace tbl txt ()
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.expr it e;
  tbl

(* Does [e] contain a sub-application [name arg] with canonical [arg]
   equal to [target]? Used for C3 (Atomic.get/set pairing) and C2
   (unlock search). *)
let contains_call ~m ~f ~target e =
  let found = ref false in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply (h, (Asttypes.Nolabel, a) :: _) -> (
        match (ident_path h, canonical a) with
        | Some p, Some c
          when (match last2 p with
               | Some (m', f') -> String.equal m m' && String.equal f f'
               | None -> false)
               && String.equal c target ->
            found := true
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* First [Atomic.set target v] inside [e], for C3's report location.
   [skip_literal] exempts sets of a literal constant: writing [true] /
   [0] under an [Atomic.get] guard is an idempotent latch — the write
   does not depend on the read, so no update can be lost. *)
let first_atomic_set ?(skip_literal = false) ~target e =
  let found = ref None in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply (h, (Asttypes.Nolabel, a) :: rest) -> (
        match (ident_path h, canonical a) with
        | Some p, Some c
          when (match last2 p with
               | Some ("Atomic", "set") -> true
               | _ -> false)
               && String.equal c target
               && not
                    (skip_literal
                    &&
                    match rest with
                    | (_, v) :: _ -> scalar_literal v
                    | [] -> false) ->
            if Option.is_none !found then found := Some e.pexp_loc
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* Canonical names of every [Atomic.get x] inside [e]. *)
let atomic_gets e =
  let acc = ref [] in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply (h, (Asttypes.Nolabel, a) :: _) -> (
        match (ident_path h, canonical a) with
        | Some p, Some c
          when match last2 p with
               | Some ("Atomic", "get") -> true
               | _ -> false ->
            if not (List.mem c !acc) then acc := c :: !acc
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !acc

(* ----------------------------- rule checks -------------------------- *)

let check_d1_ident ctx e path =
  match unordered_hashtbl path with
  | Some name when not (List.memq e ctx.sanctioned) ->
      report ctx e.pexp_loc "D1"
        "%s iterates in unspecified hash order; sort the result \
         (List.sort sink) or allow-attribute an order-insensitive use"
        name
  | _ -> ()

let check_d2_ident ctx e path =
  (match entropy path with
  | Some name when not (is_prng ctx.path) ->
      report ctx e.pexp_loc "D2"
        "%s bypasses the seeded Gcs_stdx.Prng; runs would not be \
         reproducible from a seed"
        name
  | _ -> ());
  match wall_clock path with
  | Some name when not (is_clock ctx.path) ->
      report ctx e.pexp_loc "D2"
        "%s reads the wall clock; take time from the transport backend \
         (Gcs_transport.Clock is the sanctioned sink)"
        name
  | _ -> ()

let check_p1_ident ctx e path =
  if in_lib ctx.path then
    match partial_fn path with
    | Some (name, on) ->
        report ctx e.pexp_loc "P1"
          "partial function %s raises an anonymous error on %s; use a \
           total match raising a diagnostic invariant error"
          name on
    | None -> ()

let check_d3_apply ctx e f args =
  if in_d3_scope ctx.path then begin
    let operands =
      List.filter_map
        (function Asttypes.Nolabel, a -> Some a | _ -> None)
        args
    in
    let no_scalar = not (List.exists scalar_literal operands) in
    (match ident_path f with
    | Some [ ("=" | "<>") ] when no_scalar && List.exists constructed operands
      ->
        report ctx e.pexp_loc "D3"
          "polymorphic =/<> on a constructed operand; use the type's equal \
           (structural equality on sets/maps/floats is not semantic \
           equality)"
    | Some p when no_scalar -> (
        match poly_primitive ctx p with
        | Some name ->
            report ctx e.pexp_loc "D3"
              "polymorphic %s on non-scalar operands; use the type's \
               dedicated comparison"
              name
        | None -> ())
    | _ -> ());
    (* bare [compare] (or friends) passed higher-order, e.g.
       [List.sort compare ...] on constructed elements *)
    List.iter
      (fun (_, a) ->
        match ident_path a with
        | Some p -> (
            match poly_primitive ctx p with
            | Some name ->
                report ctx a.pexp_loc "D3"
                  "polymorphic %s passed to a higher-order function; \
                   pass the type's dedicated comparison"
                  name
            | None -> ())
        | None -> ())
      args
  end

let check_p2_try ctx cases =
  List.iter
    (fun case ->
      if
        catch_all_pattern case.pc_lhs
        && Option.is_none case.pc_guard
        && not (reraises case.pc_rhs)
      then
        report ctx case.pc_lhs.ppat_loc "P2"
          "catch-all exception handler swallows everything (including \
           invariant violations); match specific constructors or \
           re-raise")
    cases

(* --- C1: cross-domain closure writes ------------------------------- *)

let check_c1_mutation ctx e =
  match ctx.spawn_frames with
  | [] -> ()
  | bound :: _ ->
      (* Writes under a held Lock are routed through the sanctioned
         wrapper — exactly the discipline C1 exists to enforce. *)
      if List.is_empty ctx.held then begin
        let site =
          match e.pexp_desc with
          | Pexp_setfield (target, _, _) -> Some (target, "<- field write")
          | Pexp_apply (f, args) -> (
              match ident_path f with
              | Some p -> mutation_of_apply p args
              | None -> None)
          | _ -> None
        in
        match site with
        | Some (target, what) -> (
            match base_var target with
            | Some v when not (Hashtbl.mem bound v) ->
                report ctx e.pexp_loc "C1"
                  "%s writes '%s', captured from outside this \
                   Domain.spawn/Pool closure: a cross-domain data race \
                   unless routed through Mailbox, Atomic or \
                   Gcs_stdx.Lock"
                  what v
            | _ -> ())
        | None -> ()
      end

(* --- C2: exception-unsafe critical sections ------------------------ *)

let is_unlock_of target e =
  match e.pexp_desc with
  | Pexp_apply (h, (Asttypes.Nolabel, a) :: _) -> (
      match (ident_path h, canonical a) with
      | Some p, Some c -> (
          match last2 p with
          | Some ("Mutex", "unlock") -> String.equal c target
          | _ -> false)
      | _ -> false)
  | _ -> false

let contains_unlock_of target e =
  let found = ref false in
  let expr it e =
    if is_unlock_of target e then found := true;
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* Expressions that cannot raise (so are fine to run between lock and
   unlock): variables, constants, ref cell traffic, constructors,
   operators over such, and conditionals/sequences thereof. Any other
   application is assumed able to raise. *)
let rec c2_harmless e =
  match e.pexp_desc with
  | Pexp_ident _ | Pexp_constant _ | Pexp_function _ | Pexp_fun _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> c2_harmless a
  | Pexp_variant (_, None) -> true
  | Pexp_tuple xs | Pexp_array xs -> List.for_all c2_harmless xs
  | Pexp_record (fields, base) ->
      List.for_all (fun (_, v) -> c2_harmless v) fields
      && (match base with Some b -> c2_harmless b | None -> true)
  | Pexp_field (b, _) -> c2_harmless b
  | Pexp_setfield (b, _, v) -> c2_harmless b && c2_harmless v
  | Pexp_sequence (a, b) | Pexp_ifthenelse (a, b, None) ->
      c2_harmless a && c2_harmless b
  | Pexp_ifthenelse (a, b, Some c) ->
      c2_harmless a && c2_harmless b && c2_harmless c
  | Pexp_let (_, vbs, body) ->
      List.for_all (fun vb -> c2_harmless vb.pvb_expr) vbs
      && c2_harmless body
  | Pexp_constraint (a, _) -> c2_harmless a
  | Pexp_apply (f, args) -> (
      match ident_path f with
      | Some p ->
          (match last2 p with
          | Some ("", ("!" | ":=" | "incr" | "decr" | "not" | "ignore"))
          | Some ("Atomic", _) ->
              true
          | Some ("", op)
            when String.length op > 0
                 &&
                 match op.[0] with
                 | 'a' .. 'z' | 'A' .. 'Z' | '_' -> false
                 | _ -> true ->
              true (* infix operators: +, -, *, /, ^, @, comparisons *)
          | _ -> false)
          && List.for_all (fun (_, a) -> c2_harmless a) args
      | None -> false)
  | _ -> false

let is_exception_case case =
  let rec go p =
    match p.ppat_desc with
    | Ppat_exception _ -> true
    | Ppat_or (a, b) -> go a || go b
    | Ppat_alias (q, _) | Ppat_constraint (q, _) -> go q
    | _ -> false
  in
  go case.pc_lhs

(* Walk the continuation after [Mutex.lock target] looking for a
   matching unlock that is reached on every path, including the
   exceptional ones. *)
let rec c2_scan target e =
  if is_unlock_of target e then None
  else
    match e.pexp_desc with
    | Pexp_sequence (a, b) ->
        if is_unlock_of target a then None
        else if c2_harmless a then c2_scan target b
        else if
          (* try f () with e -> unlock; raise e — the handler restores
             the invariant, so the section is exception-safe *)
          match a.pexp_desc with
          | Pexp_try (_, cases) ->
              List.for_all
                (fun c -> contains_unlock_of target c.pc_rhs)
                cases
          | _ -> false
        then c2_scan target b
        else Some a.pexp_loc
    | Pexp_let (_, vbs, body)
      when List.for_all (fun vb -> c2_harmless vb.pvb_expr) vbs ->
        c2_scan target body
    | Pexp_match (_, cases)
      when List.exists is_exception_case cases
           && List.for_all
                (fun c -> contains_unlock_of target c.pc_rhs)
                cases ->
        (* match f () with v -> unlock; ... | exception e -> unlock; ... *)
        None
    | _ -> Some e.pexp_loc

let check_c2_sequence ctx e =
  match e.pexp_desc with
  | Pexp_sequence (a, rest) -> (
      match a.pexp_desc with
      | Pexp_apply (h, (Asttypes.Nolabel, arg) :: _)
        when match ident_path h with
             | Some p -> (
                 match last2 p with
                 | Some ("Mutex", "lock") -> true
                 | _ -> false)
             | None -> false ->
          ctx.handled_locks <- a :: ctx.handled_locks;
          if not (is_lock_home ctx.path) then begin
            match canonical arg with
            | Some target -> (
                match c2_scan target rest with
                | None -> ()
                | Some _ ->
                    report ctx a.pexp_loc "C2"
                      "Mutex.lock %s is followed by code that can raise \
                       before Mutex.unlock: an exception leaves the \
                       mutex locked forever; use Gcs_stdx.Lock.with_lock"
                      target)
            | None ->
                report ctx a.pexp_loc "C2"
                  "Mutex.lock on a computed mutex cannot be matched to \
                   its unlock; use Gcs_stdx.Lock.with_lock"
          end
      | _ -> ())
  | _ -> ()

let check_c2_bare_lock ctx e =
  match e.pexp_desc with
  | Pexp_apply (h, _)
    when (match ident_path h with
         | Some p -> (
             match last2 p with Some ("Mutex", "lock") -> true | _ -> false)
         | None -> false)
         && (not (List.memq e ctx.handled_locks))
         && not (is_lock_home ctx.path) ->
      report ctx e.pexp_loc "C2"
        "Mutex.lock outside a lock; ...; unlock sequence: the unlock \
         cannot be verified on every exit path; use \
         Gcs_stdx.Lock.with_lock"
  | _ -> ()

(* --- C3: atomic read-modify-write ---------------------------------- *)

let report_c3 ctx loc target =
  report ctx loc "C3"
    "Atomic.get %s and Atomic.set %s form a read-modify-write: a \
     concurrent writer between them is silently lost; use \
     Atomic.compare_and_set or Atomic.fetch_and_add"
    target target

let check_c3 ctx e =
  match e.pexp_desc with
  | Pexp_apply (h, (Asttypes.Nolabel, a) :: (_, v) :: _)
    when match ident_path h with
         | Some p -> (
             match last2 p with Some ("Atomic", "set") -> true | _ -> false)
         | None -> false -> (
      (* Atomic.set x (f (Atomic.get x)) *)
      match canonical a with
      | Some target when contains_call ~m:"Atomic" ~f:"get" ~target v ->
          report_c3 ctx e.pexp_loc target
      | _ -> ())
  | Pexp_let (_, vbs, body) ->
      (* let seen = Atomic.get x in ... Atomic.set x ... *)
      List.iter
        (fun vb ->
          match vb.pvb_expr.pexp_desc with
          | Pexp_apply (h, (Asttypes.Nolabel, a) :: _)
            when match ident_path h with
                 | Some p -> (
                     match last2 p with
                     | Some ("Atomic", "get") -> true
                     | _ -> false)
                 | None -> false -> (
              match canonical a with
              | Some target -> (
                  match first_atomic_set ~target body with
                  | Some loc -> report_c3 ctx loc target
                  | None -> ())
              | None -> ())
          | _ -> ())
        vbs
  | Pexp_ifthenelse (cond, bthen, belse) ->
      (* if Atomic.get x ... then Atomic.set x ... (check-then-act) *)
      List.iter
        (fun target ->
          let branch_set b =
            match b with
            | Some b -> first_atomic_set ~skip_literal:true ~target b
            | None -> None
          in
          match branch_set (Some bthen) with
          | Some loc -> report_c3 ctx loc target
          | None -> (
              match branch_set belse with
              | Some loc -> report_c3 ctx loc target
              | None -> ()))
        (atomic_gets cond)
  | _ -> ()

(* --- C4: blocking under a lock ------------------------------------- *)

let check_c4_blocking ctx e =
  match (e.pexp_desc, ctx.held) with
  | _, [] -> ()
  | Pexp_apply (h, args), innermost :: others -> (
      match head_path (head h) with
      | None -> ()
      | Some p -> (
          match last2 p with
          | Some ("Lock", "wait") -> (
              (* Lock.wait cond l releases exactly l while waiting: fine
                 when l is the only lock held. *)
              let lock_arg =
                match
                  List.filter_map
                    (function Asttypes.Nolabel, a -> Some a | _ -> None)
                    args
                with
                | [ _; l ] -> canonical l
                | _ -> None
              in
              match (lock_arg, others) with
              | Some l, [] when String.equal l innermost -> ()
              | _ ->
                  report ctx e.pexp_loc "C4"
                    "Lock.wait while holding another lock: the wait \
                     releases only its own lock, so the outer one is \
                     held across an unbounded block")
          | _ -> (
              match blocking_call p with
              | Some name ->
                  report ctx e.pexp_loc "C4"
                    "%s while holding lock '%s': a blocking call under a \
                     held lock stalls every domain contending for it \
                     (and can deadlock)"
                    name innermost
              | None -> ())))
  | _ -> ()

(* [Lock.with_lock l f] / [Mutex.protect l f]: the canonical lock name
   to hold while visiting the children. *)
let with_lock_target e =
  match e.pexp_desc with
  | Pexp_apply (h, (Asttypes.Nolabel, l) :: _) -> (
      match ident_path h with
      | Some p -> (
          match last2 p with
          | Some ("Lock", "with_lock") | Some ("Mutex", "protect") ->
              canonical l
          | _ -> None)
      | None -> None)
  | _ -> None

let check_expr ctx e =
  (* Sink bookkeeping first: children are visited after this. *)
  (match e.pexp_desc with
  | Pexp_apply (f, args) -> (
      if is_sort_sink f then List.iter (fun (_, a) -> sanction ctx a) args;
      match (ident_path f, args) with
      | Some [ "|>" ], [ (_, lhs); (_, rhs) ] ->
          if is_sort_sink rhs then sanction ctx lhs
      | Some [ "@@" ], [ (_, lhs); (_, rhs) ] ->
          if is_sort_sink lhs then sanction ctx rhs
      | _ -> ())
  | _ -> ());
  check_c2_sequence ctx e;
  check_c3 ctx e;
  check_c1_mutation ctx e;
  check_c4_blocking ctx e;
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
      let path = flatten txt in
      check_d1_ident ctx e path;
      check_d2_ident ctx e path;
      check_p1_ident ctx e path
  | Pexp_apply (f, args) ->
      check_c2_bare_lock ctx e;
      check_d3_apply ctx e f args
  | Pexp_try (_, cases) -> check_p2_try ctx cases
  | _ -> ()

(* ------------------- spawn-closure discovery (C1) ------------------- *)

(* Two passes over the parsetree before the main walk: collect every
   [let]-bound name's expression, then resolve the closure argument of
   each Domain.spawn / Pool.map / Pool.iter site to the function
   expression(s) it runs — a literal lambda, a named local function
   ([Domain.spawn worker]), or one call deep through a trampoline
   ([Domain.spawn (fun () -> node p)] analyzes [node]). Deeper call
   chains are out of the heuristic's reach, by design. *)
let spawn_closures structure =
  let bindings : (string, expression) Hashtbl.t = Hashtbl.create 32 in
  let collect_vb vb =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> Hashtbl.replace bindings txt vb.pvb_expr
    | _ -> ()
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_let (_, vbs, _) -> List.iter collect_vb vbs
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let structure_item it si =
    (match si.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter collect_vb vbs
    | _ -> ());
    Ast_iterator.default_iterator.structure_item it si
  in
  let it = { Ast_iterator.default_iterator with expr; structure_item } in
  it.structure it structure;
  let marked = ref [] in
  let mark e = if not (List.memq e !marked) then marked := e :: !marked in
  let is_function e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> true
    | _ -> false
  in
  let mark_named name =
    match Hashtbl.find_opt bindings name with
    | Some e when is_function e -> mark e
    | _ -> ()
  in
  let rec body_of e =
    match e.pexp_desc with Pexp_fun (_, _, _, b) -> body_of b | _ -> e
  in
  let mark_target a =
    match a.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> (
        mark a;
        match head_path (head (body_of a)) with
        | Some [ name ] -> mark_named name
        | _ -> ())
    | Pexp_ident { txt = Longident.Lident name; _ } -> mark_named name
    | _ -> ()
  in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> (
        match ident_path f with
        | Some p when spawn_like p -> (
            match
              List.find_map
                (function Asttypes.Nolabel, a -> Some a | _ -> None)
                args
            with
            | Some a -> mark_target a
            | None -> ())
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it structure;
  !marked

(* ------------------------------ the walk ---------------------------- *)

let iterator ctx =
  let expr it e =
    let allows = allow_scopes_of_attrs e.pexp_attributes in
    let allows =
      allows
      @
      match e.pexp_desc with
      | Pexp_let (_, vbs, _) ->
          List.concat_map
            (fun vb -> allow_scopes_of_attrs vb.pvb_attributes)
            vbs
      | _ -> []
    in
    List.iter (push ctx) allows;
    check_expr ctx e;
    let frame = List.memq e ctx.spawn_lambdas in
    if frame then ctx.spawn_frames <- bound_names e :: ctx.spawn_frames;
    let held_lock = with_lock_target e in
    (match held_lock with
    | Some l ->
        let suppressed = allowed ctx "C4" in
        List.iter
          (fun h ->
            ctx.lock_edges <- (h, l, e.pexp_loc, suppressed) :: ctx.lock_edges)
          ctx.held;
        ctx.held <- l :: ctx.held
    | None -> ());
    Ast_iterator.default_iterator.expr it e;
    (match (held_lock, ctx.held) with
    | Some _, _ :: rest -> ctx.held <- rest
    | _ -> ());
    if frame then
      ctx.spawn_frames <-
        (match ctx.spawn_frames with _ :: rest -> rest | [] -> []);
    List.iter (fun _ -> pop ctx) allows
  in
  let structure_item it si =
    match si.pstr_desc with
    | Pstr_attribute a ->
        (* floating [@@@gcs.lint.allow]: rest of the file *)
        List.iter (push ctx) (allow_scopes_of_attrs [ a ])
    | _ ->
        let allows =
          match si.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.concat_map
                (fun vb -> allow_scopes_of_attrs vb.pvb_attributes)
                vbs
          | Pstr_eval (_, attrs) -> allow_scopes_of_attrs attrs
          | _ -> []
        in
        List.iter (push ctx) allows;
        Ast_iterator.default_iterator.structure_item it si;
        List.iter (fun _ -> pop ctx) allows
  in
  { Ast_iterator.default_iterator with expr; structure_item }

let defines_local_compare structure =
  let found = ref false in
  let pat it p =
    (match p.ppat_desc with
    | Ppat_var { txt = "compare"; _ } -> found := true
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.structure it structure;
  !found

let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception Syntaxerr.Error err ->
      Error (Syntaxerr.location_of_error err, "syntax error")
  | exception Lexer.Error (_, loc) -> Error (loc, "lexer error")

(* C4's second half: cycles in the per-file static lock-order graph. *)
let report_lock_cycles ctx =
  let edges = List.rev ctx.lock_edges in
  let sccs =
    Gcs_stdx.Graphx.cyclic_sccs ~compare:String.compare
      ~edges:(List.map (fun (a, b, _, _) -> (a, b)) edges)
  in
  List.iter
    (fun scc ->
      let in_scc n = List.exists (String.equal n) scc in
      let participating =
        List.filter (fun (a, b, _, _) -> in_scc a && in_scc b) edges
      in
      (* An allow on any participating acquisition sanctions the whole
         cycle: the annotated site is the one declaring its order
         intentional, so the finding anchors there. *)
      let chosen =
        match List.find_opt (fun (_, _, _, s) -> s) participating with
        | Some _ as e -> e
        | None -> ( match participating with e :: _ -> Some e | [] -> None)
      in
      match chosen with
      | None -> ()
      | Some (_, _, loc, suppressed) ->
          let cycle =
            match scc with
            | first :: _ -> String.concat " -> " (scc @ [ first ])
            | [] -> ""
          in
          report ~suppressed ctx loc "C4"
            "static lock-order cycle %s: two call paths acquire these \
             locks in conflicting orders — a deadlock under the right \
             interleaving"
            cycle)
    sccs

(* A1: suppressions that suppressed nothing. Reported live always — the
   fix is deleting the attribute, not suppressing the audit. *)
let report_unused_allows ctx =
  List.iter
    (fun s ->
      let unused =
        List.filter (fun r -> not (List.mem r s.s_hits)) s.s_rules
      in
      match unused with
      | [] -> ()
      | _ :: _ ->
          report ~suppressed:false ctx s.s_loc "A1"
            "[@gcs.lint.allow \"%s\"] suppresses nothing in its scope; \
             delete the stale attribute (or narrow its rule list)"
            (String.concat ", " unused))
    ctx.all_scopes

let analyze ~path source =
  match parse ~path source with
  | Error (loc, what) ->
      let p = loc.Location.loc_start in
      ( [
          Finding.v ~file:path ~line:p.Lexing.pos_lnum
            ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
            ~rule:"E0" ~suppressed:false
            (Printf.sprintf "%s: file does not parse" what);
        ],
        [] )
  | Ok structure ->
      let ctx =
        {
          path;
          scopes = [];
          all_scopes = [];
          sanctioned = [];
          handled_locks = [];
          spawn_frames = [];
          held = [];
          lock_edges = [];
          spawn_lambdas = spawn_closures structure;
          acc = [];
          local_compare = defines_local_compare structure;
        }
      in
      let it = iterator ctx in
      it.structure it structure;
      report_lock_cycles ctx;
      report_unused_allows ctx;
      let edges =
        List.rev ctx.lock_edges
        |> List.map (fun (a, b, _, _) -> (a, b))
        |> List.sort_uniq (fun (a, b) (c, d) ->
               match String.compare a c with
               | 0 -> String.compare b d
               | k -> k)
      in
      (List.sort_uniq Finding.compare ctx.acc, edges)

let lint_source ~path source = fst (analyze ~path source)
