(* gcsbench: client latency and throughput of the group communication
   stack on six seeded workloads, with a traced per-layer split.

     dune exec bench/e2e/gcsbench.exe -- --workload W --seed S \
       [--seconds N] [--trace 0|1] [--scale F] [--spans FILE]

   runs one workload in this process for N seconds (default 15, the
   run_seconds of BENCHMARK.json, which is passed here as --seconds) and
   prints, last, one JSON line:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
   with the end-to-end metrics (--trace 0) or the per-layer ones
   (--trace 1). --scale F below 1 makes a smoke run: bursts shrink by F
   and the tail-percentile guard is off; time is set by --seconds alone.

     dune exec bench/e2e/gcsbench.exe -- --seed S [--only W,...] \
       [--json FILE] [same options]

   runs each workload in a child process of its own (so set-up time and
   peak RSS are per workload) and collects their results. *)

module W = Gcs_e2e.Workloads
module Catalog = Gcs_e2e.Catalog
module J = Gcs_stdx.Jsonx

type args = {
  workload : string option;
  only : string list option;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;
  json : string option;
  spans : string option;
}

let defaults =
  {
    workload = None;
    only = None;
    seed = 1;
    seconds = 15.0;
    trace = false;
    scale = 1.0;
    json = None;
    spans = None;
  }

let parse argv =
  let number conv flag v k =
    match conv v with
    | Some x -> k x
    | None -> Error (Printf.sprintf "%s: not a number: %s" flag v)
  in
  let rec go a = function
    | [] -> Ok a
    | "--workload" :: w :: rest -> go { a with workload = Some w } rest
    | "--only" :: ws :: rest ->
        go { a with only = Some (String.split_on_char ',' ws) } rest
    | "--seed" :: v :: rest ->
        number int_of_string_opt "--seed" v (fun seed -> go { a with seed } rest)
    | "--seconds" :: v :: rest ->
        number float_of_string_opt "--seconds" v (fun seconds ->
            if seconds > 0.0 then go { a with seconds } rest
            else Error "--seconds must be positive")
    | "--scale" :: v :: rest ->
        number float_of_string_opt "--scale" v (fun scale ->
            if scale > 0.0 && scale <= 1.0 then go { a with scale } rest
            else Error "--scale must be in (0, 1]")
    | "--trace" :: "0" :: rest -> go { a with trace = false } rest
    | "--trace" :: "1" :: rest -> go { a with trace = true } rest
    | "--json" :: f :: rest -> go { a with json = Some f } rest
    | "--spans" :: f :: rest -> go { a with spans = Some f } rest
    | x :: _ -> Error (Printf.sprintf "unexpected argument %s" x)
  in
  go defaults argv

let names = List.map (fun (w : W.workload) -> w.name) W.all

(* ---------------------------------------------------------------- *)
(* One workload, in this process *)

let print_metric workload (o : W.outcome) name =
  let value = match List.assoc_opt name o.metrics with Some v -> v | None -> 0.0 in
  let samples =
    match List.assoc_opt name o.counts with
    | Some (_, n) -> Printf.sprintf "  (n=%d)" n
    | None -> ""
  in
  Printf.printf "%-16s %-28s %16.4f %s%s\n" workload name value (Catalog.unit_of name)
    samples

let result_json (o : W.outcome) ~trace =
  let listed = if trace then Catalog.per_layer else Catalog.end_to_end in
  let finite x = if Float.is_finite x then x else 0.0 in
  J.Obj
    [
      ("correct", J.Bool (o.errors = []));
      ("attempted", J.Num (float_of_int o.attempted));
      ("failed", J.Num (float_of_int o.failed));
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, unit_name) ->
               let v =
                 match List.assoc_opt name o.metrics with Some v -> finite v | None -> 0.0
               in
               (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit_name) ]))
             listed) );
    ]

let write_lines file lines =
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun l ->
          Out_channel.output_string oc (J.encode l);
          Out_channel.output_char oc '\n')
        lines)

let run_one args name =
  match W.find name with
  | None ->
      Printf.eprintf "gcsbench: unknown workload %s (one of %s)\n" name
        (String.concat ", " names);
      exit 2
  | Some w ->
      let opts =
        {
          W.seed = args.seed;
          seconds = args.seconds;
          scale = args.scale;
          trace = args.trace;
          keep_spans = Option.is_some args.spans;
        }
      in
      let o = w.run opts in
      Printf.printf "# %s: seed %d, %d round%s, %d attempted, %d failed%s\n" name
        args.seed o.rounds
        (if o.rounds = 1 then "" else "s")
        o.attempted o.failed
        (if args.trace then " (traced)" else "");
      (* The untraced run's own metrics first; a traced run shows them too,
         so the tracing overhead is visible next to the untraced figures. *)
      List.iter (fun (n, _) -> print_metric name o n) Catalog.end_to_end;
      List.iter
        (fun (n, _) ->
          if args.trace || List.mem_assoc n o.metrics then print_metric name o n)
        Catalog.per_layer;
      Option.iter (fun file -> write_lines file o.spans) args.spans;
      List.iter (fun e -> Printf.eprintf "gcsbench: %s: %s\n" name e) o.errors;
      print_endline (J.encode (result_json o ~trace:args.trace));
      if o.errors <> [] then exit 1

(* ---------------------------------------------------------------- *)
(* Several workloads, one child process each *)

let child_args args name =
  [
    "--workload"; name;
    "--seed"; string_of_int args.seed;
    "--seconds"; Printf.sprintf "%.17g" args.seconds;
    "--scale"; Printf.sprintf "%.17g" args.scale;
    "--trace"; (if args.trace then "1" else "0");
  ]
  @ match args.spans with None -> [] | Some f -> [ "--spans"; f ^ "." ^ name ]

let run_child args name =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: child_args args name))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  print_string out;
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else Some l)
      None (String.split_on_char '\n' out)
  in
  let result = Option.bind last (fun l -> Result.to_option (J.of_string l)) in
  (status = Unix.WEXITED 0, result)

let run_all args =
  let chosen = match args.only with Some ws -> ws | None -> names in
  (match List.filter (fun n -> not (List.mem n names)) chosen with
  | [] -> ()
  | bad ->
      Printf.eprintf "gcsbench: unknown workload %s (one of %s)\n"
        (String.concat ", " bad) (String.concat ", " names);
      exit 2);
  flush stdout;
  let results = List.map (fun n -> (n, run_child args n)) chosen in
  let ok = List.for_all (fun (_, (ok, r)) -> ok && Option.is_some r) results in
  let count key =
    List.fold_left
      (fun acc (_, (_, r)) ->
        match Option.bind r (J.member key) with
        | Some (J.Num x) -> acc +. x
        | _ -> acc)
      0.0 results
  in
  let combined =
    J.Obj
      [
        ("correct", J.Bool ok);
        ("attempted", J.Num (count "attempted"));
        ("failed", J.Num (count "failed"));
        ("seed", J.Num (float_of_int args.seed));
        ("trace", J.Bool args.trace);
        ( "workloads",
          J.Obj
            (List.map
               (fun (n, (_, r)) -> (n, Option.value r ~default:J.Null))
               results) );
      ]
  in
  Option.iter (fun file -> write_lines file [ combined ]) args.json;
  print_endline (J.encode combined);
  if not ok then exit 1

(* glibc gives each thread that calls malloc an arena of its own, and the
   node domains allocate their large blocks (frames, summaries) there. How
   much of the freed memory an arena keeps then depends on which domain
   happened to free what, and the peak RSS of one partition run moved by a
   quarter between seeds. With a single arena it stays within a few per
   cent, and throughput did not change. So the program re-executes itself
   with one arena unless the caller chose a number. *)
let () =
  if Option.is_none (Sys.getenv_opt "MALLOC_ARENA_MAX") then
    Unix.execve Sys.executable_name Sys.argv
      (Array.append [| "MALLOC_ARENA_MAX=1" |] (Unix.environment ()))

let () =
  match parse (List.tl (Array.to_list Sys.argv)) with
  | Error e ->
      Printf.eprintf "gcsbench: %s\n" e;
      exit 2
  | Ok ({ workload = Some name; _ } as args) -> run_one args name
  | Ok args -> run_all args
