(* locus-bench: five seeded workloads driven through the LOCUS system-call
   layer, reporting simulated latency, messages and host throughput, with
   a traced per-layer split. See README.md in this directory.

   With --workload the named workload runs in this process and its result
   ends in one JSON line. Without it, every workload runs in a fresh child
   process of this executable, one after the other, and one JSON line
   sums them up. *)

open Lbench

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("locus_bench: " ^ s); exit 2) fmt

type opts = {
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
}

let smoke_scale = 0.01

let run_one (o : opts) name ~trace_out =
  let spec = match Workload.find name with Some w -> w | None -> die "unknown workload %s" name in
  let traced = o.traced || trace_out <> None in
  let r =
    Runner.run spec ~seed:o.seed ~seconds:o.seconds ~traced
      ~setups:(if o.smoke then 1 else 3)
      ?scale:(if o.smoke then Some smoke_scale else None)
  in
  Report.print_result ~workload:name ~seed:o.seed ~traced r;
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc (Json.to_string (Report.chrome_trace ~workload:name ~seed:o.seed r.r_spans));
      output_char oc '\n';
      close_out oc;
      Printf.printf "  wrote %d spans of the first %d ops to %s\n" (List.length r.r_spans)
        Runner.trace_ops file)
    trace_out;
  print_endline
    (Json.to_string (Report.result_json ~workload:name ~seed:o.seed ~seconds:o.seconds ~traced r));
  exit (if Runner.correct r then 0 else 1)

(* Run one workload in a child process; echo its table, return its JSON
   line (None if it printed none). *)
let child (o : opts) name =
  let args =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed; "--seconds";
      Printf.sprintf "%.17g" o.seconds ]
    @ (if o.traced then [ "--traced" ] else [])
    @ if o.smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc in
  let out = lines [] in
  let status = Unix.close_process_in ic in
  let last, table = match out with l :: rest -> (Some l, List.rev rest) | [] -> (None, []) in
  List.iter print_endline table;
  flush stdout;
  let parsed =
    match last with
    | Some l -> ( try Some (Json.parse l) with Json.Parse_error _ -> print_endline l; None)
    | None -> None
  in
  match (parsed, status) with
  | Some j, Unix.WEXITED (0 | 1) -> Some j
  | _ ->
    Printf.printf "%s: child run failed\n" name;
    None

let all_workloads (o : opts) ~runs ~compare ~baseline_out =
  let results = Hashtbl.create 8 in
  for _ = 1 to runs do
    List.iter
      (fun name ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt results name) in
        Hashtbl.replace results name (prev @ [ child o name ]))
      Workload.names
  done;
  let runs_of name = Hashtbl.find results name in
  let ok name =
    List.for_all
      (function Some j -> Json.member "correct" j = Some (Json.Bool true) | None -> false)
      (runs_of name)
  in
  let summaries =
    List.map (fun name -> (name, Report.summarise (List.filter_map Fun.id (runs_of name))))
      Workload.names
  in
  let repeatable = ref true in
  if runs > 1 then
    List.iter
      (fun (name, (s : Report.summary)) ->
        Printf.printf "%s over %d runs: simulated metrics %s\n" name runs
          (if s.sim_mismatch = [] then "identical"
           else begin
             repeatable := false;
             "DIFFER: " ^ String.concat ", " s.sim_mismatch
           end);
        List.iter
          (fun (k, (q1, med, q3)) ->
            Printf.printf "    %-20s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.2f%%\n" k med q1 q3
              (if med = 0.0 then 0.0 else 100.0 *. (q3 -. q1) /. med))
          s.host)
      summaries;
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc
        (Json.to_string_pretty
           (Report.baseline_json ~seed:o.seed ~seconds:o.seconds ~runs summaries));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote baseline %s\n" file)
    baseline_out;
  let flagged =
    match compare with
    | None -> []
    | Some (_, baseline) ->
      let f = Report.compare_to ~baseline summaries in
      List.iter (Printf.printf "FLAGGED %s\n") f;
      if f = [] then print_endline "compare: every metric within its bound";
      f
  in
  let correct = List.for_all ok Workload.names in
  let last name = match List.rev (runs_of name) with Some j :: _ -> j | _ -> Json.Null in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("seed", Json.Num (float_of_int o.seed)); ("seconds", Json.Num o.seconds);
            ("traced", Json.Bool o.traced); ("runs", Json.Num (float_of_int runs));
            ("correct", Json.Bool correct);
            ("workloads", Json.Obj (List.map (fun n -> (n, last n)) Workload.names)) ]));
  exit (if correct && !repeatable && flagged = [] then 0 else 1)

let () =
  let seed = ref 1 and seconds = ref 8.0 and workload = ref None and traced = ref false in
  let smoke = ref false and runs = ref 1 and compare = ref None and baseline_out = ref None in
  let trace_out = ref None in
  let specs =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME run one workload in this process: " ^ String.concat ", " Workload.names );
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S length of each timed phase, in seconds of ops at the workload's nominal rate \
         (default 8)" );
      ("--traced", Arg.Set traced, " add the traced replay and its per-layer split");
      ("--smoke", Arg.Set smoke, " 1/100 of the ops and one set-up (self-test scale)");
      ( "--runs",
        Arg.Set_int runs,
        "N run every workload N times: simulated metrics must repeat exactly, host metrics \
         print median and quartiles" );
      ( "--compare",
        Arg.String (fun f -> compare := Some f),
        "FILE compare with a baseline, at the baseline's seed and seconds" );
      ("--baseline-out", Arg.String (fun f -> baseline_out := Some f), "FILE write a baseline");
      ( "--trace-out",
        Arg.String (fun f -> trace_out := Some f),
        "FILE with --workload: write the traced run's spans of the first 100 timed ops as \
         Chrome trace-event JSON" );
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "locus_bench [options]";
  let compare =
    Option.map
      (fun file ->
        let text = In_channel.with_open_text file In_channel.input_all in
        let b = try Json.parse text with Json.Parse_error e -> die "%s: %s" file e in
        let tag = Json.member "tag" b in
        (match Option.bind tag (fun t -> Json.to_num (Json.member "seed" t)) with
        | Some s -> seed := int_of_float s
        | None -> die "%s: no tag.seed" file);
        (match Option.bind tag (fun t -> Json.to_num (Json.member "seconds" t)) with
        | Some s -> seconds := s
        | None -> die "%s: no tag.seconds" file);
        (file, b))
      !compare
  in
  if !seconds <= 0.0 then die "--seconds must be positive";
  if !runs < 1 then die "--runs must be at least 1";
  let o = { seed = !seed; seconds = !seconds; traced = !traced; smoke = !smoke } in
  match !workload with
  | Some name -> run_one o name ~trace_out:!trace_out
  | None ->
    if !trace_out <> None then die "--trace-out needs --workload";
    all_workloads o ~runs:!runs ~compare ~baseline_out:!baseline_out
