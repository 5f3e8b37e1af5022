(* Metric definitions, the printed tables, the JSON result line, the
   baseline comparison and the Chrome trace export. *)

type kind = Sim | Host

type def = {
  name : string;
  unit : string;
  lower_better : bool;
  bound : float;  (* share of the baseline by which it may worsen *)
  kind : kind;
}

let def ?(lower_better = true) ?(bound = 0.01) ?(kind = Sim) name unit =
  { name; unit; lower_better; bound; kind }

(* End-to-end metrics, with the bounds --compare applies at the baseline's
   own seed. Simulated metrics repeat exactly for a seed, so their 1%
   bound only lets a change trade a sliver; fail_ratio may not rise at
   all. Host times are scaled to the calibration loop's reference speed
   (see Runner), which takes most of a shared host's noise out of them. *)
let end_to_end =
  [
    def "read_p50_ms" "ms";
    def "read_p99_ms" "ms";
    def "write_p50_ms" "ms";
    def "write_p99_ms" "ms";
    def "dirop_p50_ms" "ms";
    def "dirop_p99_ms" "ms";
    def "op_mean_ms" "ms";
    def "recover_p50_ms" "ms";
    def "msgs_per_op" "msgs/op";
    def "wire_kb_per_op" "KiB/op";
    def "write_amp" "ratio";
    def "fail_ratio" "ratio" ~bound:0.0;
    def "host_ops_per_s" "ops/s" ~lower_better:false ~bound:0.10 ~kind:Host;
    def "setup_s" "s" ~bound:0.10 ~kind:Host;
    def "heap_peak_mb" "MB" ~bound:0.05 ~kind:Host;
  ]

let find_def name = List.find_opt (fun d -> String.equal d.name name) end_to_end

let is_end_to_end name = Option.is_some (find_def name)

(* ---- one workload's result ---- *)

let metric_json (m : Runner.metric) =
  (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ])

let result_json ~workload ~seed ~seconds ~traced (r : Runner.result) =
  let e2e, counters =
    List.partition (fun (m : Runner.metric) -> is_end_to_end m.name) (r.r_sim @ r.r_host)
  in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num seconds);
      ("traced", Json.Bool traced);
      ("correct", Json.Bool (Runner.correct r));
      ("attempted", Json.Num (float_of_int r.r_attempted));
      ("failed", Json.Num (float_of_int r.r_failed));
      ("oracle_mismatches", Json.Num (float_of_int r.r_mismatches));
      ("diverged", Json.Arr (List.map (fun n -> Json.Str n) r.r_diverged));
      ("metrics", Json.Obj (List.map metric_json e2e));
      (* simulated per-layer counters, then the traced run's own metrics *)
      ("layers", Json.Obj (List.map metric_json counters));
      ("trace", Json.Obj (List.map metric_json r.r_layers));
    ]

let print_metrics title (ms : Runner.metric list) =
  Printf.printf "  %s\n" title;
  List.iter
    (fun (m : Runner.metric) -> Printf.printf "    %-34s %14.6g %s\n" m.name m.value m.unit)
    ms

let print_result ~workload ~seed ~traced (r : Runner.result) =
  Printf.printf "%s  seed %d%s: %d ops, %d failed, oracle_mismatches = %d\n" workload seed
    (if traced then " (traced)" else "")
    r.r_attempted r.r_failed r.r_mismatches;
  let e2e, counters =
    List.partition (fun (m : Runner.metric) -> is_end_to_end m.name) (r.r_sim @ r.r_host)
  in
  print_metrics "end to end" e2e;
  if traced then begin
    print_metrics "per layer" (counters @ r.r_layers);
    match r.r_diverged with
    | [] -> Printf.printf "  traced run reproduced every simulated metric\n"
    | l -> Printf.printf "  TRACED RUN DIVERGED on: %s\n" (String.concat ", " l)
  end
  else print_metrics "host speed" r.r_layers

(* ---- the Chrome trace export ---- *)

let chrome_trace ~workload ~seed (spans : Runner.span list) =
  let meta name tid =
    Json.Obj
      [ ("name", Json.Str "thread_name"); ("ph", Json.Str "M"); ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int tid)); ("args", Json.Obj [ ("name", Json.Str name) ]) ]
  in
  let event (s : Runner.span) =
    Json.Obj
      [ ("name", Json.Str s.sp_name);
        ("cat", Json.Str (if s.sp_track = 1 then "op" else "background"));
        ("ph", Json.Str "X");
        (* trace-event times are microseconds; these are simulated ones *)
        ("ts", Json.Num (s.sp_start *. 1e3));
        ("dur", Json.Num ((s.sp_end -. s.sp_start) *. 1e3));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int s.sp_track));
        ("args", Json.Obj [ ("op", Json.Num (float_of_int s.sp_op)) ]) ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (Json.Obj
             [ ("name", Json.Str "process_name"); ("ph", Json.Str "M"); ("pid", Json.Num 1.0);
               ( "args",
                 Json.Obj
                   [ ( "name",
                       Json.Str
                         (Printf.sprintf "locus-bench %s seed %d (simulated time)" workload
                            seed) ) ] ) ]
          :: meta "ops" 1 :: meta "settle + recovery" 2
          :: List.map event
               (* parents before the children they contain *)
               (List.stable_sort
                  (fun (a : Runner.span) (b : Runner.span) ->
                    compare (a.sp_start, b.sp_end) (b.sp_start, a.sp_end))
                  spans)) );
      ("displayTimeUnit", Json.Str "ms");
    ]

(* ---- several runs, the baseline and --compare ---- *)

let quartiles l = (Runner.percentile l 25.0, Runner.median l, Runner.percentile l 75.0)

(* A workload's runs: simulated metrics must repeat exactly; host
   metrics are summarised by median and quartiles. *)
type summary = {
  sim : (string * float) list;
  sim_mismatch : string list;
  host : (string * (float * float * float)) list;  (* q1, median, q3 *)
}

let summarise (runs : Json.t list) =
  let values key r =
    List.filter_map
      (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_num (Json.member "value" v)))
      (Json.fields (Option.value ~default:Json.Null (Json.member key r)))
  in
  let sim_of r =
    List.filter
      (fun (k, _) -> match find_def k with Some d -> d.kind = Sim | None -> true)
      (values "metrics" r @ values "layers" r)
  in
  let host_of r =
    List.filter
      (fun (k, _) -> match find_def k with Some d -> d.kind = Host | None -> false)
      (values "metrics" r)
  in
  match runs with
  | [] -> { sim = []; sim_mismatch = []; host = [] }
  | first :: _ ->
    let sim = sim_of first in
    let sim_mismatch =
      List.filter_map
        (fun (k, v) ->
          if List.for_all (fun r -> List.assoc_opt k (sim_of r) = Some v) runs then None
          else Some k)
        sim
    in
    let host =
      List.map
        (fun (k, _) ->
          (k, quartiles (List.filter_map (fun r -> List.assoc_opt k (host_of r)) runs)))
        (host_of first)
    in
    { sim; sim_mismatch; host }

let nproc () = Domain.recommended_domain_count ()

let git_commit () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | ic ->
    let c = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if c = "" then "unknown" else c
  | exception Unix.Unix_error _ -> "unknown"

let baseline_json ~seed ~seconds ~runs (ws : (string * summary) list) =
  Json.Obj
    [
      ( "tag",
        Json.Obj
          [ ("nproc", Json.Num (float_of_int (nproc ())));
            ("ocaml", Json.Str Sys.ocaml_version);
            ("commit", Json.Str (git_commit ()));
            ("seed", Json.Num (float_of_int seed));
            ("seconds", Json.Num seconds);
            ("runs", Json.Num (float_of_int runs)) ] );
      ( "workloads",
        Json.Obj
          (List.map
             (fun (w, s) ->
               ( w,
                 Json.Obj
                   [ ("sim", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) s.sim));
                     ( "host",
                       Json.Obj
                         (List.map
                            (fun (k, (q1, med, q3)) ->
                              ( k,
                                Json.Obj
                                  [ ("median", Json.Num med); ("q1", Json.Num q1);
                                    ("q3", Json.Num q3) ] ))
                            s.host) ) ] ))
             ws) );
    ]

(* Print every metric's ratio to the baseline and return the flagged ones:
   a simulated metric that moved by more than its bound in either
   direction (1% for counters), fail_ratio rising at all, a host metric
   worse than its bound, or a metric that appeared or vanished. *)
let compare_to ~baseline (ws : (string * summary) list) =
  let flagged = ref [] in
  let flag w k why = flagged := Printf.sprintf "%s %s: %s" w k why :: !flagged in
  let base_ws = Json.fields (Option.value ~default:Json.Null (Json.member "workloads" baseline)) in
  List.iter
    (fun (w, (s : summary)) ->
      match List.assoc_opt w base_ws with
      | None -> flag w "*" "workload missing from the baseline"
      | Some b ->
        Printf.printf "%s vs baseline\n" w;
        let bsim =
          List.filter_map
            (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_num (Some v)))
            (Json.fields (Option.value ~default:Json.Null (Json.member "sim" b)))
        in
        let bhost =
          List.filter_map
            (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_num (Json.member "median" v)))
            (Json.fields (Option.value ~default:Json.Null (Json.member "host" b)))
        in
        let line k cur base verdict =
          Printf.printf "    %-34s %14.6g %14.6g %9s  %s\n" k cur base
            (if base = 0.0 then "-" else Printf.sprintf "%.4f" (cur /. base))
            verdict
        in
        Printf.printf "    %-34s %14s %14s %9s\n" "metric" "now" "baseline" "ratio";
        List.iter
          (fun (k, cur) ->
            match List.assoc_opt k bsim with
            | None -> flag w k "not in the baseline"
            | Some base ->
              let d = Option.value (find_def k) ~default:(def k "") in
              let moved =
                if k = "fail_ratio" then cur > base
                else if base = 0.0 then cur <> 0.0
                else Float.abs ((cur /. base) -. 1.0) > d.bound
              in
              if moved then flag w k (Printf.sprintf "simulated %g -> %g" base cur);
              line k cur base
                (if moved then "FLAGGED" else if cur <> base then "changed" else ""))
          s.sim;
        List.iter
          (fun (k, _) -> if not (List.mem_assoc k s.sim) then flag w k "vanished")
          bsim;
        List.iter
          (fun (k, (_, cur, _)) ->
            match (List.assoc_opt k bhost, find_def k) with
            | Some base, Some d when base > 0.0 ->
              let r = cur /. base in
              let worse = if d.lower_better then r -. 1.0 else 1.0 -. r in
              let bad = worse > d.bound in
              if bad then flag w k (Printf.sprintf "host %g -> %g" base cur);
              line k cur base (if bad then "FLAGGED" else "")
            | _ -> flag w k "no host baseline")
          s.host)
    ws;
  List.rev !flagged
