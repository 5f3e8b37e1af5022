(* The benchmark's self-test, at 1/100 of the ops: simulated metrics
   repeat exactly for a seed, the traced replay reproduces them, the seed
   drives the op stream, and the oracle catches a wrong answer. *)

open Lbench
module W = Workload

let scale = 0.01

let seconds = 8.0

let spec name = Option.get (W.find name)

let sim_json (r : Runner.result) =
  Json.to_string
    (Json.Obj (List.map (fun (m : Runner.metric) -> (m.name, Json.Num m.value)) r.r_sim))

let run ?(traced = false) ?verify_heals name ~seed =
  Runner.run ~setups:1 ?verify_heals ~scale (spec name) ~seed ~seconds ~traced

let check_clean (r : Runner.result) =
  Alcotest.(check int) "oracle mismatches" 0 r.r_mismatches;
  Alcotest.(check int) "failed ops" 0 r.r_failed

(* The traced run also replays the untraced one, so each workload costs
   two set-ups here. *)
let test_traced_matches name () =
  let r = run ~traced:true name ~seed:1 in
  Alcotest.(check (list string)) "simulated metrics the traced run changed" [] r.r_diverged;
  check_clean r;
  Alcotest.(check bool) "per-layer metrics reported" true (r.r_layers <> [])

(* The two workloads whose set-up is the largest (24.6k pages of files,
   4,096 directory entries) run once, untraced. *)
let test_clean name () = check_clean (run name ~seed:2)

let test_repeatable name () =
  let a = run name ~seed:3 and b = run name ~seed:3 in
  Alcotest.(check string) "simulated metrics" (sim_json a) (sim_json b)

(* The post-heal read-back runs on a copy of the world, so a run without
   it reports the same simulated metrics. *)
let test_readback_leaves_no_trace () =
  let checked = run "partition_heal" ~seed:3
  and unchecked = run ~verify_heals:false "partition_heal" ~seed:3 in
  check_clean checked;
  Alcotest.(check string) "simulated metrics" (sim_json checked) (sim_json unchecked)

let test_seed_changes_stream () =
  List.iter
    (fun (w : W.t) ->
      let gen seed = (W.generate ~scale w ~seed ~seconds).W.ops in
      Alcotest.(check bool) (w.name ^ ": same seed, same stream") true (gen 5 = gen 5);
      Alcotest.(check bool) (w.name ^ ": other seed, other stream") false (gen 5 = gen 6))
    W.all

let test_oracle_flags_wrong_body () =
  let w = spec "read_hot" in
  let o = Oracle.create w in
  Oracle.check_read o ~site:3 ~file:7 (W.body w ~file:7 ~rev:0);
  Alcotest.(check int) "set-up body accepted" 0 (Oracle.mismatches o);
  Oracle.check_read o ~site:3 ~file:7 (W.body w ~file:8 ~rev:0);
  Alcotest.(check int) "another file's body" 1 (Oracle.mismatches o);
  let b = Bytes.of_string (W.body w ~file:7 ~rev:0) in
  Bytes.set b (Bytes.length b - 1) '!';
  Oracle.check_read o ~site:3 ~file:7 (Bytes.to_string b);
  Alcotest.(check int) "one byte off" 2 (Oracle.mismatches o);
  Oracle.wrote o ~site:3 ~file:7 ~rev:42 ~ok:true;
  Oracle.check_read o ~site:9 ~file:7 (W.body w ~file:7 ~rev:0);
  Alcotest.(check int) "stale body after a commit" 3 (Oracle.mismatches o);
  Oracle.check_read o ~site:9 ~file:7 (W.body w ~file:7 ~rev:42);
  Alcotest.(check int) "committed body accepted" 3 (Oracle.mismatches o)

let test_oracle_flags_wrong_listing () =
  let w = spec "dir_churn" in
  let o = Oracle.create w in
  let listing dir =
    "." :: ".."
    :: List.filter_map
         (fun (d, n) -> if d = dir then Some (W.name_name n) else None)
         (W.prefill_names w)
  in
  Oracle.check_dir o ~dir:2 (listing 2);
  Alcotest.(check int) "exact listing accepted" 0 (Oracle.mismatches o);
  Oracle.check_dir o ~dir:2 (List.tl (listing 2));
  Alcotest.(check int) "missing name" 1 (Oracle.mismatches o);
  Oracle.created o ~dir:2 ~name:100_001 ~ok:true;
  Oracle.check_dir o ~dir:2 (listing 2);
  Alcotest.(check int) "created name not listed" 2 (Oracle.mismatches o)

let () =
  Alcotest.run "locus_bench"
    [
      ( "traced",
        List.map
          (fun n -> Alcotest.test_case n `Quick (test_traced_matches n))
          [ "read_hot"; "write_commit"; "partition_heal" ] );
      ( "clean",
        List.map (fun n -> Alcotest.test_case n `Quick (test_clean n)) [ "scan_cold"; "dir_churn" ]
      );
      ( "repeat",
        List.map
          (fun n -> Alcotest.test_case n `Quick (test_repeatable n))
          [ "read_hot"; "partition_heal" ] );
      ( "readback",
        [ Alcotest.test_case "post-heal read-back leaves no trace" `Quick
            test_readback_leaves_no_trace ] );
      ( "seed",
        [ Alcotest.test_case "seed drives the op stream" `Quick test_seed_changes_stream ] );
      ( "oracle",
        [ Alcotest.test_case "wrong body flagged" `Quick test_oracle_flags_wrong_body;
          Alcotest.test_case "wrong listing flagged" `Quick test_oracle_flags_wrong_listing ] );
    ]
