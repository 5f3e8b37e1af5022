(* Unit tests for the simulation core: event heap ordering, deterministic
   RNG, clock semantics, statistics accounting. *)

module Eheap = Sim.Eheap
module Rng = Sim.Rng
module Engine = Sim.Engine
module Stats = Sim.Stats
module Trace = Sim.Trace

let check = Alcotest.check

(* ---- event heap ---- *)

let test_heap_ordering () =
  let h = Eheap.create () in
  List.iter (fun t -> Eheap.push h ~time:t t) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let popped = ref [] in
  let rec drain () =
    match Eheap.pop h with
    | Some (_, v) ->
      popped := v :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  check (Alcotest.list (Alcotest.float 0.0)) "sorted order"
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !popped)

let test_heap_fifo_ties () =
  let h = Eheap.create () in
  List.iter (fun v -> Eheap.push h ~time:1.0 v) [ "a"; "b"; "c" ];
  let a = Eheap.pop h and b = Eheap.pop h and c = Eheap.pop h in
  check Alcotest.(list string) "insertion order on equal timestamps"
    [ "a"; "b"; "c" ]
    (List.filter_map (Option.map snd) [ a; b; c ])

let test_heap_grows () =
  let h = Eheap.create () in
  for i = 0 to 999 do
    Eheap.push h ~time:(float_of_int (1000 - i)) i
  done;
  check Alcotest.int "size" 1000 (Eheap.size h);
  match Eheap.pop h with
  | Some (t, v) ->
    check (Alcotest.float 0.0) "min time" 1.0 t;
    check Alcotest.int "min value" 999 v
  | None -> Alcotest.fail "heap empty"

let test_heap_clear () =
  let h = Eheap.create () in
  Eheap.push h ~time:1.0 ();
  Eheap.clear h;
  check Alcotest.bool "empty after clear" true (Eheap.is_empty h)

(* ---- RNG ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of bounds";
    let f = Rng.float r 3.5 in
    if f < 0.0 || f >= 3.5 then Alcotest.fail "float out of bounds"
  done

let test_rng_split_independent () =
  let parent = Rng.create 9L in
  let child = Rng.split parent in
  let a = Rng.int64 child in
  let b = Rng.int64 parent in
  check Alcotest.bool "split streams differ" true (a <> b)

let test_rng_shuffle_permutation () =
  let r = Rng.create 3L in
  let l = List.init 50 Fun.id in
  let s = Rng.shuffle r l in
  check Alcotest.(list int) "same elements" l (List.sort compare s)

let test_rng_pick () =
  let r = Rng.create 5L in
  for _ = 1 to 100 do
    let v = Rng.pick r [ 1; 2; 3 ] in
    if not (List.mem v [ 1; 2; 3 ]) then Alcotest.fail "pick out of list"
  done;
  match Rng.pick r [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pick [] should raise"

(* ---- engine ---- *)

let test_engine_charge () =
  let e = Engine.create () in
  Engine.charge e 5.0;
  Engine.charge e 2.5;
  check (Alcotest.float 1e-9) "clock" 7.5 (Engine.now e)

let test_engine_schedule_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:10.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:5.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:20.0 (fun () -> log := "c" :: !log);
  let n, status = Engine.run_until_idle e in
  check Alcotest.int "three events" 3 n;
  check Alcotest.bool "idle" true (status = `Idle);
  check Alcotest.(list string) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock at last event" 20.0 (Engine.now e)

let test_engine_run_for () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.schedule e ~delay:5.0 (fun () -> incr hits);
  Engine.schedule e ~delay:50.0 (fun () -> incr hits);
  let n = Engine.run_for e 10.0 in
  check Alcotest.int "one event in window" 1 n;
  check Alcotest.int "hits" 1 !hits;
  check (Alcotest.float 1e-9) "clock advanced to window end" 10.0 (Engine.now e);
  check Alcotest.int "one pending" 1 (Engine.pending e)

let test_engine_cascading_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      Engine.schedule e ~delay:1.0 (fun () ->
          incr count;
          chain (n - 1))
  in
  chain 10;
  ignore (Engine.run_until_idle e);
  check Alcotest.int "all chained events ran" 10 !count

let test_engine_clock_monotonic () =
  let e = Engine.create () in
  Engine.charge e 100.0;
  (* An event scheduled in the past fires at the current time. *)
  Engine.schedule_at e ~time:1.0 (fun () -> ());
  ignore (Engine.run_until_idle e);
  check Alcotest.bool "clock did not go backwards" true (Engine.now e >= 100.0)

(* ---- stats ---- *)

let test_stats_counters () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "b" 10;
  check Alcotest.int "a" 2 (Stats.get s "a");
  check Alcotest.int "b" 10 (Stats.get s "b");
  check Alcotest.int "missing" 0 (Stats.get s "nope")

let test_stats_snapshot_delta () =
  let s = Stats.create () in
  Stats.add s "x" 5;
  let snap = Stats.snapshot s in
  Stats.add s "x" 3;
  Stats.incr s "y";
  check Alcotest.int "delta x" 3 (Stats.delta_of s snap "x");
  check Alcotest.int "delta y" 1 (Stats.delta_of s snap "y");
  let d = Stats.delta s snap in
  check Alcotest.int "two changed counters" 2 (List.length d)

(* A distribution is a histogram: its count, mean and maximum. *)
let test_stats_series () =
  let s = Stats.create () in
  List.iter (Stats.hist_observe s "lat") [ 1.0; 2.0; 3.0 ];
  let h = Stats.hist_summary s "lat" in
  check (Alcotest.float 1e-9) "mean" 2.0 h.Stats.mean;
  check (Alcotest.float 1e-9) "max" 3.0 h.Stats.hmax;
  check Alcotest.int "count" 3 h.Stats.n

(* The maximum of an all-negative distribution is its largest sample, and
   an empty one reads 0. *)
let test_stats_max_negative () =
  let s = Stats.create () in
  List.iter (Stats.hist_observe s "skew") [ -5.0; -2.0; -9.0 ];
  check (Alcotest.float 1e-9) "all-negative max" (-2.0) (Stats.hist_percentile s "skew" 100.0);
  check (Alcotest.float 1e-9) "empty histogram is 0" 0.0 (Stats.hist_percentile s "none" 100.0)

(* ---- trace ---- *)

let test_trace_roundtrip () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~tag:"a" "one";
  Trace.record t ~time:2.0 ~tag:"b" "two";
  Trace.record t ~time:3.0 ~tag:"a" "three";
  check Alcotest.int "all events" 3 (List.length (Trace.events t));
  check Alcotest.int "tagged" 2 (List.length (Trace.find_all t ~tag:"a"));
  Trace.clear t;
  check Alcotest.int "cleared" 0 (List.length (Trace.events t))

let test_trace_bounded () =
  let t = Trace.create ~capacity:10 () in
  for i = 1 to 100 do
    Trace.record t ~time:(float_of_int i) ~tag:"x" (string_of_int i)
  done;
  let evs = Trace.events t in
  check Alcotest.bool "bounded" true (List.length evs <= 10);
  let last = List.nth evs (List.length evs - 1) in
  check Alcotest.string "newest kept" "100" last.Trace.detail

let () =
  Alcotest.run "sim"
    [
      ( "eheap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "growth" `Quick test_heap_grows;
          Alcotest.test_case "clear" `Quick test_heap_clear;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick" `Quick test_rng_pick;
        ] );
      ( "engine",
        [
          Alcotest.test_case "charge" `Quick test_engine_charge;
          Alcotest.test_case "schedule order" `Quick test_engine_schedule_order;
          Alcotest.test_case "run_for window" `Quick test_engine_run_for;
          Alcotest.test_case "cascading" `Quick test_engine_cascading_events;
          Alcotest.test_case "monotonic clock" `Quick test_engine_clock_monotonic;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "snapshot delta" `Quick test_stats_snapshot_delta;
          Alcotest.test_case "series" `Quick test_stats_series;
          Alcotest.test_case "max of negatives" `Quick test_stats_max_negative;
        ] );
      ( "trace",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "bounded" `Quick test_trace_bounded;
        ] );
    ]
