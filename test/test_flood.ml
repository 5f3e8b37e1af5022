(* The op stream at flood shape: deterministic under its seed, conserved
   op bookkeeping, ordered percentiles, every read checked by the oracle,
   and an actually-skewed popularity draw (the Zipf sampler's empirical
   rank-frequency curve). *)

module World = Locus.World
module Opstream = Locus.Opstream
module Zipf = Locus.Zipf
module Kernel = Locus_core.Kernel
module Rng = Sim.Rng
module Stats = Sim.Stats

let mk_world () = World.create ~config:(World.default_config ~n_sites:5 ()) ()

let spec =
  { Opstream.flood_spec with Opstream.users = 300; files = 64; settle_every = 100 }

let run_once () = Opstream.run (Opstream.setup (mk_world ()) spec) ~ops:800

let test_setup_readable () =
  let w = mk_world () in
  ignore (Opstream.setup w spec);
  (* the whole working set is readable from a site that holds no pack *)
  let k = World.kernel w 4 and p = World.proc w 4 in
  for r = 0 to spec.Opstream.files - 1 do
    let body = Kernel.read_file k p (Opstream.file_path spec r) in
    Alcotest.(check int) "seeded body" 200 (String.length body)
  done

let test_deterministic () =
  let a = run_once () and b = run_once () in
  Alcotest.(check bool) "same world seed + spec seed, same report" true (a = b)

let test_accounting () =
  let r = run_once () in
  Alcotest.(check int) "every op lands in one class or errors"
    r.Opstream.ops
    (r.Opstream.reads + r.Opstream.edits + r.Opstream.dirops + r.Opstream.errors);
  Alcotest.(check bool) "reads dominate at default mix" true
    (r.Opstream.reads > r.Opstream.edits + r.Opstream.dirops);
  Alcotest.(check bool) "simulated time advanced" true (r.Opstream.sim_ms > 0.0);
  List.iter
    (fun ratio ->
      Alcotest.(check bool) "hit ratio in [0,1]" true
        (ratio >= 0.0 && ratio <= 1.0))
    [ r.Opstream.lease_hit; r.Opstream.cache_hit; r.Opstream.name_hit ]

let test_percentiles_ordered () =
  let r = run_once () in
  let ordered (s : Stats.hist_summary) =
    s.Stats.p50 <= s.Stats.p95 && s.Stats.p95 <= s.Stats.p99
    && s.Stats.p99 <= s.Stats.hmax
  in
  Alcotest.(check bool) "read latency percentiles ordered" true
    (ordered r.Opstream.read_lat);
  Alcotest.(check bool) "edit latency percentiles ordered" true
    (ordered r.Opstream.edit_lat);
  Alcotest.(check bool) "read count matches histogram population" true
    (r.Opstream.read_lat.Stats.n = r.Opstream.reads)

(* Every read returns the body of the file's last committed write: a lease
   break or commit notification sent during one op has arrived before the
   next op starts, and a stale lease never serves a read. *)
let test_reads_checked () =
  let r = run_once () in
  Alcotest.(check bool) "some reads ran" true (r.Opstream.reads > 0);
  Alcotest.(check int) "no read returned a body never written" 0 r.Opstream.wrong;
  Alcotest.(check int) "no read returned a superseded body" 0 r.Opstream.stale

(* Empirical rank-frequency curve of the sampler, under a fixed seed so
   the check is deterministic: the head rank is the argmax, and the top
   quarter of ranks outdraws the bottom quarter decisively. *)
let test_zipf_rank_frequency () =
  let n = 16 in
  let z = Zipf.create ~n ~s:1.1 in
  let rng = Rng.create 7L in
  let counts = Array.make n 0 in
  for _ = 1 to 20_000 do
    let r = Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  Array.iteri
    (fun r c ->
      Alcotest.(check bool) "rank 0 is the mode" true (counts.(0) >= c);
      ignore r)
    counts;
  let sum lo hi = Array.fold_left ( + ) 0 (Array.sub counts lo (hi - lo)) in
  Alcotest.(check bool) "head quarter outdraws tail quarter" true
    (sum 0 (n / 4) > 4 * sum (n - (n / 4)) n)

let () =
  Alcotest.run "flood"
    [
      ( "flood",
        [
          Alcotest.test_case "setup readable everywhere" `Quick
            test_setup_readable;
          Alcotest.test_case "deterministic under seed" `Quick
            test_deterministic;
          Alcotest.test_case "op accounting conserved" `Quick test_accounting;
          Alcotest.test_case "percentiles ordered" `Quick
            test_percentiles_ordered;
          Alcotest.test_case "every read checked" `Quick test_reads_checked;
          Alcotest.test_case "zipf rank-frequency skew" `Quick
            test_zipf_rank_frequency;
        ] );
    ]
