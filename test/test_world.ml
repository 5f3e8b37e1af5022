(* Tests of the World builder and the op stream at its section 6 shape. *)

module World = Locus.World
module Opstream = Locus.Opstream
module Kernel = Locus_core.Kernel
module K = Locus_core.Ktypes

let check = Alcotest.check

let test_world_shape () =
  let w = World.create ~config:(World.default_config ~n_sites:7 ()) () in
  check Alcotest.int "seven kernels" 7 (List.length (World.kernels w));
  check Alcotest.(list int) "sites" [ 0; 1; 2; 3; 4; 5; 6 ] (World.sites w);
  (* One pack per site for the root filegroup. *)
  List.iter
    (fun s ->
      check Alcotest.bool
        (Printf.sprintf "pack at %d" s)
        true
        (Hashtbl.mem (World.kernel w s).K.packs 0))
    (World.sites w);
  (* Every kernel starts with the full site table. *)
  List.iter
    (fun k -> check Alcotest.(list int) "table" (World.sites w) k.K.site_table)
    (World.kernels w)

let test_world_deterministic () =
  let run () =
    let w = World.create ~config:(World.default_config ~n_sites:4 ()) () in
    let r = Opstream.run (Opstream.setup w Opstream.dev_spec) ~ops:60 in
    (r, Sim.Stats.get (World.stats w) "net.msg", World.now w)
  in
  let r1, m1, t1 = run () in
  let r2, m2, t2 = run () in
  check Alcotest.int "same reads" r1.Opstream.reads r2.Opstream.reads;
  check Alcotest.int "same edits" r1.Opstream.edits r2.Opstream.edits;
  check Alcotest.int "same messages" m1 m2;
  check (Alcotest.float 1e-9) "same simulated time" t1 t2

let test_world_proc_is_cached () =
  let w = World.create ~config:(World.default_config ~n_sites:2 ()) () in
  let p1 = World.proc w 1 and p1' = World.proc w 1 in
  check Alcotest.int "same init process" p1.K.pid p1'.K.pid

let test_settle_reaches_quiescence () =
  let w = World.create ~config:(World.default_config ~n_sites:4 ()) () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.creat k0 p0 "/x");
  Kernel.write_file k0 p0 "/x" "y";
  ignore (World.settle w);
  check Alcotest.int "no pending events" 0 (Sim.Engine.pending (World.engine w));
  List.iter
    (fun k -> check Alcotest.int "empty prop queue" 0 (Queue.length k.K.prop_queue))
    (World.kernels w)

let test_workload_under_partition () =
  (* The generator must survive a partition: refused operations are
     counted, not raised. *)
  let w = World.create ~config:(World.default_config ~n_sites:4 ()) () in
  let g = Opstream.setup w { Opstream.dev_spec with Opstream.ncopies = 1 } in
  ignore (World.partition w [ [ 0 ]; [ 1; 2; 3 ] ]);
  let r = Opstream.run g ~ops:80 in
  check Alcotest.bool "some operations refused" true (r.Opstream.errors > 0);
  check Alcotest.bool "some operations served" true (r.Opstream.reads > 0);
  (* Each side of the split reads what its own copies hold: never a body
     no write sent. *)
  check Alcotest.int "no read returned a body never written" 0 r.Opstream.wrong;
  ignore (World.heal_and_merge w)

let test_workload_mix_respected () =
  let w = World.create ~config:(World.default_config ~n_sites:3 ()) () in
  let spec =
    { Opstream.dev_spec with
      Opstream.mix = { Opstream.read = 100; edit = 0; exec = 0; mail = 0; dirop = 0 }
    }
  in
  let r = Opstream.run (Opstream.setup w spec) ~ops:50 in
  check Alcotest.int "only reads" 50 r.Opstream.reads;
  check Alcotest.int "no edits" 0 r.Opstream.edits;
  check Alcotest.int "no execs" 0 r.Opstream.execs

(* The development mix, whole: every read returns the body of the file's
   last committed write. *)
let test_workload_reads_checked () =
  let w = World.create ~config:(World.default_config ~n_sites:4 ()) () in
  let r = Opstream.run (Opstream.setup w Opstream.dev_spec) ~ops:300 in
  check Alcotest.bool "some reads ran" true (r.Opstream.reads > 0);
  check Alcotest.int "no read returned a body never written" 0 r.Opstream.wrong;
  check Alcotest.int "no read returned a superseded body" 0 r.Opstream.stale

let () =
  Alcotest.run "world"
    [
      ( "world",
        [
          Alcotest.test_case "shape" `Quick test_world_shape;
          Alcotest.test_case "deterministic" `Quick test_world_deterministic;
          Alcotest.test_case "proc cached" `Quick test_world_proc_is_cached;
          Alcotest.test_case "settle quiesces" `Quick test_settle_reaches_quiescence;
        ] );
      ( "workload",
        [
          Alcotest.test_case "under partition" `Quick test_workload_under_partition;
          Alcotest.test_case "mix respected" `Quick test_workload_mix_respected;
          Alcotest.test_case "every read checked" `Quick test_workload_reads_checked;
        ] );
    ]
