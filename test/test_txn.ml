(* Nested transaction tests [MEUL 83]: atomicity, isolation via the CSS
   modification lock, subtransaction commit/abort, and partition abort. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module K = Locus_core.Ktypes

let check = Alcotest.check

let make_world () = World.create ~config:(World.default_config ~n_sites:4 ()) ()

let setup w paths =
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  List.iter
    (fun (path, body) ->
      ignore (Kernel.creat k0 p0 path);
      Kernel.write_file k0 p0 path body)
    paths;
  ignore (World.settle w)

let test_commit_publishes_all () =
  let w = make_world () in
  setup w [ ("/acct_a", "100"); ("/acct_b", "0") ];
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let t = Txn.begin_top k0 p0 in
  let a = int_of_string (Txn.read t "/acct_a") in
  Txn.write t "/acct_a" (string_of_int (a - 30));
  Txn.write t "/acct_b" "30";
  (* Nothing is visible before commit. *)
  check Alcotest.string "a unchanged pre-commit" "100"
    (Kernel.read_file k0 p0 "/acct_a");
  Txn.commit t;
  ignore (World.settle w);
  check Alcotest.string "a debited" "70" (Kernel.read_file k0 p0 "/acct_a");
  check Alcotest.string "b credited" "30" (Kernel.read_file k0 p0 "/acct_b");
  (* Visible remotely too. *)
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  check Alcotest.string "remote sees commit" "70" (Kernel.read_file k2 p2 "/acct_a")

let test_abort_undoes_everything () =
  let w = make_world () in
  setup w [ ("/f1", "original") ];
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let t = Txn.begin_top k0 p0 in
  Txn.write t "/f1" "doomed";
  Txn.create t "/f2";
  Txn.write t "/f2" "also doomed";
  Txn.abort t;
  ignore (World.settle w);
  check Alcotest.string "f1 untouched" "original" (Kernel.read_file k0 p0 "/f1");
  (match Kernel.read_file k0 p0 "/f2" with
  | _ -> Alcotest.fail "created file should be removed on abort"
  | exception K.Error (Proto.Enoent, _) -> ());
  check Alcotest.bool "aborted" true (Txn.status t = Txn.Aborted)

let test_reads_see_own_writes () =
  let w = make_world () in
  setup w [ ("/x", "disk value") ];
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let t = Txn.begin_top k0 p0 in
  check Alcotest.string "reads through to disk" "disk value" (Txn.read t "/x");
  Txn.write t "/x" "buffered";
  check Alcotest.string "own write visible" "buffered" (Txn.read t "/x");
  Txn.abort t

let test_isolation_via_lock () =
  let w = make_world () in
  setup w [ ("/shared", "s") ];
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let t1 = Txn.begin_top k0 p0 in
  Txn.write t1 "/shared" "from t1";
  (* A second transaction at another site cannot lock the same file. *)
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  let t2 = Txn.begin_top k2 p2 in
  (match Txn.write t2 "/shared" "from t2" with
  | () -> Alcotest.fail "lock should be refused"
  | exception Txn.Txn_error _ -> ());
  Txn.abort t2;
  Txn.commit t1;
  ignore (World.settle w);
  check Alcotest.string "t1 won" "from t1" (Kernel.read_file k0 p0 "/shared")

let test_subtransaction_commit_merges () =
  let w = make_world () in
  setup w [ ("/doc", "v0") ];
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let top = Txn.begin_top k0 p0 in
  Txn.write top "/doc" "v1";
  let sub = Txn.begin_sub top in
  check Alcotest.int "depth" 1 (Txn.depth sub);
  check Alcotest.string "sub sees parent write" "v1" (Txn.read sub "/doc");
  Txn.write sub "/doc" "v2";
  Txn.commit sub;
  check Alcotest.string "parent sees sub's commit" "v2" (Txn.read top "/doc");
  Txn.commit top;
  ignore (World.settle w);
  check Alcotest.string "published" "v2" (Kernel.read_file k0 p0 "/doc")

let test_subtransaction_abort_independent () =
  let w = make_world () in
  setup w [ ("/doc", "v0") ];
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let top = Txn.begin_top k0 p0 in
  Txn.write top "/doc" "v1";
  let sub = Txn.begin_sub top in
  Txn.write sub "/doc" "sub version";
  Txn.abort sub;
  check Alcotest.string "parent write survives sub abort" "v1" (Txn.read top "/doc");
  Txn.commit top;
  ignore (World.settle w);
  check Alcotest.string "published v1" "v1" (Kernel.read_file k0 p0 "/doc")

let test_commit_with_active_sub_refused () =
  let w = make_world () in
  setup w [ ("/doc", "v0") ];
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let top = Txn.begin_top k0 p0 in
  let _sub = Txn.begin_sub top in
  (match Txn.commit top with
  | () -> Alcotest.fail "commit with active subtransaction"
  | exception Txn.Txn_error _ -> ());
  Txn.abort top

let test_partition_aborts_distributed_txn () =
  (* Section 5.6: "Distributed Transaction -> abort all related
     subtransactions in partition". *)
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  (* A file stored only at site 3 to make the transaction distributed. *)
  Kernel.set_ncopies p0 1;
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  ignore (Kernel.creat k3 p3 "/remote_leg");
  Kernel.write_file k3 p3 "/remote_leg" "r";
  ignore (Kernel.creat k0 p0 "/local_leg");
  Kernel.write_file k0 p0 "/local_leg" "l";
  ignore (World.settle w);
  let t = Txn.begin_top k0 p0 in
  Txn.write t "/local_leg" "txn l";
  Txn.write t "/remote_leg" "txn r";
  check Alcotest.bool "touches site 3" true (List.mem 3 (Txn.touched_sites t));
  check Alcotest.int "one active txn" 1 (Txn.active_count k0);
  World.crash_site w 3;
  ignore (World.detect_failures w ~initiator:0);
  check Alcotest.bool "transaction aborted by cleanup" true
    (Txn.status t = Txn.Aborted);
  check Alcotest.int "no active txns" 0 (Txn.active_count k0);
  ignore (World.settle w);
  check Alcotest.string "local leg rolled back" "l"
    (Kernel.read_file k0 p0 "/local_leg")

(* Transactions belong to their world: a membership change in one world
   neither aborts another world's transaction at the same site number nor
   sends a message on that world's network. *)
let test_failure_stays_in_its_world () =
  let a = make_world () in
  let ka0 = World.kernel a 0 and pa0 = World.proc a 0 in
  (* A file stored only at site 2, locked by a transaction at site 0. *)
  let ka2 = World.kernel a 2 and pa2 = World.proc a 2 in
  Kernel.set_ncopies pa2 1;
  ignore (Kernel.creat ka2 pa2 "/leg");
  Kernel.write_file ka2 pa2 "/leg" "x";
  ignore (World.settle a);
  let t = Txn.begin_top ka0 pa0 in
  Txn.write t "/leg" "txn x";
  check Alcotest.bool "touches site 2" true (List.mem 2 (Txn.touched_sites t));
  let sent = Net.Netsim.messages_sent (World.net a) in
  let b = make_world () in
  World.crash_site b 2;
  ignore (World.detect_failures b ~initiator:0);
  check Alcotest.int "no transaction in the other world" 0 (Txn.active_count (World.kernel b 0));
  check Alcotest.bool "still active" true (Txn.status t = Txn.Active);
  check Alcotest.int "one active txn" 1 (Txn.active_count ka0);
  check Alcotest.int "no message in its world" sent (Net.Netsim.messages_sent (World.net a));
  Txn.commit t;
  ignore (World.settle a);
  check Alcotest.string "committed" "txn x" (Kernel.read_file ka0 pa0 "/leg")

let () =
  Alcotest.run "txn"
    [
      ( "atomicity",
        [
          Alcotest.test_case "commit publishes all" `Quick test_commit_publishes_all;
          Alcotest.test_case "abort undoes all" `Quick test_abort_undoes_everything;
          Alcotest.test_case "reads see own writes" `Quick test_reads_see_own_writes;
        ] );
      ( "isolation",
        [ Alcotest.test_case "lock refuses second writer" `Quick test_isolation_via_lock ] );
      ( "nesting",
        [
          Alcotest.test_case "sub commit merges" `Quick test_subtransaction_commit_merges;
          Alcotest.test_case "sub abort independent" `Quick
            test_subtransaction_abort_independent;
          Alcotest.test_case "active sub blocks commit" `Quick
            test_commit_with_active_sub_refused;
        ] );
      ( "partition",
        [
          Alcotest.test_case "partition aborts distributed txn" `Quick
            test_partition_aborts_distributed_txn;
          Alcotest.test_case "failure stays in its world" `Quick
            test_failure_stays_in_its_world;
        ] );
    ]
