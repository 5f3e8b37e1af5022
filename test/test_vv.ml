(* Unit + property tests for version vectors (Parker et al.). *)

module Vvec = Vv.Version_vector

let check = Alcotest.check

let order : Vvec.order Alcotest.testable =
  Alcotest.testable Vvec.pp_order ( = )

let test_zero () =
  check order "zero vs zero" Vvec.Equal (Vvec.compare_vv Vvec.zero Vvec.zero);
  check Alcotest.int "component of zero" 0 (Vvec.get Vvec.zero 3)

let test_bump () =
  let v = Vvec.bump (Vvec.bump Vvec.zero 1) 1 in
  check Alcotest.int "bumped twice" 2 (Vvec.get v 1);
  check order "bump dominates" Vvec.Dominates (Vvec.compare_vv v Vvec.zero);
  check order "zero dominated" Vvec.Dominated (Vvec.compare_vv Vvec.zero v)

let test_concurrent () =
  let a = Vvec.bump Vvec.zero 1 in
  let b = Vvec.bump Vvec.zero 2 in
  check order "concurrent" Vvec.Concurrent (Vvec.compare_vv a b);
  check Alcotest.bool "conflict" true (Vvec.conflict a b)

let test_merge_resolves () =
  let a = Vvec.bump Vvec.zero 1 in
  let b = Vvec.bump Vvec.zero 2 in
  let m = Vvec.merge a b in
  check Alcotest.bool "merge >= a" true (Vvec.dominates_or_equal m a);
  check Alcotest.bool "merge >= b" true (Vvec.dominates_or_equal m b)

let test_of_list_roundtrip () =
  let v = Vvec.of_list [ (3, 2); (1, 5); (7, 0) ] in
  check Alcotest.(list (pair int int)) "zeroes dropped, sorted"
    [ (1, 5); (3, 2) ] (Vvec.to_list v)

let test_paper_example () =
  (* Section 4.2: f modified at S1 only -> no conflict; modified at both ->
     conflict. *)
  let base = Vvec.bump Vvec.zero 1 in
  let f1 = Vvec.bump base 1 in
  check Alcotest.bool "f1 propagates cleanly" true (Vvec.dominates_or_equal f1 base);
  let f2 = Vvec.bump base 2 in
  check Alcotest.bool "independent updates conflict" true (Vvec.conflict f1 f2)

(* The printed form keys the kernel's caches, so it must not drift. *)
let test_to_string () =
  check Alcotest.string "empty" "<>" (Vvec.to_string Vvec.zero);
  let v = Vvec.of_list [ (12, 3); (0, 1_000_000); (5, 0) ] in
  check Alcotest.string "sorted, zeroes dropped" "<0:1000000,12:3>" (Vvec.to_string v)

(* ---- properties ---- *)

let sites = QCheck.Gen.oneofl [ 0; 1; 2; 3; 4 ]

let gen_vv =
  QCheck.Gen.(
    list_size (int_bound 12) sites
    >|= fun bumps -> List.fold_left Vvec.bump Vvec.zero bumps)

let arb_vv = QCheck.make ~print:Vvec.to_string gen_vv

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:300
    (QCheck.pair arb_vv arb_vv)
    (fun (a, b) -> Vvec.equal (Vvec.merge a b) (Vvec.merge b a))

let prop_merge_idempotent =
  QCheck.Test.make ~name:"merge idempotent" ~count:300 arb_vv (fun v ->
      Vvec.equal (Vvec.merge v v) v)

let prop_merge_associative =
  QCheck.Test.make ~name:"merge associative" ~count:300
    (QCheck.triple arb_vv arb_vv arb_vv)
    (fun (a, b, c) ->
      Vvec.equal (Vvec.merge a (Vvec.merge b c)) (Vvec.merge (Vvec.merge a b) c))

let prop_merge_dominates_both =
  QCheck.Test.make ~name:"merge dominates both" ~count:300
    (QCheck.pair arb_vv arb_vv)
    (fun (a, b) ->
      let m = Vvec.merge a b in
      Vvec.dominates_or_equal m a && Vvec.dominates_or_equal m b)

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:300
    (QCheck.pair arb_vv arb_vv)
    (fun (a, b) ->
      match (Vvec.compare_vv a b, Vvec.compare_vv b a) with
      | Vvec.Equal, Vvec.Equal
      | Vvec.Dominates, Vvec.Dominated
      | Vvec.Dominated, Vvec.Dominates
      | Vvec.Concurrent, Vvec.Concurrent ->
        true
      | _ -> false)

let prop_bump_strictly_dominates =
  QCheck.Test.make ~name:"bump strictly dominates" ~count:300
    (QCheck.pair arb_vv (QCheck.make sites))
    (fun (v, s) -> Vvec.compare_vv (Vvec.bump v s) v = Vvec.Dominates)

let prop_conflict_iff_incomparable =
  QCheck.Test.make ~name:"conflict iff neither dominates" ~count:300
    (QCheck.pair arb_vv arb_vv)
    (fun (a, b) ->
      Vvec.conflict a b
      = ((not (Vvec.dominates_or_equal a b)) && not (Vvec.dominates_or_equal b a)))

(* [equal] compares the maps, which the no-zero-component invariant makes
   agree with [compare_vv]: over vectors built from the same bumps in
   another order, merged with a vector they dominate, rebuilt by [of_list]
   with zero components, and from other bumps. *)
let prop_equal_is_compare_equal =
  QCheck.Test.make ~name:"equal iff compare_vv says Equal" ~count:300
    QCheck.(pair (small_list (make sites)) (small_list (make sites)))
    (fun (bumps, others) ->
      let build l = List.fold_left Vvec.bump Vvec.zero l in
      let a = build bumps in
      let zeros = List.map (fun s -> (s, 0)) [ 0; 1; 2; 3; 4 ] in
      let vs =
        [
          a;
          build (List.rev bumps);
          Vvec.merge (build (List.filteri (fun i _ -> i mod 2 = 0) bumps)) a;
          Vvec.of_list (zeros @ List.rev (Vvec.to_list a));
          build others;
          Vvec.merge a (build others);
        ]
      in
      List.for_all
        (fun x -> List.for_all (fun y -> Vvec.equal x y = (Vvec.compare_vv x y = Vvec.Equal)) vs)
        vs)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_merge_commutative;
      prop_merge_idempotent;
      prop_merge_associative;
      prop_merge_dominates_both;
      prop_compare_antisymmetric;
      prop_bump_strictly_dominates;
      prop_conflict_iff_incomparable;
      prop_equal_is_compare_equal;
    ]

let () =
  Alcotest.run "vv"
    [
      ( "unit",
        [
          Alcotest.test_case "zero" `Quick test_zero;
          Alcotest.test_case "bump" `Quick test_bump;
          Alcotest.test_case "concurrent" `Quick test_concurrent;
          Alcotest.test_case "merge resolves" `Quick test_merge_resolves;
          Alcotest.test_case "of_list" `Quick test_of_list_roundtrip;
          Alcotest.test_case "paper example" `Quick test_paper_example;
          Alcotest.test_case "to_string" `Quick test_to_string;
        ] );
      ("properties", props);
    ]
