(* Unit tests for the catalog: gfiles, directories with tombstones,
   mailboxes and their merge, the mount table. *)

module Gfile = Catalog.Gfile
module Dir = Catalog.Dir
module Inode = Storage.Inode
module Mbox = Catalog.Mailbox
module Mount = Catalog.Mount

let check = Alcotest.check

(* ---- gfile ---- *)

let test_gfile_compare () =
  let a = Gfile.make ~fg:0 ~ino:1 in
  let b = Gfile.make ~fg:0 ~ino:2 in
  let c = Gfile.make ~fg:1 ~ino:1 in
  check Alcotest.bool "a < b" true (Gfile.compare a b < 0);
  check Alcotest.bool "b < c" true (Gfile.compare b c < 0);
  check Alcotest.bool "equal" true (Gfile.equal a (Gfile.make ~fg:0 ~ino:1));
  check Alcotest.string "pp" "<0,1>" (Gfile.to_string a)

(* ---- directories ---- *)

let test_dir_insert_lookup () =
  let d = Dir.empty () in
  Dir.insert d ~name:"file.txt" ~ino:7 ~ftype:Inode.Regular ~stamp:1.0 ~origin:0;
  check Alcotest.(option int) "lookup" (Some 7) (Dir.lookup d "file.txt");
  check Alcotest.(option int) "missing" None (Dir.lookup d "nope");
  check Alcotest.int "cardinal" 1 (Dir.cardinal d)

let test_dir_remove_leaves_tombstone () =
  let d = Dir.empty () in
  Dir.insert d ~name:"x" ~ino:3 ~ftype:Inode.Regular ~stamp:1.0 ~origin:0;
  check Alcotest.bool "removed" true (Dir.remove d ~name:"x" ~stamp:2.0 ~origin:1);
  check Alcotest.(option int) "gone" None (Dir.lookup d "x");
  (match Dir.find_entry d "x" with
  | Some e ->
    check Alcotest.bool "tombstone" true (e.Dir.status = Dir.Tombstone);
    check (Alcotest.float 1e-9) "stamp" 2.0 e.Dir.stamp;
    check Alcotest.int "origin" 1 e.Dir.origin
  | None -> Alcotest.fail "tombstone should remain");
  check Alcotest.bool "second remove false" false
    (Dir.remove d ~name:"x" ~stamp:3.0 ~origin:0)

let test_dir_resurrect () =
  let d = Dir.empty () in
  Dir.insert d ~name:"x" ~ino:3 ~ftype:Inode.Regular ~stamp:1.0 ~origin:0;
  ignore (Dir.remove d ~name:"x" ~stamp:2.0 ~origin:0);
  Dir.insert d ~name:"x" ~ino:9 ~ftype:Inode.Regular ~stamp:3.0 ~origin:0;
  check Alcotest.(option int) "resurrected with new ino" (Some 9) (Dir.lookup d "x")

let test_dir_invalid_names () =
  let d = Dir.empty () in
  List.iter
    (fun name ->
      match Dir.insert d ~name ~ino:1 ~ftype:Inode.Regular ~stamp:0.0 ~origin:0 with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail (Printf.sprintf "name %S should be rejected" name))
    [ ""; "a/b"; "a\tb"; "a\nb" ]

(* Every record must fit in one page: names are capped at [Dir.max_name]
   (the page size less the 21-byte record header). *)
let test_dir_name_bound () =
  let d = Dir.empty () in
  let longest = String.make Dir.max_name 'n' in
  check Alcotest.int "bound is a page less the header" (Storage.Page.size - 21) Dir.max_name;
  Dir.insert d ~name:longest ~ino:4 ~ftype:Inode.Regular ~stamp:1.0 ~origin:0;
  check Alcotest.(option int) "longest name accepted" (Some 4) (Dir.lookup d longest);
  (match Dir.insert d ~name:(longest ^ "n") ~ino:5 ~ftype:Inode.Regular ~stamp:1.0 ~origin:0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a name past the bound was accepted");
  check Alcotest.int "one record fills one page" Storage.Page.size
    (String.length (Dir.encode d))

(* A name conflict's rename must stay a valid name even for the longest
   name, and stay distinct per inode. *)
let test_dir_conflict_name_fits () =
  let longest = String.make Dir.max_name 'n' in
  let a = Dir.conflict_name longest ~ino:7 and b = Dir.conflict_name longest ~ino:8 in
  check Alcotest.bool "distinct per inode" true (a <> b);
  check Alcotest.string "short names keep the classic form" "f!conflict!7"
    (Dir.conflict_name "f" ~ino:7);
  let d = Dir.empty () in
  Dir.insert d ~name:a ~ino:7 ~ftype:Inode.Regular ~stamp:1.0 ~origin:0;
  Dir.insert d ~name:b ~ino:8 ~ftype:Inode.Regular ~stamp:1.0 ~origin:0;
  check Alcotest.int "both renamed entries live" 2 (Dir.cardinal d)

(* The origin is stored as a u16: anything outside is refused, not
   truncated on the way to disk. *)
let test_dir_origin_bound () =
  let d = Dir.empty () in
  Dir.insert d ~name:"x" ~ino:3 ~ftype:Inode.Regular ~stamp:1.0 ~origin:0xffff;
  List.iter
    (fun origin ->
      (match Dir.insert d ~name:"y" ~ino:3 ~ftype:Inode.Regular ~stamp:1.0 ~origin with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "insert accepted origin %d" origin);
      match Dir.remove d ~name:"x" ~stamp:2.0 ~origin with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "remove accepted origin %d" origin)
    [ -1; 0x10000 ];
  check Alcotest.(option int) "entry untouched" (Some 3) (Dir.lookup d "x");
  check Alcotest.(option int) "no entry added" None (Dir.lookup d "y")

let test_dir_codec_roundtrip () =
  let d = Dir.empty () in
  Dir.insert d ~name:"alpha" ~ino:2 ~ftype:Inode.Regular ~stamp:1.5 ~origin:0;
  Dir.insert d ~name:"beta" ~ino:3 ~ftype:Inode.Regular ~stamp:2.5 ~origin:1;
  ignore (Dir.remove d ~name:"beta" ~stamp:3.5 ~origin:1);
  let d' = Dir.decode (Dir.encode d) in
  check Alcotest.bool "roundtrip equal" true (Dir.equal d d');
  check Alcotest.(option int) "live entry survives" (Some 2) (Dir.lookup d' "alpha");
  match Dir.find_entry d' "beta" with
  | Some e -> check Alcotest.bool "tombstone survives" true (e.Dir.status = Dir.Tombstone)
  | None -> Alcotest.fail "tombstone lost in codec"

let all_ftypes =
  Inode.[ Regular; Directory; Hidden_directory; Mailbox; Database; Fifo ]

(* Each entry keeps its child's type through the codec, live or
   tombstoned: the type shares the status byte. *)
let test_dir_codec_types () =
  let d = Dir.empty () in
  List.iteri
    (fun i ftype ->
      let live = Printf.sprintf "live%d" i and dead = Printf.sprintf "dead%d" i in
      Dir.insert d ~name:live ~ino:(10 + i) ~ftype ~stamp:1.0 ~origin:0;
      Dir.insert d ~name:dead ~ino:(20 + i) ~ftype ~stamp:1.0 ~origin:0;
      ignore (Dir.remove d ~name:dead ~stamp:2.0 ~origin:0))
    all_ftypes;
  let d' = Dir.decode (Dir.encode d) in
  check Alcotest.bool "roundtrip equal" true (Dir.equal d d');
  List.iteri
    (fun i ftype ->
      (match Dir.find_entry d' (Printf.sprintf "live%d" i) with
      | Some { Dir.status = Dir.Live; ftype = got; ino; _ } ->
        check Alcotest.bool "live type kept" true (got = ftype);
        check Alcotest.int "live inode kept" (10 + i) ino
      | Some _ | None -> Alcotest.fail "live entry lost");
      match Dir.find_entry d' (Printf.sprintf "dead%d" i) with
      | Some { Dir.status = Dir.Tombstone; ftype = got; _ } ->
        check Alcotest.bool "tombstone type kept" true (got = ftype)
      | Some _ | None -> Alcotest.fail "tombstone lost")
    all_ftypes

(* A nonzero status byte must hold status 1 or 2 in its low two bits and
   a type code 0..5 in the next three: anything else is a corrupt record,
   never an entry of some type. *)
let test_dir_decode_bad_status () =
  let d = Dir.empty () in
  Dir.insert d ~name:"x" ~ino:3 ~ftype:Inode.Directory ~stamp:1.0 ~origin:0;
  let good = Dir.encode d in
  check Alcotest.int "live directory byte" (1 lor (1 lsl 2)) (Char.code good.[0]);
  let refused byte =
    let b = Bytes.of_string good in
    Bytes.set_uint8 b 0 byte;
    match Dir.decode (Bytes.to_string b) with
    | _ -> false
    | exception Failure _ -> true
  in
  List.iter
    (fun (what, byte) -> check Alcotest.bool what true (refused byte))
    [ ("status 0 with a type", 1 lsl 2);
      ("status 3", 3);
      ("status 3 with a type", 3 lor (4 lsl 2));
      ("type code 6", 1 lor (6 lsl 2));
      ("type code 7", 2 lor (7 lsl 2));
      ("top bits set", 1 lor (1 lsl 5)) ];
  (* The type codes, in the order of [all_ftypes]. *)
  List.iteri
    (fun code ftype ->
      List.iter
        (fun st ->
          let b = Bytes.of_string good in
          Bytes.set_uint8 b 0 (st lor (code lsl 2));
          match Dir.find_entry (Dir.decode (Bytes.to_string b)) "x" with
          | Some e -> check Alcotest.bool "type code read" true (e.Dir.ftype = ftype)
          | None -> Alcotest.fail "valid record lost")
        [ 1; 2 ])
    all_ftypes

let test_dir_hard_links () =
  let d = Dir.empty () in
  Dir.insert d ~name:"one" ~ino:5 ~ftype:Inode.Regular ~stamp:1.0 ~origin:0;
  Dir.insert d ~name:"two" ~ino:5 ~ftype:Inode.Regular ~stamp:1.0 ~origin:0;
  check Alcotest.(list string) "names of ino" [ "one"; "two" ] (Dir.names_of_ino d 5)

(* One page's links: its live records, in log order, that end by the
   limit. A tombstone is skipped, so is the padding after the last record,
   and a record the limit cuts is left out rather than refused. *)
let test_dir_page_links () =
  let d = Dir.empty () in
  Dir.insert d ~name:"a" ~ino:2 ~ftype:Inode.Regular ~stamp:1.0 ~origin:0;
  Dir.insert d ~name:"b" ~ino:3 ~ftype:Inode.Regular ~stamp:1.0 ~origin:0;
  Dir.insert d ~name:"cc" ~ino:4 ~ftype:Inode.Directory ~stamp:1.0 ~origin:0;
  ignore (Dir.remove d ~name:"b" ~stamp:2.0 ~origin:1);
  let log = Dir.encode d in
  let page = Storage.Page.of_string log in
  let links limit =
    Dir.page_links page ~limit (fun name ino ftype acc -> (name, ino, ftype) :: acc) []
    |> List.rev
  in
  let both = [ ("a", 2, Inode.Regular); ("cc", 4, Inode.Directory) ] in
  check Alcotest.int "padded to a page" Storage.Page.size (String.length page);
  check Alcotest.bool "the whole page" true (links Storage.Page.size = both);
  check Alcotest.bool "a limit at the log's end" true (links (String.length log) = both);
  check Alcotest.bool "a limit cutting the last record" true
    (links (String.length log - 1) = [ ("a", 2, Inode.Regular) ]);
  check Alcotest.bool "a limit before any record ends" true (links 1 = [])

(* ---- mailboxes ---- *)

let test_mbox_insert_delete () =
  let m = Mbox.empty () in
  Mbox.insert m ~id:"0.1" ~stamp:1.0 ~from:"alice" ~body:"hi";
  Mbox.insert m ~id:"0.2" ~stamp:2.0 ~from:"bob" ~body:"yo";
  check Alcotest.int "two live" 2 (Mbox.cardinal m);
  check Alcotest.bool "delete" true (Mbox.delete m ~id:"0.1" ~stamp:3.0);
  check Alcotest.int "one live" 1 (Mbox.cardinal m);
  check Alcotest.bool "mem" false (Mbox.mem m "0.1");
  check Alcotest.bool "double delete" false (Mbox.delete m ~id:"0.1" ~stamp:4.0)

let test_mbox_codec_roundtrip () =
  let m = Mbox.empty () in
  Mbox.insert m ~id:"1.1" ~stamp:1.0 ~from:"a" ~body:"first";
  Mbox.insert m ~id:"2.9" ~stamp:2.0 ~from:"b" ~body:"second";
  ignore (Mbox.delete m ~id:"1.1" ~stamp:3.0);
  let m' = Mbox.decode (Mbox.encode m) in
  check Alcotest.bool "roundtrip" true (Mbox.equal m m')

let test_mbox_merge_union_and_deletes () =
  (* Section 4.5: divergent mailboxes always merge cleanly — inserts and
     deletes only, ids never collide. *)
  let base = Mbox.empty () in
  Mbox.insert base ~id:"0.1" ~stamp:1.0 ~from:"x" ~body:"shared";
  let a = Mbox.decode (Mbox.encode base) in
  let b = Mbox.decode (Mbox.encode base) in
  Mbox.insert a ~id:"1.1" ~stamp:2.0 ~from:"left" ~body:"in A";
  ignore (Mbox.delete a ~id:"0.1" ~stamp:2.5);
  Mbox.insert b ~id:"2.1" ~stamp:2.0 ~from:"right" ~body:"in B";
  let m = Mbox.merge a b in
  check Alcotest.bool "A's insert present" true (Mbox.mem m "1.1");
  check Alcotest.bool "B's insert present" true (Mbox.mem m "2.1");
  check Alcotest.bool "delete wins" false (Mbox.mem m "0.1");
  (* Merge laws. *)
  check Alcotest.bool "commutative" true (Mbox.equal (Mbox.merge a b) (Mbox.merge b a));
  check Alcotest.bool "idempotent" true (Mbox.equal (Mbox.merge a a) a)

(* ---- mount table ---- *)

let test_mount_basics () =
  let m = Mount.create ~root_fg:0 in
  check Alcotest.bool "root" true
    (Gfile.equal (Mount.root m) (Gfile.make ~fg:0 ~ino:1));
  let point = Gfile.make ~fg:0 ~ino:42 in
  Mount.add m ~mount_point:point ~child_fg:1;
  check Alcotest.(option int) "mounted_at" (Some 1) (Mount.mounted_at m point);
  check Alcotest.(option int) "not a mount point" None
    (Mount.mounted_at m (Gfile.make ~fg:0 ~ino:43));
  (match Mount.mount_point_of m 1 with
  | Some p -> check Alcotest.bool "reverse lookup" true (Gfile.equal p point)
  | None -> Alcotest.fail "reverse lookup failed");
  check Alcotest.(option Alcotest.reject) "root has no mount point" None
    (Mount.mount_point_of m 0 |> Option.map (fun _ -> ()))

let test_mount_rejects_duplicates () =
  let m = Mount.create ~root_fg:0 in
  let point = Gfile.make ~fg:0 ~ino:5 in
  Mount.add m ~mount_point:point ~child_fg:1;
  (match Mount.add m ~mount_point:point ~child_fg:2 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate mount point accepted");
  match Mount.add m ~mount_point:(Gfile.make ~fg:0 ~ino:6) ~child_fg:1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double mount of same fg accepted"

let () =
  Alcotest.run "catalog"
    [
      ("gfile", [ Alcotest.test_case "compare/pp" `Quick test_gfile_compare ]);
      ( "dir",
        [
          Alcotest.test_case "insert/lookup" `Quick test_dir_insert_lookup;
          Alcotest.test_case "tombstones" `Quick test_dir_remove_leaves_tombstone;
          Alcotest.test_case "resurrect" `Quick test_dir_resurrect;
          Alcotest.test_case "invalid names" `Quick test_dir_invalid_names;
          Alcotest.test_case "name bound" `Quick test_dir_name_bound;
          Alcotest.test_case "conflict name fits" `Quick test_dir_conflict_name_fits;
          Alcotest.test_case "origin bound" `Quick test_dir_origin_bound;
          Alcotest.test_case "codec roundtrip" `Quick test_dir_codec_roundtrip;
          Alcotest.test_case "codec keeps each entry's type" `Quick test_dir_codec_types;
          Alcotest.test_case "decode refuses a bad status byte" `Quick
            test_dir_decode_bad_status;
          Alcotest.test_case "hard links" `Quick test_dir_hard_links;
          Alcotest.test_case "one page's links" `Quick test_dir_page_links;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "insert/delete" `Quick test_mbox_insert_delete;
          Alcotest.test_case "codec roundtrip" `Quick test_mbox_codec_roundtrip;
          Alcotest.test_case "merge" `Quick test_mbox_merge_union_and_deletes;
        ] );
      ( "mount",
        [
          Alcotest.test_case "basics" `Quick test_mount_basics;
          Alcotest.test_case "duplicates rejected" `Quick test_mount_rejects_duplicates;
        ] );
    ]
