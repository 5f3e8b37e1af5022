(* Dedicated token-protocol tests (section 3.2): manager bookkeeping,
   recall, failure reclaim, and single-valid-copy invariants. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Tokens = Locus_core.Tokens
module Process = Locus_core.Process
module Us = Locus_core.Us
module K = Locus_core.Ktypes

let check = Alcotest.check

let setup () =
  let w = World.create ~config:(World.default_config ~n_sites:3 ()) () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/t");
  Kernel.write_file k0 p0 "/t" "0123456789";
  ignore (World.settle w);
  (w, k0, p0)

let test_origin_holds_initially () =
  let _w, k0, p0 = setup () in
  let fdnum = Kernel.open_path k0 p0 "/t" Proto.Mode_read in
  let fd = Kernel.fd_of k0 p0 fdnum in
  check Alcotest.bool "valid at origin" true fd.K.f_valid;
  check Alcotest.int "holder is origin" 0 fd.K.f_holder;
  check Alcotest.int "manager is origin" 0 (Tokens.manager_of fd.K.f_key)

let test_token_moves_offset () =
  let w, k0, p0 = setup () in
  let fdnum = Kernel.open_path k0 p0 "/t" Proto.Mode_read in
  ignore (Kernel.read_fd k0 p0 fdnum ~len:3);
  Kernel.set_advice p0 (Some 2);
  let pid, _ = Process.fork k0 p0 in
  let k2 = World.kernel w 2 in
  let child = Process.get_proc k2 pid in
  let fd0 = Kernel.fd_of k0 p0 fdnum in
  let fd2 = Kernel.fd_of k2 child fdnum in
  check Alcotest.bool "remote copy not yet valid" false fd2.K.f_valid;
  ignore (Kernel.read_fd k2 child fdnum ~len:3);
  (* Exactly one valid copy at any time. *)
  check Alcotest.bool "remote now valid" true fd2.K.f_valid;
  check Alcotest.bool "origin invalidated" false fd0.K.f_valid;
  check Alcotest.int "offset travelled" 6 fd2.K.f_offset

let test_failure_reclaims_token () =
  let w, k0, p0 = setup () in
  let fdnum = Kernel.open_path k0 p0 "/t" Proto.Mode_read in
  ignore (Kernel.read_fd k0 p0 fdnum ~len:4);
  Kernel.set_advice p0 (Some 2);
  let pid, _ = Process.fork k0 p0 in
  let k2 = World.kernel w 2 in
  let child = Process.get_proc k2 pid in
  ignore (Kernel.read_fd k2 child fdnum ~len:2);
  (* The holder's site dies; the manager reclaims the token with its last
     known offset. *)
  World.crash_site w 2;
  ignore (World.detect_failures w ~initiator:0);
  let fd0 = Kernel.fd_of k0 p0 fdnum in
  check Alcotest.bool "token reclaimed by manager" true fd0.K.f_valid;
  (* The parent keeps working (offset reverts to the manager's record). *)
  let data = Kernel.read_fd k0 p0 fdnum ~len:2 in
  check Alcotest.int "read proceeds" 2 (String.length data)

let test_acquire_is_idempotent () =
  let w, k0, p0 = setup () in
  let fdnum = Kernel.open_path k0 p0 "/t" Proto.Mode_read in
  let fd = Kernel.fd_of k0 p0 fdnum in
  let snap = Sim.Stats.snapshot (World.stats w) in
  Tokens.acquire k0 fd;
  Tokens.acquire k0 fd;
  Tokens.acquire k0 fd;
  check Alcotest.int "no messages when already held" 0
    (Sim.Stats.delta_of (World.stats w) snap "net.msg")

let test_three_way_rotation () =
  let w, k0, p0 = setup () in
  let fdnum = Kernel.open_path k0 p0 "/t" Proto.Mode_read in
  Kernel.set_advice p0 (Some 1);
  let pid1, _ = Process.fork k0 p0 in
  Kernel.set_advice p0 (Some 2);
  let pid2, _ = Process.fork k0 p0 in
  let k1 = World.kernel w 1 and k2 = World.kernel w 2 in
  let c1 = Process.get_proc k1 pid1 and c2 = Process.get_proc k2 pid2 in
  (* Round-robin single-byte reads across three sites reconstruct the file
     in order: the token serializes the shared offset. *)
  let buf = Buffer.create 10 in
  for i = 0 to 8 do
    let s =
      match i mod 3 with
      | 0 -> Kernel.read_fd k0 p0 fdnum ~len:1
      | 1 -> Kernel.read_fd k1 c1 fdnum ~len:1
      | _ -> Kernel.read_fd k2 c2 fdnum ~len:1
    in
    Buffer.add_string buf s
  done;
  check Alcotest.string "global order preserved" "012345678" (Buffer.contents buf)

(* A writer's open caches its own pages under a key private to it. Once
   its descriptor is shared with another site, the holders there write
   and abort the same SS session behind its back, so the original open
   must read their bytes, not its own stale copies. The writer sits at a
   site with no pack, so its reads are remote and cacheable. *)
let test_shared_writer_reads_other_holders () =
  let config =
    {
      (World.default_config ~n_sites:3 ()) with
      World.filegroups = [ { World.fg = 0; pack_sites = [ 0 ]; mount_path = None } ];
    }
  in
  let w = World.create ~config () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let body = String.make (2 * Storage.Page.size) 'a' in
  ignore (Kernel.creat k0 p0 "/w");
  Kernel.write_file k0 p0 "/w" body;
  ignore (World.settle w);
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  let k2 = World.kernel w 2 in
  let fdnum = Kernel.open_path k1 p1 "/w" Proto.Mode_modify in
  let read_at0 () =
    Kernel.lseek k1 p1 fdnum 0;
    Kernel.read_fd k1 p1 fdnum ~len:8
  in
  check Alcotest.string "parent reads the file" "aaaaaaaa" (read_at0 ());
  Kernel.set_advice p1 (Some 2);
  let pid, _ = Process.fork k1 p1 in
  let child = Process.get_proc k2 pid in
  Kernel.lseek k2 child fdnum 0;
  Kernel.write_fd k2 child fdnum "child!!!";
  check Alcotest.string "parent sees the child's write" "child!!!" (read_at0 ());
  Kernel.abort_fd k2 child fdnum;
  check Alcotest.string "parent sees the child's abort" "aaaaaaaa" (read_at0 ())

let () =
  Alcotest.run "tokens"
    [
      ( "protocol",
        [
          Alcotest.test_case "origin holds" `Quick test_origin_holds_initially;
          Alcotest.test_case "offset moves" `Quick test_token_moves_offset;
          Alcotest.test_case "failure reclaim" `Quick test_failure_reclaims_token;
          Alcotest.test_case "idempotent acquire" `Quick test_acquire_is_idempotent;
          Alcotest.test_case "three-way rotation" `Quick test_three_way_rotation;
          Alcotest.test_case "shared writer reads other holders' bytes" `Quick
            test_shared_writer_reads_other_holders;
        ] );
    ]
