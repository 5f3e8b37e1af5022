(* Remote process tests (section 3): fork/exec/run across sites, shared
   file descriptors with offset tokens, signals, exit status, and error
   reflection when a machine fails. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Process = Locus_core.Process
module Tokens = Locus_core.Tokens
module Css = Locus_core.Css
module K = Locus_core.Ktypes
module Stats = Sim.Stats

let check = Alcotest.check

let make_world ?(machine_type = fun _ -> "vax") () =
  let base = World.default_config ~n_sites:4 () in
  World.create ~config:{ base with World.machine_type } ()

let with_program w path body =
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 path);
  Kernel.write_file k0 p0 path body;
  ignore (World.settle w)

(* ---- fork ---- *)

let test_local_fork () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let pid, site = Process.fork k0 p0 in
  check Alcotest.int "child at local site" 0 site;
  let child = Process.get_proc k0 pid in
  check Alcotest.string "uid inherited" p0.K.p_uid child.K.p_uid;
  check Alcotest.bool "parent knows child" true (List.mem_assoc pid p0.K.p_children)

let test_remote_fork () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_advice p0 (Some 2);
  let pid, site = Process.fork k0 p0 in
  check Alcotest.int "child at advised site" 2 site;
  let k2 = World.kernel w 2 in
  let child = Process.get_proc k2 pid in
  check Alcotest.string "environment initialized" "root" child.K.p_uid;
  check Alcotest.bool "parent recorded" true (child.K.p_parent = Some (p0.K.pid, 0))

let test_remote_fork_ships_image () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  p0.K.p_image_pages <- 64;
  let snap = Stats.snapshot (World.stats w) in
  Kernel.set_advice p0 (Some 1);
  ignore (Process.fork k0 p0);
  let bytes = Stats.delta_of (World.stats w) snap "net.bytes" in
  check Alcotest.bool "fork shipped the 64-page image" true (bytes > 64 * 1024)

(* ---- exec / run ---- *)

let test_exec_local_reads_load_module () =
  let w = make_world () in
  with_program w "/prog" (String.make 2500 'p');
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Process.exec_local k0 p0 "/prog";
  check Alcotest.int "image sized from load module" 3 p0.K.p_image_pages

let test_run_remote () =
  let w = make_world () in
  with_program w "/prog" "binary bits";
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_advice p0 (Some 3);
  let pid, site = Process.run k0 p0 "/prog" in
  check Alcotest.int "runs at advised site" 3 site;
  let child = Process.get_proc (World.kernel w 3) pid in
  check Alcotest.bool "child running" true (child.K.p_status = K.Running);
  check Alcotest.bool "parent recorded child" true (List.mem_assoc pid p0.K.p_children)

(* Run avoids copying the parent image: cheaper on the wire than fork of a
   big parent (section 3.1). *)
let test_run_avoids_image_copy () =
  let w = make_world () in
  with_program w "/prog" "tiny";
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  p0.K.p_image_pages <- 128;
  Kernel.set_advice p0 (Some 1);
  let snap = Stats.snapshot (World.stats w) in
  ignore (Process.run k0 p0 "/prog");
  let run_bytes = Stats.delta_of (World.stats w) snap "net.bytes" in
  let snap2 = Stats.snapshot (World.stats w) in
  ignore (Process.fork k0 p0);
  let fork_bytes = Stats.delta_of (World.stats w) snap2 "net.bytes" in
  check Alcotest.bool "run much cheaper than fork" true (run_bytes * 4 < fork_bytes)

(* Heterogeneous cpus: run at a pdp11 site picks the pdp11 load module
   through the hidden directory, transparently (sections 2.4.1, 3.1). *)
let test_run_heterogeneous_load_module () =
  let w = make_world ~machine_type:(fun s -> if s = 3 then "pdp11" else "vax") () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/bin");
  ignore (Kernel.mkdir ~hidden:true k0 p0 "/bin/who");
  ignore (Kernel.creat k0 p0 "/bin/who/@vax");
  Kernel.write_file k0 p0 "/bin/who/@vax" (String.make 1100 'v');
  ignore (Kernel.creat k0 p0 "/bin/who/@pdp11");
  Kernel.write_file k0 p0 "/bin/who/@pdp11" "p";
  ignore (World.settle w);
  Kernel.set_advice p0 (Some 3);
  let pid, site = Process.run k0 p0 "/bin/who" in
  check Alcotest.int "at pdp11 site" 3 site;
  let child = Process.get_proc (World.kernel w 3) pid in
  check Alcotest.int "pdp11 module loaded" 1 child.K.p_image_pages;
  check Alcotest.(list string) "context follows machine" [ "pdp11" ]
    child.K.p_context

let test_run_environment_parameterization () =
  let w = make_world () in
  with_program w "/prog" "bits";
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_advice p0 (Some 2);
  let pid, site =
    Process.run ~uid:"builder" ~ncopies:4 ~context:[ "cross" ] k0 p0 "/prog"
  in
  let child = Process.get_proc (World.kernel w site) pid in
  check Alcotest.string "uid set up" "builder" child.K.p_uid;
  check Alcotest.int "ncopies set up" 4 child.K.p_ncopies;
  check Alcotest.(list string) "context override" [ "cross" ] child.K.p_context

(* The exec picks the destination's load module by its machine type; the
   caller's context replaces that type only after the exec. *)
let test_run_remote_context_after_exec () =
  let w = make_world ~machine_type:(fun s -> if s = 3 then "pdp11" else "vax") () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir ~hidden:true k0 p0 "/who");
  ignore (Kernel.creat k0 p0 "/who/@vax");
  Kernel.write_file k0 p0 "/who/@vax" (String.make 1100 'v');
  ignore (Kernel.creat k0 p0 "/who/@pdp11");
  Kernel.write_file k0 p0 "/who/@pdp11" "p";
  ignore (World.settle w);
  Kernel.set_advice p0 (Some 3);
  let pid, site = Process.run ~context:[ "vax" ] k0 p0 "/who" in
  check Alcotest.int "at pdp11 site" 3 site;
  let child = Process.get_proc (World.kernel w 3) pid in
  check Alcotest.int "pdp11 module loaded" 1 child.K.p_image_pages;
  check Alcotest.(list string) "override kept after the exec" [ "vax" ] child.K.p_context

(* A remote exec of a missing load module is refused at the destination,
   which keeps neither the process nor a reference to its descriptor;
   the process goes on at its own site. *)
let test_remote_exec_refused () =
  let w = make_world () in
  with_program w "/data" "0123456789";
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let pid, _ = Process.fork k0 p0 in
  let child = Process.get_proc k0 pid in
  let fd = Kernel.open_path k0 child "/data" Proto.Mode_read in
  let key = (Kernel.fd_of k0 child fd).K.f_key in
  Kernel.set_advice child (Some 2);
  (match Process.exec k0 child "/missing" with
  | _ -> Alcotest.fail "exec of a missing load module succeeded"
  | exception K.Error (Proto.Enoent, _) -> ());
  let k2 = World.kernel w 2 in
  check Alcotest.bool "no process at the destination" false (Hashtbl.mem k2.K.procs pid);
  check Alcotest.bool "no descriptor there" true (Tokens.find_fd k2 key = None);
  check Alcotest.int "the process stays" 0 (Process.get_proc k0 pid).K.p_site;
  check Alcotest.string "and reads its descriptor" "0123" (Kernel.read_fd k0 child fd ~len:4)

(* ---- shared descriptors and the offset token ---- *)

let test_shared_fd_offset_token () =
  let w = make_world () in
  with_program w "/data" "0123456789abcdef";
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let fd = Kernel.open_path k0 p0 "/data" Proto.Mode_read in
  check Alcotest.string "parent reads 4" "0123" (Kernel.read_fd k0 p0 fd ~len:4);
  Kernel.set_advice p0 (Some 2);
  let pid, _ = Process.fork k0 p0 in
  let k2 = World.kernel w 2 in
  let child = Process.get_proc k2 pid in
  (* The child's read continues where the parent stopped: the token moves
     the offset across machines. *)
  check Alcotest.string "child continues at offset 4" "4567"
    (Kernel.read_fd k2 child fd ~len:4);
  check Alcotest.string "parent continues at offset 8" "89ab"
    (Kernel.read_fd k0 p0 fd ~len:4);
  check Alcotest.bool "tokens flipped" true
    (Stats.get (World.stats w) "token.flip" >= 2)

let test_shared_fd_write_interleave () =
  let w = make_world () in
  with_program w "/log" "";
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let fd = Kernel.open_path k0 p0 "/log" Proto.Mode_modify in
  Kernel.write_fd k0 p0 fd "one ";
  Kernel.set_advice p0 (Some 1);
  let pid, _ = Process.fork k0 p0 in
  let k1 = World.kernel w 1 in
  let child = Process.get_proc k1 pid in
  Kernel.write_fd k1 child fd "two ";
  Kernel.write_fd k0 p0 fd "three";
  Kernel.commit_fd k0 p0 fd;
  Kernel.close_fd k0 p0 fd;
  Kernel.close_fd k1 child fd;
  ignore (World.settle w);
  check Alcotest.string "interleaved writes in order" "one two three"
    (Kernel.read_file k0 p0 "/log")

(* A local child shares its parent's descriptor: one offset, and the open
   lives until the last reference goes. *)
let test_local_fork_shares_descriptor () =
  let w = make_world () in
  with_program w "/data" "0123456789";
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let fd = Kernel.open_path k0 p0 "/data" Proto.Mode_read in
  let sfd = Kernel.fd_of k0 p0 fd in
  let o = Option.get sfd.K.f_ofile in
  let pid, _ = Process.fork k0 p0 in
  let child = Process.get_proc k0 pid in
  check Alcotest.string "child reads" "0123" (Kernel.read_fd k0 child fd ~len:4);
  check Alcotest.string "parent continues" "4567" (Kernel.read_fd k0 p0 fd ~len:4);
  Process.exit_proc k0 child 0;
  check Alcotest.bool "open outlives the child" false o.K.o_closed;
  Kernel.close_fd k0 p0 fd;
  check Alcotest.bool "the last close ends it" true o.K.o_closed;
  check Alcotest.bool "descriptor gone" true (Tokens.find_fd k0 sfd.K.f_key = None)

(* Two children forked to one site share that site's copy of the
   descriptor: the first exit leaves it, the second drops it. *)
let test_remote_copy_referenced_twice () =
  let w = make_world () in
  with_program w "/data" "0123456789";
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let fd = Kernel.open_path k0 p0 "/data" Proto.Mode_read in
  let key = (Kernel.fd_of k0 p0 fd).K.f_key in
  Kernel.set_advice p0 (Some 2);
  let k2 = World.kernel w 2 in
  let c1 = Process.get_proc k2 (fst (Process.fork k0 p0)) in
  let c2 = Process.get_proc k2 (fst (Process.fork k0 p0)) in
  check Alcotest.string "a child reads" "0123" (Kernel.read_fd k2 c1 fd ~len:4);
  Process.exit_proc k2 c1 0;
  check Alcotest.bool "the copy stays for the other child" true (Tokens.find_fd k2 key <> None);
  check Alcotest.string "which reads on" "4567" (Kernel.read_fd k2 c2 fd ~len:4);
  let o = Option.get (Kernel.fd_of k2 c2 fd).K.f_ofile in
  Process.exit_proc k2 c2 0;
  check Alcotest.bool "the last exit drops it" true (Tokens.find_fd k2 key = None);
  check Alcotest.bool "and closes its open" true o.K.o_closed

(* An exiting process drops the last reference to a dirty descriptor
   whose close fails: every attempt of the close's commit is lost. The
   open is released, so the write is aborted and neither an SS
   registration nor the CSS's writer outlives the descriptor. *)
let test_exit_releases_dirty_descriptor () =
  let config =
    {
      (World.default_config ~n_sites:3 ()) with
      World.filegroups = [ { World.fg = 0; pack_sites = [ 0 ]; mount_path = None } ];
    }
  in
  let w = World.create ~config () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let gf = Kernel.creat k0 p0 "/d" in
  Kernel.write_file k0 p0 "/d" "old!";
  ignore (World.settle w);
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  let pid, _ = Process.fork k1 p1 in
  let child = Process.get_proc k1 pid in
  let fd = Kernel.open_path k1 child "/d" Proto.Mode_modify in
  Kernel.write_fd k1 child fd "new!";
  let stats = World.stats w in
  let snap = Stats.snapshot stats in
  for _ = 1 to 3 do
    K.Transport.fail_next_message (World.net w) ~src:1 ~dst:0
  done;
  Process.exit_proc k1 child 0;
  ignore (World.settle w);
  check Alcotest.int "every attempt of the commit lost" 1 (Stats.delta_of stats snap "rpc.fail");
  check Alcotest.int "descriptor gone" 0 (Hashtbl.length k1.K.shared_fds);
  let served =
    match K.ss_find_open k0 gf with
    | Some s -> Net.Site.Map.mem 1 s.K.s_uss
    | None -> false
  in
  check Alcotest.bool "no SS registration" false served;
  check Alcotest.bool "no CSS writer" true
    ((Css.get_file k0 gf.Catalog.Gfile.fg gf.Catalog.Gfile.ino).K.writer = None);
  check Alcotest.string "the write aborted" "old!" (Kernel.read_file k1 p1 "/d")

(* A descriptor whose holder died with its site, and which no process
   here references (its process exec'd away to that site), is swept:
   its open is closed and the descriptor dropped. *)
let test_stranded_descriptor_closed () =
  let w = make_world () in
  with_program w "/prog" "bits";
  with_program w "/data" "0123456789";
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let pid, _ = Process.fork k0 p0 in
  let child = Process.get_proc k0 pid in
  let fd = Kernel.open_path k0 child "/data" Proto.Mode_read in
  let sfd = Kernel.fd_of k0 child fd in
  let o = Option.get sfd.K.f_ofile in
  Kernel.set_advice child (Some 2);
  check Alcotest.int "exec'd away" 2 (Process.exec k0 child "/prog");
  let k2 = World.kernel w 2 in
  ignore (Kernel.read_fd k2 (Process.get_proc k2 pid) fd ~len:4);
  check Alcotest.int "site 2 holds the token" 2 sfd.K.f_holder;
  World.crash_site w 2;
  ignore (World.detect_failures w ~initiator:0);
  check Alcotest.bool "descriptor dropped" true (Tokens.find_fd k0 sfd.K.f_key = None);
  check Alcotest.bool "its open closed" true o.K.o_closed;
  check Alcotest.bool "no longer open here" false (Hashtbl.mem k0.K.open_files o.K.o_serial)

(* ---- signals ---- *)

let test_cross_site_signal () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_advice p0 (Some 2);
  let pid, site = Process.fork k0 p0 in
  Process.signal k0 ~site ~pid 15;
  let child = Process.get_proc (World.kernel w 2) pid in
  check Alcotest.(list int) "signal delivered" [ 15 ] child.K.p_signals;
  match Process.signal k0 ~site:2 ~pid:999999 9 with
  | () -> Alcotest.fail "expected ESRCH"
  | exception K.Error (Proto.Esrch, _) -> ()

let test_exit_and_wait () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_advice p0 (Some 3);
  let pid, _site = Process.fork k0 p0 in
  let k3 = World.kernel w 3 in
  let child = Process.get_proc k3 pid in
  Process.exit_proc k3 child 42;
  ignore (World.settle w);
  (match Process.wait k0 p0 with
  | Some (wpid, status) ->
    check Alcotest.int "pid" pid wpid;
    check Alcotest.int "status" 42 status
  | None -> Alcotest.fail "expected zombie");
  check Alcotest.bool "sigchld" true (List.mem Process.sigchld p0.K.p_signals)

(* ---- error reflection on machine failure (section 3.3) ---- *)

let test_child_site_failure_reflected () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_advice p0 (Some 2);
  let pid, _ = Process.fork k0 p0 in
  World.crash_site w 2;
  ignore (World.detect_failures w ~initiator:0);
  check Alcotest.bool "error signal" true (List.mem Process.sigerr p0.K.p_signals);
  (match Process.read_error_info (World.kernel w 0) p0 with
  | Some info ->
    check Alcotest.bool "error info mentions child" true (String.length info > 0)
  | None -> Alcotest.fail "expected error info");
  check Alcotest.bool "child removed" false (List.mem_assoc pid p0.K.p_children)

let test_parent_site_failure_reflected () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_advice p0 (Some 2);
  let pid, _ = Process.fork k0 p0 in
  World.crash_site w 0;
  ignore (World.detect_failures w ~initiator:2);
  let child = Process.get_proc (World.kernel w 2) pid in
  check Alcotest.bool "child notified" true (List.mem Process.sigerr child.K.p_signals);
  check Alcotest.bool "parent link severed" true (child.K.p_parent = None)

let () =
  Alcotest.run "process"
    [
      ( "fork",
        [
          Alcotest.test_case "local" `Quick test_local_fork;
          Alcotest.test_case "remote" `Quick test_remote_fork;
          Alcotest.test_case "image shipped" `Quick test_remote_fork_ships_image;
        ] );
      ( "exec-run",
        [
          Alcotest.test_case "exec reads load module" `Quick
            test_exec_local_reads_load_module;
          Alcotest.test_case "run remote" `Quick test_run_remote;
          Alcotest.test_case "run avoids image copy" `Quick test_run_avoids_image_copy;
          Alcotest.test_case "heterogeneous load module" `Quick
            test_run_heterogeneous_load_module;
          Alcotest.test_case "run env parameterization" `Quick
            test_run_environment_parameterization;
          Alcotest.test_case "run context applies after the exec" `Quick
            test_run_remote_context_after_exec;
          Alcotest.test_case "remote exec refused" `Quick test_remote_exec_refused;
        ] );
      ( "shared-fds",
        [
          Alcotest.test_case "offset token" `Quick test_shared_fd_offset_token;
          Alcotest.test_case "write interleave" `Quick test_shared_fd_write_interleave;
          Alcotest.test_case "local fork shares the descriptor" `Quick
            test_local_fork_shares_descriptor;
          Alcotest.test_case "a remote copy referenced twice" `Quick
            test_remote_copy_referenced_twice;
          Alcotest.test_case "exit releases a dirty descriptor" `Quick
            test_exit_releases_dirty_descriptor;
          Alcotest.test_case "stranded descriptor closed" `Quick
            test_stranded_descriptor_closed;
        ] );
      ( "signals-exit",
        [
          Alcotest.test_case "cross-site signal" `Quick test_cross_site_signal;
          Alcotest.test_case "exit and wait" `Quick test_exit_and_wait;
        ] );
      ( "failure-reflection",
        [
          Alcotest.test_case "child site fails" `Quick test_child_site_failure_reflected;
          Alcotest.test_case "parent site fails" `Quick test_parent_site_failure_reflected;
        ] );
    ]
