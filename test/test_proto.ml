(* Unit tests of the protocol vocabulary: the wire-size model and tags.
   The size model drives latency charging and byte accounting, so it must
   be positive, monotone in payload size, and account for every field that
   scales. *)

module Gfile = Catalog.Gfile
module Vvec = Vv.Version_vector

let check = Alcotest.check

let gf = Gfile.make ~fg:0 ~ino:7

let vv_small = Vvec.bump Vvec.zero 1

let vv_big = List.fold_left Vvec.bump Vvec.zero [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let some_reqs =
  [
    Proto.Open_req { gf; mode = Proto.Mode_read; us_vv = None; shared = false; want = 0 };
    Proto.Storage_req
      { gf; vv = vv_small; us = 1; mode = Proto.Mode_read; others = [ 2; 3 ] };
    Proto.Read_pages
      { gf; first = 0; count = 1; guess = 0; stride = 1; committed = false; stat = false };
    Proto.Write_pages { gf; trunc = None; first = 0; off = 0; data = String.make 1024 'x' };
    Proto.Write_pages { gf; trunc = Some 0; first = 0; off = 0; data = "" };
    Proto.Commit_req { gf; us = 0; abort = false; delete = false; force_vv = None; stripes = [] };
    Proto.Us_close { gf; mode = Proto.Mode_read };
    Proto.Ss_close { gf; ss = 0; us = 1; mode = Proto.Mode_read };
    Proto.Commit_notify
      {
        gf;
        vv = vv_small;
        meta_only = false;
        modified = [ 0; 1 ];
        origin = 0;
        fresh = true;
        deleted = false;
        designate = false;
        replicas = [];
      };
    Proto.Dir_intent
      {
        dir = gf;
        op =
          Proto.Create
            { name = "entry"; ftype = Storage.Inode.Regular; owner = "u"; perms = 0o644;
              ncopies = 2; ino = None };
      };
    Proto.Dir_intent { dir = gf; op = Proto.Unlink { name = "entry"; links = true } };
    Proto.Intent_step
      {
        us = 2;
        step =
          Proto.Step_dir
            { dir = gf; op = Proto.Link { name = "entry"; ino = 7; links = true };
              others = [ 1 ]; refuse = []; stale = [ 7 ] };
      };
    Proto.Intent_step { us = 2; step = Proto.Step_link { gf; delta = -1 } };
    Proto.Reclaim_req { gf };
    Proto.Page_invalidate { gf; first = 3; count = 1 };
    Proto.Set_attr { gf; perms = Some 0o600; owner = None };
    Proto.Stat_req { gf };
    Proto.Where_stored { gf };
    Proto.Token_req { key = Proto.Tok_fd (0, 1); for_site = 2 };
    Proto.Token_state_req { key = Proto.Tok_fd (0, 1) };
    Proto.Signal_req { pid = 1; signo = 9 };
    Proto.Exit_notify { pid = 1; status = 0; child_site = 2 };
    Proto.Part_poll { initiator = 0; pset = [ 0; 1 ] };
    Proto.Part_announce { active = 0; members = [ 0; 1 ] };
    Proto.Merge_poll { initiator = 0 };
    Proto.Merge_announce { members = [ 0; 1 ]; css_map = [ (0, 0) ] };
    Proto.Status_check { asker = 0 };
    Proto.Open_files_query { fg = 0 };
    Proto.Pack_inventory { fg = 0 };
    Proto.Pipe_write { gf; data = "abc" };
    Proto.Pipe_read { gf; max = 10 };
  ]

let test_sizes_positive () =
  List.iter
    (fun req ->
      let n = Proto.req_bytes req in
      if n <= 0 then Alcotest.failf "non-positive size for %s" (Proto.req_tag req))
    some_reqs

let test_tags_nonempty_and_distinctive () =
  let tags = List.map Proto.req_tag some_reqs in
  List.iter (fun t -> if t = "" then Alcotest.fail "empty tag") tags;
  check Alcotest.bool "plenty of distinct tags" true
    (List.length (List.sort_uniq compare tags) > 20)

let test_payload_monotone () =
  let size data =
    Proto.req_bytes (Proto.Write_pages { gf; trunc = None; first = 0; off = 0; data })
  in
  check Alcotest.bool "write grows with data" true (size (String.make 1024 'x') > size "x");
  let vv_size v =
    Proto.req_bytes
      (Proto.Storage_req { gf; vv = v; us = 1; mode = Proto.Mode_read; others = [] })
  in
  check Alcotest.bool "vv grows with components" true (vv_size vv_big > vv_size vv_small);
  let fork_size pages =
    Proto.req_bytes
      (Proto.Fork_req
         {
           child_pid = 1;
           env =
             { Proto.e_uid = "u"; e_cwd = gf; e_context = []; e_ncopies = 1; e_fds = [] };
           image_pages = pages;
           parent = (0, 0);
         })
  in
  (* Fork ships the image: size scales with pages. *)
  check Alcotest.bool "fork ships image" true
    (fork_size 64 - fork_size 1 >= 63 * 1024)

let info =
  {
    Proto.i_ftype = Storage.Inode.Regular;
    i_size = 0;
    i_nlink = 1;
    i_owner = "someone";
    i_perms = 0o644;
    i_mtime = 0.0;
    i_vv = vv_small;
    i_deleted = false;
    i_stripes = [];
  }

let test_resp_sizes () =
  List.iter
    (fun resp ->
      if Proto.resp_bytes resp <= 0 then Alcotest.fail "non-positive response size")
    [
      Proto.R_ok;
      Proto.R_err Proto.Enoent;
      Proto.R_open
        { ss = 0; info; others = []; nocache = false; slot = 1; lease = false;
          registered = true; pages = [] };
      Proto.R_storage { accept = true; info = Some info; slot = 1 };
      Proto.R_pages { pages = [ String.make 512 'd' ]; eof = true; info = None };
      Proto.R_committed { vv = vv_small };
      Proto.R_stat { info = Some info; stored_here = true };
      Proto.R_where { sites = [ 0 ]; all_sites = [ 0; 1 ]; vv = vv_small };
      Proto.R_token { granted = true; state = "17" };
      Proto.R_pset { pset = [ 0; 1; 2 ] };
      Proto.R_inventory { files = [ (2, vv_small, false) ] };
      Proto.R_data { data = "x" };
      Proto.R_entry { ino = 7 };
      Proto.R_intent { ino = 7; dir_vv = vv_small; file = Some (vv_small, true) };
      Proto.R_linked { vv = vv_small; deleted = false };
    ];
  check Alcotest.bool "page response dominated by data" true
    (Proto.resp_bytes (Proto.R_pages { pages = [ String.make 1024 'd' ]; eof = false; info = None })
     > 1024)

(* One read message and one write message carry every page. Their
   one-page forms cost exactly what the paper's one-page read, reply and
   write did (a 24-byte header, an 8-byte file name, then the fields),
   and their multi-page forms what the batched messages always cost: no
   simulated number moves because the one-page messages went away. *)
let test_one_page_forms () =
  let page = String.make 1024 'p' in
  let read ~count ~stride =
    Proto.req_bytes
      (Proto.Read_pages
         { gf; first = 3; count; guess = 0; stride; committed = false; stat = false })
  in
  let reply pages = Proto.resp_bytes (Proto.R_pages { pages; eof = false; info = None }) in
  let write ~off data = Proto.req_bytes (Proto.Write_pages { gf; trunc = None; first = 3; off; data }) in
  (* One page: header + file + 8, header + 1 + data, header + file + 9 + data. *)
  check Alcotest.int "one-page request" 40 (read ~count:1 ~stride:1);
  check Alcotest.int "one-page reply" (25 + 1024) (reply [ page ]);
  check Alcotest.int "short one-page reply" (25 + 100) (reply [ String.sub page 0 100 ]);
  check Alcotest.int "past-eof reply" 25 (reply []);
  check Alcotest.int "whole-page write" (41 + 1024) (write ~off:0 page);
  check Alcotest.int "patch write" (41 + 24) (write ~off:1000 (String.sub page 0 24));
  (* Two pages: a count, a length frame per page, a run header. *)
  check Alcotest.int "two-page request" 44 (read ~count:2 ~stride:1);
  check Alcotest.int "two-page strided request" 46 (read ~count:2 ~stride:4);
  check Alcotest.int "one-page strided request" 42 (read ~count:1 ~stride:4);
  check Alcotest.int "two-page reply" (25 + (2 * (2 + 1024))) (reply [ page; page ]);
  check Alcotest.int "two-page write" (44 + 2048) (write ~off:0 (page ^ page));
  check Alcotest.int "write crossing a page" (44 + 48) (write ~off:1000 (String.sub page 0 48));
  (* A background read's flags cost one byte together, and a reply pays
     for an inode what a stat reply does, only when it carries one. *)
  let background ~count ~committed ~stat =
    Proto.req_bytes
      (Proto.Read_pages { gf; first = 0; count; guess = 0; stride = 1; committed; stat })
  in
  check Alcotest.int "committed one-page request" 41
    (background ~count:1 ~committed:true ~stat:false);
  check Alcotest.int "stat window request" 45 (background ~count:8 ~committed:true ~stat:true);
  check Alcotest.int "stat-only request" 45 (background ~count:0 ~committed:false ~stat:true);
  check Alcotest.int "inode-only reply"
    (Proto.resp_bytes (Proto.R_stat { info = Some info; stored_here = true }))
    (Proto.resp_bytes (Proto.R_pages { pages = []; eof = true; info = Some info }));
  check Alcotest.int "one page and an inode"
    (reply [ page ] + Proto.resp_bytes (Proto.R_stat { info = Some info; stored_here = true }) - 25)
    (Proto.resp_bytes (Proto.R_pages { pages = [ page ]; eof = false; info = Some info }))

(* The fused forms: a truncate alone costs and is tagged what the
   separate truncate message was (header + file + size), a run pays 4
   bytes for a truncate only when it carries one, and a one-page
   invalidation keeps its size while a ranged one adds a count. *)
let test_fused_forms () =
  let write ?trunc data = Proto.Write_pages { gf; trunc; first = 0; off = 0; data } in
  let page = String.make 1024 'p' in
  check Alcotest.int "truncate alone" 36 (Proto.req_bytes (write ~trunc:0 ""));
  check Alcotest.string "truncate tag" "truncate" (Proto.req_tag (write ~trunc:0 ""));
  check Alcotest.int "truncate riding a run"
    (Proto.req_bytes (write page) + 4)
    (Proto.req_bytes (write ~trunc:0 page));
  check Alcotest.string "run tag" "write" (Proto.req_tag (write ~trunc:0 page));
  let inval count = Proto.req_bytes (Proto.Page_invalidate { gf; first = 2; count }) in
  check Alcotest.int "one-page invalidation" 36 (inval 1);
  check Alcotest.int "ranged invalidation" 40 (inval 8)

(* The open exchange: an open that asks for no pages and a reply that
   carries none cost exactly what the paper's open and reply did (header,
   file, two flag bytes and the US's version; header, five bytes, the
   inode and the other sites). Asking costs a 4-byte count, and carried
   pages are framed as in a [Read_pages] reply. *)
let test_open_forms () =
  let page = String.make 1024 'p' in
  let open_req ?us_vv want =
    Proto.req_bytes (Proto.Open_req { gf; mode = Proto.Mode_read; us_vv; shared = false; want })
  in
  let r_open ?(others = []) pages =
    Proto.resp_bytes
      (Proto.R_open
         { ss = 0; info; others; nocache = false; slot = 1; lease = true; registered = true;
           pages })
  in
  check Alcotest.int "paper open request" 34 (open_req 0);
  check Alcotest.int "paper open request with a copy" 42 (open_req ~us_vv:vv_small 0);
  check Alcotest.int "paper open reply" 84 (r_open []);
  check Alcotest.int "paper open reply naming others" 92 (r_open ~others:[ 1; 2 ] []);
  check Alcotest.int "asking open request" 38 (open_req 8);
  check Alcotest.int "open reply with a lone page" (84 + 1 + 1024) (r_open [ page ]);
  check Alcotest.int "open reply with a short page" (84 + 1 + 100)
    (r_open [ String.sub page 0 100 ]);
  check Alcotest.int "open reply with two pages" (84 + 1 + (2 * (2 + 1024)))
    (r_open [ page; page ]);
  let reply pages = Proto.resp_bytes (Proto.R_pages { pages; eof = false; info = None }) in
  check Alcotest.int "pages framed as a read reply"
    (reply [ page; page; page ] - 24)
    (r_open [ page; page; page ] - r_open [])

let test_errno_strings () =
  List.iter
    (fun e ->
      let s = Proto.errno_to_string e in
      if String.length s < 3 || s.[0] <> 'E' then
        Alcotest.failf "odd errno rendering %S" s)
    [
      Proto.Enoent; Proto.Enotdir; Proto.Eisdir; Proto.Eexist; Proto.Eaccess;
      Proto.Ebusy; Proto.Estale; Proto.Econflict; Proto.Enospc; Proto.Eio;
      Proto.Enet; Proto.Esrch; Proto.Edeadtoken; Proto.Einval;
    ]

let () =
  Alcotest.run "proto"
    [
      ( "wire-model",
        [
          Alcotest.test_case "sizes positive" `Quick test_sizes_positive;
          Alcotest.test_case "tags" `Quick test_tags_nonempty_and_distinctive;
          Alcotest.test_case "payload monotone" `Quick test_payload_monotone;
          Alcotest.test_case "response sizes" `Quick test_resp_sizes;
          Alcotest.test_case "one-page forms" `Quick test_one_page_forms;
          Alcotest.test_case "fused truncate and ranged invalidation" `Quick test_fused_forms;
          Alcotest.test_case "open forms" `Quick test_open_forms;
          Alcotest.test_case "errno strings" `Quick test_errno_strings;
        ] );
    ]
