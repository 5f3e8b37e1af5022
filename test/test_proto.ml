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

(* A request of any reply type. *)
type any_req = Any : 'a Proto.req -> any_req

(* A request and a reply to it. *)
type exchange = Exchange : 'a Proto.req * 'a -> exchange

let read_req =
  Proto.Read_pages { gf; first = 0; count = 1; guess = 0; committed = false; stat = false; vv = None }

let paper_open =
  Proto.Open_req { gf; mode = Proto.Mode_read; us_vv = None; shared = false; want = 0; release = None }

let env = { Proto.e_uid = "u"; e_cwd = gf; e_context = []; e_ncopies = 1; e_fds = [] }

let some_reqs =
  [
    Any (Proto.Open_req
        { gf; mode = Proto.Mode_read; us_vv = None; shared = false; want = 0; release = None });
    Any (Proto.Storage_req
        { gf; vv = vv_small; us = 1; mode = Proto.Mode_read; others = [ 2; 3 ] });
    Any (Proto.Read_pages
        { gf; first = 0; count = 1; guess = 0; committed = false; stat = false; vv = None });
    Any (Proto.Write_pages
        { gf; trunc = None; first = 0; off = 0; data = String.make 1024 'x'; pos = 0; len = 1024 });
    Any (Proto.Write_pages { gf; trunc = Some 0; first = 0; off = 0; data = ""; pos = 0; len = 0 });
    Any (Proto.Commit_req { gf; abort = false; delete = false; force_vv = None; run = None });
    Any (Proto.Us_close { gf; mode = Proto.Mode_read; grant = 0; released = false });
    Any (Proto.Ss_close { gf; us = 1; mode = Proto.Mode_read; grant = 0 });
    Any (Proto.Commit_notify
        {
          gf;
          vv = vv_small;
          meta_only = false;
          modified = [ 0; 1 ];
          origin = 0;
          fresh = true;
          deleted = false;
          designate = false;
          carried = None;
        });
    Any (Proto.Dir_intent
        {
          dir = gf;
          op =
            Proto.Create
              { name = "entry"; ftype = Storage.Inode.Regular; owner = "u"; perms = 0o644;
                ncopies = 2; ino = None };
        });
    Any (Proto.Dir_intent { dir = gf; op = Proto.Unlink { name = "entry"; links = true } });
    Any (Proto.Intent_step
        {
          us = 2;
          step =
            Proto.Step_dir
              {
                dir = gf;
                op =
                  Proto.Link { name = "entry"; ino = 7; ftype = Storage.Inode.Regular; links = true };
                others = [ 1 ];
                refuse = [];
                stale = [ 7 ];
              };
        });
    Any (Proto.Intent_step { us = 2; step = Proto.Step_link { gf; delta = -1 } });
    Any (Proto.Reclaim_req { gf });
    Any (Proto.Page_invalidate { gf; first = 3; count = 1 });
    Any (Proto.Set_attr { gf; perms = Some 0o600; owner = None });
    Any (Proto.Where_stored { gf; stat = false });
    Any (Proto.Token_req { key = Proto.Tok_fd (0, 1); for_site = 2 });
    Any (Proto.Token_state_req { key = Proto.Tok_fd (0, 1) });
    Any (Proto.Fork_req { child_pid = 1; env; image_pages = 1; parent = (0, 0) });
    Any (Proto.Exec_req { pid = 1; path = "/bin/cc"; env; parent = (0, 0) });
    Any (Proto.Run_req
        { child_pid = 1; path = "/bin/cc"; env; parent = (0, 0); context_override = None });
    Any (Proto.Signal_req { pid = 1; signo = 9 });
    Any (Proto.Exit_notify { pid = 1; status = 0 });
    Any (Proto.Part_poll);
    Any (Proto.Part_announce { members = [ 0; 1 ] });
    Any (Proto.Merge_poll { initiator = 0 });
    Any (Proto.Merge_announce { members = [ 0; 1 ] });
    Any (Proto.Status_check);
    Any (Proto.Open_files_query { fg = 0 });
    Any (Proto.Pack_inventory { fg = 0 });
    Any (Proto.Pipe_write { gf; data = "abc" });
    Any (Proto.Pipe_read { gf; max = 10 });
  ]

let test_sizes_positive () =
  List.iter
    (fun (Any req) ->
      let n = Proto.req_bytes req in
      if n <= 0 then Alcotest.failf "non-positive size for %s" (Proto.tag_name req))
    some_reqs

let test_tags_nonempty_and_distinctive () =
  let tags = List.map (fun (Any req) -> Proto.tag_name req) some_reqs in
  List.iter (fun t -> if t = "" then Alcotest.fail "empty tag") tags;
  (* A tag is an index: 34 classes, a read and a write carrying two each. *)
  check Alcotest.int "34 message classes" 34 (Array.length Proto.tag_names);
  check Alcotest.int "every class named once" 34
    (List.length (List.sort_uniq compare (Array.to_list Proto.tag_names)));
  check Alcotest.bool "plenty of distinct tags" true
    (List.length (List.sort_uniq compare tags) > 20)

let test_payload_monotone () =
  let size data =
    Proto.req_bytes
      (Proto.Write_pages
         { gf; trunc = None; first = 0; off = 0; data; pos = 0; len = String.length data })
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
           env;
           image_pages = pages;
           parent = (0, 0);
         })
  in
  (* Fork ships the image: size scales with pages. *)
  check Alcotest.bool "fork ships image" true
    (fork_size 64 - fork_size 1 >= 63 * 1024);
  (* Exec and run ship the same fields but the override: no image. *)
  check Alcotest.int "exec priced as a run without an override"
    (Proto.req_bytes
       (Proto.Run_req
          { child_pid = 1; path = "/bin/cc"; env; parent = (0, 0); context_override = None }))
    (Proto.req_bytes (Proto.Exec_req { pid = 1; path = "/bin/cc"; env; parent = (0, 0) }))

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
  }

let test_resp_sizes () =
  if Proto.refused_bytes <= 0 then Alcotest.fail "non-positive refusal size";
  List.iter
    (fun (Exchange (req, reply)) ->
      if Proto.resp_bytes req reply <= 0 then Alcotest.fail "non-positive response size")
    [
      Exchange (Proto.Reclaim_req { gf }, ());
      Exchange
        ( paper_open,
          { ss = 0; info = Some info; others = []; nocache = false; slot = 1; lease = 0;
            pages = [] } );
      Exchange
        ( Proto.Storage_req { gf; vv = vv_small; us = 1; mode = Proto.Mode_read; others = [] },
          Some (info, 1) );
      Exchange (read_req, { pages = [ String.make 512 'd' ]; eof = true; info = None });
      Exchange
        (Proto.Commit_req { gf; abort = false; delete = false; force_vv = None; run = None }, vv_small);
      Exchange (Proto.Where_stored { gf; stat = false }, { sites = [ 0 ]; info = None });
      Exchange (Proto.Token_req { key = Proto.Tok_fd (0, 1); for_site = 2 }, "17");
      Exchange (Proto.Part_poll, [ 0; 1; 2 ]);
      Exchange (Proto.Pack_inventory { fg = 0 }, [ (2, vv_small, Storage.Inode.Regular, false) ]);
      Exchange (Proto.Pipe_read { gf; max = 10 }, "x");
      Exchange
        ( Proto.Dir_intent { dir = gf; op = Proto.Unlink { name = "entry"; links = true } },
          { ino = 7; ftype = Storage.Inode.Regular; dir_vv = vv_small; file = Some (vv_small, true);
            mtime = None } );
      Exchange (Proto.Intent_step { us = 2; step = Proto.Step_link { gf; delta = -1 } }, (vv_small, false));
    ];
  check Alcotest.bool "page response dominated by data" true
    (Proto.resp_bytes read_req { pages = [ String.make 1024 'd' ]; eof = false; info = None }
     > 1024);
  (* A where reply names the sites holding the latest version: the
     header and 4 bytes per site. A stat query costs one flag byte more,
     and its reply the inode when the CSS answers it. *)
  let where info = Proto.resp_bytes (Proto.Where_stored { gf; stat = true }) { sites = [ 0; 1 ]; info } in
  check Alcotest.int "where reply" (24 + 8) (where None);
  check Alcotest.int "where reply with the inode" (24 + 8 + 55)
    (where (Some info));
  let query stat = Proto.req_bytes (Proto.Where_stored { gf; stat }) in
  check Alcotest.int "where query" (24 + 8) (query false);
  check Alcotest.int "where query asking for a stat" (24 + 8 + 1) (query true)

(* One read message and one write message carry every page. Their
   one-page forms cost exactly what the paper's one-page read, reply and
   write did (a 24-byte header, an 8-byte file name, then the fields),
   and their multi-page forms what the batched messages always cost: no
   simulated number moves because the one-page messages went away. *)
let test_one_page_forms () =
  let page = String.make 1024 'p' in
  let read ~count =
    Proto.req_bytes
      (Proto.Read_pages { gf; first = 3; count; guess = 0; committed = false; stat = false; vv = None })
  in
  let reply pages = Proto.resp_bytes read_req { pages; eof = false; info = None } in
  let write ~off data =
    Proto.req_bytes
      (Proto.Write_pages
         { gf; trunc = None; first = 3; off; data; pos = 0; len = String.length data })
  in
  (* One page: header + file + 8, header + 1 + data, header + file + 9 + data. *)
  check Alcotest.int "one-page request" 40 (read ~count:1);
  check Alcotest.int "one-page reply" (25 + 1024) (reply [ page ]);
  check Alcotest.int "short one-page reply" (25 + 100) (reply [ String.sub page 0 100 ]);
  check Alcotest.int "past-eof reply" 25 (reply []);
  check Alcotest.int "whole-page write" (41 + 1024) (write ~off:0 page);
  check Alcotest.int "patch write" (41 + 24) (write ~off:1000 (String.sub page 0 24));
  (* Two pages: a count, a length frame per page, a run header. *)
  check Alcotest.int "two-page request" 44 (read ~count:2);
  check Alcotest.int "two-page reply" (25 + (2 * (2 + 1024))) (reply [ page; page ]);
  check Alcotest.int "two-page write" (44 + 2048) (write ~off:0 (page ^ page));
  check Alcotest.int "write crossing a page" (44 + 48) (write ~off:1000 (String.sub page 0 48));
  (* A background read's flags cost one byte together, and a reply pays
     for an inode (55 bytes here) only when it carries one. A stat is the
     count-0 read: the header and the file, as the separate stat request
     cost, and its reply the header, the empty batch's byte and the inode,
     as the separate stat reply did. *)
  let background ~count ~committed ~stat =
    Proto.req_bytes
      (Proto.Read_pages { gf; first = 0; count; guess = 0; committed; stat; vv = None })
  in
  check Alcotest.int "committed one-page request" 41
    (background ~count:1 ~committed:true ~stat:false);
  check Alcotest.int "stat window request" 45 (background ~count:8 ~committed:true ~stat:true);
  check Alcotest.int "stat request" 32 (background ~count:0 ~committed:false ~stat:true);
  check Alcotest.int "committed stat request" 32 (background ~count:0 ~committed:true ~stat:true);
  check Alcotest.string "stat tag" "stat"
    (Proto.tag_name
       (Proto.Read_pages { gf; first = 0; count = 0; guess = 0; committed = true; stat = true; vv = None }));
  check Alcotest.int "inode-only reply" (25 + 55)
    (Proto.resp_bytes read_req { pages = []; eof = true; info = Some info });
  check Alcotest.int "one page and an inode"
    (reply [ page ] + 55)
    (Proto.resp_bytes read_req { pages = [ page ]; eof = false; info = Some info })

(* The fused forms: a truncate alone costs and is tagged what the
   separate truncate message was (header + file + size), a run pays 4
   bytes for a truncate only when it carries one, and a one-page
   invalidation keeps its size while a ranged one adds a count. *)
let test_fused_forms () =
  let write ?trunc data =
    Proto.Write_pages { gf; trunc; first = 0; off = 0; data; pos = 0; len = String.length data }
  in
  let page = String.make 1024 'p' in
  check Alcotest.int "truncate alone" 36 (Proto.req_bytes (write ~trunc:0 ""));
  check Alcotest.string "truncate tag" "truncate" (Proto.tag_name (write ~trunc:0 ""));
  check Alcotest.int "truncate riding a run"
    (Proto.req_bytes (write page) + 4)
    (Proto.req_bytes (write ~trunc:0 page));
  check Alcotest.string "run tag" "write" (Proto.tag_name (write ~trunc:0 page));
  (* A window of a larger body is priced and tagged as a run of its own
     bytes: the rest of the body does not travel. *)
  let window ?trunc len =
    Proto.Write_pages
      { gf; trunc; first = 0; off = 0; data = page ^ page; pos = String.length page; len }
  in
  check Alcotest.int "window priced by its bytes" (Proto.req_bytes (write page))
    (Proto.req_bytes (window 1024));
  check Alcotest.string "empty window with a truncate" "truncate"
    (Proto.tag_name (window ~trunc:0 0));
  let inval count = Proto.req_bytes (Proto.Page_invalidate { gf; first = 2; count }) in
  check Alcotest.int "one-page invalidation" 36 (inval 1);
  check Alcotest.int "ranged invalidation" 40 (inval 8)

(* The commit request: one that carries no run costs the header, the
   file and its flag byte; the transport names the using site. A run is
   sized exactly as a [Write_pages] body: a page number, offset and flag
   within one page, a run header across several, 4 bytes for a truncate,
   and a truncate alone just the size. *)
let test_commit_forms () =
  let commit ?force_vv run =
    Proto.req_bytes
      (Proto.Commit_req { gf; abort = false; delete = false; force_vv; run })
  in
  let run ?trunc ?(first = 0) ?(off = 0) data =
    Some { Proto.run_trunc = trunc; run_first = first; run_off = off; run_data = data }
  in
  let write ?trunc ?(first = 0) ?(off = 0) data =
    Proto.req_bytes
      (Proto.Write_pages { gf; trunc; first; off; data; pos = 0; len = String.length data })
  in
  let page = String.make 1024 'p' in
  let eight = String.make (8 * 1024) 'p' in
  check Alcotest.int "bare commit" 33 (commit None);
  check Alcotest.int "bare commit with a forced version" (33 + 8)
    (commit ~force_vv:vv_small None);
  check Alcotest.int "a one-page run" (33 + 9 + 1024) (commit (run page));
  check Alcotest.int "a patch within a page" (33 + 9 + 5) (commit (run ~first:3 ~off:10 "patch"));
  check Alcotest.int "a window with its truncate" (33 + 12 + 4 + (8 * 1024))
    (commit (run ~trunc:0 eight));
  check Alcotest.int "a truncate alone" (33 + 4) (commit (run ~trunc:0 ""));
  List.iter
    (fun (name, trunc, first, off, data) ->
      check Alcotest.int name
        (write ?trunc ~first ~off data - 36 + 4)
        (commit (run ?trunc ~first ~off data) - 33))
    [ ("run priced as a write: page", None, 0, 0, page);
      ("run priced as a write: truncate and window", Some 0, 0, 0, eight);
      ("run priced as a write: ragged", None, 2, 1000, page);
      ("run priced as a write: truncate alone", Some 5, 0, 0, "") ];
  check Alcotest.string "a run-carrying commit is tagged commit" "commit"
    (Proto.tag_name
       (Proto.Commit_req
          { gf; abort = false; delete = false; force_vv = None; run = run page }))

(* A request names no site the transport already names: the sender is the
   call's source. The SS's close leg carries the file, the using site it
   closes for and the mode; an exit notification the pid and status; the
   partition poll and the section 5.7 probe only the header; the
   partition announcement its members. *)
let test_sender_free_forms () =
  check Alcotest.int "SS close" 37
    (Proto.req_bytes (Proto.Ss_close { gf; us = 1; mode = Proto.Mode_read; grant = 0 }));
  check Alcotest.int "SS close naming a lease grant" (37 + 4)
    (Proto.req_bytes (Proto.Ss_close { gf; us = 1; mode = Proto.Mode_read; grant = 5 }));
  check Alcotest.int "exit notification" 32
    (Proto.req_bytes (Proto.Exit_notify { pid = 1; status = 0 }));
  check Alcotest.int "partition poll" 24 (Proto.req_bytes Proto.Part_poll);
  check Alcotest.int "status probe" 24 (Proto.req_bytes Proto.Status_check);
  check Alcotest.int "partition announcement" (24 + 8)
    (Proto.req_bytes (Proto.Part_announce { members = [ 0; 1 ] }))

(* A directory intent: an unlink carries its name, a link the inode and
   the type its entry records besides (one byte, 4.4BSD's d_type). The
   reply carries the entry's inode and type and the directory's version,
   so a rename's link half learns the type from its unlink half. *)
(* A lease's close and its break. The US close is the paper's (header,
   file, mode byte) when it names no grant; a grant id adds 4 bytes, and
   the flag saying the CSS released the grant rides the mode byte. A
   break carries the file, the grant id and the closed flag. *)
let test_lease_forms () =
  let us_close grant released =
    Proto.req_bytes (Proto.Us_close { gf; mode = Proto.Mode_read; grant; released })
  in
  check Alcotest.int "US close" 33 (us_close 0 false);
  check Alcotest.int "US close naming a grant" (33 + 4) (us_close 5 false);
  check Alcotest.int "US close of a released grant" 33 (us_close 0 true);
  check Alcotest.int "lease break" (24 + 8 + 4 + 1)
    (Proto.req_bytes (Proto.Lease_break { gf; id = 5; closed = true }));
  check Alcotest.string "a break is tagged lease.break" "lease.break"
    (Proto.tag_name (Proto.Lease_break { gf; id = 5; closed = false }))

let test_intent_forms () =
  let intent op = Proto.req_bytes (Proto.Dir_intent { dir = gf; op }) in
  check Alcotest.int "unlink intent" (24 + 8 + 2 + 5)
    (intent (Proto.Unlink { name = "entry"; links = true }));
  check Alcotest.int "link intent: inode and type" (24 + 8 + 2 + 4 + 1 + 5)
    (intent
       (Proto.Link { name = "entry"; ino = 7; ftype = Storage.Inode.Directory; links = true }));
  let reply ?mtime file =
    Proto.resp_bytes
      (Proto.Dir_intent { dir = gf; op = Proto.Unlink { name = "entry"; links = true } })
      { ino = 7; ftype = Storage.Inode.Regular; dir_vv = vv_small; file; mtime }
  in
  check Alcotest.int "intent reply: inode, type, flags" (24 + 6 + 8) (reply None);
  check Alcotest.int "intent reply with the file's version" (24 + 6 + 8 + 1 + 8)
    (reply (Some (vv_small, false)));
  (* A storing site that allocated a create's inode adds its mtime. *)
  check Alcotest.int "intent reply with the allocated inode's mtime" (24 + 6 + 8 + 1 + 8 + 8)
    (reply ~mtime:1.5 (Some (vv_small, false)));
  (* A create whose using site numbered the inode carries the number and
     its allocation time. *)
  let create ino =
    intent
      (Proto.Create
         { name = "entry"; ftype = Storage.Inode.Regular; owner = "u"; perms = 0o644;
           ncopies = 2; ino })
  in
  check Alcotest.int "create intent" (24 + 8 + 2 + 5 + 1 + 4) (create None);
  check Alcotest.int "create intent with the inode and its mtime" (create None + 4 + 8)
    (create (Some (7, 1.5)))

(* The open exchange: an open that asks for no pages and a reply that
   carries none cost exactly what the paper's open and reply did (header,
   file, two flag bytes and the US's version; header, five bytes, the
   inode and the other sites). Asking costs a 4-byte count, and carried
   pages are framed as in a [Read_pages] reply. A reply that names the US
   itself from its own current copy carries no inode. A reply granting a
   read lease carries the grant's 4-byte id. An evicted lease's close
   riding the request costs its file, mode and grant id, 13 bytes, on top
   of whatever else the request carries. *)
let test_open_forms () =
  let page = String.make 1024 'p' in
  let open_req ?us_vv ?release want =
    Proto.req_bytes
      (Proto.Open_req { gf; mode = Proto.Mode_read; us_vv; shared = false; want; release })
  in
  let release = (Gfile.make ~fg:0 ~ino:9, Proto.Mode_read, 5) in
  let r_open ?(info = Some info) ?(others = []) ?(lease = 0) pages =
    Proto.resp_bytes paper_open { ss = 0; info; others; nocache = false; slot = 1; lease; pages }
  in
  check Alcotest.int "paper open request" 34 (open_req 0);
  check Alcotest.int "paper open request with a copy" 42 (open_req ~us_vv:vv_small 0);
  check Alcotest.int "paper open reply" 84 (r_open []);
  check Alcotest.int "paper open reply naming others" 92 (r_open ~others:[ 1; 2 ] []);
  check Alcotest.int "US-is-current reply" (24 + 5) (r_open ~info:None []);
  check Alcotest.int "US-is-current reply naming others" (24 + 5 + 8)
    (r_open ~info:None ~others:[ 1; 2 ] []);
  check Alcotest.int "open reply granting a lease" (84 + 4) (r_open ~lease:5 []);
  check Alcotest.int "US-is-current reply granting a lease" (24 + 5 + 4)
    (r_open ~info:None ~lease:5 []);
  check Alcotest.int "asking open request" 38 (open_req 8);
  check Alcotest.int "open request carrying a close" (34 + 13) (open_req ~release 0);
  check Alcotest.int "asking open request carrying a close" (38 + 13) (open_req ~release 8);
  check Alcotest.int "open request with a copy carrying a close" (42 + 13)
    (open_req ~us_vv:vv_small ~release 0);
  check Alcotest.int "open reply with a lone page" (84 + 1 + 1024) (r_open [ page ]);
  check Alcotest.int "open reply with a short page" (84 + 1 + 100)
    (r_open [ String.sub page 0 100 ]);
  check Alcotest.int "open reply with two pages" (84 + 1 + (2 * (2 + 1024)))
    (r_open [ page; page ]);
  let reply pages = Proto.resp_bytes read_req { pages; eof = false; info = None } in
  check Alcotest.int "pages framed as a read reply"
    (reply [ page; page; page ] - 24)
    (r_open [ page; page; page ] - r_open [])

(* The commit notification: one that carries nothing costs exactly what
   the paper's did (header, file, the version, three flag bytes, the
   modified pages and the origin). A carried commit adds the inode, as a
   stat reply carries it, and the pages, framed as in a [Read_pages]
   reply. *)
let test_commit_notify_forms () =
  let page = String.make 1024 'p' in
  let notify ?(designate = false) ?carried modified =
    Proto.req_bytes
      (Proto.Commit_notify
         { gf; vv = vv_small; meta_only = false; modified; origin = 0; fresh = true;
           deleted = false; designate; carried })
  in
  (* A create's designation carries the new, empty inode: the inode and
     an empty batch's count byte. *)
  check Alcotest.int "designation carrying the new inode"
    (notify ~designate:true [] + 55 + 1)
    (notify ~designate:true ~carried:(info, []) []);
  check Alcotest.int "paper notification" 55 (notify [ 0; 1 ]);
  check Alcotest.int "paper notification of a metadata commit" 47 (notify []);
  check Alcotest.int "carried inode alone" (47 + 55 + 1) (notify ~carried:(info, []) []);
  check Alcotest.int "carried page" (51 + 55 + 1 + 1024) (notify ~carried:(info, [ page ]) [ 0 ]);
  check Alcotest.int "carried pages" (55 + 55 + 1 + (2 * (2 + 1024)))
    (notify ~carried:(info, [ page; page ]) [ 0; 1 ]);
  let reply pages = Proto.resp_bytes read_req { pages; eof = false; info = Some info } in
  check Alcotest.int "inode and pages priced as a read reply"
    (reply [ page; page; page ] - 24)
    (notify ~carried:(info, [ page; page; page ]) [ 0; 1; 2 ] - notify [ 0; 1; 2 ])

(* A pack inventory names each inode's number, version, type and deleted
   bit. The type shares the deleted bit's flag byte, so an entry costs
   what it did before it carried a type: 4 bytes of inode number, one
   flag byte, the version. *)
let test_inventory_forms () =
  let inventory files = Proto.resp_bytes (Proto.Pack_inventory { fg = 0 }) files in
  let vv = Vvec.bump vv_small 2 in
  check Alcotest.int "empty inventory" 24 (inventory []);
  check Alcotest.int "one entry" (24 + 5 + 8) (inventory [ (2, vv_small, Storage.Inode.Regular, false) ]);
  check Alcotest.int "typed entries" (24 + (5 + 8) + (5 + 16) + (5 + 8))
    (inventory
       [
         (2, vv_small, Storage.Inode.Directory, false);
         (3, vv, Storage.Inode.Mailbox, true);
         (4, vv_small, Storage.Inode.Hidden_directory, false);
       ])

(* A lookup names its components at one length byte each; asking for the
   neighbours costs one flag byte, only when asked. A reply step costs the
   two gfiles, the directory's version and a type byte, and each
   neighbour link 7 bytes plus its name: the step's directory and version
   are shared. *)
let test_lookup_forms () =
  let lookup near = Proto.req_bytes (Proto.Lookup_req { gf; comps = [ "d"; "ab" ]; near }) in
  check Alcotest.int "lookup" (24 + 8 + 2 + 3) (lookup false);
  check Alcotest.int "lookup asking for the neighbours" (24 + 8 + 2 + 3 + 1) (lookup true);
  let link n_name = { Proto.n_name; n_ino = 9; n_ftype = Storage.Inode.Regular } in
  let reply near =
    Proto.resp_bytes
      (Proto.Lookup_req { gf; comps = [ "d"; "ab" ]; near = true })
      {
        gf;
        consumed = 2;
        trail =
          [
            { Proto.l_dir = gf; l_vv = vv_small; l_child = gf;
              l_ftype = Storage.Inode.Directory; l_near = [] };
            { Proto.l_dir = gf; l_vv = vv_small; l_child = gf;
              l_ftype = Storage.Inode.Regular; l_near = near };
          ];
      }
  in
  let base = 24 + 8 + 4 + (2 * (16 + 8 + 1)) in
  check Alcotest.int "reply" base (reply []);
  check Alcotest.int "reply with neighbours" (base + (7 + 1) + (7 + 5))
    (reply [ link "b"; link "carol" ])

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
          Alcotest.test_case "intent forms" `Quick test_intent_forms;
          Alcotest.test_case "open forms" `Quick test_open_forms;
          Alcotest.test_case "commit forms" `Quick test_commit_forms;
          Alcotest.test_case "sender-free forms" `Quick test_sender_free_forms;
          Alcotest.test_case "lease forms" `Quick test_lease_forms;
          Alcotest.test_case "commit notification forms" `Quick test_commit_notify_forms;
          Alcotest.test_case "inventory forms" `Quick test_inventory_forms;
          Alcotest.test_case "lookup forms" `Quick test_lookup_forms;
          Alcotest.test_case "errno strings" `Quick test_errno_strings;
        ] );
    ]
