(* Property-based tests on system invariants (qcheck, run under alcotest).

   - directory codec: decode . encode = id, and encode . decode is
     byte-exact, for arbitrary directories; no record crosses a page; one
     dirop changes one page (an insert only past the old end); a cut or
     corrupt record is refused
   - mailbox merge: a CRDT (commutative, associative, idempotent) that
     loses no message and honours deletions
   - shadow paging: arbitrary modification sequences are all-or-nothing
     under commit / abort / crash, and leak no disk pages
   - partition protocol: for arbitrary physical topologies the agreed
     membership is fully connected and unanimous
   - directory updates at the storage site: random creates and unlinks
     from packed and packless sites, mixed with lost replies, whole-body
     rewrites and settled lookups, in directories of one page or 10+,
     give the errnos of a name model, leave
     byte-identical copies that re-encode to themselves, and list and
     resolve the model's names at every site
   - end-to-end: after random divergent updates and a merge, all copies of
     every file converge to identical version vectors and contents (or the
     file is explicitly marked in conflict)
   - page fetcher: random read traces at every window return the file's
     bytes, leave nothing in flight, and at window 1 are the classic
     one-page protocol; a writer's traces read its own writes, no other
     open finds its uncommitted bytes in a US
     cache, and its privately keyed pages leave the cache when its key is
     renewed and at close. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module K = Locus_core.Ktypes
module Dispatch = Locus.Dispatch
module Dir = Catalog.Dir
module Mbox = Catalog.Mailbox
module Page = Storage.Page
module Pack = Storage.Pack
module Shadow = Storage.Shadow
module Disk = Storage.Disk
module Inode = Storage.Inode
module Vvec = Vv.Version_vector
module Topology = Net.Topology
module Stats = Sim.Stats

(* ---- generators ---- *)

let gen_name =
  QCheck.Gen.(
    map
      (fun (c, n) -> Printf.sprintf "%c%d" c n)
      (pair (char_range 'a' 'f') (int_bound 20)))

let gen_mbox_ops =
  QCheck.Gen.(list_size (int_bound 12) (pair (int_bound 30) bool))

let apply_mbox_ops site base ops =
  let m = Mbox.decode (Mbox.encode base) in
  List.iteri
    (fun i (n, del) ->
      let id = Printf.sprintf "%d.%d" site n in
      if del && Mbox.mem m id then ignore (Mbox.delete m ~id ~stamp:(float_of_int i))
      else if not del then
        Mbox.insert m ~id ~stamp:(float_of_int i) ~from:"prop" ~body:"b")
    ops;
  m

(* ---- directory codec ---- *)

(* Multi-page directories: short names that often repeat mixed with long
   random ones, and entries that were removed, or removed and entered
   again, so the log holds tombstones and records rewritten in place. *)
let gen_long_name = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 300))

let gen_ftype =
  QCheck.Gen.oneofl
    Storage.Inode.[ Regular; Directory; Hidden_directory; Mailbox; Database; Fifo ]

let gen_dir =
  QCheck.Gen.(
    list_size (int_bound 80)
      (quad (oneof [ gen_name; gen_long_name ]) (int_range 2 1000) (int_bound 2) gen_ftype)
    >|= fun entries ->
    let d = Dir.empty () in
    List.iteri
      (fun i (name, ino, life, ftype) ->
        let stamp = float_of_int i in
        Dir.insert d ~name ~ino ~ftype ~stamp ~origin:(i mod 7);
        if life >= 1 then ignore (Dir.remove d ~name ~stamp:(stamp +. 0.25) ~origin:1);
        if life = 2 then Dir.insert d ~name ~ino:(ino + 1) ~ftype ~stamp:(stamp +. 0.5) ~origin:2)
      entries;
    d)

let arb_dir =
  QCheck.make ~print:(fun d -> Printf.sprintf "%d bytes" (String.length (Dir.encode d))) gen_dir

(* Record boundaries [(start, stop)] of an encoding, read independently of
   [Dir.decode]: status byte, then the u16 name length at offset 1, 21
   header bytes in all; a zero status pads to the end of the page. *)
let record_spans b =
  let len = String.length b in
  let rec go off acc =
    if off >= len then List.rev acc
    else if b.[off] = '\000' then go ((off / Page.size + 1) * Page.size) acc
    else
      let stop = off + 21 + String.get_uint16_be b (off + 1) in
      go stop ((off, stop) :: acc)
  in
  go 0 []

let prop_dir_codec =
  QCheck.Test.make ~name:"dir codec roundtrip" ~count:200 arb_dir (fun d ->
      let b = Dir.encode d in
      Dir.equal d (Dir.decode b) && String.equal (Dir.encode (Dir.decode b)) b)

let prop_dir_records_in_one_page =
  QCheck.Test.make ~name:"dir records never cross a page" ~count:200 arb_dir (fun d ->
      List.for_all
        (fun (start, stop) -> start / Page.size = (stop - 1) / Page.size)
        (record_spans (Dir.encode d)))

(* What a re-warming lookup can hand out: the links each page decodes to,
   every page of the log taken in turn with the committed size as its
   limit, are the directory's live entries, no more and no fewer. *)
let prop_dir_page_links =
  QCheck.Test.make ~name:"dir page links are the live entries" ~count:200 arb_dir (fun d ->
      let b = Dir.encode d in
      let size = String.length b in
      let links =
        List.concat_map
          (fun lpage ->
            let first = lpage * Page.size in
            Dir.page_links (Page.of_string ~pos:first b) ~limit:(size - first)
              (fun name ino ftype acc -> (name, ino, ftype) :: acc)
              [])
          (List.init ((size + Page.size - 1) / Page.size) Fun.id)
      in
      List.sort compare links
      = List.map (fun (e : Dir.entry) -> (e.Dir.name, e.Dir.ino, e.Dir.ftype)) (Dir.live_entries d))

(* One dirop on a decoded directory: enter a new name, remove a live one,
   or enter a tombstoned one again. Past the old end the file reads as
   zeroes, so the comparison zero-extends the old encoding. The same
   change made the way the storage site makes it — [Dir.record] written
   where [Dir.Index] puts it, the name's own record or the log's end —
   gives the same bytes, and the index locates every record of the old
   body. *)
let prop_dir_one_page_change =
  QCheck.Test.make ~name:"dir change touches one page" ~count:300
    (QCheck.make
       ~print:(fun (d, op, pick, name) ->
         Printf.sprintf "%d bytes, op %d, pick %d, name %S" (String.length (Dir.encode d)) op
           pick name)
       QCheck.Gen.(quad gen_dir (int_bound 2) nat gen_long_name))
    (fun (d, op, pick, name) ->
      let old = Dir.encode d in
      let d = Dir.decode old in
      let size = String.length old in
      let read lpage =
        Page.of_string (String.sub old (lpage * Page.size) (min Page.size (size - (lpage * Page.size))))
      in
      let index = Dir.Index.build ~read ~size in
      let locate name =
        Option.map
          (fun (at, page) -> (at, Dir.entry_at page (at mod Page.size)))
          (Dir.Index.find index ~read ~limit:size name)
      in
      let located =
        List.for_all
          (fun (e : Dir.entry) ->
            match locate e.Dir.name with Some (_, found) -> found = e | None -> false)
          (Dir.all_entries d)
      in
      let pick_from status =
        match List.filter (fun (e : Dir.entry) -> e.Dir.status = status) (Dir.all_entries d) with
        | [] -> None
        | es -> Some (List.nth es (pick mod List.length es)).Dir.name
      in
      (* The name changed, and whether it is new. *)
      let changed_name =
        match op with
        | 0 ->
          let name = if Dir.find_entry d name = None then name else "fresh" in
          if Dir.find_entry d name = None then begin
            Dir.insert d ~name ~ino:7 ~ftype:Storage.Inode.Regular ~stamp:1e6 ~origin:3;
            Some (name, true)
          end
          else None
        | 1 -> (
          match pick_from Dir.Live with
          | Some name when Dir.remove d ~name ~stamp:1e6 ~origin:3 -> Some (name, false)
          | Some _ | None -> None)
        | _ -> (
          match pick_from Dir.Tombstone with
          | Some name ->
            Dir.insert d ~name ~ino:9 ~ftype:Storage.Inode.Regular ~stamp:1e6 ~origin:3;
            Some (name, false)
          | None -> None)
      in
      QCheck.assume (changed_name <> None);
      let name, fresh = Option.get changed_name in
      let b = Dir.encode d in
      let at i = if i < String.length old then old.[i] else '\000' in
      let changed = List.filter (fun i -> b.[i] <> at i) (List.init (String.length b) Fun.id) in
      let pages = List.sort_uniq Int.compare (List.map (fun i -> i / Page.size) changed) in
      let patched =
        let off =
          if fresh then Some (Dir.Index.next index name) else Option.map fst (locate name)
        in
        Option.map
          (fun off ->
            let r = Dir.record (Option.get (Dir.find_entry d name)) in
            let p = Bytes.make (max size (off + String.length r)) '\000' in
            Bytes.blit_string old 0 p 0 size;
            Bytes.blit_string r 0 p off (String.length r);
            Bytes.to_string p)
          off
      in
      located
      && List.length pages = 1
      && String.length b >= String.length old
      && (op <> 0 || List.for_all (fun i -> i >= String.length old) changed)
      && (op = 0 || String.length b = String.length old)
      && patched = Some b)

(* A re-index of a directory's index from the pages a new version
   replaced equals an index built from the new body: every name of either
   version is found at the same offset, the log ends at the same byte,
   and a body with a repeated name is refused by both. The new version is
   the old one after some record changes and appends (replacing only the
   pages whose bytes changed), another directory written whole
   (replacing every page, the old pages past its end cut off), the old
   one cut after one of its records (a shrink), or the old one with a
   record of a name it holds appended. The re-index reads no page it was
   handed. *)
let prop_dir_reindex =
  QCheck.Test.make ~name:"dir re-index equals a fresh build" ~count:300
    (QCheck.make
       ~print:(fun (d, ops, mode, other) ->
         Printf.sprintf "%d bytes, %d ops, mode %d, other %d bytes"
           (String.length (Dir.encode d)) (List.length ops) mode
           (String.length (Dir.encode other)))
       QCheck.Gen.(
         quad gen_dir
           (list_size (int_range 1 6) (triple (int_bound 2) nat gen_long_name))
           (int_bound 3) gen_dir))
    (fun (d, ops, mode, other) ->
      let old = Dir.encode d in
      let pages_of b =
        let size = String.length b in
        fun lpage ->
          let first = lpage * Page.size in
          if first >= size then Page.blank
          else Page.of_string (String.sub b first (min Page.size (size - first)))
      in
      let npages b = (String.length b + Page.size - 1) / Page.size in
      let index = Dir.Index.build ~read:(pages_of old) ~size:(String.length old) in
      let d' = Dir.decode old in
      let pick_from status pick =
        match List.filter (fun (e : Dir.entry) -> e.Dir.status = status) (Dir.all_entries d') with
        | [] -> None
        | es -> Some (List.nth es (pick mod List.length es)).Dir.name
      in
      let body =
        match mode with
        | 0 ->
          List.iter
            (fun (op, pick, name) ->
              match op with
              | 0 ->
                if Dir.find_entry d' name = None then
                  Dir.insert d' ~name ~ino:7 ~ftype:Storage.Inode.Regular ~stamp:1e6 ~origin:3
              | 1 ->
                Option.iter
                  (fun name -> ignore (Dir.remove d' ~name ~stamp:1e6 ~origin:3))
                  (pick_from Dir.Live pick)
              | _ ->
                Option.iter
                  (fun name ->
                    Dir.insert d' ~name ~ino:9 ~ftype:Storage.Inode.Regular ~stamp:1e6 ~origin:3)
                  (pick_from Dir.Tombstone pick))
            ops;
          Dir.encode d'
        | 1 -> Dir.encode other
        | 3 -> (
          match record_spans old with
          | [] -> old
          | spans ->
            let _, pick, _ = List.hd ops in
            String.sub old 0 (snd (List.nth spans (pick mod List.length spans))))
        | _ -> (
          match Dir.all_entries d' with
          | [] -> old
          | es ->
            let _, pick, _ = List.hd ops in
            let e = List.nth es (pick mod List.length es) in
            let off = Dir.Index.next index e.Dir.name in
            let r = Dir.record e in
            let b = Bytes.make (off + String.length r) '\000' in
            Bytes.blit_string old 0 b 0 (String.length old);
            Bytes.blit_string r 0 b off (String.length r);
            Bytes.to_string b)
      in
      let size = String.length body in
      let read = pages_of body and read_old = pages_of old in
      let replaced =
        List.filter
          (fun lpage -> mode = 1 || not (String.equal (read lpage) (read_old lpage)))
          (List.init (npages body) Fun.id)
      in
      let handed = ref false in
      let reread lpage =
        if List.mem lpage replaced then handed := true;
        read lpage
      in
      let built = match Dir.Index.build ~read ~size with i -> Some i | exception Failure _ -> None in
      let reindexed =
        match
          Dir.Index.reindex index ~read:reread
            ~pages:(List.map (fun lpage -> (lpage, read lpage)) replaced)
            ~size
        with
        | () -> Some index
        | exception Failure _ -> None
      in
      let names =
        List.sort_uniq String.compare
          (List.map (fun (e : Dir.entry) -> e.Dir.name)
             (Dir.all_entries d @ Dir.all_entries d' @ Dir.all_entries other))
      in
      (not !handed)
      &&
      match (built, reindexed) with
      | None, None -> mode = 2 && Dir.all_entries d <> []
      | Some b, Some r ->
        Dir.Index.log_end b = Dir.Index.log_end r
        && List.for_all
             (fun name ->
               Option.map fst (Dir.Index.find b ~read ~limit:size name)
               = Option.map fst (Dir.Index.find r ~read ~limit:size name))
             names
      | Some _, None | None, Some _ -> false)

(* The status bytes that start no record and pad no page: a nonzero byte
   whose low two bits (the status) are 0 or 3, whose next three (the
   type) are 6 or 7, or whose top three are set. 243 of the 256. *)
let bad_status_bytes =
  List.filter
    (fun b ->
      b <> 0 && not ((b land 3 = 1 || b land 3 = 2) && (b lsr 2) land 7 < 6 && b lsr 5 = 0))
    (List.init 256 Fun.id)

let () = assert (List.length bad_status_bytes = 243)

(* A body cut inside a record, or with a record's status byte replaced by
   one the layout refuses, is refused whole: never a directory missing
   some entries. *)
let prop_dir_decode_rejects_damage =
  QCheck.Test.make ~name:"dir decode rejects a cut or bad record" ~count:300
    (QCheck.make
       ~print:(fun (d, pick, cut, status) ->
         Printf.sprintf "%d bytes, pick %d, cut %d, status %d" (String.length (Dir.encode d))
           pick cut status)
       QCheck.Gen.(quad gen_dir nat nat (oneofl bad_status_bytes)))
    (fun (d, pick, cut, status) ->
      let b = Dir.encode d in
      let spans = record_spans b in
      QCheck.assume (spans <> []);
      let start, stop = List.nth spans (pick mod List.length spans) in
      let cut = start + 1 + (cut mod (stop - start - 1)) in
      let bad = Bytes.of_string b in
      Bytes.set_uint8 bad start status;
      let refused body = match Dir.decode body with _ -> false | exception Failure _ -> true in
      refused (String.sub b 0 cut) && refused (Bytes.to_string bad))

(* ---- mailbox merge laws ---- *)

let arb_two_mboxes =
  QCheck.make
    QCheck.Gen.(
      pair gen_mbox_ops gen_mbox_ops
      >|= fun (ops_a, ops_b) ->
      let base = Mbox.empty () in
      Mbox.insert base ~id:"9.0" ~stamp:0.0 ~from:"base" ~body:"shared";
      (apply_mbox_ops 1 base ops_a, apply_mbox_ops 2 base ops_b))

let prop_mbox_merge_commutative =
  QCheck.Test.make ~name:"mailbox merge commutative" ~count:200 arb_two_mboxes
    (fun (a, b) -> Mbox.equal (Mbox.merge a b) (Mbox.merge b a))

let prop_mbox_merge_idempotent =
  QCheck.Test.make ~name:"mailbox merge idempotent" ~count:200 arb_two_mboxes
    (fun (a, b) ->
      let m = Mbox.merge a b in
      Mbox.equal (Mbox.merge m m) m)

let prop_mbox_merge_no_loss =
  QCheck.Test.make ~name:"mailbox merge loses nothing" ~count:200 arb_two_mboxes
    (fun (a, b) ->
      let m = Mbox.merge a b in
      List.for_all
        (fun (msg : Mbox.msg) ->
          (* Every live message survives unless the other copy deleted it. *)
          Mbox.mem m msg.Mbox.id
          || List.exists
               (fun (other : Mbox.msg) ->
                 other.Mbox.id = msg.Mbox.id && other.Mbox.deleted)
               (Mbox.all a @ Mbox.all b))
        (Mbox.live a @ Mbox.live b))

(* ---- shadow paging all-or-nothing ---- *)

type shadow_op =
  | Write_whole of int * char
  | Patch of int * int * string
  | Trunc of int

let gen_shadow_op =
  QCheck.Gen.(
    oneof
      [
        map2 (fun p c -> Write_whole (p, c)) (int_bound 11) (char_range 'a' 'z');
        map3 (fun p off c -> Patch (p, off, String.make 3 c))
          (int_bound 11)
          (int_bound (Page.size - 4))
          (char_range 'A' 'Z');
        map (fun n -> Trunc (n * 100)) (int_bound 50);
      ])

let arb_shadow_scenario =
  QCheck.make
    ~print:(fun (ops, fate) ->
      Printf.sprintf "%d ops, fate %d" (List.length ops) fate)
    QCheck.Gen.(pair (list_size (int_range 1 10) gen_shadow_op) (int_bound 2))

(* A pure model of the file body alongside the shadow session. *)
let apply_model body = function
  | Write_whole (p, c) ->
    let upto = (p + 1) * Page.size in
    let body = if String.length body < upto then body ^ String.make (upto - String.length body) '\000' else body in
    String.mapi (fun i ch -> if i >= p * Page.size && i < upto then c else ch) body
  | Patch (p, off, data) ->
    let pos = (p * Page.size) + off in
    let upto = pos + String.length data in
    let body = if String.length body < upto then body ^ String.make (upto - String.length body) '\000' else body in
    String.mapi
      (fun i ch -> if i >= pos && i < upto then data.[i - pos] else ch)
      body
  | Trunc n -> if n < String.length body then String.sub body 0 n else body

let apply_session session = function
  | Write_whole (p, c) -> Shadow.write_page session ~lpage:p (Page.of_string (String.make Page.size c))
  | Patch (p, off, data) -> Shadow.patch_page session ~lpage:p ~off data
  | Trunc n -> Shadow.truncate session n

let prop_shadow_all_or_nothing =
  QCheck.Test.make ~name:"shadow commit all-or-nothing" ~count:150
    arb_shadow_scenario (fun (ops, fate) ->
      let pack = Pack.create ~fg:0 ~pack_id:0 ~ino_lo:2 ~ino_hi:100 () in
      let inode = Inode.create ~ino:2 ~ftype:Inode.Regular ~owner:"p" in
      Pack.install_inode pack inode;
      let original = "the original contents survive aborts and crashes" in
      let s0 = Shadow.begin_modify pack 2 in
      Shadow.set_contents s0 original;
      Shadow.commit s0 ~vv:(Vvec.bump Vvec.zero 0) ~mtime:1.0;
      let used_before = Disk.used (Pack.disk pack) in
      let session = Shadow.begin_modify pack 2 in
      let model = List.fold_left apply_model original ops in
      List.iter (apply_session session) ops;
      let read_back () = Pack.read_string pack (Pack.get_inode pack 2) in
      match fate with
      | 0 ->
        Shadow.commit session ~vv:(Vvec.bump (Vvec.bump Vvec.zero 0) 0) ~mtime:2.0;
        String.equal (read_back ()) model
      | 1 ->
        Shadow.abort session;
        String.equal (read_back ()) original
        && Disk.used (Pack.disk pack) = used_before
      | _ ->
        Shadow.crash_before_switch session;
        let intact = String.equal (read_back ()) original in
        ignore (Pack.scavenge pack);
        intact
        && String.equal (read_back ()) original
        && Disk.used (Pack.disk pack) = used_before)

(* ---- partition protocol on arbitrary topologies ---- *)

let arb_link_failures =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) l))
    QCheck.Gen.(list_size (int_bound 10) (pair (int_bound 5) (int_bound 5)))

let prop_partition_fully_connected =
  QCheck.Test.make ~name:"partition protocol finds fully-connected set"
    ~count:60 arb_link_failures (fun failures ->
      let w = World.create ~config:(World.default_config ~n_sites:6 ()) () in
      let topo = World.topology w in
      List.iter (fun (a, b) -> if a <> b then Topology.set_link topo a b false) failures;
      let r = Recovery.Partition.run_active (World.kernel w 0) in
      let members = r.Recovery.Partition.members in
      List.mem 0 members
      && Topology.fully_connected topo members
      && List.for_all
           (fun m -> (World.kernel w m).K.site_table = members)
           members)

(* ---- end-to-end convergence after partition and merge ---- *)

let arb_scenario =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map (fun (s, f, c) -> Printf.sprintf "s%d f%d %c" s f c) ops))
    QCheck.Gen.(
      list_size (int_range 1 8)
        (triple (int_bound 3) (int_bound 2) (char_range 'a' 'z')))

let files = [ "/f0"; "/f1"; "/f2" ]

let prop_convergence_after_merge =
  QCheck.Test.make ~name:"copies converge after merge" ~count:40 arb_scenario
    (fun ops ->
      let w = World.create ~config:(World.default_config ~n_sites:4 ()) () in
      let k0 = World.kernel w 0 and p0 = World.proc w 0 in
      Kernel.set_ncopies p0 4;
      List.iter (fun f -> ignore (Kernel.creat k0 p0 f)) files;
      ignore (World.settle w);
      ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
      List.iter
        (fun (site, file_idx, c) ->
          let k = World.kernel w site and p = World.proc w site in
          try Kernel.write_file k p (List.nth files file_idx) (String.make 20 c)
          with K.Error _ -> ())
        ops;
      ignore (World.settle w);
      ignore (World.heal_and_merge w);
      ignore (World.settle w);
      (* Every pack's copy of every file must agree on the version vector,
         and contents must agree unless the file is marked in conflict. *)
      List.for_all
        (fun file ->
          let gf =
            Locus_core.Pathname.resolve_from k0
              ~cwd:(Catalog.Mount.root k0.K.mount) ~context:[] file
          in
          let copies =
            List.filter_map
              (fun s ->
                let k = World.kernel w s in
                match Hashtbl.find_opt k.K.packs 0 with
                | Some pack -> (
                  match Pack.find_inode pack gf.Catalog.Gfile.ino with
                  | Some inode -> Some (inode.Inode.vv, Pack.read_string pack inode)
                  | None -> None)
                | None -> None)
              [ 0; 1; 2; 3 ]
          in
          let conflicted =
            match Locus_core.Css.find_file k0 0 gf.Catalog.Gfile.ino with
            | Some f -> f.K.css_conflict
            | None -> false
          in
          conflicted
          || match copies with
             | [] -> false
             | (vv0, body0) :: rest ->
               List.for_all
                 (fun (vv, body) -> Vvec.equal vv vv0 && String.equal body body0)
                 rest)
        files)

(* ---- model-based filesystem check ----

   Within one partition, the distributed filesystem must be observationally
   equivalent to a trivial map from names to contents, no matter which site
   issues each operation ("the latest version is the only one visible"). *)

type fs_op =
  | Op_write of int * int * char (* site, file index, fill byte *)
  | Op_append of int * int * char
  | Op_unlink of int * int
  | Op_read of int * int

let gen_fs_op =
  QCheck.Gen.(
    oneof
      [
        map3 (fun s f c -> Op_write (s, f, c)) (int_bound 3) (int_bound 4)
          (char_range 'a' 'z');
        map3 (fun s f c -> Op_append (s, f, c)) (int_bound 3) (int_bound 4)
          (char_range 'a' 'z');
        map2 (fun s f -> Op_unlink (s, f)) (int_bound 3) (int_bound 4);
        map2 (fun s f -> Op_read (s, f)) (int_bound 3) (int_bound 4);
      ])

let arb_fs_ops =
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
    QCheck.Gen.(list_size (int_range 1 25) gen_fs_op)

let prop_fs_matches_model =
  QCheck.Test.make ~name:"filesystem matches a map model" ~count:60 arb_fs_ops
    (fun ops ->
      let w = World.create ~config:(World.default_config ~n_sites:4 ()) () in
      let p0 = World.proc w 0 in
      Kernel.set_ncopies p0 2;
      let model : (string, string) Hashtbl.t = Hashtbl.create 8 in
      let name f = Printf.sprintf "/m%d" f in
      let ok = ref true in
      List.iter
        (fun op ->
          let run site f g =
            let k = World.kernel w site and p = World.proc w site in
            g k p (name f)
          in
          (match op with
          | Op_write (site, f, c) ->
            run site f (fun k p path ->
                let body = String.make 12 c in
                (try
                   (match Hashtbl.find_opt model path with
                   | None -> ignore (Kernel.creat k p path)
                   | Some _ -> ());
                   Kernel.write_file k p path body;
                   Hashtbl.replace model path body
                 with K.Error _ -> ok := false))
          | Op_append (site, f, c) ->
            run site f (fun k p path ->
                match Hashtbl.find_opt model path with
                | Some old -> (
                  try
                    Kernel.append_file k p path (String.make 3 c);
                    Hashtbl.replace model path (old ^ String.make 3 c)
                  with K.Error _ -> ok := false)
                | None -> (
                  (* Appending to a missing file must fail identically. *)
                  match Kernel.append_file k p path "x" with
                  | () -> ok := false
                  | exception K.Error _ -> ()))
          | Op_unlink (site, f) ->
            run site f (fun k p path ->
                match Hashtbl.find_opt model path with
                | Some _ -> (
                  try
                    Kernel.unlink k p path;
                    Hashtbl.remove model path
                  with K.Error _ -> ok := false)
                | None -> (
                  match Kernel.unlink k p path with
                  | () -> ok := false
                  | exception K.Error _ -> ()))
          | Op_read (site, f) ->
            run site f (fun k p path ->
                match (Hashtbl.find_opt model path, Kernel.read_file k p path) with
                | Some expected, actual -> if not (String.equal expected actual) then ok := false
                | None, _ -> ok := false
                | exception K.Error (Proto.Enoent, _) ->
                  if Hashtbl.mem model path then ok := false
                | exception K.Error _ -> ok := false));
          ignore (World.settle w))
        ops;
      (* Final check: every model file readable with model contents from
         every site. *)
      Hashtbl.iter
        (fun path body ->
          List.iter
            (fun s ->
              match Kernel.read_file (World.kernel w s) (World.proc w s) path with
              | actual -> if not (String.equal actual body) then ok := false
              | exception K.Error _ -> ok := false)
            [ 0; 1; 2; 3 ])
        model;
      !ok)

(* ---- directory updates at the storage site match a name model ---- *)

(* A random sequence of creates and unlinks over a small name pool, so
   that duplicate creates, unlinks of missing names and re-creates of
   tombstoned names all occur, issued from packed sites (0-2) and the
   packless site 3 against a directory with a copy at every pack. Each
   errno must match a model of the live names.
   After a settle, every copy's body must be byte-identical and re-encode
   to itself, and every site must list exactly the model's names.

   The SS changes one record through its directory index, so the sequence
   also mixes in what must keep or drop an index: an intent whose reply
   is lost (the CSS's reply to the using site, or a storage site's reply
   to the CSS's forward) — the transport resends, the reply cache answers,
   and the op must still match the model exactly — a rewrite of the whole
   body in a session ([Us.set_contents] + commit) that moves every
   record, and a settled lookup at a pack site, which indexes that copy
   so that the next change elsewhere reaches it by propagation. A busy
   case holds a modify open, from another site, on the directory or on
   the file a live name binds: the create or unlink must fail with EBUSY
   and change nothing. A big case starts
   from a directory of 10+ pages and uses names long enough that records
   leave padding at page ends. At the end every pack site also resolves
   every pool name like the model. *)
type dirop =
  | Create of int * int (* site, name *)
  | Unlink of int * int
  | Lost of int * int * bool (* site, name, create *)
  | Busy of int * int * bool (* site, name, the open is on the directory *)
  | Rewrite of int
  | Lookup of int * int

let arb_dirop_case =
  let print_op = function
    | Create (site, n) -> Printf.sprintf "create n%d at s%d" n site
    | Unlink (site, n) -> Printf.sprintf "unlink n%d at s%d" n site
    | Lost (site, n, create) ->
      Printf.sprintf "%s n%d at s%d, reply lost" (if create then "create" else "unlink") n site
    | Busy (site, n, on_dir) ->
      Printf.sprintf "dirop n%d at s%d, %s open for modify" n site
        (if on_dir then "directory" else "file")
    | Rewrite site -> Printf.sprintf "rewrite at s%d" site
    | Lookup (site, n) -> Printf.sprintf "lookup n%d at s%d" n site
  in
  QCheck.make
    ~print:(fun (big, ops) ->
      Printf.sprintf "%s: %s" (if big then "big" else "small")
        (String.concat "; " (List.map print_op ops)))
    QCheck.Gen.(
      let site = int_bound 3 and name = int_bound 4 in
      pair bool
        (list_size (int_range 1 16)
           (frequency
              [
                (6, map2 (fun s n -> Create (s, n)) site name);
                (6, map2 (fun s n -> Unlink (s, n)) site name);
                (1, map3 (fun s n c -> Lost (s, n, c)) site name bool);
                (1, map3 (fun s n d -> Busy (s, n, d)) site name bool);
                (1, map (fun s -> Rewrite s) site);
                (2, map2 (fun s n -> Lookup (s, n)) (int_bound 2) name);
              ])))

(* Drop one reply: the first to an intent, or to a forwarded intent step,
   that any pack site serves. *)
let lose_intent_replies w =
  let net = World.net w in
  let armed = ref true in
  List.iter
    (fun ss ->
      let k = World.kernel w ss in
      let handle (type a) ~src (req : a Proto.req) : a =
        (match req with
        | (Proto.Dir_intent _ | Proto.Intent_step _) when !armed ->
          armed := false;
          Locus_core.Ktypes.Transport.fail_next_message net ~src:ss ~dst:src
        | _ -> ());
        Dispatch.handle k ~src req
      in
      Locus_core.Ktypes.Transport.set_handler net ss { handle })
    [ 0; 1; 2 ]

let restore_handlers w =
  List.iter
    (fun ss ->
      let k = World.kernel w ss in
      Locus_core.Ktypes.Transport.set_handler (World.net w) ss
        { handle = (fun ~src req -> Dispatch.handle k ~src req) })
    [ 0; 1; 2 ]

(* Rewrite [dir_gf] whole from [site]: the same entries, in reverse log
   order, so every record moves. *)
let rewrite_reversed w site dir_gf =
  let k = World.kernel w site in
  let o = Locus_core.Us.open_gf k dir_gf Proto.Mode_modify in
  let dir = Dir.decode (Locus_core.Us.read_all k o) in
  let reversed = Dir.empty () in
  List.iter
    (fun (e : Dir.entry) ->
      Dir.insert reversed ~name:e.Dir.name ~ino:e.Dir.ino ~ftype:e.Dir.ftype ~stamp:e.Dir.stamp
        ~origin:e.Dir.origin;
      if e.Dir.status = Dir.Tombstone then
        ignore (Dir.remove reversed ~name:e.Dir.name ~stamp:e.Dir.stamp ~origin:e.Dir.origin))
    (List.rev (Dir.all_entries dir));
  Locus_core.Us.set_contents k o (Dir.encode reversed);
  Locus_core.Us.commit k o;
  Locus_core.Us.close k o

let prop_dir_updates_match_model =
  QCheck.Test.make ~name:"directory updates at the SS match a name model" ~count:60
    arb_dirop_case (fun (big, ops) ->
      let base = World.default_config ~n_sites:4 () in
      let config =
        {
          base with
          World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1; 2 ]; mount_path = None } ];
        }
      in
      let w = World.create ~config () in
      let k0 = World.kernel w 0 and p0 = World.proc w 0 in
      Kernel.set_ncopies p0 3;
      let dir_gf = Kernel.mkdir k0 p0 "/d" in
      ignore (World.settle w);
      let pad = if big then String.make 300 'x' else "" in
      let prefill =
        if big then List.init 50 (fun i -> Printf.sprintf "p%d-%s" i (String.make 250 'p'))
        else []
      in
      if big then begin
        let o = Locus_core.Us.open_gf k0 dir_gf Proto.Mode_modify in
        let dir = Dir.decode (Locus_core.Us.read_all k0 o) in
        List.iteri
          (fun i name ->
            Dir.insert dir ~name ~ino:(1000 + i) ~ftype:Storage.Inode.Regular ~stamp:0.0
              ~origin:0)
          prefill;
        Locus_core.Us.set_contents k0 o (Dir.encode dir);
        Locus_core.Us.commit k0 o;
        Locus_core.Us.close k0 o;
        ignore (World.settle w)
      end;
      let name_of n = Printf.sprintf "n%d%s" n pad in
      let live = Hashtbl.create 8 in
      (* Each created name's file, as its create returned it. *)
      let files = Hashtbl.create 8 in
      let ok = ref true in
      let dirop site n create =
        let k = World.kernel w site and p = World.proc w site in
        let name = name_of n in
        let path = "/d/" ^ name in
        let was_live = Hashtbl.mem live name in
        let expected =
          if create && was_live then Stdlib.Error Proto.Eexist
          else if (not create) && not was_live then Stdlib.Error Proto.Enoent
          else Ok ()
        in
        let outcome =
          match
            if create then Hashtbl.replace files name (Kernel.creat k p path)
            else Kernel.unlink k p path
          with
          | () -> Ok ()
          | exception K.Error (e, _) -> Stdlib.Error e
        in
        (expected, outcome, name)
      in
      let apply create name =
        if create then Hashtbl.replace live name () else Hashtbl.remove live name
      in
      List.iter
        (function
          | Create (site, n) | Unlink (site, n) as op ->
            let create = match op with Create _ -> true | _ -> false in
            let expected, outcome, name = dirop site n create in
            if outcome <> expected then ok := false
            else if outcome = Ok () then apply create name
          | Lost (site, n, create) ->
            lose_intent_replies w;
            let expected, outcome, name = dirop site n create in
            restore_handlers w;
            if outcome <> expected then ok := false
            else if outcome = Ok () then apply create name
          | Busy (site, n, on_dir) -> (
            let holder = (site + 1) mod 4 in
            let hk = World.kernel w holder in
            let name = name_of n in
            (* The file comes from the model, not from a lookup at the
               holder: with nothing settled, the holder's view of the
               directory may still be momentarily stale (a lease break or
               a pull in flight), which pathname search allows. *)
            let held =
              if on_dir then Some dir_gf
              else if Hashtbl.mem live name then Some (Hashtbl.find files name)
              else None
            in
            match held with
            | None -> ()
            | Some gf ->
              let o = Locus_core.Us.open_gf hk gf Proto.Mode_modify in
              let create = not (Hashtbl.mem live name) in
              let _, outcome, _ = dirop site n create in
              Locus_core.Us.close hk o;
              if outcome <> Stdlib.Error Proto.Ebusy then ok := false)
          | Rewrite site -> rewrite_reversed w site dir_gf
          | Lookup (site, n) -> (
            ignore (World.settle w);
            let k = World.kernel w site and p = World.proc w site in
            match Kernel.stat k p ("/d/" ^ name_of n) with
            | _ -> if not (Hashtbl.mem live (name_of n)) then ok := false
            | exception K.Error (Proto.Enoent, _) ->
              if Hashtbl.mem live (name_of n) then ok := false))
        ops;
      ignore (World.settle w);
      let bodies =
        List.map
          (fun s ->
            let pack = Hashtbl.find (World.kernel w s).K.packs 0 in
            Pack.read_string pack (Pack.get_inode pack dir_gf.Catalog.Gfile.ino))
          [ 0; 1; 2 ]
      in
      let expected =
        List.sort compare
          ("." :: ".." :: (prefill @ Hashtbl.fold (fun name () acc -> name :: acc) live []))
      in
      !ok
      && List.for_all (String.equal (List.hd bodies)) bodies
      && List.for_all (fun b -> String.equal (Dir.encode (Dir.decode b)) b) bodies
      && List.for_all
           (fun s ->
             let names =
               Kernel.readdir (World.kernel w s) (World.proc w s) "/d"
               |> List.map (fun (e : Dir.entry) -> e.Dir.name)
             in
             names = expected)
           [ 0; 1; 2; 3 ]
      && List.for_all
           (fun s ->
             List.for_all
               (fun n ->
                 let found =
                   match Kernel.stat (World.kernel w s) (World.proc w s) ("/d/" ^ name_of n) with
                   | _ -> true
                   | exception K.Error (Proto.Enoent, _) -> false
                 in
                 found = Hashtbl.mem live (name_of n))
               [ 0; 1; 2; 3; 4 ])
           [ 0; 1; 2 ])

(* ---- committed data survives crashes at random points ---- *)

let arb_crash_plan =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map string_of_int l))
    QCheck.Gen.(list_size (int_range 1 6) (int_bound 9))

let prop_commits_survive_crashes =
  QCheck.Test.make ~name:"committed data survives crashes" ~count:40
    arb_crash_plan (fun plan ->
      let w = World.create ~config:(World.default_config ~n_sites:3 ()) () in
      let k0 = World.kernel w 0 and p0 = World.proc w 0 in
      Kernel.set_ncopies p0 2;
      ignore (Kernel.creat k0 p0 "/d");
      Kernel.write_file k0 p0 "/d" "committed-0";
      ignore (World.settle w);
      let committed = ref "committed-0" in
      let ok = ref true in
      List.iteri
        (fun i step ->
          (* Write a new version, then crash the victim site either before
             or after the commit, depending on the plan. *)
          let body = Printf.sprintf "committed-%d" (i + 1) in
          let victim = 1 + (step mod 2) in
          if step < 5 then begin
            (* Crash before any new commit: the old version must survive. *)
            World.crash_site w victim;
            World.restart_site w victim;
            ignore (World.heal_and_merge w)
          end
          else begin
            (try
               Kernel.write_file k0 p0 "/d" body;
               committed := body
             with K.Error _ -> ());
            ignore (World.settle w);
            World.crash_site w victim;
            World.restart_site w victim;
            ignore (World.heal_and_merge w)
          end;
          match Kernel.read_file k0 p0 "/d" with
          | actual -> if not (String.equal actual !committed) then ok := false
          | exception K.Error _ -> ok := false)
        plan;
      !ok)

(* ---- convergence despite message loss ---- *)

let prop_convergence_despite_message_loss =
  QCheck.Test.make ~name:"recovery compensates for lost notifications" ~count:25
    (QCheck.make QCheck.Gen.(pair (int_bound 1000) (int_range 1 6)))
    (fun (seed, writes) ->
      let w = World.create ~config:(World.default_config ~n_sites:4 ()) () in
      let k0 = World.kernel w 0 and p0 = World.proc w 0 in
      Kernel.set_ncopies p0 4;
      ignore (Kernel.creat k0 p0 "/lossy");
      Kernel.write_file k0 p0 "/lossy" "v0";
      ignore (World.settle w);
      (* One-way notifications (commit notify, propagation) now get lost
         sometimes; synchronous calls that fail surface as ENET and are
         tolerated. *)
      Locus_core.Ktypes.Transport.set_drop_probability (World.net w) 0.3;
      ignore seed;
      let last_committed = ref "v0" in
      for i = 1 to writes do
        let body = Printf.sprintf "v%d" i in
        match Kernel.write_file k0 p0 "/lossy" body with
        | () -> last_committed := body
        | exception K.Error _ -> ()
      done;
      ignore (World.settle w);
      (* Heal: recovery reconciles whatever the lost messages broke. *)
      Locus_core.Ktypes.Transport.set_drop_probability (World.net w) 0.0;
      ignore (World.heal_and_merge w);
      ignore (World.settle w);
      List.for_all
        (fun s ->
          match Kernel.read_file (World.kernel w s) (World.proc w s) "/lossy" with
          | body -> String.equal body !last_committed
          | exception K.Error _ -> false)
        (World.sites w))

(* ---- the windowed page fetcher ----

   Random traces through one remote open: sequential runs, seeks and
   re-reads, page by page with the engine drained after each read or not,
   so readahead either lands first or is taken over by demand fetches, or
   as one [Us.read_bytes] call that tells the fetcher its extent. The open
   (site 3) stores no pack and the file's latest version lives at three
   packs. A writer's trace also writes,
   truncates, commits and aborts between its reads, and read opens at other sites
   look at the file in between. After each commit, and after the writer
   closes, a read open at site 4, another site with no pack, looks too:
   the CSS serves that open itself, so once no writer is left its reply
   carries the new version's first pages. Two read opens made before the
   writer's, at the writer's site and at site 4, read the file whole
   in between; both are served by the CSS's copy, the writer's SS, and
   cache what they read. *)

type fetch_op =
  | Read of int * int * bool (* first page, length, drain after each read *)
  | Read_range of int * int (* first page, length: one [Us.read_bytes] *)
  | Write of int * int (* byte offset, length *)
  | Truncate of int
  | Commit
  | Abort
  | Drain
  | Peek of bool
      (* a read open reads the file whole: at the writer's site (sharing
         its US cache) or at a pack site; a commit is followed by one at a
         packless site *)
  | Early of bool
      (* once the engine has run, the read open made before the writer's
         reads the file whole: the one at the writer's site, or at site 4 *)

type fetch_case = {
  window : int;
  pages : int;
  tail : int;
  writer : bool;
  ops : fetch_op list;
}

let show_fetch_op = function
  | Read (f, n, d) -> Printf.sprintf "read %d+%d%s" f n (if d then " drained" else "")
  | Read_range (f, n) -> Printf.sprintf "read_bytes %d+%d" f n
  | Write (off, n) -> Printf.sprintf "write %d+%d" off n
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Commit -> "commit"
  | Abort -> "abort"
  | Drain -> "drain"
  | Peek same -> if same then "peek here" else "peek there"
  | Early here -> if here then "early reader here" else "early reader there"

let arb_fetch_case ~writer =
  let open QCheck.Gen in
  let read =
    frequency
      [
        (2, map (fun (f, n, d) -> Read (f, n, d)) (triple (int_bound 44) (int_range 1 12) bool));
        (1, map2 (fun f n -> Read_range (f, n)) (int_bound 44) (int_range 1 12));
      ]
  in
  let writer_op =
    frequency
      [
        (5, read);
        (3, map2 (fun off n -> Write (off, n)) (int_bound (44 * Page.size)) (int_range 1 (3 * Page.size)));
        (1, map (fun n -> Truncate n) (int_bound (44 * Page.size)));
        (1, return Commit);
        (1, return Abort);
        (1, return Drain);
        (2, map (fun same -> Peek same) bool);
        (2, map (fun here -> Early here) bool);
      ]
  in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "%s window %d, %d pages + %d bytes: %s"
        (if c.writer then "writer" else "reader")
        c.window c.pages c.tail
        (String.concat "; " (List.map show_fetch_op c.ops)))
    (triple (oneofl [ 1; 2; 8 ]) (int_range 1 40) (int_bound 200)
    >>= fun (window, pages, tail) ->
    let op = if writer then writer_op else read in
    list_size (int_range 1 10) op >|= fun ops -> { window; pages; tail; writer; ops })

(* A reader's trace must return the file's bytes and, at window 1, be the
   classic one-page protocol. A writer's reads must return its
   own uncommitted bytes (read-your-writes, against a byte model); no US
   cache entry filed under one of its earlier keys may outlive the step
   that renewed the key, and after the writer closes none under any of its
   keys may remain. Other opens see the writer only through its SS: a read open
   reads what the writer has pushed there (the SS serves an open session's
   pages to every reader, Unix shared-file semantics), never a page the
   writer cached, and after every step each site's US cache entries under
   the committed version's key hold that version's bytes, so no other open
   can hit an uncommitted byte. The read opens made before the writer's
   read what it has pushed too, once the SS's page invalidations have
   arrived, and an abort leaves the committed bytes readable everywhere.
   Either way nothing is left in flight after the final drain. *)
let run_fetch_case c =
  let base = World.default_config ~n_sites:5 () in
  let config =
    {
      base with
      World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1; 2 ]; mount_path = None } ];
      kernel_config =
        { base.World.kernel_config with K.bulk_window = c.window };
    }
  in
  let w = World.create ~config () in
  let size = (c.pages * Page.size) + c.tail in
  let initial =
    String.init size (fun i -> Char.chr (Char.code 'a' + (((i * 7) + (i / Page.size)) mod 26)))
  in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 3;
  ignore (Kernel.creat k0 p0 "/f");
  Kernel.write_file k0 p0 "/f" initial;
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  let gf = Kernel.resolve k3 p3 "/f" in
  let k4 = World.kernel w 4 in
  let early =
    if c.writer then
      List.map (fun k -> (k, Locus_core.Us.open_gf k gf Proto.Mode_read)) [ k3; k4 ]
    else []
  in
  let mode = if c.writer then Proto.Mode_modify else Proto.Mode_read in
  let o = Locus_core.Us.open_gf k3 gf mode in
  let drain () = ignore (Sim.Engine.run_until_idle (World.engine w)) in
  (* The writer's open breaks the early opens' leases: once the breaks
     arrive, a later open at their sites asks the CSS. *)
  if early <> [] then drain ();
  let stats = World.stats w in
  let snap = Stats.snapshot stats in
  let ok = ref true in
  (* What the open should read, and what everyone else should. *)
  let body = ref initial and committed = ref initial in
  let committed_vv = ref o.K.o_info.Proto.i_vv in
  let keys = ref [ o.K.o_key ] in
  let fill = ref 0 in
  let cached_under keys =
    List.exists
      (fun (g, _, v) -> Catalog.Gfile.equal g gf && List.exists (K.vkey_equal v) keys)
      (K.Us_cache.keys_mru k3.K.us_cache)
  in
  let peek site =
    Locus_core.Us.flush_wb k3 o;
    let k = World.kernel w site in
    let r = Locus_core.Us.open_gf k gf Proto.Mode_read in
    if not (String.equal (Locus_core.Us.read_all k r) !body) then ok := false;
    Locus_core.Us.close k r
  in
  let versions_committed () =
    let key = K.Committed !committed_vv in
    List.for_all
      (fun s ->
        let cache = (World.kernel w s).K.us_cache in
        List.for_all
          (fun ((g, p, v) as ck) ->
            (not (Catalog.Gfile.equal g gf && K.vkey_equal v key))
            ||
            match K.Us_cache.find cache ck with
            | None -> true
            | Some page ->
              let len = max 0 (min Page.size (String.length !committed - (p * Page.size))) in
              String.equal (Page.sub page 0 len) (String.sub !committed (p * Page.size) len))
          (K.Us_cache.keys_mru cache))
      (World.sites w)
  in
  List.iter
    (fun op ->
      (match op with
      | Read (first, len, drained) ->
        let size = String.length !body in
        let npages = (size + Page.size - 1) / Page.size in
        if npages > 0 then begin
          let first = first mod npages in
          for p = first to min (npages - 1) (first + len - 1) do
            let data, eof = Locus_core.Us.read_page k3 o p in
            let len = min Page.size (size - (p * Page.size)) in
            let want = String.sub !body (p * Page.size) len in
            if not (String.equal data want && eof = (p = npages - 1)) then ok := false;
            if drained then drain ()
          done
        end
      | Read_range (first, len) ->
        (* One call over the same pages: the bytes up to eof, no further. *)
        let size = String.length !body in
        let npages = (size + Page.size - 1) / Page.size in
        if npages > 0 then begin
          let off = first mod npages * Page.size in
          let data = Locus_core.Us.read_bytes k3 o ~off ~len:(len * Page.size) in
          let want = String.sub !body off (min (len * Page.size) (size - off)) in
          if not (String.equal data want) then ok := false
        end
      | Write (off, len) ->
        let off = min off (String.length !body) in
        incr fill;
        let data = String.make len (Char.chr (Char.code 'A' + (!fill mod 26))) in
        Locus_core.Us.write k3 o ~off data;
        let old = !body in
        let size = max (String.length old) (off + len) in
        body :=
          String.init size (fun i ->
              if i >= off && i < off + len then data.[i - off]
              else if i < String.length old then old.[i]
              else '\000')
      | Truncate n ->
        Locus_core.Us.truncate k3 o n;
        if n < String.length !body then body := String.sub !body 0 n
      | Commit ->
        Locus_core.Us.commit k3 o;
        committed := !body;
        committed_vv := o.K.o_info.Proto.i_vv;
        peek 4
      | Abort ->
        Locus_core.Us.abort k3 o;
        body := !committed
      | Drain -> drain ()
      | Peek same -> peek (if same then 3 else 1)
      | Early here ->
        Locus_core.Us.flush_wb k3 o;
        drain ();
        let k, r = List.nth early (if here then 0 else 1) in
        if not (String.equal (Locus_core.Us.read_all k r) !body) then ok := false);
      if not (versions_committed ()) then ok := false;
      if c.writer && cached_under (List.filter (fun v -> not (K.vkey_equal v o.K.o_key)) !keys)
      then ok := false;
      keys := o.K.o_key :: !keys)
    c.ops;
  drain ();
  let inflight = o.K.o_inflight in
  let delta = Stats.delta_of stats snap in
  let classic =
    c.window > 1
    || c.writer && delta "us.bulk.read" = 0
    || delta "net.msg.read" = 2 * (delta "cache.us.miss" + delta "us.readahead")
       && delta "us.bulk.read" = 0
  in
  Locus_core.Us.close k3 o;
  List.iter (fun (k, r) -> Locus_core.Us.close k r) early;
  (* Close commits the writer's last modifications. *)
  if c.writer then begin
    committed := !body;
    committed_vv := o.K.o_info.Proto.i_vv;
    peek 4;
    if not (versions_committed ()) then ok := false
  end;
  !ok && inflight = [] && classic
  && not (c.writer && cached_under !keys)

let prop_fetcher_reads_file_bytes =
  QCheck.Test.make ~name:"page fetcher: every window reads the file's bytes"
    ~count:60 (arb_fetch_case ~writer:false) run_fetch_case

let prop_fetcher_writer_reads_own_writes =
  QCheck.Test.make ~name:"page fetcher: a writer reads its own writes at every window"
    ~count:60 (arb_fetch_case ~writer:true) run_fetch_case

(* ---- the two structures the soak harness leans on hardest ---- *)

(* Eheap against an insertion-ordered list model: pop must always return
   the minimum-time element, earliest-pushed first among ties — the
   determinism guarantee the whole simulator rests on. Push/pop streams
   are arbitrary interleavings, long enough to grow the heap's backing
   array several times; times are drawn from a tiny range to force many
   ties. *)
let prop_eheap_matches_model =
  QCheck.Test.make ~count:200
    ~name:"eheap: model order — nondecreasing time, FIFO ties, survives grow"
    QCheck.(
      make Gen.(list_size (int_range 0 400) (pair (int_bound 8) (int_bound 3))))
    (fun ops ->
      let h = Sim.Eheap.create () in
      (* model: (time, serial) in push order; pop takes the first element
         holding the minimum time. *)
      let model = ref [] in
      let serial = ref 0 in
      let ok = ref true in
      let model_pop () =
        match !model with
        | [] -> None
        | (t0, s0) :: tl ->
          let tmin, smin =
            List.fold_left
              (fun (bt, bs) (t, s) -> if t < bt then (t, s) else (bt, bs))
              (t0, s0) tl
          in
          model := List.filter (fun (_, s) -> s <> smin) !model;
          Some (tmin, smin)
      in
      (* Alternate the two pop entry points: [pop] and the scheduler's
         allocation-free [pop_into]; both must agree with the model, and
         [top_time]/[peek_time] must agree with each other beforehand. *)
      let scratch = [| Float.nan |] in
      let pops = ref 0 in
      let pop_both () =
        (match Sim.Eheap.peek_time h with
        | Some t -> if Sim.Eheap.top_time h <> t then ok := false
        | None -> ());
        incr pops;
        let popped =
          if Sim.Eheap.is_empty h then None
          else if !pops land 1 = 0 then Sim.Eheap.pop h
          else begin
            let payload = Sim.Eheap.pop_into h ~time:scratch in
            Some (scratch.(0), payload)
          end
        in
        match (popped, model_pop ()) with
        | None, None -> ()
        | Some (t, s), Some (t', s') -> if t <> t' || s <> s' then ok := false
        | Some _, None | None, Some _ -> ok := false
      in
      List.iter
        (fun (time, kind) ->
          if kind = 0 then pop_both ()
          else begin
            incr serial;
            let t = float_of_int time in
            Sim.Eheap.push h ~time:t !serial;
            model := !model @ [ (t, !serial) ]
          end)
        ops;
      while not (Sim.Eheap.is_empty h) || !model <> [] do
        pop_both ()
      done;
      !ok && Sim.Eheap.size h = 0)

(* The scheduler's hold pattern: preload, then pop-one/push-one with the
   new event at popped-time + delta, as a running simulation keeps its
   queue. Popped times must be nondecreasing throughout and no event may
   be lost — the shape of the churn the flood workload sustains. *)
let prop_eheap_hold_pattern =
  QCheck.Test.make ~count:100
    ~name:"eheap: hold-pattern churn is order-preserving and lossless"
    QCheck.(
      make
        Gen.(
          pair (int_range 1 64)
            (list_size (int_range 1 300) (int_bound 5))))
    (fun (preload, deltas) ->
      let h = Sim.Eheap.create () in
      for i = 1 to preload do
        Sim.Eheap.push h ~time:(float_of_int (i mod 7)) i
      done;
      let scratch = [| Float.nan |] in
      let last = ref Float.neg_infinity in
      let ok = ref true in
      List.iter
        (fun d ->
          ignore (Sim.Eheap.pop_into h ~time:scratch);
          if scratch.(0) < !last then ok := false;
          last := scratch.(0);
          Sim.Eheap.push h ~time:(scratch.(0) +. float_of_int d) 0)
        deltas;
      !ok && Sim.Eheap.size h = preload)

(* ---- the flood generator's popularity sampler ---- *)

let prop_zipf_pmf =
  QCheck.Test.make ~count:200
    ~name:"zipf: pmf nonincreasing in rank, sums to 1, samples in range"
    QCheck.(make Gen.(pair (int_range 1 200) (float_bound_inclusive 3.0)))
    (fun (n, s) ->
      let z = Locus.Zipf.create ~n ~s in
      let sum = ref 0.0 in
      let mono = ref true in
      for r = 0 to n - 1 do
        sum := !sum +. Locus.Zipf.pmf z r;
        if r > 0 && Locus.Zipf.pmf z r > Locus.Zipf.pmf z (r - 1) +. 1e-12 then
          mono := false
      done;
      let rng = Sim.Rng.create 99L in
      let in_range = ref true in
      for _ = 1 to 50 do
        let r = Locus.Zipf.sample z rng in
        if r < 0 || r >= n then in_range := false
      done;
      !mono && Float.abs (!sum -. 1.0) < 1e-9 && !in_range)

let prop_zipf_deterministic =
  QCheck.Test.make ~count:100
    ~name:"zipf: sampled stream is a pure function of the rng seed"
    QCheck.(make Gen.(pair (int_range 1 100) (int_bound 1000)))
    (fun (n, seed) ->
      let z = Locus.Zipf.create ~n ~s:1.1 in
      let stream () =
        let rng = Sim.Rng.create (Int64.of_int seed) in
        List.init 100 (fun _ -> Locus.Zipf.sample z rng)
      in
      stream () = stream ())

module Ilru =
  Storage.Lru.Make
    (struct
      type t = int

      let equal = Int.equal

      let hash x = x

      let file x = x mod 3
    end)
    (struct
      type t = int
    end)

(* Lru against an MRU-ordered list model with explicit capacity: recency
   order, hit promotion, refresh-without-eviction, capacity victims (and
   their on_evict callbacks) must all match the model, and occupancy may
   never exceed capacity. [oldest] names the model's last key, or nothing
   when it is empty, and leaves the order as it was. *)
let prop_lru_matches_model =
  QCheck.Test.make ~count:200
    ~name:"lru: matches MRU-list model, capacity never exceeded"
    QCheck.(
      make
        Gen.(
          pair (int_range 0 8)
            (list_size (int_bound 200) (pair (int_bound 12) (int_bound 4)))))
    (fun (cap, ops) ->
      let evicted = ref [] in
      let c =
        Ilru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:cap ()
      in
      let model = ref [] (* keys, MRU first *) in
      let model_evicted = ref [] in
      let ok = ref true in
      let drop_last l =
        match List.rev l with
        | [] -> ([], None)
        | last :: front -> (List.rev front, Some last)
      in
      List.iter
        (fun (key, op) ->
          (match op with
          | 0 | 1 ->
            Ilru.insert c key key;
            let m = key :: List.filter (fun k -> k <> key) !model in
            if List.length m > cap then begin
              let kept, victim = drop_last m in
              model := kept;
              Option.iter (fun v -> model_evicted := v :: !model_evicted) victim
            end
            else model := m
          | 2 -> (
            let mhit = List.mem key !model in
            match Ilru.find c key with
            | Some v ->
              if (not mhit) || v <> key then ok := false
              else model := key :: List.filter (fun k -> k <> key) !model
            | None -> if mhit then ok := false)
          | 3 -> (
            match (Ilru.oldest c, List.rev !model) with
            | Some (k, v), last :: _ -> if k <> last || v <> last then ok := false
            | None, [] -> ()
            | Some _, [] | None, _ :: _ -> ok := false)
          | _ ->
            Ilru.invalidate c key;
            model := List.filter (fun k -> k <> key) !model);
          if Ilru.length c > cap || Ilru.keys_mru c <> !model then ok := false)
        ops;
      !ok && !evicted = !model_evicted)

(* Lru's per-file drops against a whole-scan model: random inserts,
   finds, invalidations, capacity evictions, drops of a file's entries
   (all of them, or those a predicate on the value picks) and clears, over
   three files (a key's file is the key mod 3). Survivors, recency order,
   capacity victims and every drop's count must match a model that finds
   a file's entries by scanning all of them. *)
let prop_lru_drop_file_matches_scan =
  QCheck.Test.make ~count:300
    ~name:"lru: drop by file matches a whole-scan model"
    QCheck.(
      make
        Gen.(
          pair (int_range 0 8)
            (list_size (int_bound 200)
               (triple (int_bound 11) (int_bound 9) (int_bound 6)))))
    (fun (cap, ops) ->
      let evicted = ref [] in
      let c =
        Ilru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:cap ()
      in
      let model = ref [] (* (key, value), MRU first *) in
      let model_evicted = ref [] in
      let ok = ref true in
      let without key = List.filter (fun (k, _) -> k <> key) !model in
      let drop file keep =
        let victim (k, v) = k mod 3 = file && keep v in
        let n = List.length (List.filter victim !model) in
        model := List.filter (fun e -> not (victim e)) !model;
        n
      in
      List.iter
        (fun (key, v, op) ->
          (match op with
          | 0 | 1 ->
            Ilru.insert c key v;
            let fresh = not (List.mem_assoc key !model) in
            model := (key, v) :: without key;
            if fresh && List.length !model > cap then begin
              let victim, _ = List.nth !model cap in
              model := List.filteri (fun i _ -> i < cap) !model;
              model_evicted := victim :: !model_evicted
            end
          | 2 -> (
            match (Ilru.find c key, List.assoc_opt key !model) with
            | Some got, Some want when got = want -> model := (key, want) :: without key
            | None, None -> ()
            | _ -> ok := false)
          | 3 ->
            Ilru.invalidate c key;
            model := without key
          | 4 -> if Ilru.drop_file c (key mod 3) <> drop (key mod 3) (fun _ -> true) then ok := false
          | 5 ->
            let got = Ilru.drop_file c (key mod 3) ~only:(fun _ value -> value < v) in
            if got <> drop (key mod 3) (fun value -> value < v) then ok := false
          | _ ->
            if v = 0 then begin
              Ilru.clear c;
              model := []
            end);
          if Ilru.length c <> List.length !model then ok := false)
        ops;
      !ok && Ilru.keys_mru c = List.map fst !model && !evicted = !model_evicted)

(* An Lru whose hashes collide on purpose: every key hashes to one of
   three values, so the key index holds long probe runs, and a deletion
   must shift the rest of a run back for later keys to be found. Keys
   belong to five files. *)
module Clru =
  Storage.Lru.Make
    (struct
      type t = int

      let equal = Int.equal

      let hash x = x mod 3

      let file x = x mod 5
    end)
    (struct
      type t = int
    end)

(* The slab's own edges against an MRU-ordered list model: colliding
   hashes, and capacities that keep the first 8 slots (1, 7), double them
   once (9) or three times (64), rebuilding both tables with entries of
   every file in them. Random inserts, finds, presence probes, peeks,
   invalidations, drops of a file's entries (all, or those a predicate
   picks), filter_outs and clears must keep the model's entries, recency
   order and every drop's count, every find must hit or miss as the model
   does, and capacity pressure must evict the model's victims with their
   values, in order. *)
let prop_lru_slab_edges =
  QCheck.Test.make ~count:300
    ~name:"lru: colliding hashes, slot growth and table rebuilds match a list model"
    QCheck.(
      make
        Gen.(
          pair (oneofl [ 1; 7; 9; 64 ])
            (list_size (int_bound 400)
               (triple (int_bound 99) (int_bound 9) (int_bound 9)))))
    (fun (cap, ops) ->
      let evicted = ref [] in
      let c = Clru.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted) ~capacity:cap () in
      let model = ref [] (* (key, value), MRU first *) in
      let model_evicted = ref [] in
      let ok = ref true in
      let without key = List.filter (fun (k, _) -> k <> key) !model in
      let drop victim =
        let n = List.length (List.filter victim !model) in
        model := List.filter (fun e -> not (victim e)) !model;
        n
      in
      List.iter
        (fun (key, v, op) ->
          (match op with
          | 0 | 1 | 2 ->
            Clru.insert c key v;
            let fresh = not (List.mem_assoc key !model) in
            model := (key, v) :: without key;
            if fresh && List.length !model > cap then begin
              model_evicted := List.nth !model cap :: !model_evicted;
              model := List.filteri (fun i _ -> i < cap) !model
            end
          | 3 -> (
            match (Clru.find c key, List.assoc_opt key !model) with
            | Some got, Some want when got = want -> model := (key, want) :: without key
            | None, None -> ()
            | _ -> ok := false)
          | 4 -> if Clru.mem c key <> List.mem_assoc key !model then ok := false
          | 5 -> if Clru.peek c key <> List.assoc_opt key !model then ok := false
          | 6 ->
            Clru.invalidate c key;
            model := without key
          | 7 ->
            let file = key mod 5 in
            let got, want =
              if v mod 2 = 0 then (Clru.drop_file c file, drop (fun (k, _) -> k mod 5 = file))
              else
                ( Clru.drop_file c file ~only:(fun _ value -> value < v),
                  drop (fun (k, value) -> k mod 5 = file && value < v) )
            in
            if got <> want then ok := false
          | 8 ->
            let pick k value = (k + value) mod 4 = v mod 4 in
            if Clru.filter_out c pick <> drop (fun (k, value) -> pick k value) then ok := false
          | _ ->
            if v = 0 then begin
              Clru.clear c;
              model := []
            end);
          if Clru.length c <> List.length !model || Clru.keys_mru c <> List.map fst !model then
            ok := false)
        ops;
      !ok && !evicted = !model_evicted)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dir_codec;
      prop_dir_page_links;
      prop_dir_records_in_one_page;
      prop_dir_one_page_change;
      prop_dir_reindex;
      prop_dir_decode_rejects_damage;
      prop_mbox_merge_commutative;
      prop_mbox_merge_idempotent;
      prop_mbox_merge_no_loss;
      prop_shadow_all_or_nothing;
      prop_partition_fully_connected;
      prop_convergence_after_merge;
      prop_fs_matches_model;
      prop_dir_updates_match_model;
      prop_commits_survive_crashes;
      prop_convergence_despite_message_loss;
      prop_fetcher_reads_file_bytes;
      prop_fetcher_writer_reads_own_writes;
      prop_eheap_matches_model;
      prop_eheap_hold_pattern;
      prop_zipf_pmf;
      prop_zipf_deterministic;
      prop_lru_matches_model;
      prop_lru_drop_file_matches_scan;
      prop_lru_slab_edges;
    ]

let () = Alcotest.run "props" [ ("invariants", props) ]
