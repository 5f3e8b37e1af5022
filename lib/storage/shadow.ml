(* A shadow page: the page it replaces, its own, and the page value
   stored there, so a commit hands the new pages on without reading them
   back. *)
type slot = { old_addr : int; fresh_addr : int; mutable page : Page.t }

type t = {
  pack : Pack.t;
  ino : int;
  incore : Inode.t;
  table : int array; (* current logical->physical map, shadows included *)
  had_indirect : int; (* old indirect page address, 0 if none *)
  shadows : (int, slot) Hashtbl.t; (* lpage -> slot *)
  mutable truncated_old : int list; (* old addrs to free on commit *)
  dropped : (int, unit) Hashtbl.t;
  (* lpages released by truncation: they changed too (to holes/zeroes), so
     commit notifications must list them or a shrunk-then-regrown file
     would keep stale tail pages at sites pulling just the changes *)
  mutable finished : bool;
}

let begin_modify pack ino =
  let base = Pack.get_inode pack ino in
  {
    pack;
    ino;
    incore = Inode.clone base;
    table = Pack.load_table pack base;
    had_indirect = base.Inode.indirect;
    shadows = Hashtbl.create 16;
    truncated_old = [];
    dropped = Hashtbl.create 8;
    finished = false;
  }

let incore t = t.incore

let pack t = t.pack

let check_active t = if t.finished then invalid_arg "Shadow: session already finished"

let check_lpage lpage =
  if lpage < 0 || lpage >= Inode.max_pages then
    invalid_arg "Shadow: logical page out of range"

let disk t = Pack.disk t.pack

let read_page t lpage =
  check_active t;
  check_lpage lpage;
  let addr = t.table.(lpage) in
  if addr = 0 then Page.blank else Disk.read (disk t) addr

(* Store [page] as lpage's shadow page, allocating it on the first
   modification; later ones reuse it in place (section 2.3.6). *)
let store t lpage page =
  match Hashtbl.find_opt t.shadows lpage with
  | Some slot ->
    Disk.write (disk t) slot.fresh_addr page;
    slot.page <- page
  | None ->
    let fresh = Disk.alloc (disk t) in
    Disk.write (disk t) fresh page;
    Hashtbl.add t.shadows lpage { old_addr = t.table.(lpage); fresh_addr = fresh; page };
    t.table.(lpage) <- fresh

let grow_size t lpage =
  let wanted = (lpage + 1) * Page.size in
  if t.incore.Inode.size < wanted then t.incore.Inode.size <- wanted

let write_page t ~lpage page =
  check_active t;
  check_lpage lpage;
  store t lpage page;
  grow_size t lpage

let patch_page t ~lpage ~off data =
  check_active t;
  check_lpage lpage;
  if off < 0 || off + String.length data > Page.size then
    invalid_arg "Shadow.patch_page: out of page bounds";
  store t lpage (Page.patch (read_page t lpage) off data);
  let wanted = (lpage * Page.size) + off + String.length data in
  if t.incore.Inode.size < wanted then t.incore.Inode.size <- wanted

let truncate_page t lpage =
  (match Hashtbl.find_opt t.shadows lpage with
  | Some slot ->
    (* Uncommitted shadow page: free it now; the old page goes on commit. *)
    Disk.free (disk t) slot.fresh_addr;
    if slot.old_addr <> 0 then t.truncated_old <- slot.old_addr :: t.truncated_old;
    Hashtbl.remove t.shadows lpage
  | None ->
    if t.table.(lpage) <> 0 then t.truncated_old <- t.table.(lpage) :: t.truncated_old);
  t.table.(lpage) <- 0;
  Hashtbl.replace t.dropped lpage ()

let set_contents t body =
  check_active t;
  let len = String.length body in
  let new_npages = (len + Page.size - 1) / Page.size in
  if new_npages > Inode.max_pages then invalid_arg "Shadow.set_contents: file too large";
  for lpage = 0 to new_npages - 1 do
    let off = lpage * Page.size in
    let chunk = String.sub body off (min Page.size (len - off)) in
    write_page t ~lpage (Page.of_string chunk)
  done;
  let old_npages = (t.incore.Inode.size + Page.size - 1) / Page.size in
  for lpage = new_npages to old_npages - 1 do
    truncate_page t lpage
  done;
  t.incore.Inode.size <- len

let truncate t size =
  check_active t;
  if size < 0 then invalid_arg "Shadow.truncate: negative size";
  if size < t.incore.Inode.size then begin
    let new_npages = (size + Page.size - 1) / Page.size in
    let old_npages = (t.incore.Inode.size + Page.size - 1) / Page.size in
    for lpage = new_npages to old_npages - 1 do
      truncate_page t lpage
    done;
    (* Zero the tail of a partial last page so that a later extension reads
       zeroes, as Unix semantics require. *)
    let tail_off = size mod Page.size in
    if tail_off > 0 then begin
      let lpage = size / Page.size in
      if t.table.(lpage) <> 0 then begin
        store t lpage
          (Page.patch (read_page t lpage) tail_off (String.make (Page.size - tail_off) '\000'))
      end
    end;
    t.incore.Inode.size <- size
  end

(* Set the session's size outright: shrinking truncates (releasing tail
   pages), growing just extends — the new pages read as zeroes until
   written, Unix sparse-file semantics. *)
let set_size t size =
  check_active t;
  if size < 0 then invalid_arg "Shadow.set_size: negative size";
  if size < t.incore.Inode.size then truncate t size
  else if size > t.incore.Inode.size then begin
    if (size + Page.size - 1) / Page.size > Inode.max_pages then
      invalid_arg "Shadow.set_size: file too large";
    t.incore.Inode.size <- size
  end

let mark_deleted t ~time =
  check_active t;
  t.incore.Inode.deleted <- true;
  t.incore.Inode.delete_time <- time

let modified_lpages t =
  let acc = Hashtbl.fold (fun lpage _ acc -> lpage :: acc) t.shadows [] in
  let acc = Hashtbl.fold (fun lpage () acc -> lpage :: acc) t.dropped acc in
  List.sort_uniq Int.compare acc

let modified_pages t =
  let npages = (t.incore.Inode.size + Page.size - 1) / Page.size in
  List.filter_map
    (fun lpage ->
      if lpage >= npages then None
      else
        match Hashtbl.find_opt t.shadows lpage with
        | Some slot -> Some (lpage, slot.page)
        | None -> Some (lpage, Page.blank))
    (modified_lpages t)

let needs_indirect t =
  let rec check i = i < Inode.max_pages && (t.table.(i) <> 0 || check (i + 1)) in
  check Inode.n_direct

(* Write shadow pages' bookkeeping to disk: the new indirect page if one is
   needed. Returns the new indirect address (0 for none). *)
let prepare_indirect t =
  if needs_indirect t then begin
    let tail = Array.sub t.table Inode.n_direct Inode.indirect_capacity in
    Pack.write_indirect t.pack tail
  end
  else 0

let commit t ~vv ~mtime =
  check_active t;
  let new_indirect = prepare_indirect t in
  Array.blit t.table 0 t.incore.Inode.direct 0 Inode.n_direct;
  t.incore.Inode.indirect <- new_indirect;
  t.incore.Inode.vv <- vv;
  t.incore.Inode.mtime <- mtime;
  (* The atomic step: replace the disk inode with the incore inode. *)
  Pack.install_inode t.pack t.incore;
  (* Now reclaim the superseded pages. *)
  Hashtbl.iter
    (fun _ slot -> if slot.old_addr <> 0 then Disk.free (disk t) slot.old_addr)
    t.shadows;
  List.iter (fun addr -> Disk.free (disk t) addr) t.truncated_old;
  if t.had_indirect <> 0 then Disk.free (disk t) t.had_indirect;
  t.finished <- true

let crash_before_switch t =
  check_active t;
  ignore (prepare_indirect t);
  (* Nothing else: the new pages are unreachable from the inode table. *)
  t.finished <- true

let abort t =
  check_active t;
  Hashtbl.iter (fun _ slot -> Disk.free (disk t) slot.fresh_addr) t.shadows;
  Hashtbl.reset t.shadows;
  t.finished <- true
