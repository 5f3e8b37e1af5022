type t = {
  fg : int;
  pack_id : int;
  disk : Disk.t;
  inodes : (int, Inode.t) Hashtbl.t;
  ino_lo : int;
  ino_hi : int;
  mutable next_ino : int;
}

let create ~fg ~pack_id ~ino_lo ~ino_hi ?disk_pages () =
  if ino_lo > ino_hi then invalid_arg "Pack.create: empty inode range";
  {
    fg;
    pack_id;
    disk = Disk.create ?pages:disk_pages ();
    inodes = Hashtbl.create 256;
    ino_lo;
    ino_hi;
    next_ino = ino_lo;
  }

let fg t = t.fg

let pack_id t = t.pack_id

let disk t = t.disk

let alloc_ino t =
  let rec find i =
    if i > t.ino_hi then failwith "Pack.alloc_ino: inode space exhausted"
    else if Hashtbl.mem t.inodes i then find (i + 1)
    else i
  in
  let ino = find t.next_ino in
  t.next_ino <- ino + 1;
  ino

let find_inode t ino = Hashtbl.find_opt t.inodes ino

let get_inode t ino =
  match find_inode t ino with Some i -> i | None -> raise Not_found

let stores t ino = Hashtbl.mem t.inodes ino

let install_inode t (inode : Inode.t) = Hashtbl.replace t.inodes inode.Inode.ino inode

let load_table t (inode : Inode.t) =
  let table = Array.make Inode.max_pages 0 in
  Array.blit inode.Inode.direct 0 table 0 Inode.n_direct;
  if inode.Inode.indirect <> 0 then begin
    let page = Disk.read t.disk inode.Inode.indirect in
    for i = 0 to Inode.indirect_capacity - 1 do
      table.(Inode.n_direct + i) <- Page.get_u32 page (4 * i)
    done
  end;
  table

(* The disk address of logical page [lpage], 0 when it has none. The
   indirect page is forced only for a page past the direct slots. *)
let addr_in (inode : Inode.t) ~indirect lpage =
  if lpage < 0 || lpage >= Inode.max_pages then
    invalid_arg "Pack.page_addr: logical page out of range";
  if lpage < Inode.n_direct then inode.Inode.direct.(lpage)
  else if inode.Inode.indirect = 0 then 0
  else Page.get_u32 (Lazy.force indirect) (4 * (lpage - Inode.n_direct))

let indirect_page t (inode : Inode.t) = lazy (Disk.read t.disk inode.Inode.indirect)

let page_addr t inode lpage =
  match addr_in inode ~indirect:(indirect_page t inode) lpage with 0 -> None | a -> Some a

let reader t inode =
  let indirect = indirect_page t inode in
  fun lpage ->
    match addr_in inode ~indirect lpage with 0 -> Page.blank | a -> Disk.read t.disk a

let write_indirect t table_tail =
  if Array.length table_tail <> Inode.indirect_capacity then
    invalid_arg "Pack.write_indirect: wrong table length";
  let addr = Disk.alloc t.disk in
  Disk.write t.disk addr (Page.of_u32s table_tail);
  addr

let read_string t inode =
  let buf = Buffer.create inode.Inode.size in
  let npages = Inode.npages inode in
  let read = reader t inode in
  for lpage = 0 to npages - 1 do
    let page = read lpage in
    let remaining = inode.Inode.size - (lpage * Page.size) in
    let len = min Page.size remaining in
    Buffer.add_string buf (Page.sub page 0 len)
  done;
  Buffer.contents buf

(* Free every data page and the indirect page of this descriptor. *)
let free_file_pages t inode =
  let table = load_table t inode in
  Array.iter (fun a -> if a <> 0 then Disk.free t.disk a) table;
  if inode.Inode.indirect <> 0 then begin
    Disk.free t.disk inode.Inode.indirect;
    inode.Inode.indirect <- 0
  end;
  Array.fill inode.Inode.direct 0 Inode.n_direct 0

let remove_inode t ino =
  match find_inode t ino with
  | None -> ()
  | Some inode ->
    free_file_pages t inode;
    Hashtbl.remove t.inodes ino

let inodes t =
  Hashtbl.fold (fun _ i acc -> i :: acc) t.inodes []
  |> List.sort (fun (a : Inode.t) b -> Int.compare a.Inode.ino b.Inode.ino)

type fsck_error =
  | Double_allocated of int * int * int
  | Bad_address of int * int
  | Size_beyond_table of int
  | Orphan_pages of int

let pp_fsck_error ppf = function
  | Double_allocated (addr, a, b) ->
    Format.fprintf ppf "page %d claimed by inodes %d and %d" addr a b
  | Bad_address (ino, addr) ->
    Format.fprintf ppf "inode %d references unallocated page %d" ino addr
  | Size_beyond_table ino -> Format.fprintf ppf "inode %d size beyond page table" ino
  | Orphan_pages n -> Format.fprintf ppf "%d orphan pages" n

let fsck t =
  let errors = ref [] in
  let owner : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let claim ino addr =
    if addr <> 0 then begin
      if not (Disk.is_allocated t.disk addr) then
        errors := Bad_address (ino, addr) :: !errors;
      match Hashtbl.find_opt owner addr with
      | Some other -> errors := Double_allocated (addr, other, ino) :: !errors
      | None -> Hashtbl.add owner addr ino
    end
  in
  List.iter
    (fun (inode : Inode.t) ->
      let ino = inode.Inode.ino in
      if inode.Inode.indirect <> 0 then claim ino inode.Inode.indirect;
      let table = load_table t inode in
      Array.iter (claim ino) table;
      if Inode.npages inode > Inode.max_pages then
        errors := Size_beyond_table ino :: !errors)
    (inodes t);
  let orphans = ref 0 in
  for addr = 1 to Disk.capacity t.disk do
    if Disk.is_allocated t.disk addr && not (Hashtbl.mem owner addr) then incr orphans
  done;
  if !orphans > 0 then errors := Orphan_pages !orphans :: !errors;
  List.rev !errors

let scavenge t =
  let reachable = Hashtbl.create 1024 in
  List.iter
    (fun inode ->
      if inode.Inode.indirect <> 0 then Hashtbl.replace reachable inode.Inode.indirect ();
      let table = load_table t inode in
      Array.iter (fun a -> if a <> 0 then Hashtbl.replace reachable a ()) table)
    (inodes t);
  let freed = ref 0 in
  for addr = 1 to Disk.capacity t.disk do
    if Disk.is_allocated t.disk addr && not (Hashtbl.mem reachable addr) then begin
      Disk.free t.disk addr;
      incr freed
    end
  done;
  !freed
