(* A directory as a binary record log laid out in pages. Entries keep the
   order in which their names were first entered; [index] maps a name to
   its position in that order. Byte offsets follow from the order and the
   name lengths alone (see [place]), so the log position is all an entry
   needs to remember: a remove or re-insert rewrites its record in place
   (same name, same length) and a new name lands after the last record. *)

module Page = Storage.Page

type status = Live | Tombstone

type entry = {
  name : string;
  ino : int;
  ftype : Storage.Inode.ftype;
  status : status;
  stamp : float;
  origin : int;
}

type t = {
  index : (string, int) Hashtbl.t; (* name -> position in [log] *)
  mutable log : entry array; (* log order; slots [0, len) are used *)
  mutable len : int;
}

(* status u8, name length u16, origin u16, ino i64, stamp bits i64 *)
let header = 21

let max_name = Page.size - header

let create n = { index = Hashtbl.create n; log = [||]; len = 0 }

let empty () = create 16

let find_entry t name = Option.map (fun i -> t.log.(i)) (Hashtbl.find_opt t.index name)

let lookup_typed t name =
  match find_entry t name with
  | Some { status = Live; ino; ftype; _ } -> Some (ino, ftype)
  | Some { status = Tombstone; _ } | None -> None

let lookup t name = Option.map fst (lookup_typed t name)

let valid_name name =
  let n = String.length name in
  n > 0 && n <= max_name
  && String.for_all (fun c -> c <> '/' && c <> '\t' && c <> '\n') name

let check_origin fn origin =
  if origin < 0 || origin > 0xffff then invalid_arg (fn ^ ": origin outside u16")

(* [e.name] is not in [t] yet. *)
let append t e =
  if t.len = Array.length t.log then begin
    let log = Array.make (max 16 (2 * t.len)) e in
    Array.blit t.log 0 log 0 t.len;
    t.log <- log
  end;
  t.log.(t.len) <- e;
  Hashtbl.add t.index e.name t.len;
  t.len <- t.len + 1

let insert t ~name ~ino ~ftype ~stamp ~origin =
  if not (valid_name name) then invalid_arg "Dir.insert: invalid name";
  check_origin "Dir.insert" origin;
  let e = { name; ino; ftype; status = Live; stamp; origin } in
  match Hashtbl.find_opt t.index name with
  | Some i -> t.log.(i) <- e
  | None -> append t e

let remove t ~name ~stamp ~origin =
  check_origin "Dir.remove" origin;
  match Hashtbl.find_opt t.index name with
  | Some i when t.log.(i).status = Live ->
    t.log.(i) <- { (t.log.(i)) with status = Tombstone; stamp; origin };
    true
  | Some _ | None -> false

let conflict_name name ~ino =
  let suffix = Printf.sprintf "!conflict!%d" ino in
  let keep = min (String.length name) (max_name - String.length suffix) in
  String.sub name 0 keep ^ suffix

let fold t f acc =
  let acc = ref acc in
  for i = t.len - 1 downto 0 do
    acc := f t.log.(i) !acc
  done;
  !acc

let sorted_entries t pred =
  fold t (fun e acc -> if pred e then e :: acc else acc) []
  |> List.sort (fun a b -> String.compare a.name b.name)

let live_entries t = sorted_entries t (fun e -> e.status = Live)

let all_entries t = sorted_entries t (fun _ -> true)

let cardinal t = fold t (fun e n -> if e.status = Live then n + 1 else n) 0

let names_of_ino t ino =
  live_entries t |> List.filter_map (fun e -> if e.ino = ino then Some e.name else None)

(* Where a record of [n] bytes starts when the log so far ends at [off]:
   right there, or at the next page when it would straddle. *)
let place off n =
  let room = Page.size - (off mod Page.size) in
  if n <= room then off else off + room

let record_length name = header + String.length name

(* The status byte: the status in the low two bits (1 live, 2 tombstone;
   a whole byte of 0 is padding), the child's type code above them. *)
let ftype_code : Storage.Inode.ftype -> int = function
  | Regular -> 0
  | Directory -> 1
  | Hidden_directory -> 2
  | Mailbox -> 3
  | Database -> 4
  | Fifo -> 5

let ftype_of_code : int -> Storage.Inode.ftype = function
  | 0 -> Regular
  | 1 -> Directory
  | 2 -> Hidden_directory
  | 3 -> Mailbox
  | 4 -> Database
  | 5 -> Fifo
  | _ -> failwith "Dir.decode: bad status"

(* Does a nonzero status byte start a record? *)
let valid_status byte =
  let st = byte land 3 in
  (st = 1 || st = 2) && byte lsr 2 < 6

let blit_record b at e =
  Bytes.set_uint8 b at
    ((match e.status with Live -> 1 | Tombstone -> 2) lor (ftype_code e.ftype lsl 2));
  Bytes.set_uint16_be b (at + 1) (String.length e.name);
  Bytes.set_uint16_be b (at + 3) e.origin;
  Bytes.set_int64_be b (at + 5) (Int64.of_int e.ino);
  Bytes.set_int64_be b (at + 13) (Int64.bits_of_float e.stamp);
  Bytes.blit_string e.name 0 b (at + header) (String.length e.name)

let record e =
  if not (valid_name e.name) then invalid_arg "Dir.record: invalid name";
  check_origin "Dir.record" e.origin;
  let b = Bytes.create (record_length e.name) in
  blit_record b 0 e;
  Bytes.unsafe_to_string b

let encode t =
  let size = ref 0 in
  for i = 0 to t.len - 1 do
    let n = record_length t.log.(i).name in
    size := place !size n + n
  done;
  let b = Bytes.make !size '\000' in
  let off = ref 0 in
  for i = 0 to t.len - 1 do
    let e = t.log.(i) in
    let at = place !off (record_length e.name) in
    blit_record b at e;
    off := at + record_length e.name
  done;
  Bytes.unsafe_to_string b

(* The record at byte [at] of [b], which [scan] has checked. *)
let entry_at b at =
  let nlen = String.get_uint16_be b (at + 1) in
  let byte = String.get_uint8 b at in
  {
    name = String.sub b (at + header) nlen;
    ino = Int64.to_int (String.get_int64_be b (at + 5));
    ftype = ftype_of_code (byte lsr 2);
    status = (if byte land 3 = 1 then Live else Tombstone);
    stamp = Int64.float_of_bits (String.get_int64_be b (at + 13));
    origin = String.get_uint16_be b (at + 3);
  }

(* [f at] for each record among the first [len] bytes of [b], whose byte 0
   starts a page: the one record walk that decoding, indexing and a page's
   links share. *)
let scan b len f =
  let rec go off =
    if off < len then begin
      let page_end = min len ((off / Page.size + 1) * Page.size) in
      match String.get_uint8 b off with
      | 0 -> go page_end
      | byte when valid_status byte ->
        if off + header > page_end then failwith "Dir.decode: truncated record";
        let nlen = String.get_uint16_be b (off + 1) in
        let stop = off + header + nlen in
        if nlen = 0 || stop > page_end then failwith "Dir.decode: truncated record";
        f off;
        go stop
      | _ -> failwith "Dir.decode: bad status"
    end
  in
  go 0

(* The live records of one page that end by byte [limit] of the page,
   folded as name, inode number and type: no entry record is built. *)
let page_links page ~limit f acc =
  let acc = ref acc in
  scan page (String.length page) (fun at ->
      let byte = String.get_uint8 page at in
      let nlen = String.get_uint16_be page (at + 1) in
      if byte land 3 = 1 && at + header + nlen <= limit then
        acc :=
          f
            (String.sub page (at + header) nlen)
            (Int64.to_int (String.get_int64_be page (at + 5)))
            (ftype_of_code (byte lsr 2))
            !acc);
  !acc

let decodes = ref 0

let decode_count () = !decodes

let decode s =
  incr decodes;
  let len = String.length s in
  (* A record is at least 22 bytes: size the index once. *)
  let t = create (16 + (len / 22)) in
  scan s len (fun off ->
      let e = entry_at s off in
      if Hashtbl.mem t.index e.name then failwith "Dir.decode: duplicate name";
      append t e);
  t

(* ---- an offset index over the record log ---- *)

module Index = struct
  (* Open addressing over one int array. A slot packs a name's hash above
     its record's offset plus one (0 is an empty slot), so the index holds
     no name: a probe whose hash matches reads the record's page and
     compares the name bytes there. *)
  let off_bits = 20

  let () = assert (Storage.Inode.max_pages * Page.size < 1 lsl off_bits)

  let off_mask = (1 lsl off_bits) - 1

  type t = {
    mutable slots : int array;
    mutable count : int;
    mutable per_page : int array; (* slots whose record starts in each page *)
    mutable log_end : int;
  }

  let page_of v = ((v land off_mask) - 1) / Page.size

  (* FNV-1a, cut to the bits a slot has above the offset. *)
  let hash b off len =
    let h = ref 0x811c9dc5 in
    for i = off to off + len - 1 do
      h := (!h lxor Char.code (String.unsafe_get b i)) * 0x100000001b3
    done;
    !h land (max_int lsr off_bits)

  (* Is the record at byte [at] of [page] named by the [n] bytes at [boff]
     of [b]? *)
  let has_name page at b boff n =
    String.get_uint16_be page (at + 1) = n
    &&
    let rec same i =
      i >= n
      || Char.equal (String.unsafe_get page (at + header + i)) (String.unsafe_get b (boff + i))
         && same (i + 1)
    in
    same 0

  (* The record named by the [n] bytes at [boff] of [b], hashed [h], among
     those ending by [limit]: its offset and page. *)
  let probe t ~read ~limit h b boff n =
    let mask = Array.length t.slots - 1 in
    let rec go i =
      let v = t.slots.(i) in
      if v = 0 then None
      else
        let off = (v land off_mask) - 1 in
        if v lsr off_bits = h && off + header + n <= limit then begin
          let page = read (off / Page.size) in
          if has_name page (off mod Page.size) b boff n then Some (off, page)
          else go ((i + 1) land mask)
        end
        else go ((i + 1) land mask)
    in
    go (h land mask)

  let put slots h v =
    let mask = Array.length slots - 1 in
    let rec go i = if slots.(i) = 0 then slots.(i) <- v else go ((i + 1) land mask) in
    go (h land mask)

  (* Room for [n] names at most half-loaded. *)
  let reserve t n =
    if 2 * n > Array.length t.slots then begin
      let cap = ref (Array.length t.slots) in
      while 2 * n > !cap do
        cap := 2 * !cap
      done;
      let slots = Array.make !cap 0 in
      Array.iter (fun v -> if v <> 0 then put slots (v lsr off_bits) v) t.slots;
      t.slots <- slots
    end

  let enter t h off n =
    reserve t (t.count + 1);
    put t.slots h ((h lsl off_bits) lor (off + 1));
    t.count <- t.count + 1;
    let p = off / Page.size in
    if p >= Array.length t.per_page then begin
      let grown = Array.make (max (p + 1) (2 * Array.length t.per_page)) 0 in
      Array.blit t.per_page 0 grown 0 (Array.length t.per_page);
      t.per_page <- grown
    end;
    t.per_page.(p) <- t.per_page.(p) + 1;
    t.log_end <- max t.log_end (off + header + n)

  (* Whether slot value [v] is in the index: a record with that hash
     starts at that offset. *)
  let mem_slot t v =
    let mask = Array.length t.slots - 1 in
    let rec go i =
      let x = t.slots.(i) in
      x <> 0 && (x = v || go ((i + 1) land mask))
    in
    go ((v lsr off_bits) land mask)

  let find t ~read ~limit name =
    let n = String.length name in
    probe t ~read ~limit (hash name 0 n) name 0 n

  let next t name = place t.log_end (record_length name)

  let add t name off =
    let n = String.length name in
    enter t (hash name 0 n) off n

  let build ~read ~size =
    let pages = Array.init ((size + Page.size - 1) / Page.size) read in
    let t = { slots = Array.make 16 0; count = 0; per_page = [||]; log_end = 0 } in
    reserve t (size / 22);
    Array.iteri
      (fun lpage page ->
        scan page
          (min Page.size (size - (lpage * Page.size)))
          (fun at ->
            let n = String.get_uint16_be page (at + 1) in
            let h = hash page (at + header) n in
            if probe t ~read:(Array.get pages) ~limit:size h page (at + header) n <> None
            then failwith "Dir.decode: duplicate name";
            enter t h ((lpage * Page.size) + at) n))
      pages;
    t

  (* Empty slot [i] by shifting back each later slot of its probe run
     that may sit earlier (backward-shift deletion): no marker is left,
     and nothing is allocated. *)
  let remove_at t i =
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let p = page_of slots.(i) in
    t.per_page.(p) <- t.per_page.(p) - 1;
    t.count <- t.count - 1;
    let rec shift hole j =
      let j = (j + 1) land mask in
      let v = slots.(j) in
      if v = 0 then slots.(hole) <- 0
      else
        let home = (v lsr off_bits) land mask in
        (* [v] may fill the hole unless its home lies in (hole, j]. *)
        let stays = if hole <= j then home > hole && home <= j else home > hole || home <= j in
        if stays then shift hole j
        else begin
          slots.(hole) <- v;
          shift j j
        end
    in
    shift i i

  (* The hash of the name of the record at byte [at] of [page]. *)
  let hash_at page at = hash page (at + header) (String.get_uint16_be page (at + 1))

  let reindex t ~read ~pages ~size =
    let npages = (size + Page.size - 1) / Page.size in
    let scan_page (lpage, page) f = scan page (min Page.size (size - (lpage * Page.size))) f in
    let slot lpage at h = (h lsl off_bits) lor ((lpage * Page.size) + at + 1) in
    let cut = ref false in
    for p = npages to Array.length t.per_page - 1 do
      if t.per_page.(p) > 0 then cut := true
    done;
    (* A record change or an append leaves every record of a replaced
       page at its offset: then no slot is stale, and only the new
       records enter. Otherwise the slots of the replaced and cut pages
       go first, found by one pass over the slots. *)
    let stale =
      !cut
      || List.exists
           (fun (lpage, page) ->
             let kept = ref 0 in
             scan_page (lpage, page) (fun at ->
                 if mem_slot t (slot lpage at (hash_at page at)) then incr kept);
             lpage < Array.length t.per_page && !kept < t.per_page.(lpage))
           pages
    in
    let kept_max = ref (-1) in
    if stale then begin
      let rec replaced lpage = function
        | (p, _) :: rest -> p = lpage || (p < lpage && replaced lpage rest)
        | [] -> false
      in
      let gone lpage = lpage >= npages || replaced lpage pages in
      let last = if t.log_end = 0 then -1 else (t.log_end - 1) / Page.size in
      (* The old last record ends the log still when its page survives. *)
      if last < 0 || gone last then t.log_end <- 0;
      let i = ref 0 in
      while !i < Array.length t.slots do
        let v = t.slots.(!i) in
        if v <> 0 && gone (page_of v) then remove_at t !i
        else begin
          if v <> 0 then kept_max := max !kept_max ((v land off_mask) - 1);
          incr i
        end
      done
    end;
    let rec find_page lpage = function
      | (p, page) :: rest -> if p = lpage then page else find_page lpage rest
      | [] -> read lpage
    in
    let in_hand lpage = find_page lpage pages in
    List.iter
      (fun ((lpage, page) as p) ->
        scan_page p (fun at ->
            let h = hash_at page at in
            if not (mem_slot t (slot lpage at h)) then begin
              let n = String.get_uint16_be page (at + 1) in
              if probe t ~read:in_hand ~limit:size h page (at + header) n <> None then
                failwith "Dir.decode: duplicate name";
              enter t h ((lpage * Page.size) + at) n
            end))
      pages;
    (* When the old last record left and no new one lies past every kept
       record, the last kept one ends the log: its length is on its page. *)
    if t.log_end <= !kept_max then begin
      let off = !kept_max in
      let page = read (off / Page.size) in
      t.log_end <- off + header + String.get_uint16_be page ((off mod Page.size) + 1)
    end

  let log_end t = t.log_end
end

let copy t = { index = Hashtbl.copy t.index; log = Array.sub t.log 0 t.len; len = t.len }

let equal a b = all_entries a = all_entries b
