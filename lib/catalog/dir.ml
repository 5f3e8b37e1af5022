(* A directory as a binary record log laid out in pages. Entries keep the
   order in which their names were first entered; [index] maps a name to
   its position in that order. Byte offsets follow from the order and the
   name lengths alone (see [place]), so the log position is all an entry
   needs to remember: a remove or re-insert rewrites its record in place
   (same name, same length) and a new name lands after the last record. *)

module Page = Storage.Page

type status = Live | Tombstone

type entry = { name : string; ino : int; status : status; stamp : float; origin : int }

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

let lookup t name =
  match find_entry t name with
  | Some { status = Live; ino; _ } -> Some ino
  | Some { status = Tombstone; _ } | None -> None

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

let insert t ~name ~ino ~stamp ~origin =
  if not (valid_name name) then invalid_arg "Dir.insert: invalid name";
  check_origin "Dir.insert" origin;
  let e = { name; ino; status = Live; stamp; origin } in
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

let encode t =
  let size = ref 0 in
  for i = 0 to t.len - 1 do
    let n = header + String.length t.log.(i).name in
    size := place !size n + n
  done;
  let b = Bytes.make !size '\000' in
  let off = ref 0 in
  for i = 0 to t.len - 1 do
    let e = t.log.(i) in
    let nlen = String.length e.name in
    let at = place !off (header + nlen) in
    Bytes.set_uint8 b at (match e.status with Live -> 1 | Tombstone -> 2);
    Bytes.set_uint16_be b (at + 1) nlen;
    Bytes.set_uint16_be b (at + 3) e.origin;
    Bytes.set_int64_be b (at + 5) (Int64.of_int e.ino);
    Bytes.set_int64_be b (at + 13) (Int64.bits_of_float e.stamp);
    Bytes.blit_string e.name 0 b (at + header) nlen;
    off := at + header + nlen
  done;
  Bytes.unsafe_to_string b

let decode s =
  let len = String.length s in
  (* A record is at least 22 bytes: size the index once. *)
  let t = create (16 + (len / 22)) in
  let rec go off =
    if off < len then begin
      let page_end = min len ((off / Page.size + 1) * Page.size) in
      match String.get_uint8 s off with
      | 0 -> go page_end
      | (1 | 2) as code ->
        if off + header > page_end then failwith "Dir.decode: truncated record";
        let nlen = String.get_uint16_be s (off + 1) in
        let stop = off + header + nlen in
        if nlen = 0 || stop > page_end then failwith "Dir.decode: truncated record";
        let name = String.sub s (off + header) nlen in
        if Hashtbl.mem t.index name then failwith "Dir.decode: duplicate name";
        append t
          {
            name;
            ino = Int64.to_int (String.get_int64_be s (off + 5));
            status = (if code = 1 then Live else Tombstone);
            stamp = Int64.float_of_bits (String.get_int64_be s (off + 13));
            origin = String.get_uint16_be s (off + 3);
          };
        go stop
      | _ -> failwith "Dir.decode: bad status"
    end
  in
  go 0;
  t

let copy t = { index = Hashtbl.copy t.index; log = Array.sub t.log 0 t.len; len = t.len }

let equal a b = all_entries a = all_entries b
