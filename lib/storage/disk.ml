type addr = int

exception Disk_full

type t = {
  pages : Page.t option array;
  mutable free_head : int list;
  mutable next_fresh : int;
  mutable used : int;
  mutable reads : int;
  mutable writes : int;
}

let create ?(pages = 65536) () =
  {
    pages = Array.make pages None;
    free_head = [];
    next_fresh = 1; (* address 0 reserved *)
    used = 0;
    reads = 0;
    writes = 0;
  }

let capacity t = Array.length t.pages - 1

let alloc t =
  let addr =
    match t.free_head with
    | a :: rest ->
      t.free_head <- rest;
      a
    | [] ->
      if t.next_fresh >= Array.length t.pages then raise Disk_full
      else begin
        let a = t.next_fresh in
        t.next_fresh <- t.next_fresh + 1;
        a
      end
  in
  t.pages.(addr) <- Some (Page.blank);
  t.used <- t.used + 1;
  addr

let check t addr =
  if addr <= 0 || addr >= Array.length t.pages then
    invalid_arg "Disk: address out of range"

let free t addr =
  check t addr;
  match t.pages.(addr) with
  | None -> invalid_arg "Disk.free: page not allocated"
  | Some _ ->
    t.pages.(addr) <- None;
    t.free_head <- addr :: t.free_head;
    t.used <- t.used - 1

let read t addr =
  check t addr;
  match t.pages.(addr) with
  | None -> invalid_arg "Disk.read: page not allocated"
  | Some p ->
    t.reads <- t.reads + 1;
    p

let write t addr page =
  check t addr;
  match t.pages.(addr) with
  | None -> invalid_arg "Disk.write: page not allocated"
  | Some _ ->
    t.writes <- t.writes + 1;
    t.pages.(addr) <- Some page

let is_allocated t addr =
  addr > 0 && addr < Array.length t.pages && t.pages.(addr) <> None

let used t = t.used

let reads t = t.reads

let writes t = t.writes
