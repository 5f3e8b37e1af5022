type t = { fg : int; ino : int }

let make ~fg ~ino = { fg; ino }

let compare a b =
  match Int.compare a.fg b.fg with 0 -> Int.compare a.ino b.ino | c -> c

let equal a b = a.fg = b.fg && a.ino = b.ino

let id t = (t.fg lsl 32) lor t.ino

module Key = struct
  type nonrec t = t

  let equal = equal

  let hash = id

  (* The LRU tables keyed by a file never drop by file: one ring holds
     every entry, so an entry costs no index of its own. *)
  let file _ = 0
end

module Tbl = Hashtbl.Make (Key)

let pp ppf t = Format.fprintf ppf "<%d,%d>" t.fg t.ino

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
