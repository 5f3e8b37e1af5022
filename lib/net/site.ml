type t = int

let compare = Int.compare

let equal = Int.equal

let pp ppf s = Format.fprintf ppf "s%d" s

let to_string s = Format.asprintf "%a" pp s

module Set = Set.Make (Int)
module Map = Map.Make (Int)
