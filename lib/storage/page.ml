let size = 1024

type t = Bytes.t

let blank () = Bytes.make size '\000'

let copy = Bytes.copy

let of_string ?(pos = 0) s =
  let p = blank () in
  let n = max 0 (min (String.length s - pos) size) in
  Bytes.blit_string s pos p 0 n;
  p

let to_string p = Bytes.to_string p

let blit_string s page off = Bytes.blit_string s 0 page off (String.length s)

let sub page off len = Bytes.sub_string page off len

let get_u32 p off = Int32.to_int (Bytes.get_int32_be p off) land 0xffff_ffff

let set_u32 p off v = Bytes.set_int32_be p off (Int32.of_int v)

let equal = Bytes.equal
