let size = 1024

type t = string

let blank = String.make size '\000'

let of_string ?(pos = 0) s =
  if pos = 0 && String.length s = size then s
  else begin
    let p = Bytes.make size '\000' in
    Bytes.blit_string s pos p 0 (max 0 (min (String.length s - pos) size));
    Bytes.unsafe_to_string p
  end

let patch page off data =
  let p = Bytes.of_string page in
  Bytes.blit_string data 0 p off (String.length data);
  Bytes.unsafe_to_string p

let sub page off len = if off = 0 && len = size then page else String.sub page off len

let get_u32 p off = Int32.to_int (String.get_int32_be p off) land 0xffff_ffff

let of_u32s a =
  let p = Bytes.make size '\000' in
  Array.iteri (fun i v -> Bytes.set_int32_be p (4 * i) (Int32.of_int v)) a;
  Bytes.unsafe_to_string p
