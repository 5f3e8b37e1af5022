module Imap = Map.Make (Int)

type site = int

type t = int Imap.t
(* Invariant: no zero components are stored, so structural equality of the
   maps coincides with vector equality. *)

let zero = Imap.empty

let of_list l =
  List.fold_left
    (fun acc (s, n) -> if n = 0 then acc else Imap.add s n acc)
    Imap.empty l

let to_list t = Imap.bindings t

let get t s = match Imap.find_opt s t with Some n -> n | None -> 0

let bump t s = Imap.add s (get t s + 1) t

let merge a b = Imap.union (fun _ x y -> Some (max x y)) a b

type order = Equal | Dominates | Dominated | Concurrent

let compare_vv a b =
  (* One pass over the union of components, tracking whether each side has a
     strictly larger component somewhere. *)
  let a_gt = ref false and b_gt = ref false in
  let check s =
    let x = get a s and y = get b s in
    if x > y then a_gt := true;
    if y > x then b_gt := true
  in
  Imap.iter (fun s _ -> check s) a;
  Imap.iter (fun s _ -> check s) b;
  match (!a_gt, !b_gt) with
  | false, false -> Equal
  | true, false -> Dominates
  | false, true -> Dominated
  | true, true -> Concurrent

let dominates_or_equal a b =
  match compare_vv a b with Equal | Dominates -> true | Dominated | Concurrent -> false

let conflict a b = compare_vv a b = Concurrent

(* The no-zero invariant makes equal vectors equal maps: no per-component
   lookups on the US cache's every probe. *)
let equal a b = a == b || Imap.equal Int.equal a b

(* For printing: rendered with a [Buffer], not a formatter. *)
let to_string t =
  let b = Buffer.create 16 in
  Buffer.add_char b '<';
  Imap.iter
    (fun s n ->
      if Buffer.length b > 1 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int s);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int n))
    t;
  Buffer.add_char b '>';
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

let pp_order ppf = function
  | Equal -> Format.pp_print_string ppf "equal"
  | Dominates -> Format.pp_print_string ppf "dominates"
  | Dominated -> Format.pp_print_string ppf "dominated"
  | Concurrent -> Format.pp_print_string ppf "concurrent"

