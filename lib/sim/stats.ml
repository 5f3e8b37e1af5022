type hist = {
  mutable h_data : float array;
  mutable h_len : int;
  mutable h_sorted : bool;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    hists = Hashtbl.create 16;
  }

(* A counter handle IS the underlying cell: resolving it once (one string
   hash) lets a hot path increment with a single memory write. The string
   API below stays for reports and cold paths. *)
type counter = int ref

(* [find], not [find_opt]: a by-name bump of an existing counter then
   allocates no option. *)
let counter t name =
  match Hashtbl.find t.counters name with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let cincr (c : counter) = Stdlib.incr c

let cadd (c : counter) n = c := !c + n

let cget (c : counter) = !c

let incr t name = Stdlib.incr (counter t name)

let add t name n =
  let r = counter t name in
  r := !r + n

let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* ---- histograms ---- *)

(* Histogram handles, like counter handles: resolve the name once, then
   every observation is an array store. *)
type histogram = hist

let hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = { h_data = Array.make 64 0.0; h_len = 0; h_sorted = true } in
    Hashtbl.add t.hists name h;
    h

let histogram = hist

let hobserve (h : histogram) v =
  if h.h_len = Array.length h.h_data then begin
    let bigger = Array.make (2 * h.h_len) 0.0 in
    Array.blit h.h_data 0 bigger 0 h.h_len;
    h.h_data <- bigger
  end;
  h.h_data.(h.h_len) <- v;
  h.h_len <- h.h_len + 1;
  h.h_sorted <- h.h_sorted && (h.h_len < 2 || h.h_data.(h.h_len - 2) <= v)

let hist_observe t name v = hobserve (hist t name) v

let ensure_sorted h =
  if not h.h_sorted then begin
    let live = Array.sub h.h_data 0 h.h_len in
    Array.sort Float.compare live;
    Array.blit live 0 h.h_data 0 h.h_len;
    h.h_sorted <- true
  end

let hist_count t name =
  match Hashtbl.find_opt t.hists name with Some h -> h.h_len | None -> 0

(* Nearest-rank percentile: guarantees p <= q implies value(p) <= value(q). *)
let hist_percentile t name p =
  match Hashtbl.find_opt t.hists name with
  | None -> 0.0
  | Some h when h.h_len = 0 -> 0.0
  | Some h ->
    ensure_sorted h;
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.h_len)) in
    let idx = max 0 (min (h.h_len - 1) (rank - 1)) in
    h.h_data.(idx)

let hist_mean t name =
  match Hashtbl.find_opt t.hists name with
  | None -> 0.0
  | Some h when h.h_len = 0 -> 0.0
  | Some h ->
    let sum = ref 0.0 in
    for i = 0 to h.h_len - 1 do
      sum := !sum +. h.h_data.(i)
    done;
    !sum /. float_of_int h.h_len

type hist_summary = {
  n : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  hmax : float;
}

let hist_summary t name =
  {
    n = hist_count t name;
    mean = hist_mean t name;
    p50 = hist_percentile t name 50.0;
    p95 = hist_percentile t name 95.0;
    p99 = hist_percentile t name 99.0;
    hmax = hist_percentile t name 100.0;
  }

let hist_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.hists []
  |> List.sort String.compare

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.hists

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* A snapshot is a hashtable, not an assoc list: [delta] compares every
   live counter against it, and with the flood experiment's counter sets
   (hundreds of names) the old [List.assoc] per counter made reporting
   O(n^2). *)
type snapshot = (string, int) Hashtbl.t

let snapshot t =
  let snap = Hashtbl.create (max 16 (Hashtbl.length t.counters)) in
  Hashtbl.iter (fun name r -> Hashtbl.replace snap name !r) t.counters;
  snap

let old_of snap name =
  match Hashtbl.find_opt snap name with Some v -> v | None -> 0

let delta t snap =
  counters t
  |> List.filter_map (fun (name, v) ->
         let d = v - old_of snap name in
         if d = 0 then None else Some (name, d))

let delta_of t snap name = get t name - old_of snap name
