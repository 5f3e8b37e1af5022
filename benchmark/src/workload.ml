(* The five workload shapes and their seeded op streams.

   A workload fixes the world (16 sites, which of them hold packs, the
   replication factor), the working set that set-up populates, and the op
   mix. [generate] turns (workload, seed) into the whole op stream before
   anything runs, so the stream is a pure function of the seed and the
   untraced and traced runs replay exactly the same operations. The
   generator keeps its own model of every hot directory's live names and
   assumes each op succeeds; [Oracle] tracks what actually happened. *)

module Rng = Sim.Rng
module Zipf = Locus.Zipf

type mix = { read : int; write : int; dirop : int; stat : int }
(* Percentages of the op stream. A dirop is a create of a fresh name or an
   unlink of a live one, with even odds. *)

type t = {
  name : string;
  packs : int list;   (* sites holding a pack of the one filegroup *)
  ncopies : int;
  files : int;        (* data files of the working set *)
  pages : int;        (* pages per data file *)
  dirs : int;         (* hot directories the files and names spread over *)
  prefill : int;      (* extra names per hot directory created at set-up *)
  file_skew : float;  (* Zipf exponent of file popularity; 0 is uniform *)
  dir_skew : float;   (* Zipf exponent of hot-directory popularity *)
  mix : mix;
  rate : int;
      (* measured ops per second of --seconds: sized so one second of
         ops takes about one host second on a 2-core x86-64 box, but a
         constant, so a seed always yields the same op count *)
  cycle : int;        (* ops per partition/heal cycle; 0 never partitions *)
}

let n_sites = 16

(* Sites below [half] form one side of the partition, the rest the other. *)
let half = n_sites / 2

let side site = if site < half then 0 else 1

let all =
  [
    {
      name = "read_hot";
      packs = [ 0; 1; 2; 3 ];
      ncopies = 2;
      files = 1024;
      pages = 2;
      dirs = 16;
      prefill = 0;
      file_skew = 1.1;
      dir_skew = 1.1;
      mix = { read = 95; write = 4; dirop = 1; stat = 0 };
      rate = 16000;
      cycle = 0;
    };
    {
      name = "scan_cold";
      packs = [ 0; 1; 2; 3 ];
      ncopies = 2;
      files = 1536;
      pages = 16;
      dirs = 16;
      prefill = 0;
      file_skew = 0.0;
      dir_skew = 0.0;
      mix = { read = 100; write = 0; dirop = 0; stat = 0 };
      rate = 5000;
      cycle = 0;
    };
    {
      name = "write_commit";
      packs = [ 0; 1; 2; 3 ];
      ncopies = 3;
      files = 512;
      pages = 8;
      dirs = 16;
      prefill = 0;
      file_skew = 0.8;
      dir_skew = 0.8;
      mix = { read = 30; write = 70; dirop = 0; stat = 0 };
      rate = 4000;
      cycle = 0;
    };
    {
      name = "dir_churn";
      packs = [ 0; 1; 2; 3 ];
      ncopies = 2;
      files = 0;
      pages = 0;
      dirs = 8;
      prefill = 512;
      file_skew = 0.0;
      dir_skew = 1.1;
      mix = { read = 0; write = 0; dirop = 90; stat = 10 };
      rate = 600;
      cycle = 0;
    };
    {
      name = "partition_heal";
      packs = [ 0; 1; 8; 9 ];
      ncopies = 3;
      files = 256;
      pages = 2;
      dirs = 8;
      prefill = 0;
      file_skew = 0.0;
      dir_skew = 0.0;
      mix = { read = 80; write = 15; dirop = 5; stat = 0 };
      rate = 5000;
      cycle = 1000;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let names = List.map (fun w -> w.name) all

(* ---- the namespace ---- *)

let root = "/b"

let dir_path d = Printf.sprintf "%s/d%d" root d

let file_name f = Printf.sprintf "f%d" f

let name_name n = Printf.sprintf "n%d" n

(* Data file [f] lives in hot directory [f mod dirs]: popular files spread
   over the directories. *)
let file_dir w f = f mod w.dirs

let file_path w f = Printf.sprintf "%s/d%d/f%d" root (file_dir w f) f

let name_path d n = Printf.sprintf "%s/d%d/n%d" root d n

let body_size w = w.pages * Storage.Page.size

(* The body revision [rev] of file [f] writes: a header naming both, so a
   misdirected or stale read differs in its first bytes, over a filler that
   also depends on both. Revision 0 is the body set-up writes. *)
let body w ~file ~rev =
  let size = body_size w in
  let b = Bytes.make size (Char.chr (97 + (((file * 7) + rev) mod 26))) in
  let h = Printf.sprintf "f%d r%d|" file rev in
  Bytes.blit_string h 0 b 0 (min size (String.length h));
  Bytes.unsafe_to_string b

(* ---- op streams ---- *)

type op =
  | Read of { site : int; file : int }      (* open, read all, close *)
  | Write of { site : int; file : int; rev : int }
      (* open to modify, overwrite the whole body, commit, close *)
  | Create of { site : int; dir : int; name : int }
  | Unlink of { site : int; dir : int; name : int }
  | Stat of { site : int; dir : int; name : int }
  | Split  (* partition into sides {0..7} and {8..15} *)
  | Heal   (* heal the network, merge, reconcile *)

type stream = {
  ops : op array;
  warm : int;      (* the first [warm] entries are the untimed warm-up *)
  measured : int;  (* file-system ops after the warm-up (Split/Heal excluded) *)
}

(* A bag of ints with O(1) add, uniform pick and removal. *)
module Bag = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 16 0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let get b i = b.a.(i)

  let take b i =
    let x = b.a.(i) in
    b.n <- b.n - 1;
    b.a.(i) <- b.a.(b.n);
    x
end

(* The live names of every hot directory, as the generator expects them.
   A create always takes a name never used before, so unlinked names stay
   behind as tombstones and a hot directory's entries grow over a run.

   While the network is split, a side writes only files of its own
   parity and unlinks only names it created since the split, so the two
   sides never race on one object. *)
type names = {
  live : Bag.t array;              (* hot dir -> live names *)
  since_split : Bag.t array array; (* hot dir -> side -> names created while split *)
  mutable next : int;              (* the next fresh name *)
}

(* Set-up creates names 0 .. prefill-1 in every hot directory. *)
let initial_names w =
  let names =
    {
      live = Array.init w.dirs (fun _ -> Bag.create ());
      since_split = Array.init w.dirs (fun _ -> [| Bag.create (); Bag.create () |]);
      next = w.prefill;
    }
  in
  for d = 0 to w.dirs - 1 do
    for n = 0 to w.prefill - 1 do
      Bag.add names.live.(d) n
    done
  done;
  names

let prefill_names w =
  List.concat_map (fun d -> List.init w.prefill (fun n -> (d, n))) (List.init w.dirs Fun.id)

(* [scale] shrinks the op count and the partition cycle alike (the
   self-test runs at 1/100). *)
let cycle_len w ~scale =
  if w.cycle = 0 then 0 else max 20 (int_of_float (float_of_int w.cycle *. scale))

(* Ops per measured phase: [rate] per second, rounded up to whole
   partition cycles. *)
let measured_ops w ~seconds ~scale =
  let n = max 1 (int_of_float (Float.round (float_of_int w.rate *. seconds *. scale))) in
  let c = cycle_len w ~scale in
  if c > 0 then c * ((n + c - 1) / c) else n

let generate ?(scale = 1.0) w ~seed ~seconds =
  let rng = Rng.create (Int64.of_int seed) in
  let file_z = Zipf.create ~n:(max 1 w.files) ~s:w.file_skew in
  let dir_z = Zipf.create ~n:w.dirs ~s:w.dir_skew in
  let names = initial_names w in
  let measured = measured_ops w ~seconds ~scale in
  let cycle = cycle_len w ~scale in
  (* The warm-up is the first tenth of the whole stream. *)
  let warm = measured / 9 in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let split = ref false in
  let rev = ref 0 in
  let live d site = if !split then names.since_split.(d).(side site) else names.live.(d) in
  let create site d =
    let name = names.next in
    names.next <- name + 1;
    Bag.add (live d site) name;
    Create { site; dir = d; name }
  in
  (* A live name of [d] the site may touch, removed if [unlink]; with none,
     the op becomes a create. *)
  let pick site d ~unlink =
    let b = live d site in
    if b.Bag.n = 0 then create site d
    else
      let i = Rng.int rng b.Bag.n in
      if unlink then Unlink { site; dir = d; name = Bag.take b i }
      else Stat { site; dir = d; name = Bag.get b i }
  in
  let one () =
    let site = Rng.int rng n_sites in
    let roll = Rng.int rng 100 in
    let m = w.mix in
    if roll < m.read then Read { site; file = Zipf.sample file_z rng }
    else if roll < m.read + m.write then begin
      let f = Zipf.sample file_z rng in
      (* While split, a side writes only files of its own parity. *)
      let f = if !split then (f land lnot 1) lor side site else f in
      let f = if f >= w.files then f - 2 else f in
      incr rev;
      Write { site; file = f; rev = !rev }
    end
    else begin
      let d = Zipf.sample dir_z rng in
      if roll < m.read + m.write + m.dirop then
        if Rng.bool rng then create site d else pick site d ~unlink:true
      else pick site d ~unlink:false
    end
  in
  for _ = 1 to warm do
    emit (one ())
  done;
  for i = 0 to measured - 1 do
    if cycle > 0 && i mod cycle = cycle / 2 then begin
      split := true;
      emit Split
    end;
    emit (one ());
    if cycle > 0 && i mod cycle = cycle - 1 then begin
      split := false;
      Array.iteri
        (fun d sides ->
          Array.iter
            (fun (b : Bag.t) ->
              for i = 0 to b.Bag.n - 1 do
                Bag.add names.live.(d) (Bag.get b i)
              done;
              b.Bag.n <- 0)
            sides)
        names.since_split;
      emit Heal
    end
  done;
  { ops = Array.of_list (List.rev !ops); warm; measured }
