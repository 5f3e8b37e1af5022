(* O(1) LRU with a per-file index, laid out as a slab: the layout of
   {!Sim.Eheap}. An entry is a slot, an index into parallel arrays: its
   key and value, its neighbours in the recency ring ([older]/[newer]:
   the most recent entry's newer neighbour is the least recent, the next
   eviction victim) and in its file's ring ([fprev]/[fnext]), and the
   mixed hashes of its key and of its file. Two open-addressing [int]
   tables find a slot: the key index, by key, and the file index, from a
   file's number to one entry of that file's ring. So a hit, an insert
   that evicts, an invalidation or a drop relinks [int]s only: it
   allocates nothing but [find]'s [Some], and the only pointers it stores
   are the new key and value and the filler that clears a vacated slot.

   The slot arrays are created at the first insert, filled with that
   entry's key and value (the filler: one key and value kept alive for
   the cache's lifetime), and a vacated slot is reset to the filler, so an
   evicted page is not retained. They start at 8 slots and double up to
   one more than the capacity (an insert files the new entry, then
   evicts), rebuilding both tables at each doubling; a cache that never
   fills never pays for its capacity. A capacity of 0 is the same path
   with one slot: an insert files the entry and evicts it at once. Freed
   slots are a free list threaded through [newer].

   Both tables probe linearly from the top bits of the hash times a
   63-bit Fibonacci constant (a [Gfile.id]'s low bits are the inode's
   alone), hold [slot + 1] with 0 for empty, are at least twice the
   slots, and delete by shifting later cells of the probe run back
   instead of leaving tombstones, so a probe run never outgrows the
   entries in it. Multiplying by an odd constant is a bijection, so equal
   mixed file hashes are equal files.

   Every operation is constant time except [drop_file], which walks one
   file's ring, [filter_out] and [fold], which walk the recency ring, and
   [clear], O(slots). The core is generic over the key and the cached value: the
   kernel's two buffer caches (holding pages), the pathname name cache
   (holding directory links), the open-lease table, the storage site's
   directory indexes and the kernel's per-file tables are all
   instances. A value is held and returned by reference, never copied:
   pages are immutable, and the other instances share their records on
   purpose. *)

module type KEY = sig
  type t

  val equal : t -> t -> bool

  val hash : t -> int

  val file : t -> int
end

module type VALUE = sig
  type t
end

module type S = sig
  type key

  type value

  type t

  val create : ?on_evict:(key -> value -> unit) -> capacity:int -> unit -> t

  val find : t -> key -> value option

  val peek : t -> key -> value option

  val mem : t -> key -> bool

  val oldest : t -> (key * value) option

  val insert : t -> key -> value -> unit

  val invalidate : t -> key -> unit

  val drop_file : ?only:(key -> value -> bool) -> t -> int -> int

  val filter_out : t -> (key -> value -> bool) -> int

  val clear : t -> unit

  val length : t -> int

  val capacity : t -> int

  val fold : (key -> value -> 'acc -> 'acc) -> t -> 'acc -> 'acc

  val keys_mru : t -> key list
end

let mix h = h * 0x4F1BBCDCBFA53E0B

let initial_slots = 8

(* The smallest table of at least twice [slots] cells, as its size and
   the shift that takes a mixed hash to its home cell. *)
let table_for slots =
  let rec go size bits = if size >= 2 * slots then (size, 63 - bits) else go (2 * size) (bits + 1) in
  go 1 0

(* The cell of [index] holding the slot whose mixed hash in [hashes] is
   [h], or -1. Only for the file index, where the hash is the file. *)
let lookup index hashes shift h =
  let mask = Array.length index - 1 in
  let i = ref (h lsr shift) and found = ref (-2) in
  while !found = -2 do
    let c = index.(!i) in
    if c = 0 then found := -1
    else if hashes.(c - 1) = h then found := !i
    else i := (!i + 1) land mask
  done;
  !found

(* Files [cell] (a slot + 1, whose mixed hash is in [hashes]) in the first
   empty cell of its probe run. *)
let place index hashes shift cell =
  let mask = Array.length index - 1 in
  let i = ref (hashes.(cell - 1) lsr shift) in
  while index.(!i) <> 0 do
    i := (!i + 1) land mask
  done;
  index.(!i) <- cell

(* Empties cell [i], moving back each later cell of the probe run whose
   home does not lie between the hole and itself, so no lookup meets a
   hole before the cell it seeks. *)
let unindex index hashes shift i =
  let mask = Array.length index - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while index.(!j) <> 0 do
    let c = index.(!j) in
    let home = hashes.(c - 1) lsr shift in
    if (!j - home) land mask >= (!j - !hole) land mask then begin
      index.(!hole) <- c;
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  index.(!hole) <- 0

module Make (K : KEY) (V : VALUE) = struct
  type key = K.t

  type value = V.t

  type t = {
    capacity : int;
    on_evict : key -> value -> unit;
    mutable keys : key array; (* the slot arrays: empty until the first insert *)
    mutable values : value array;
    mutable older : int array; (* recency ring *)
    mutable newer : int array; (* recency ring; a free slot's next free slot *)
    mutable fprev : int array; (* the file's ring *)
    mutable fnext : int array;
    mutable hashes : int array; (* mixed [K.hash] of the slot's key *)
    mutable fhashes : int array; (* mixed [K.file] of the slot's key *)
    mutable index : int array; (* key index *)
    mutable findex : int array; (* file index: one entry of each file *)
    mutable shift : int; (* both tables' *)
    mutable filler : (key * value) option; (* the first entry inserted *)
    mutable mru : int; (* -1: empty *)
    mutable free : int; (* -1: no free slot *)
    mutable length : int;
  }

  let create ?(on_evict = fun _ _ -> ()) ~capacity () =
    if capacity < 0 then invalid_arg "Lru.create: capacity must not be negative";
    {
      capacity;
      on_evict;
      keys = [||];
      values = [||];
      older = [||];
      newer = [||];
      fprev = [||];
      fnext = [||];
      hashes = [||];
      fhashes = [||];
      index = [||];
      findex = [||];
      shift = 0;
      filler = None;
      mru = -1;
      free = -1;
      length = 0;
    }

  (* Puts slots [from] to [upto - 1] on the free list, lowest first. *)
  let free_slots t from upto =
    for s = upto - 1 downto from do
      t.newer.(s) <- t.free;
      t.free <- s
    done

  (* Doubles the slots (the first call creates them, filled with the
     entry being inserted), threads the new ones onto the free list and
     rebuilds both tables at the new size. *)
  let grow t key value =
    let n = Array.length t.keys in
    let m = min (max initial_slots (2 * n)) (t.capacity + 1) in
    let fill_key, fill_value =
      match t.filler with
      | Some f -> f
      | None ->
        t.filler <- Some (key, value);
        (key, value)
    in
    let extend a fill =
      let b = Array.make m fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.keys <- extend t.keys fill_key;
    t.values <- extend t.values fill_value;
    t.older <- extend t.older 0;
    t.newer <- extend t.newer 0;
    t.fprev <- extend t.fprev 0;
    t.fnext <- extend t.fnext 0;
    t.hashes <- extend t.hashes 0;
    t.fhashes <- extend t.fhashes 0;
    free_slots t n m;
    let size, shift = table_for m in
    let index = Array.make size 0 and findex = Array.make size 0 in
    Array.iter (fun c -> if c <> 0 then place index t.hashes shift c) t.index;
    Array.iter (fun c -> if c <> 0 then place findex t.fhashes shift c) t.findex;
    t.index <- index;
    t.findex <- findex;
    t.shift <- shift

  (* The slot holding [key], whose mixed hash is [h], or -1. *)
  let slot_of t key h =
    if t.length = 0 then -1
    else begin
      let index = t.index and hashes = t.hashes and keys = t.keys in
      let mask = Array.length index - 1 in
      let i = ref (h lsr t.shift) and found = ref (-2) in
      while !found = -2 do
        let c = index.(!i) in
        if c = 0 then found := -1
        else if hashes.(c - 1) = h && K.equal keys.(c - 1) key then found := c - 1
        else i := (!i + 1) land mask
      done;
      !found
    end

  let find_slot t key = slot_of t key (mix (K.hash key))

  let unlink t s =
    let older = t.older and newer = t.newer in
    if older.(s) = s then t.mru <- -1
    else begin
      newer.(older.(s)) <- newer.(s);
      older.(newer.(s)) <- older.(s);
      if t.mru = s then t.mru <- older.(s)
    end

  let push_front t s =
    let older = t.older and newer = t.newer in
    let m = t.mru in
    if m < 0 then begin
      older.(s) <- s;
      newer.(s) <- s
    end
    else begin
      let lru = newer.(m) in
      older.(s) <- m;
      newer.(s) <- lru;
      older.(lru) <- s;
      newer.(m) <- s
    end;
    t.mru <- s

  (* The least recent entry becomes the most recent by turning the ring. *)
  let touch t s =
    if s <> t.mru then
      if t.newer.(t.mru) = s then t.mru <- s
      else begin
        unlink t s;
        push_front t s
      end

  let find t key =
    let s = find_slot t key in
    if s >= 0 then begin
      touch t s;
      Some t.values.(s)
    end
    else None

  let peek t key =
    let s = find_slot t key in
    if s >= 0 then Some t.values.(s) else None

  let mem t key = find_slot t key >= 0

  let oldest t =
    if t.length = 0 then None
    else
      let s = t.newer.(t.mru) in
      Some (t.keys.(s), t.values.(s))

  let remove t s =
    unlink t s;
    let index = t.index and shift = t.shift in
    let mask = Array.length index - 1 in
    let i = ref (t.hashes.(s) lsr shift) in
    while index.(!i) <> s + 1 do
      i := (!i + 1) land mask
    done;
    unindex index t.hashes shift !i;
    let fi = lookup t.findex t.fhashes shift t.fhashes.(s) in
    let next = t.fnext.(s) in
    if next = s then unindex t.findex t.fhashes shift fi
    else begin
      let prev = t.fprev.(s) in
      t.fnext.(prev) <- next;
      t.fprev.(next) <- prev;
      if t.findex.(fi) = s + 1 then t.findex.(fi) <- next + 1
    end;
    (match t.filler with
    | Some (k, v) ->
      t.keys.(s) <- k;
      t.values.(s) <- v
    | None -> ());
    t.newer.(s) <- t.free;
    t.free <- s;
    t.length <- t.length - 1

  let insert t key value =
    let h = mix (K.hash key) in
    let s = slot_of t key h in
    if s >= 0 then begin
      t.values.(s) <- value;
      touch t s
    end
    else begin
      if t.free < 0 then grow t key value;
      let s = t.free in
      t.free <- t.newer.(s);
      t.keys.(s) <- key;
      t.values.(s) <- value;
      t.hashes.(s) <- h;
      let fh = mix (K.file key) in
      t.fhashes.(s) <- fh;
      place t.index t.hashes t.shift (s + 1);
      let fi = lookup t.findex t.fhashes t.shift fh in
      if fi < 0 then begin
        t.fprev.(s) <- s;
        t.fnext.(s) <- s;
        place t.findex t.fhashes t.shift (s + 1)
      end
      else begin
        let first = t.findex.(fi) - 1 in
        let next = t.fnext.(first) in
        t.fprev.(s) <- first;
        t.fnext.(s) <- next;
        t.fprev.(next) <- s;
        t.fnext.(first) <- s
      end;
      t.length <- t.length + 1;
      push_front t s;
      if t.length > t.capacity then begin
        let victim = t.newer.(t.mru) in
        let key = t.keys.(victim) and value = t.values.(victim) in
        remove t victim;
        t.on_evict key value
      end
    end

  let invalidate t key =
    let s = find_slot t key in
    if s >= 0 then remove t s

  (* Drops are silent: [on_evict] reports capacity pressure only, so an
     invalidation or a clear fires no hook. A walk
     removes as it goes: it reads a slot's successor first, and stops
     after the slot that was last when it started. *)
  let drop_file ?only t file =
    let fi = if t.length = 0 then -1 else lookup t.findex t.fhashes t.shift (mix file) in
    if fi < 0 then 0
    else begin
      let first = t.findex.(fi) - 1 in
      let last = t.fprev.(first) in
      let s = ref first and fin = ref false and dropped = ref 0 in
      while not !fin do
        let cur = !s in
        fin := cur = last;
        s := t.fnext.(cur);
        let victim =
          match only with Some keep -> keep t.keys.(cur) t.values.(cur) | None -> true
        in
        if victim then begin
          remove t cur;
          incr dropped
        end
      done;
      !dropped
    end

  (* A walk of the recency ring, most recent first: its cost follows the
     entries held, not the slots. *)
  let filter_out t pred =
    if t.length = 0 then 0
    else begin
      let last = t.newer.(t.mru) in
      let s = ref t.mru and fin = ref false and dropped = ref 0 in
      while not !fin do
        let cur = !s in
        fin := cur = last;
        s := t.older.(cur);
        if pred t.keys.(cur) t.values.(cur) then begin
          remove t cur;
          incr dropped
        end
      done;
      !dropped
    end

  let clear t =
    let n = Array.length t.keys in
    (match t.filler with
    | Some (k, v) ->
      Array.fill t.keys 0 n k;
      Array.fill t.values 0 n v
    | None -> ());
    Array.fill t.index 0 (Array.length t.index) 0;
    Array.fill t.findex 0 (Array.length t.findex) 0;
    t.free <- -1;
    free_slots t 0 n;
    t.mru <- -1;
    t.length <- 0

  let length t = t.length

  let capacity t = t.capacity

  (* The recency ring, least recent first. *)
  let fold f t acc =
    if t.length = 0 then acc
    else begin
      let mru = t.mru in
      let rec go acc s =
        let acc = f t.keys.(s) t.values.(s) acc in
        if s = mru then acc else go acc t.newer.(s)
      in
      go acc t.newer.(mru)
    end

  let keys_mru t = fold (fun key _ keys -> key :: keys) t []
end
