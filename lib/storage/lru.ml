(* O(1) LRU with a per-file index: a hashtable from key to node, an
   intrusive doubly linked recency ring (the most recent entry's newer
   neighbour is the least recent, the next eviction victim), and a ring
   per file through that file's entries, found by the file's number in a
   second table. A node alone in a ring links to itself, so keeping the
   rings allocates nothing but a file's first entry. Every operation is
   constant time except [drop_file], which walks one file's ring,
   [filter_out], which walks the recency ring, and [clear].

   The core is generic over the key and the cached value: the buffer
   caches ({!Cache}, holding pages), the pathname name cache (holding
   directory links) and the kernel's per-file tables are all instances.
   A value is held and returned by reference, never copied: pages are
   immutable, and the other instances share their records on purpose. *)

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

  val create : ?on_evict:(key -> unit) -> capacity:int -> unit -> t

  val find : t -> key -> value option

  val mem : t -> key -> bool

  val insert : t -> key -> value -> unit

  val invalidate : t -> key -> unit

  val drop_file : ?only:(key -> value -> bool) -> t -> int -> int

  val filter_out : t -> (key -> value -> bool) -> int

  val clear : t -> unit

  val length : t -> int

  val capacity : t -> int

  val keys_mru : t -> key list

  val hits : t -> int

  val misses : t -> int

  val evictions : t -> int
end

module Make (K : KEY) (V : VALUE) = struct
  type key = K.t

  type value = V.t

  module Tbl = Hashtbl.Make (K)

  module Files = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal

    let hash x = x
  end)

  type node = {
    n_key : key;
    mutable n_value : value;
    mutable n_older : node; (* recency ring *)
    mutable n_newer : node;
    mutable n_fprev : node; (* the file's ring *)
    mutable n_fnext : node;
    n_file : file;
  }

  and file = { f_id : int; mutable f_node : node (* any entry of the file *) }

  type t = {
    capacity : int;
    table : node Tbl.t;
    files : file Files.t;
    mutable mru : node option;
    on_evict : key -> unit;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ?(on_evict = fun _ -> ()) ~capacity () =
    if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
    {
      capacity;
      table = Tbl.create capacity;
      files = Files.create capacity;
      mru = None;
      on_evict;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let unlink t n =
    if n.n_older == n then t.mru <- None
    else begin
      n.n_newer.n_older <- n.n_older;
      n.n_older.n_newer <- n.n_newer;
      (match t.mru with Some m when m == n -> t.mru <- Some n.n_older | _ -> ());
      n.n_older <- n;
      n.n_newer <- n
    end

  let push_front t n =
    (match t.mru with
    | None -> ()
    | Some m ->
      let lru = m.n_newer in
      n.n_older <- m;
      n.n_newer <- lru;
      lru.n_older <- n;
      m.n_newer <- n);
    t.mru <- Some n

  let touch t n =
    match t.mru with
    | Some m when m == n -> ()
    | Some _ | None ->
      unlink t n;
      push_front t n

  let find t key =
    match Tbl.find_opt t.table key with
    | Some n ->
      t.hits <- t.hits + 1;
      touch t n;
      Some n.n_value
    | None ->
      t.misses <- t.misses + 1;
      None

  let mem t key = Tbl.mem t.table key

  let remove_node t n =
    unlink t n;
    Tbl.remove t.table n.n_key;
    let f = n.n_file in
    if n.n_fnext == n then Files.remove t.files f.f_id
    else begin
      n.n_fprev.n_fnext <- n.n_fnext;
      n.n_fnext.n_fprev <- n.n_fprev;
      if f.f_node == n then f.f_node <- n.n_fnext
    end

  (* A new node, linked into its file's ring (a new one when it is the
     file's first entry). *)
  let make_node t key value =
    let id = K.file key in
    match Files.find_opt t.files id with
    | Some f ->
      let rec n =
        { n_key = key; n_value = value; n_older = n; n_newer = n; n_fprev = n; n_fnext = n;
          n_file = f }
      in
      let next = f.f_node.n_fnext in
      n.n_fprev <- f.f_node;
      n.n_fnext <- next;
      next.n_fprev <- n;
      f.f_node.n_fnext <- n;
      n
    | None ->
      let rec n =
        { n_key = key; n_value = value; n_older = n; n_newer = n; n_fprev = n; n_fnext = n;
          n_file = f }
      and f = { f_id = id; f_node = n } in
      Files.add t.files id f;
      n

  let insert t key value =
    match Tbl.find_opt t.table key with
    | Some n ->
      n.n_value <- value;
      touch t n
    | None ->
      let n = make_node t key value in
      Tbl.add t.table key n;
      push_front t n;
      while Tbl.length t.table > t.capacity do
        match t.mru with
        | Some m ->
          let victim = m.n_newer in
          remove_node t victim;
          t.evictions <- t.evictions + 1;
          t.on_evict victim.n_key
        | None -> Tbl.reset t.table (* unreachable: the ring mirrors the table *)
      done

  let invalidate t key =
    match Tbl.find_opt t.table key with
    | Some n -> remove_node t n
    | None -> ()

  (* Drops are silent: [on_evict] reports capacity pressure only, so an
     invalidation or a clear fires no hook and counts no eviction. *)
  let drop_file ?only t id =
    match Files.find_opt t.files id with
    | None -> 0
    | Some f ->
      let first = f.f_node in
      let rec victims n acc =
        let acc =
          match only with Some keep when not (keep n.n_key n.n_value) -> acc | _ -> n :: acc
        in
        if n.n_fnext == first then acc else victims n.n_fnext acc
      in
      let victims = victims first [] in
      List.iter (remove_node t) victims;
      List.length victims

  (* A walk of the recency ring: its cost follows the entries held, not
     the table's size. *)
  let filter_out t pred =
    match t.mru with
    | None -> 0
    | Some m ->
      let rec victims n acc =
        let acc = if pred n.n_key n.n_value then n :: acc else acc in
        if n.n_older == m then acc else victims n.n_older acc
      in
      let victims = victims m [] in
      List.iter (remove_node t) victims;
      List.length victims

  let clear t =
    Tbl.reset t.table;
    Files.reset t.files;
    t.mru <- None

  let length t = Tbl.length t.table

  let capacity t = t.capacity

  let keys_mru t =
    match t.mru with
    | None -> []
    | Some m ->
      let rec go acc n = if n == m then List.rev acc else go (n.n_key :: acc) n.n_older in
      go [ m.n_key ] m.n_older

  let hits t = t.hits

  let misses t = t.misses

  let evictions t = t.evictions
end
