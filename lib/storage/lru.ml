(* O(1) LRU: a hashtable from key to list node plus an intrusive doubly
   linked recency list (head = most recent, tail = next eviction victim).
   Every operation except [filter_out]/[invalidate_if] and [clear] is
   constant time.

   The recency-list core is generic over the cached value: the buffer
   caches ({!Cache}, holding pages) and the pathname name cache (holding
   directory links) are both instances. [V.copy] isolates the cache's copy
   of a value from the caller's — identity for immutable values. *)

module type VALUE = sig
  type t

  val copy : t -> t
end

module Make (V : VALUE) = struct
  type 'k node = {
    n_key : 'k;
    mutable n_value : V.t;
    mutable n_prev : 'k node option;
    mutable n_next : 'k node option;
  }

  type 'k t = {
    capacity : int;
    table : ('k, 'k node) Hashtbl.t;
    mutable head : 'k node option; (* most recently used *)
    mutable tail : 'k node option; (* least recently used *)
    on_evict : 'k -> unit;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ?(on_evict = fun _ -> ()) ~capacity () =
    if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
    {
      capacity;
      table = Hashtbl.create capacity;
      head = None;
      tail = None;
      on_evict;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let unlink t n =
    (match n.n_prev with
    | Some p -> p.n_next <- n.n_next
    | None -> t.head <- n.n_next);
    (match n.n_next with
    | Some s -> s.n_prev <- n.n_prev
    | None -> t.tail <- n.n_prev);
    n.n_prev <- None;
    n.n_next <- None

  let push_front t n =
    n.n_prev <- None;
    n.n_next <- t.head;
    (match t.head with Some h -> h.n_prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let touch t n =
    match t.head with
    | Some h when h == n -> ()
    | Some _ | None ->
      unlink t n;
      push_front t n

  let find t key =
    match Hashtbl.find_opt t.table key with
    | Some n ->
      t.hits <- t.hits + 1;
      touch t n;
      Some (V.copy n.n_value)
    | None ->
      t.misses <- t.misses + 1;
      None

  let mem t key = Hashtbl.mem t.table key

  let remove_node t n =
    unlink t n;
    Hashtbl.remove t.table n.n_key

  let insert t key value =
    match Hashtbl.find_opt t.table key with
    | Some n ->
      n.n_value <- V.copy value;
      touch t n
    | None ->
      let n = { n_key = key; n_value = V.copy value; n_prev = None; n_next = None } in
      Hashtbl.replace t.table key n;
      push_front t n;
      while Hashtbl.length t.table > t.capacity do
        match t.tail with
        | Some victim ->
          remove_node t victim;
          t.evictions <- t.evictions + 1;
          t.on_evict victim.n_key
        | None -> Hashtbl.reset t.table (* unreachable: list mirrors the table *)
      done

  let invalidate t key =
    match Hashtbl.find_opt t.table key with
    | Some n -> remove_node t n
    | None -> ()

  (* Bulk removals are silent: [on_evict] reports capacity pressure only,
     so an invalidation or a clear fires no hook and counts no eviction. *)
  let filter_out t pred =
    let victims =
      Hashtbl.fold
        (fun key n acc -> if pred key n.n_value then n :: acc else acc)
        t.table []
    in
    List.iter (remove_node t) victims;
    List.length victims

  let invalidate_if t pred = ignore (filter_out t (fun key _ -> pred key))

  let clear t =
    Hashtbl.reset t.table;
    t.head <- None;
    t.tail <- None

  let length t = Hashtbl.length t.table

  let capacity t = t.capacity

  let keys_mru t =
    let rec go acc = function
      | None -> List.rev acc
      | Some n -> go (n.n_key :: acc) n.n_next
    in
    go [] t.head

  let hits t = t.hits

  let misses t = t.misses

  let evictions t = t.evictions
end
