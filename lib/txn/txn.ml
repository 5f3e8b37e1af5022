module Kernel = Locus_core.Kernel
module K = Locus_core.Ktypes
module Us = Locus_core.Us
module Site = Net.Site

type status = Active | Committed | Aborted

exception Txn_error of string

type lock = {
  l_path : string;
  l_ofile : K.ofile; (* open-for-modification handle: holds the CSS lock *)
}

type t = {
  t_id : int;
  t_kernel : Kernel.t;
  t_proc : K.proc;
  t_parent : t option;
  mutable t_children : t list;
  mutable t_status : status;
  mutable t_writes : (string * string) list; (* path -> buffered contents *)
  mutable t_created : string list;
  mutable t_locks : lock list; (* owned locks (top-level owns inherited ones) *)
}

let counter = ref 0

(* Active top-level transactions, newest first, for partition cleanup.
   The list is process-global, so each lookup keeps the asking kernel's
   own: another world's kernel may have the same site number. *)
let active = ref []

let active_at k = List.filter (fun t -> t.t_kernel == k) !active

let retire t = active := List.filter (fun x -> x != t) !active

let id t = t.t_id

let status t = t.t_status

let rec depth t = match t.t_parent with None -> 0 | Some p -> 1 + depth p

let check_active t =
  if t.t_status <> Active then raise (Txn_error "transaction is not active")

let begin_top k proc =
  incr counter;
  let t =
    {
      t_id = !counter;
      t_kernel = k;
      t_proc = proc;
      t_parent = None;
      t_children = [];
      t_status = Active;
      t_writes = [];
      t_created = [];
      t_locks = [];
    }
  in
  active := t :: !active;
  t

let begin_sub parent =
  check_active parent;
  incr counter;
  let t =
    {
      t_id = !counter;
      t_kernel = parent.t_kernel;
      t_proc = parent.t_proc;
      t_parent = Some parent;
      t_children = [];
      t_status = Active;
      t_writes = [];
      t_created = [];
      t_locks = [];
    }
  in
  parent.t_children <- t :: parent.t_children;
  t

(* Read through the transaction stack: own writes, then ancestors', then
   the filesystem. *)
let rec read t path =
  check_active t;
  match List.assoc_opt path t.t_writes with
  | Some body -> body
  | None -> (
    match t.t_parent with
    | Some p -> read p path
    | None -> Kernel.read_file t.t_kernel t.t_proc path)

let rec holds_lock t path =
  List.exists (fun l -> String.equal l.l_path path) t.t_locks
  || (match t.t_parent with Some p -> holds_lock p path | None -> false)

let take_lock t path =
  if not (holds_lock t path) then begin
    let k = t.t_kernel in
    let gf = Kernel.resolve k t.t_proc path in
    match Us.open_gf k gf Proto.Mode_modify with
    | o ->
      t.t_locks <- { l_path = path; l_ofile = o } :: t.t_locks
    | exception K.Error (e, _) ->
      raise (Txn_error (Printf.sprintf "cannot lock %s: %s" path (Proto.errno_to_string e)))
  end

let write t path body =
  check_active t;
  take_lock t path;
  t.t_writes <- (path, body) :: List.remove_assoc path t.t_writes

let create t path =
  check_active t;
  ignore (Kernel.creat t.t_kernel t.t_proc path);
  t.t_created <- path :: t.t_created;
  take_lock t path;
  t.t_writes <- (path, "") :: List.remove_assoc path t.t_writes

let release_locks t =
  (* [Us.release] rather than abort-then-close: an abort that raises (the
     SS died) must not keep the close from running, or the lock handle
     leaks its serving registration. *)
  List.iter (fun l -> Us.release t.t_kernel l.l_ofile) t.t_locks;
  t.t_locks <- []

let rec abort t =
  if t.t_status = Active then begin
    List.iter (fun c -> abort c) t.t_children;
    (* Undo creations done under this transaction, once its own locks are
       gone: an unlink of a file open for modification is refused. *)
    release_locks t;
    List.iter
      (fun path -> try Kernel.unlink t.t_kernel t.t_proc path with K.Error _ -> ())
      t.t_created;
    t.t_writes <- [];
    t.t_created <- [];
    t.t_status <- Aborted;
    if Option.is_none t.t_parent then retire t
  end

(* Publish a top-level transaction's writes: each file goes through the
   standard shadow-page commit; the locks we already hold are the
   open-for-modification handles. *)
let publish_top t =
  List.iter
    (fun (path, body) ->
      let lock =
        match List.find_opt (fun l -> String.equal l.l_path path) t.t_locks with
        | Some l -> l
        | None -> raise (Txn_error ("internal: no lock for " ^ path))
      in
      Us.set_contents t.t_kernel lock.l_ofile body;
      Us.commit t.t_kernel lock.l_ofile)
    (List.rev t.t_writes);
  List.iter
    (fun l -> try Us.close t.t_kernel l.l_ofile with K.Error _ -> ())
    t.t_locks;
  t.t_locks <- []

let commit t =
  check_active t;
  (* Active children must finish first; commit them into us. *)
  if List.exists (fun c -> c.t_status = Active) t.t_children then
    raise (Txn_error "subtransactions still active");
  match t.t_parent with
  | Some p ->
    check_active p;
    (* Merge write set, created list and locks into the parent. *)
    List.iter
      (fun (path, body) ->
        p.t_writes <- (path, body) :: List.remove_assoc path p.t_writes)
      (List.rev t.t_writes);
    p.t_created <- t.t_created @ p.t_created;
    p.t_locks <- t.t_locks @ p.t_locks;
    t.t_locks <- [];
    t.t_writes <- [];
    t.t_status <- Committed
  | None ->
    publish_top t;
    t.t_status <- Committed;
    retire t

let rec touched_sites t =
  (* Closed handles still count: cleanup may have closed them just before
     asking which transactions the failure dooms. A lock is a modify
     open: it touches its one SS. *)
  let own = List.map (fun l -> l.l_ofile.K.o_ss) t.t_locks in
  let kids = List.concat_map touched_sites t.t_children in
  List.sort_uniq Site.compare (own @ kids)

let handle_site_failure k dead =
  let doomed = List.filter (fun t -> List.mem dead (touched_sites t)) (active_at k) in
  List.iter abort doomed;
  List.length doomed

let active_count k = List.length (active_at k)
