(* The benchmark's own model of the file system, against which every
   result is checked: the last committed body of every data file and the
   live names of every hot directory.

   A failed write may still have committed (its reply was lost), so the
   next read accepts either body and pins whichever it saw.

   While the network is split, each side reads the newest version its own
   copies hold. That is the version committed last before the split
   unless a copy on that side missed a propagation; so the first read of a
   file on a side may return any earlier committed version, which then
   pins that side's view (counted as a stale split read) until the side
   writes the file itself. *)

module W = Workload

type t = {
  w : W.t;
  revs : int array;  (* the revision a read must return *)
  maybe : int array; (* a failed write's revision, or -1 *)
  committed : (int, int) Hashtbl.t;  (* revision -> file, for every commit *)
  mutable split : bool;
  view : int array array;  (* while split: side -> file -> pinned revision, or -1 *)
  mutable stale : int;
  live : (int, unit) Hashtbl.t array;          (* hot dir -> live names *)
  unsure : (string, unit) Hashtbl.t array;     (* names a failed dirop left in doubt *)
  mutable mismatches : int;
}

let create (w : W.t) =
  let live = Array.init w.dirs (fun _ -> Hashtbl.create 64) in
  List.iter (fun (d, n) -> Hashtbl.replace live.(d) n ()) (W.prefill_names w);
  {
    w;
    revs = Array.make w.files 0;
    maybe = Array.make w.files (-1);
    committed = Hashtbl.create 1024;
    split = false;
    view = Array.init 2 (fun _ -> Array.make w.files (-1));
    stale = 0;
    live;
    unsure = Array.init w.dirs (fun _ -> Hashtbl.create 8);
    mismatches = 0;
  }

let mismatches t = t.mismatches

let mismatch t = t.mismatches <- t.mismatches + 1

let stale_reads t = t.stale

(* The revision a body carries, if it is exactly a body [file] was ever
   committed with (or the set-up body). *)
let committed_rev t ~file body =
  match Scanf.sscanf_opt body "f%d r%d|" (fun f r -> (f, r)) with
  | Some (f, rev)
    when f = file
         && (rev = 0 || Hashtbl.find_opt t.committed rev = Some file)
         && String.equal body (W.body t.w ~file ~rev) ->
    Some rev
  | _ -> None

let check_read t ~site ~file body =
  if t.split then begin
    let view = t.view.(W.side site) in
    if view.(file) >= 0 then begin
      if not (String.equal body (W.body t.w ~file ~rev:view.(file))) then mismatch t
    end
    else
      match committed_rev t ~file body with
      | Some rev when rev <= t.revs.(file) ->
        if rev < t.revs.(file) then t.stale <- t.stale + 1;
        view.(file) <- rev
      | _ -> mismatch t
  end
  else if not (String.equal body (W.body t.w ~file ~rev:t.revs.(file))) then begin
    let m = t.maybe.(file) in
    if m >= 0 && String.equal body (W.body t.w ~file ~rev:m) then begin
      t.revs.(file) <- m;
      t.maybe.(file) <- -1
    end
    else mismatch t
  end

let wrote t ~site ~file ~rev ~ok =
  Hashtbl.replace t.committed rev file;
  if ok then begin
    if t.split then t.view.(W.side site).(file) <- rev else t.revs.(file) <- rev;
    t.maybe.(file) <- -1
  end
  else t.maybe.(file) <- rev

let split t =
  Array.iter (fun v -> Array.fill v 0 (Array.length v) (-1)) t.view;
  t.split <- true

let healed t = t.split <- false

(* After a heal every current copy of a file ([None]: the pack holds
   none) must hold one and the same body, one that some write committed;
   the merge's choice becomes the model. *)
let check_merged t ~file copies =
  match List.sort_uniq compare copies with
  | [ Some body ] -> (
    match committed_rev t ~file body with
    | Some rev ->
      t.revs.(file) <- rev;
      t.maybe.(file) <- -1
    | None -> mismatch t)
  | _ -> mismatch t

let created t ~dir ~name ~ok =
  if ok then Hashtbl.replace t.live.(dir) name ()
  else Hashtbl.replace t.unsure.(dir) (W.name_name name) ()

let unlinked t ~dir ~name ~ok =
  if ok then Hashtbl.remove t.live.(dir) name
  else Hashtbl.replace t.unsure.(dir) (W.name_name name) ()

(* A hot directory's listing must hold exactly ".", "..", its data files
   and its live names (names a failed dirop left in doubt are skipped). *)
let check_dir t ~dir listing =
  let files =
    List.filter (fun f -> W.file_dir t.w f = dir) (List.init t.w.files Fun.id)
  in
  let expected =
    "." :: ".."
    :: (List.map W.file_name files
       @ Hashtbl.fold (fun n () acc -> W.name_name n :: acc) t.live.(dir) [])
  in
  let norm l =
    List.sort String.compare (List.filter (fun n -> not (Hashtbl.mem t.unsure.(dir) n)) l)
  in
  if norm expected <> norm listing then mismatch t
