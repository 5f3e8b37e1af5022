(* Global invariant checks over a quiesced world.

   Run only after the driver has reset message loss, restarted every dead
   site, healed + merged, and settled the engine — the invariants below are
   statements about a fully-recovered cluster, not about a mid-fault one.

   The checks walk state no single existing test audits together: US open
   tables and write-behind runs, SS serving registrations and shadow
   sessions, the lease tables on both sides, CSS lock state, shared
   descriptors, the propagation queues, every pack's allocation map, the
   version vectors of every surviving copy, and the model of what the
   workload committed. *)

module World = Locus.World
module Opstream = Locus.Opstream
module Kernel = Locus_core.Kernel
module Css = Locus_core.Css
module Openlease = Locus_core.Openlease
module K = Locus_core.Ktypes
module Site = Net.Site
module Gfile = Catalog.Gfile
module Dir = Catalog.Dir
module Inode = Storage.Inode
module Pack = Storage.Pack
module Vvec = Vv.Version_vector

type violation = { v_code : string; v_detail : string }

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.v_code v.v_detail

(* ---- the durability model ----
   Folded from the op stream's write records. Per path: the digest of the
   last write that definitely committed, plus those of later attempts
   that failed ambiguously (an error at the US does not prove the commit
   did not execute at the SS — e.g. a lost commit reply). The final
   content of a non-conflicted file must be one of these. *)

type model = (string, Digest.t list) Hashtbl.t

let model_of records : model =
  let m = Hashtbl.create 32 in
  List.iter
    (fun (r : Opstream.record) ->
      if r.Opstream.kind = Opstream.Edit then
        Hashtbl.replace m r.Opstream.path
          (match r.Opstream.errno, Hashtbl.find_opt m r.Opstream.path with
          | None, _ | Some _, None -> [ r.Opstream.digest ]
          | Some _, Some l -> r.Opstream.digest :: l))
    records;
  m

let model_admissible admissible body = List.mem (Digest.string body) admissible

(* ---- helpers ---- *)

let alive_kernels w =
  List.filter (fun k -> k.K.alive) (World.kernels w)

let vf code fmt = Format.kasprintf (fun s -> { v_code = code; v_detail = s }) fmt

(* The conflict flag of (fg, ino), read at the filegroup's current CSS. *)
let conflicted w ~fg ~ino =
  match alive_kernels w with
  | [] -> false
  | k :: _ -> (
    let css = World.kernel w (K.fg_info k fg).K.css_site in
    match Css.find_file css fg ino with
    | Some cf -> cf.K.css_conflict
    | None -> false)

(* ---- per-site quiesce residue ---- *)

let check_site w k =
  let out = ref [] in
  let add v = out := v :: !out in
  let site = k.K.site in
  (* US side: every open closed, no dirty state, no write-behind runs. *)
  Hashtbl.iter
    (fun _ (o : K.ofile) ->
      if not o.K.o_closed then
        add (vf "orphan-open" "site %d: %a still open (mode %s)" site Gfile.pp
               o.K.o_gf
               (match o.K.o_mode with
                | Proto.Mode_modify -> "modify"
                | _ -> "read"));
      if o.K.o_dirty then
        add (vf "orphan-dirty" "site %d: %a dirty after quiesce" site Gfile.pp
               o.K.o_gf);
      if o.K.o_wb <> None then
        add (vf "orphan-wb" "site %d: %a has an unflushed write-behind run"
               site Gfile.pp o.K.o_gf))
    k.K.open_files;
  (* Leases: the final merge drops every lease table; a survivor means a
     lease was granted across the merge, or the merge missed a member. *)
  let nleases = Openlease.length k.K.open_leases in
  if nleases > 0 then
    add (vf "orphan-lease" "site %d: %d lease(s) survived the merge"
           site nleases);
  (* SS side: no shadow sessions, and every serving registration must be
     backed by an actual open (or lease) at the using site it names. *)
  Gfile.Tbl.iter
    (fun gf (s : K.ss_open) ->
      if s.K.s_shadow <> None then
        add (vf "orphan-shadow" "site %d: %a has a live shadow session" site
               Gfile.pp gf);
      Site.Map.iter
        (fun us count ->
          let uk = World.kernel w us in
          let backed =
            Hashtbl.fold
              (fun _ (o : K.ofile) acc ->
                acc || (Gfile.equal o.K.o_gf gf && not o.K.o_closed))
              uk.K.open_files false
            || Openlease.find_entry uk.K.open_leases gf <> None
          in
          if not backed then
            add (vf "orphan-ss-registration"
                   "site %d: still serving %a for US %d (count %d) with no \
                    open or lease behind it"
                   site Gfile.pp gf us count))
        s.K.s_uss)
    k.K.ss_opens;
  (* Shared descriptors: the workload closes everything it opens. *)
  Hashtbl.iter
    (fun (origin, serial) (f : K.shared_fd) ->
      if f.K.f_refs > 0 then
        add (vf "orphan-fd" "site %d: descriptor (%d,%d) on %a still has %d ref(s)"
               site origin serial Gfile.pp f.K.f_gf f.K.f_refs))
    k.K.shared_fds;
  (* Propagation fully drained. *)
  if not (Queue.is_empty k.K.prop_queue) || not (Gfile.Set.is_empty k.K.prop_pending)
  then
    add (vf "prop-not-drained" "site %d: %d queued / %d pending propagation items"
           site (Queue.length k.K.prop_queue)
           (Gfile.Set.cardinal k.K.prop_pending));
  (* CSS lock state: with nothing open, no readers, writers or leases. *)
  Hashtbl.iter
    (fun fg (cfg : K.css_fg) ->
      if Css.is_css k fg then
        Hashtbl.iter
          (fun ino (cf : K.css_file) ->
            if cf.K.writer <> None then
              add (vf "css-stale-writer" "CSS %d: (%d,%d) has a writer at quiesce"
                     site fg ino);
            if not (Site.Map.is_empty cf.K.readers) then
              add (vf "css-stale-reader"
                     "CSS %d: (%d,%d) has %d reader entrie(s) at quiesce" site fg
                     ino (Site.Map.cardinal cf.K.readers));
            if cf.K.leases <> [] then
              add (vf "css-stale-lease"
                     "CSS %d: (%d,%d) has %d lease grant(s) at quiesce" site fg
                     ino (List.length cf.K.leases)))
          cfg.K.css_files)
    k.K.css_state;
  (* Disk allocation maps: no orphan shadow pages, no double allocation. *)
  Hashtbl.iter
    (fun fg pack ->
      List.iter
        (fun e ->
          add (vf "fsck" "site %d fg %d: %a" site fg Pack.pp_fsck_error e))
        (Pack.fsck pack))
    k.K.packs;
  !out

(* ---- cross-copy version-vector lattice + convergence ---- *)

let check_copies w =
  let out = ref [] in
  let add v = out := v :: !out in
  (* (fg, ino) -> (site, pack, inode) list over every alive site's packs. *)
  let copies : (int * int, (Site.t * Pack.t * Inode.t) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun k ->
      Hashtbl.iter
        (fun fg pack ->
          List.iter
            (fun (i : Inode.t) ->
              if not i.Inode.deleted then begin
                let key = (fg, i.Inode.ino) in
                let cell =
                  match Hashtbl.find_opt copies key with
                  | Some c -> c
                  | None ->
                    let c = ref [] in
                    Hashtbl.add copies key c;
                    c
                in
                cell := (k.K.site, pack, i) :: !cell
              end)
            (Pack.inodes pack))
        k.K.packs)
    (alive_kernels w);
  Hashtbl.iter
    (fun (fg, ino) cell ->
      let rec pairs = function
        | [] -> ()
        | (s1, p1, (i1 : Inode.t)) :: rest ->
          List.iter
            (fun (s2, p2, (i2 : Inode.t)) ->
              match Vvec.compare_vv i1.Inode.vv i2.Inode.vv with
              | Vvec.Equal ->
                let b1 = Pack.read_string p1 i1 and b2 = Pack.read_string p2 i2 in
                let same =
                  if Inode.is_directory i1 && Inode.is_directory i2 then
                    (* A copy that does not even decode is its own finding;
                       report it as divergence rather than crash the checker. *)
                    match Dir.decode b1, Dir.decode b2 with
                    | d1, d2 -> Dir.equal d1 d2
                    | exception _ -> false
                  else String.equal b1 b2
                in
                if not same then
                  add (vf "split-brain"
                         "(%d,%d): equal vv %s at sites %d and %d but contents \
                          differ" fg ino (Vvec.to_string i1.Inode.vv) s1 s2)
              | Vvec.Concurrent ->
                if not (conflicted w ~fg ~ino) then
                  add (vf "undetected-conflict"
                         "(%d,%d): concurrent vv %s (site %d) vs %s (site %d) \
                          with no conflict flag at the CSS" fg ino
                         (Vvec.to_string i1.Inode.vv) s1
                         (Vvec.to_string i2.Inode.vv) s2)
              | Vvec.Dominates | Vvec.Dominated ->
                if not (conflicted w ~fg ~ino) then
                  add (vf "propagation-not-converged"
                         "(%d,%d): site %d holds %s, site %d holds %s after \
                          quiesce" fg ino s1 (Vvec.to_string i1.Inode.vv) s2
                         (Vvec.to_string i2.Inode.vv)))
            rest;
          pairs rest
      in
      pairs !cell)
    copies;
  !out

(* ---- durability + readability of committed writes ---- *)

let check_model w (m : model) =
  let out = ref [] in
  let add v = out := v :: !out in
  let ks = alive_kernels w in
  Hashtbl.iter
    (fun path admissible ->
      (* Locate the file to read its conflict flag. *)
      let gf =
        match ks with
        | [] -> None
        | k :: _ -> (
          let p = World.proc w k.K.site in
          try Some (Kernel.resolve k p path) with K.Error _ -> None)
      in
      let is_conflicted =
        match gf with
        | Some g -> conflicted w ~fg:g.Gfile.fg ~ino:g.Gfile.ino
        | None -> false
      in
      if is_conflicted then begin
        (* Concurrent partition writes: content equality is undefined, but
           no version may be lost — some pack must still hold a copy. *)
        match gf with
        | None -> ()
        | Some g ->
          let preserved =
            List.exists
              (fun k ->
                match Hashtbl.find_opt k.K.packs g.Gfile.fg with
                | Some pack -> (
                  match Pack.find_inode pack g.Gfile.ino with
                  | Some i -> not i.Inode.deleted
                  | None -> false)
                | None -> false)
              ks
          in
          if not preserved then
            add (vf "conflict-data-lost" "%s: conflicted but no copy survives"
                   path)
      end
      else begin
        let reads =
          List.map
            (fun k ->
              let p = World.proc w k.K.site in
              match Kernel.read_file k p path with
              | body -> (k.K.site, Ok body)
              | exception K.Error (e, _) -> (k.K.site, Error e))
            ks
        in
        List.iter
          (fun (site, r) ->
            match r with
            | Error e ->
              add (vf "unreadable" "%s: read failed at site %d: %s" path site
                     (Proto.errno_to_string e))
            | Ok body ->
              if not (model_admissible admissible body) then
                add (vf "committed-write-lost"
                       "%s at site %d: %S is neither the last committed body \
                        nor any ambiguous later write" path site
                       (if String.length body > 40 then String.sub body 0 40
                        else body)))
          reads;
        match List.filter_map (fun (_, r) -> Result.to_option r) reads with
        | b :: rest when not (List.for_all (String.equal b) rest) ->
          add (vf "read-divergence" "%s: alive sites disagree on content" path)
        | _ -> ()
      end)
    m;
  !out

(* ---- namespace convergence: create/unlink churn agrees everywhere ---- *)

let check_namespace w records =
  let out = ref [] in
  let ks = alive_kernels w in
  let churned =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (r : Opstream.record) ->
           if r.Opstream.kind = Opstream.Dirop then Some r.Opstream.path else None)
         records)
  in
  List.iter (fun path ->
    let states =
      List.map
        (fun k ->
          let p = World.proc w k.K.site in
          match Kernel.stat k p path with
          | _ -> (k.K.site, true)
          | exception K.Error _ -> (k.K.site, false))
        ks
    in
    match states with
    | (_, first) :: rest when not (List.for_all (fun (_, b) -> b = first) rest)
      ->
      out :=
        vf "namespace-divergence" "%s: present at %s, absent at %s" path
          (String.concat ","
             (List.filter_map
                (fun (s, b) -> if b then Some (string_of_int s) else None)
                states))
          (String.concat ","
             (List.filter_map
                (fun (s, b) -> if b then None else Some (string_of_int s))
                states))
        :: !out
    | _ -> ())
    churned;
  !out

let check w records =
  (* Order is load-bearing: [check_model] / [check_namespace] issue real
     reads and stats, and a read plants a fresh retained lease (plus CSS
     reader/holder entries) by design — so the residue checks must walk
     the quiesced state *before* any check perturbs it. OCaml evaluates
     list literals right-to-left; bind explicitly. *)
  let site_v = List.concat_map (check_site w) (alive_kernels w) in
  let copies_v = check_copies w in
  let model_v = check_model w (model_of records) in
  let namespace_v = check_namespace w records in
  List.concat [ site_v; copies_v; model_v; namespace_v ]
