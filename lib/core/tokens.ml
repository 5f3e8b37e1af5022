(* The token mechanism (section 3.2).

   Unix semantics make parent and child share one open-file descriptor, so
   the current file position behaves like shared memory across machines.
   LOCUS keeps a descriptor copy at each site, with exactly one valid at any
   time; a token marks which. The descriptor's *origin site* manages the
   token: a site that needs the offset asks the manager, the manager
   retrieves the state from the current holder (invalidating its copy) and
   grants the token to the requester. *)

open Ktypes

let manager_of (key : fd_key) = fst key

let find_fd k key = Hashtbl.find_opt k.shared_fds key

let get_fd k key =
  match find_fd k key with
  | Some fd -> fd
  | None -> err Proto.Einval "unknown shared descriptor"

(* This site's first copy of a descriptor, made with the open at its
   origin, which holds the token, or with none at a site that inherited
   it, which opens lazily and leaves the token where it was. *)
let add_fd k key ~gf ~mode ofile =
  let fd =
    {
      f_key = key;
      f_gf = gf;
      f_mode = mode;
      f_offset = 0;
      f_holder = manager_of key;
      f_valid = Option.is_some ofile;
      f_refs = 1;
      f_ofile = ofile;
    }
  in
  Hashtbl.add k.shared_fds key fd;
  fd

let create_fd k ~gf ~mode ~ofile = add_fd k (k.site, fresh_serial k) ~gf ~mode (Some ofile)

let install_remote_fd k ~key ~gf ~mode =
  match find_fd k key with
  | Some fd ->
    fd.f_refs <- fd.f_refs + 1;
    fd
  | None -> add_fd k key ~gf ~mode None

(* Drop this site's copy of a descriptor. A close can fail mid-protocol
   (its commit leg raises when the SS died); the open is then released,
   or it leaks, dirty, holding the CSS write lock. *)
let drop_fd k fd =
  (match fd.f_ofile with
  | Some o -> ( try Us.close k o with Error _ -> Us.release k o)
  | None -> ());
  Hashtbl.remove k.shared_fds fd.f_key

let release_fd k key =
  match find_fd k key with
  | Some fd ->
    fd.f_refs <- fd.f_refs - 1;
    if fd.f_refs <= 0 then drop_fd k fd
  | None -> ()

(* Yielding the token makes this site's writes readable by the next
   holder through the shared offset: any write-behind run must reach the
   SS before the token leaves. *)
let flush_before_yield k fd =
  match fd.f_ofile with
  | Some o when not o.o_closed -> ( try Us.flush_wb k o with Error _ -> ())
  | Some _ | None -> ()

(* Manager side: grant the token to [for_site], recalling it from the
   current holder first. *)
let handle_token_req k key ~for_site =
  match find_fd k key with
  | None -> err Proto.Einval "no descriptor for the token"
  | Some fd ->
    if Site.equal fd.f_holder for_site then string_of_int fd.f_offset
    else begin
      let offset =
        let req = Proto.Token_state_req { key = Proto.Tok_fd (fst key, snd key) } in
        match rpc_result k fd.f_holder req with
        | Ok state -> int_of_string_opt state
        | Stdlib.Error _ -> None
        (* Transport failure here becomes EDEADTOKEN below: the holder of
           the offset token is unreachable (section 3.2). *)
      in
      match offset with
      | None -> err Proto.Edeadtoken "the token holder did not yield"
      | Some off ->
        fd.f_holder <- for_site;
        fd.f_offset <- off;
        Sim.Stats.incr (stats k) "token.flip";
        record k ~tag:"token.grant" "%a -> %a off=%d" Proto.pp_token
          (Proto.Tok_fd (fst key, snd key)) Site.pp for_site off;
        string_of_int off
    end

(* Holder side: yield the token, returning the guarded state. *)
let handle_token_state_req k key =
  match find_fd k key with
  | None -> err Proto.Einval "no descriptor for the token"
  | Some fd ->
    flush_before_yield k fd;
    fd.f_valid <- false;
    string_of_int fd.f_offset

(* Using-site side: make sure this site's copy of the descriptor is the
   valid one before using the file position. *)
let acquire k fd =
  if not fd.f_valid then begin
    let key = Proto.Tok_fd (fst fd.f_key, snd fd.f_key) in
    match rpc_result k (manager_of fd.f_key) (Proto.Token_req { key; for_site = k.site }) with
    | Ok state ->
      fd.f_offset <- (match int_of_string_opt state with Some v -> v | None -> 0);
      fd.f_valid <- true;
      (* The token came from elsewhere: another site touched this shared
         open since we last did. Any retained lease grant on the file must
         revalidate through the CSS rather than short-circuit the open. *)
      Openlease.kill k.open_leases fd.f_gf
    | Stdlib.Error (Net.Netsim.Refused _) ->
      err Proto.Edeadtoken "could not acquire descriptor token"
    | Stdlib.Error e -> err Proto.Enet "%a" Transport.pp_error e
  end

(* Recovery hook: a site left the partition. Reclaim tokens it held (the
   offset reverts to the manager's last known value) and drop descriptor
   entries whose only user processes lived at the dead site — e.g. a
   process that exec'd away and then died with its site. No surviving
   local process references them, so no close will ever arrive; without
   the sweep they leak in [shared_fds] forever. *)
let handle_site_failure k dead =
  let referenced = Hashtbl.create (table_size k.net) in
  Hashtbl.iter
    (fun _ p ->
      match p.p_status with
      | Running -> Hashtbl.iter (fun _ key -> Hashtbl.replace referenced key ()) p.p_fds
      | Exited _ -> ())
    k.procs;
  let stranded =
    Hashtbl.fold
      (fun key fd acc ->
        if
          Site.equal (manager_of key) k.site
          && Site.equal fd.f_holder dead
          && not (Hashtbl.mem referenced key)
        then (key, fd) :: acc
        else acc)
      k.shared_fds []
  in
  List.iter
    (fun (key, fd) ->
      drop_fd k fd;
      record k ~tag:"cleanup" "dropped stranded fd (%d,%d)" (fst key) (snd key))
    stranded;
  Hashtbl.iter
    (fun _ fd ->
      if Site.equal (manager_of fd.f_key) k.site && Site.equal fd.f_holder dead then begin
        fd.f_holder <- k.site;
        fd.f_valid <- true
      end)
    k.shared_fds
