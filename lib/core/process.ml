(* Remote processes (section 3).

   Programs execute at any site with no rebinding: fork and exec are
   controlled by execution-site advice in the process environment; [run] is
   the optimized fork+exec that skips copying the parent image. Signals and
   exit status cross machine boundaries; failures of the parent's or
   child's machine are reflected as error signals with details deposited in
   the process structure (section 3.3). *)

open Ktypes
module Inode = Storage.Inode

let sigchld = 17

let sigerr = 99 (* error signal reflecting a remote failure, section 3.3 *)

let fresh_pid k = (k.site * 1_000_000) + fresh_serial k

let find_proc k pid = Hashtbl.find_opt k.procs pid

let get_proc k pid =
  match find_proc k pid with
  | Some p -> p
  | None -> err Proto.Esrch "no process %d at %a" pid Site.pp k.site

let create_process k ~uid =
  let p =
    {
      pid = fresh_pid k;
      p_site = k.site;
      p_parent = None;
      p_uid = uid;
      p_cwd = Catalog.Mount.root k.mount;
      p_context = [ k.machine_type ];
      p_ncopies = 1;
      p_advice = [];
      p_fds = Hashtbl.create 8;
      p_next_fd = 3;
      p_status = Running;
      p_children = [];
      p_signals = [];
      p_zombies = [];
      p_err_info = None;
      p_image_pages = 16;
    }
  in
  Hashtbl.add k.procs p.pid p;
  p

(* Where should a new process (or exec) go? The advice list is consulted
   in order; the first site in the current partition wins; with no usable
   advice, execution is local (the paper's default). *)
let choose_site k proc =
  match List.find_opt (fun s -> in_partition k s) proc.p_advice with
  | Some s -> s
  | None -> k.site

(* The environment shipped with a process to another site. Its
   descriptors become shared across sites, so a writer's open here stops
   caching its own pages (see [Us.share]). *)
let env_of k proc =
  let fds =
    Hashtbl.fold
      (fun num key acc ->
        match Tokens.find_fd k key with
        | Some fd ->
          Option.iter (Us.share k) fd.f_ofile;
          { Proto.d_num = num; d_key = key; d_gf = fd.f_gf; d_mode = fd.f_mode } :: acc
        | None -> acc)
      proc.p_fds []
  in
  {
    Proto.e_uid = proc.p_uid;
    e_cwd = proc.p_cwd;
    e_context = proc.p_context;
    e_ncopies = proc.p_ncopies;
    e_fds = fds;
  }

let install_env k (p : proc) (env : Proto.process_env) =
  p.p_uid <- env.Proto.e_uid;
  p.p_cwd <- env.Proto.e_cwd;
  p.p_context <- env.Proto.e_context;
  p.p_ncopies <- env.Proto.e_ncopies;
  List.iter
    (fun (d : Proto.fd_desc) ->
      let fd = Tokens.install_remote_fd k ~key:d.Proto.d_key ~gf:d.Proto.d_gf ~mode:d.Proto.d_mode in
      ignore fd;
      Hashtbl.replace p.p_fds d.Proto.d_num d.Proto.d_key;
      if d.Proto.d_num >= p.p_next_fd then p.p_next_fd <- d.Proto.d_num + 1)
    env.Proto.e_fds

(* Read a load module through the filesystem; hidden directories give each
   machine type its own image under one globally unique name (2.4.1).
   Returns the image size in pages. *)
let load_module k proc path =
  let gf =
    Pathname.resolve_from k ~cwd:proc.p_cwd ~context:proc.p_context path
  in
  let o = Us.open_gf k gf Proto.Mode_read in
  match Us.read_all k o with
  | body ->
    Us.close k o;
    max 1 ((String.length body + Storage.Page.size - 1) / Storage.Page.size)
  | exception e ->
    Us.release k o;
    raise e

(* ---- fork (section 3.1) ---- *)

let fork_local k proc =
  let child =
    {
      pid = fresh_pid k;
      p_site = k.site;
      p_parent = Some (proc.pid, proc.p_site);
      p_uid = proc.p_uid;
      p_cwd = proc.p_cwd;
      p_context = proc.p_context;
      p_ncopies = proc.p_ncopies;
      p_advice = proc.p_advice;
      p_fds = Hashtbl.copy proc.p_fds;
      p_next_fd = proc.p_next_fd;
      p_status = Running;
      p_children = [];
      p_signals = [];
      p_zombies = [];
      p_err_info = None;
      p_image_pages = proc.p_image_pages;
    }
  in
  (* The children share the parent's open descriptors. *)
  Hashtbl.iter
    (fun _ key ->
      match Tokens.find_fd k key with
      | Some fd -> fd.f_refs <- fd.f_refs + 1
      | None -> ())
    child.p_fds;
  Hashtbl.add k.procs child.pid child;
  proc.p_children <- (child.pid, k.site) :: proc.p_children;
  child

(* Destination-site half of a remote fork: allocate the process body and
   initialize its environment. *)
let handle_fork k ~child_pid ~env ~image_pages ~parent =
  let p =
    {
      pid = child_pid;
      p_site = k.site;
      p_parent = Some parent;
      p_uid = "";
      p_cwd = Catalog.Mount.root k.mount;
      p_context = [];
      p_ncopies = 1;
      p_advice = [];
      p_fds = Hashtbl.create 8;
      p_next_fd = 3;
      p_status = Running;
      p_children = [];
      p_signals = [];
      p_zombies = [];
      p_err_info = None;
      p_image_pages = image_pages;
    }
  in
  install_env k p env;
  Hashtbl.add k.procs p.pid p;
  record k ~tag:"proc.fork.in" "pid %d from %a" child_pid Site.pp (snd parent);
  child_pid

(* Fork, at the site chosen by the advice list (or locally by default).
   Remote fork ships the parent's image pages. *)
let fork k proc =
  let dest = choose_site k proc in
  (* In process: a local child shares the parent's descriptors, where a
     remote one is shipped an environment. *)
  if Site.equal dest k.site then begin
    let child = fork_local k proc in
    (child.pid, k.site)
  end
  else begin
    let child_pid = fresh_pid k in
    let pid =
      rpc k dest
        (Proto.Fork_req
           {
             child_pid;
             env = env_of k proc;
             image_pages = proc.p_image_pages;
             parent = (proc.pid, k.site);
           })
    in
    proc.p_children <- (pid, dest) :: proc.p_children;
    record k ~tag:"proc.fork.out" "pid %d -> %a" pid Site.pp dest;
    (pid, dest)
  end

(* ---- exec ---- *)

(* Local exec: install the named load module into this process. The
   machine-type context follows the executing site, so the hidden-directory
   expansion picks the load module built for this cpu. *)
let exec_local k proc path =
  proc.p_context <- [ k.machine_type ];
  let pages = load_module k proc path in
  proc.p_image_pages <- pages;
  record k ~tag:"proc.exec" "pid %d %s (%d pages)" proc.pid path pages

(* Destination half of a remote exec: the process is effectively moved; the
   load module is read at the destination. *)
let handle_exec k ~pid ~path ~env ~image_pages:_ ~parent =
  let p =
    {
      pid;
      p_site = k.site;
      p_parent = Some parent;
      p_uid = "";
      p_cwd = Catalog.Mount.root k.mount;
      p_context = [];
      p_ncopies = 1;
      p_advice = [];
      p_fds = Hashtbl.create 8;
      p_next_fd = 3;
      p_status = Running;
      p_children = [];
      p_signals = [];
      p_zombies = [];
      p_err_info = None;
      p_image_pages = 1;
    }
  in
  install_env k p env;
  Hashtbl.add k.procs p.pid p;
  match exec_local k p path with
  | () -> pid
  | exception (Error _ as refused) ->
    Hashtbl.remove k.procs pid;
    raise refused

(* Exec under advice: a remote destination moves the process there. *)
let exec k proc path =
  let dest = choose_site k proc in
  (* In process: a local exec keeps the process and its descriptors, where
     a remote one is shipped an environment. *)
  if Site.equal dest k.site then begin
    exec_local k proc path;
    k.site
  end
  else begin
    let (_ : int) =
      rpc k dest
        (Proto.Exec_req
           {
             pid = proc.pid;
             path;
             env = env_of k proc;
             image_pages = proc.p_image_pages;
             parent = (match proc.p_parent with Some p -> p | None -> (0, k.site));
           })
    in
    Hashtbl.remove k.procs proc.pid;
    proc.p_site <- dest;
    (* Tell the parent where its child now lives. *)
    (match proc.p_parent with
    | Some (ppid, psite) when Site.equal psite k.site -> (
      match find_proc k ppid with
      | Some parent ->
        parent.p_children <- (proc.pid, dest) :: List.remove_assoc proc.pid parent.p_children
      | None -> ())
    | Some _ | None -> ());
    dest
  end

(* ---- run: the optimized fork+exec (section 3.1) ---- *)

let handle_run ?context_override k ~child_pid ~path ~env ~parent =
  let p = get_proc k (handle_fork k ~child_pid ~env ~image_pages:1 ~parent) in
  match exec_local k p path with
  | () ->
    (match context_override with Some c -> p.p_context <- c | None -> ());
    child_pid
  | exception (Error _ as refused) ->
    Hashtbl.remove k.procs child_pid;
    raise refused

(* Run includes parameterization that permits the caller to set up the
   environment of the new process, local or remote (section 3.1). *)
let run ?uid ?cwd ?ncopies ?context k proc path =
  let dest = choose_site k proc in
  let override env =
    {
      env with
      Proto.e_uid = Option.value uid ~default:env.Proto.e_uid;
      e_cwd = Option.value cwd ~default:env.Proto.e_cwd;
      e_ncopies = Option.value ncopies ~default:env.Proto.e_ncopies;
    }
  in
  (* In process: a local child shares the parent's descriptors, where a
     remote one is shipped an environment. *)
  if Site.equal dest k.site then begin
    let child = fork_local k proc in
    (match uid with Some u -> child.p_uid <- u | None -> ());
    (match cwd with Some c -> child.p_cwd <- c | None -> ());
    (match ncopies with Some n -> child.p_ncopies <- n | None -> ());
    exec_local k child path;
    (* An explicit context overrides the executing site's machine type. *)
    (match context with Some c -> child.p_context <- c | None -> ());
    (child.pid, k.site)
  end
  else begin
    let child_pid = fresh_pid k in
    let pid =
      rpc k dest
        (Proto.Run_req
           {
             child_pid;
             path;
             env = override (env_of k proc);
             parent = (proc.pid, k.site);
             context_override = context;
           })
    in
    proc.p_children <- (pid, dest) :: proc.p_children;
    record k ~tag:"proc.run" "pid %d %s -> %a" pid path Site.pp dest;
    (pid, dest)
  end

(* ---- signals (section 2.4.2, 3.3) ---- *)

let deliver_signal k pid signo =
  match find_proc k pid with
  | Some ({ p_status = Running; _ } as p) ->
    p.p_signals <- signo :: p.p_signals
  | Some { p_status = Exited _; _ } | None -> err Proto.Esrch "no process %d" pid

let signal k ~site ~pid signo = rpc k site (Proto.Signal_req { pid; signo })

(* ---- exit and wait ---- *)

let handle_exit_notify k ~pid ~status =
  (* Find the parent that listed this child. *)
  Hashtbl.iter
    (fun _ p ->
      if List.mem_assoc pid p.p_children then begin
        p.p_children <- List.remove_assoc pid p.p_children;
        p.p_zombies <- (pid, status) :: p.p_zombies;
        p.p_signals <- sigchld :: p.p_signals
      end)
    k.procs

let exit_proc k proc status =
  proc.p_status <- Exited status;
  (* Release shared descriptors. *)
  Hashtbl.iter
    (fun _ key ->
      match Tokens.find_fd k key with
      | Some fd ->
        fd.f_refs <- fd.f_refs - 1;
        if fd.f_refs <= 0 then begin
          (match fd.f_ofile with
          | Some o -> ( try Us.close k o with Error _ -> Us.release k o)
          | None -> ());
          Hashtbl.remove k.shared_fds key
        end
      | None -> ())
    proc.p_fds;
  Hashtbl.reset proc.p_fds;
  match proc.p_parent with
  | Some (_ppid, psite) ->
    (* In process: a remote parent gets a one-way notify, a collocated one
       the exit synchronously. *)
    if Site.equal psite k.site then
      handle_exit_notify k ~pid:proc.pid ~status
    else notify k psite (Proto.Exit_notify { pid = proc.pid; status })
  | None -> ()

let wait k proc =
  ignore k;
  match proc.p_zombies with
  | [] -> None
  | z :: rest ->
    proc.p_zombies <- rest;
    Some z

let read_error_info k proc =
  ignore k;
  let info = proc.p_err_info in
  proc.p_err_info <- None;
  info

(* Cleanup after a partition change (the failure-action table of section
   5.6, "Interacting Processes" rows): reflect the failure to the local
   halves of cross-machine parent/child pairs. *)
let handle_site_failure k dead =
  Hashtbl.iter
    (fun _ p ->
      if p.p_status = Running then begin
        (* Children that were running on the failed site. *)
        let lost, kept =
          List.partition (fun (_, s) -> Site.equal s dead) p.p_children
        in
        if lost <> [] then begin
          p.p_children <- kept;
          p.p_signals <- sigerr :: p.p_signals;
          p.p_err_info <-
            Some
              (Printf.sprintf "child site %s failed (%d children lost)"
                 (Site.to_string dead) (List.length lost))
        end;
        (* Parent running on the failed site. *)
        match p.p_parent with
        | Some (_, psite) when Site.equal psite dead ->
          p.p_parent <- None;
          p.p_signals <- sigerr :: p.p_signals;
          p.p_err_info <- Some (Printf.sprintf "parent site %s failed" (Site.to_string dead))
        | Some _ | None -> ()
      end)
    k.procs
