(* The fault-soak driver: replay a schedule against a live cluster.

   One run = one world, one seeded op stream (Locus.Opstream), one seeded
   fault schedule. Segments alternate a batch of stream operations with
   one injected fault; fault payloads are interpreted against the cluster
   state of the moment (deterministic, since the whole run is), and the
   faults' own writes are recorded in the stream. After the last segment
   the driver quiesces — message loss off, network healed and every dead
   site restarted and scavenged ([World.heal_and_merge]), merge +
   reconciliation run, engine settled — and hands the world and the
   stream's records to the invariant checker. A read the stream's oracle
   found wrong is a violation too.

   One deliberate ordering rule keeps the invariants meaningful: loss
   bursts cover exactly one workload batch and are always cleared before
   a membership fault or the quiesce, so the recovery protocols
   themselves never run under injected loss (the paper's reconfiguration
   protocols assume fail-stop sites, not lossy links mid-merge). *)

module World = Locus.World
module Opstream = Locus.Opstream
module Kernel = Locus_core.Kernel
module Us = Locus_core.Us
module K = Locus_core.Ktypes
module Css = Locus_core.Css
module Openlease = Locus_core.Openlease
module Engine = Sim.Engine
module Netsim = Net.Netsim
module Site = Net.Site
module Page = Storage.Page

(* Re-introducible bug classes, for demonstrating what the harness
   catches (and shrinks) and what the recovery protocols absorb.

   [Bug_silent_scrub] drops every live lease table silently after each
   batch, as a crash, partition or merge does, but with no membership
   change behind it: the deferred closes never go out, stranding SS
   serving registrations and CSS reader/lease entries. The section 5.6
   rebuild (CSS lock-table reconstruction plus the SS-side serving
   revalidation) repairs exactly that class at the quiesce merge, so runs
   with this bug are expected to pass — pinning the self-heal that lets
   partition and merge drop leases silently.

   [Bug_abandoned_open] re-creates the error-path leak this PR fixed with
   [Us.release]: an open succeeds, then the path abandons the handle
   without closing it. The orphan lives at the using site, where no
   recovery protocol looks, so the invariant checker must flag it. *)
type bug = Bug_silent_scrub | Bug_abandoned_open

type outcome = {
  oc_seed : int;
  oc_ops : int;
  oc_report : Opstream.report;
  oc_injected : (string * int) list; (* fault label -> times injected *)
  oc_skipped : int; (* faults skipped because preconditions failed *)
  oc_violations : Invariant.violation list;
  oc_events : int; (* engine events executed over the whole run *)
}

let alive_sites w =
  List.filter (fun s -> (World.kernel w s).K.alive) (World.sites w)

let dead_sites w =
  List.filter (fun s -> not (World.kernel w s).K.alive) (World.sites w)

let lowest = function [] -> None | l -> Some (List.fold_left min (List.hd l) l)

let rotate n l =
  let len = List.length l in
  if len = 0 then l
  else begin
    let n = n mod len in
    let rec go i acc rest =
      if i = 0 then rest @ List.rev acc
      else
        match rest with
        | x :: tl -> go (i - 1) (x :: acc) tl
        | [] -> List.rev acc
    in
    go n [] l
  end

let run ?(drop = []) ?bug ~seed ~ops () =
  let sched = Schedule.mask (Schedule.generate ~seed ~ops) ~drop in
  let base = World.default_config ~n_sites:5 () in
  let config = { base with World.seed = Int64.of_int (0x50AC00 + seed) } in
  let w = World.create ~config () in
  let net = World.net w in
  let spec =
    { Opstream.dev_spec with Opstream.seed = Int64.of_int (0xBEEF00 + seed) }
  in
  let g = Opstream.setup w spec in
  let file fsel = Opstream.file_path spec (fsel mod spec.Opstream.files) in
  let injected : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let skipped = ref 0 in
  let events = ref 0 in
  let fault_serial = ref 0 in
  let loss_active = ref false in
  let count_injected f =
    let l = Schedule.fault_label f in
    Hashtbl.replace injected l (1 + Option.value ~default:0 (Hashtbl.find_opt injected l))
  in
  let detect_from_survivors () =
    match lowest (alive_sites w) with
    | Some initiator -> ignore (World.detect_failures w ~initiator)
    | None -> ()
  in
  let apply_fault f =
    match f with
    | Schedule.Crash sel ->
      let alive = alive_sites w in
      (* Keep at least two sites up so the cluster stays a cluster. *)
      if List.length alive < 3 then incr skipped
      else begin
        let victim = List.nth alive (sel mod List.length alive) in
        World.crash_site w victim;
        detect_from_survivors ();
        count_injected f
      end
    | Schedule.Restart sel -> (
      match dead_sites w with
      | [] -> incr skipped
      | dead ->
        (* Back up as an island; it rejoins at the next heal/merge. *)
        World.restart_site w (List.nth dead (sel mod List.length dead));
        count_injected f)
    | Schedule.Partition_split sel ->
      let sites = List.sort compare (World.sites w) in
      let n = List.length sites in
      if n < 2 then incr skipped
      else begin
        let pivot = 1 + (sel mod (n - 1)) in
        let rotated = rotate (sel / (n - 1)) sites in
        let rec take i = function
          | x :: rest when i > 0 -> x :: take (i - 1) rest
          | _ -> []
        in
        let rec dropn i = function
          | _ :: rest when i > 0 -> dropn (i - 1) rest
          | l -> l
        in
        ignore (World.partition w [ take pivot rotated; dropn pivot rotated ]);
        count_injected f
      end
    | Schedule.Heal ->
      ignore (World.heal_and_merge w);
      count_injected f
    | Schedule.Loss_burst p ->
      (* Covers exactly the next workload batch; cleared before any
         recovery protocol runs. *)
      Netsim.set_drop_probability net p;
      loss_active := true;
      count_injected f
    | Schedule.Lease_break (ssel, fsel) -> (
      match alive_sites w with
      | [] -> incr skipped
      | alive ->
        let site = List.nth alive (ssel mod List.length alive) in
        incr fault_serial;
        let body = Printf.sprintf "int main(){/* fault %d */}" !fault_serial in
        ignore (Opstream.write g ~site (file fsel) body);
        count_injected f)
    | Schedule.Mid_commit_kill (ssel, fsel) ->
      let alive = alive_sites w in
      if List.length alive < 3 then incr skipped
      else begin
        let site = List.nth alive (ssel mod List.length alive) in
        let k = World.kernel w site in
        let p = World.proc w site in
        let path = file fsel in
        (match Kernel.open_path k p path Proto.Mode_modify with
        | exception K.Error _ -> incr skipped
        | fd ->
          count_injected f;
          (* Push past the write-behind window so pages reach the SS's
             shadow session, then kill the SS before any commit. *)
          let payload = String.make ((k.K.config.K.bulk_window + 1) * Page.size) 'k' in
          (try Kernel.write_fd k p fd payload with K.Error _ -> ());
          let ss =
            match Kernel.fd_of k p fd with
            | f -> (
              match f.K.f_ofile with Some o -> o.K.o_ss | None -> site)
            | exception K.Error _ -> site
          in
          World.crash_site w ss;
          detect_from_survivors ();
          if not (Site.equal ss site) then
            (* The US survived: its cleanup closed the update, and the fd
               release must find nothing left to flush. *)
            try Kernel.close_fd k p fd with K.Error _ -> ())
      end
    | Schedule.Prop_stall (ssel, fsel) ->
      let alive = alive_sites w in
      if List.length alive < 3 then incr skipped
      else begin
        let site = List.nth alive (ssel mod List.length alive) in
        let k = World.kernel w site in
        let path = file fsel in
        incr fault_serial;
        let body = Printf.sprintf "int main(){/* fault %d */}" !fault_serial in
        if Opstream.write g ~site path body then begin
          (* Kill the site that just committed the latest version before
             the other copy holders manage to pull it. *)
          count_injected f;
          let p = World.proc w site in
          match Kernel.resolve k p path with
          | exception K.Error _ -> ()
          | gf -> (
            let css = World.kernel w (K.fg_info k gf.Catalog.Gfile.fg).K.css_site in
            match Css.find_file css gf.Catalog.Gfile.fg gf.Catalog.Gfile.ino with
            | None -> ()
            | Some cf ->
              let latest_holders =
                Site.Map.fold
                  (fun s vv acc ->
                    if Vv.Version_vector.equal vv cf.K.latest_vv then s :: acc
                    else acc)
                  cf.K.site_vv []
              in
              let still_alive = alive_sites w in
              match
                List.find_opt
                  (fun s ->
                    List.mem s still_alive && List.length still_alive > 2)
                  latest_holders
              with
              | Some victim ->
                World.crash_site w victim;
                detect_from_survivors ()
              | None -> ())
        end
        else incr skipped
      end
  in
  (* ---- main loop ---- *)
  List.iter
    (fun seg ->
      for _ = 1 to seg.Schedule.seg_ops do
        Opstream.step g
      done;
      (* Let background machinery (notifications, write-behind timers,
         propagation pulls) churn between batches. *)
      events := !events + Engine.run_for (World.engine w) 5.0;
      if !loss_active then begin
        Netsim.set_drop_probability net 0.0;
        loss_active := false
      end;
      (match bug with
      | Some Bug_silent_scrub ->
        (* Drop live lease tables silently, as a membership change
           does, with no membership change to rebuild the lock tables. *)
        List.iter
          (fun k -> if k.K.alive then Openlease.clear k.K.open_leases)
          (World.kernels w)
      | Some Bug_abandoned_open -> (
        (* One error path's worth of damage per segment: open a
           working-set file and abandon the handle, as the pre-Us.release
           error paths did when an RPC raised between open and close. *)
        match alive_sites w with
        | [] -> ()
        | s :: _ -> (
          let k = World.kernel w s in
          let p = World.proc w s in
          incr fault_serial;
          let path = file !fault_serial in
          match Kernel.resolve k p path with
          | gf -> (
            try ignore (Us.open_gf k gf Proto.Mode_read) with K.Error _ -> ())
          | exception K.Error _ -> ()))
      | None -> ());
      Option.iter apply_fault seg.Schedule.seg_fault)
    sched.Schedule.segments;
  (* ---- quiesce ---- *)
  Netsim.set_drop_probability net 0.0;
  loss_active := false;
  ignore (World.heal_and_merge w);
  let n, status = World.settle w in
  events := !events + n;
  let settle_violation =
    match status with
    | `Idle -> []
    | `Limit ->
      [ { Invariant.v_code = "livelock";
          v_detail = "World.settle exhausted its event budget after quiesce" } ]
  in
  let report = Opstream.report g in
  events := !events + report.Opstream.events;
  let oracle_violation =
    if report.Opstream.wrong = 0 then []
    else
      [ { Invariant.v_code = "read-oracle";
          v_detail =
            Printf.sprintf "%d read(s) returned a body no write to the file sent"
              report.Opstream.wrong } ]
  in
  let violations =
    settle_violation @ oracle_violation @ Invariant.check w (Opstream.records g)
  in
  (match Sys.getenv_opt "SOAK_TRACE" with
  | Some sub ->
    List.iter
      (fun (e : Sim.Trace.event) ->
        let s = Printf.sprintf "%.3f [%s] %s" e.Sim.Trace.time e.Sim.Trace.tag e.Sim.Trace.detail in
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          nl = 0 || go 0
        in
        if contains s sub then print_endline s)
      (Sim.Trace.events (Sim.Engine.trace (World.engine w)))
  | None -> ());
  {
    oc_seed = seed;
    oc_ops = ops;
    oc_report = report;
    oc_injected =
      Hashtbl.fold (fun l c acc -> (l, c) :: acc) injected []
      |> List.sort compare;
    oc_skipped = !skipped;
    oc_violations = violations;
    oc_events = !events;
  }

let failed oc = oc.oc_violations <> []
