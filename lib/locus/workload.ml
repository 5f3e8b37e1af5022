module Kernel = Locus_core.Kernel
module Process = Locus_core.Process
module K = Locus_core.Ktypes
module Rng = Sim.Rng
module Inode = Storage.Inode

type mix = { read : int; edit : int; exec : int; mail : int; namespace : int }

let default_mix = { read = 60; edit = 20; exec = 10; mail = 5; namespace = 5 }

type spec = { mix : mix; n_files : int; ncopies : int; seed : int64 }

let default_spec = { mix = default_mix; n_files = 12; ncopies = 3; seed = 0xBEEFL }

type report = {
  ops : int;
  reads : int;
  edits : int;
  execs : int;
  mails : int;
  creates : int;
  unlinks : int;
  errors : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "ops=%d reads=%d edits=%d execs=%d mails=%d creates=%d unlinks=%d errors=%d"
    r.ops r.reads r.edits r.execs r.mails r.creates r.unlinks r.errors

let file_path i = Printf.sprintf "/work/f%d" i

(* What setup and an op stream did to the tree, for callers (the soak
   harness) that maintain an external model. A [Wrote] with [ok = false]
   may still have committed — e.g. the commit executed at the SS but the
   reply was lost — so model checkers must treat its body as possibly
   durable. *)
type event =
  | Wrote of { site : int; path : string; body : string; ok : bool }
  | Dirop of { site : int; path : string }

let setup ?(observe = fun _ -> ()) w spec =
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let write path body =
    Kernel.write_file k0 p0 path body;
    observe (Wrote { site = 0; path; body; ok = true })
  in
  let saved = Kernel.get_ncopies p0 in
  Kernel.set_ncopies p0 (List.length (World.sites w));
  ignore (Kernel.mkdir k0 p0 "/work");
  ignore (Kernel.mkdir k0 p0 "/bin");
  ignore (Kernel.mkdir k0 p0 "/mail");
  Kernel.set_ncopies p0 spec.ncopies;
  ignore (Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/root");
  ignore (Kernel.creat k0 p0 "/bin/cc");
  write "/bin/cc" (String.make 3000 'c');
  for i = 0 to spec.n_files - 1 do
    ignore (Kernel.creat k0 p0 (file_path i));
    write (file_path i) "int main(){}"
  done;
  Kernel.set_ncopies p0 saved;
  ignore (World.settle w)

(* Weighted choice over the mix. *)
let pick_op rng (m : mix) =
  let total = m.read + m.edit + m.exec + m.mail + m.namespace in
  let v = Rng.int rng (max 1 total) in
  if v < m.read then `Read
  else if v < m.read + m.edit then `Edit
  else if v < m.read + m.edit + m.exec then `Exec
  else if v < m.read + m.edit + m.exec + m.mail then `Mail
  else `Namespace

(* A reusable operation generator: the seeded RNG plus running counters.
   [gen_step] issues exactly one operation, so a driver can interleave ops
   with fault injection while keeping the op stream deterministic. *)
type gen = {
  g_spec : spec;
  g_rng : Rng.t;
  g_observe : event -> unit;
  mutable g_report : report;
}

let make_gen ?(observe = fun _ -> ()) spec =
  {
    g_spec = spec;
    g_rng = Rng.create spec.seed;
    g_observe = observe;
    g_report =
      { ops = 0; reads = 0; edits = 0; execs = 0; mails = 0; creates = 0;
        unlinks = 0; errors = 0 };
  }

let gen_report g = g.g_report

let gen_step w g =
  let rng = g.g_rng and spec = g.g_spec in
  let n_sites = List.length (World.sites w) in
  let r = ref g.g_report in
  r := { !r with ops = !r.ops + 1 };
  let attempt f =
    match f () with () -> true | exception K.Error _ -> begin
      r := { !r with errors = !r.errors + 1 };
      false
    end
  in
  let site = Rng.int rng n_sites in
  let k = World.kernel w site in
  (if k.K.alive then begin
     let p = World.proc w site in
     let f = file_path (Rng.int rng (max 1 spec.n_files)) in
     match pick_op rng spec.mix with
     | `Read ->
       if attempt (fun () -> ignore (Kernel.read_file k p f)) then
         r := { !r with reads = !r.reads + 1 }
     | `Edit ->
       let body =
         Printf.sprintf "int main(){/* site %d, %d */}" site (Rng.int rng 100000)
       in
       let ok = attempt (fun () -> Kernel.write_file k p f body) in
       if ok then r := { !r with edits = !r.edits + 1 };
       g.g_observe (Wrote { site; path = f; body; ok })
     | `Exec ->
       if
         attempt (fun () ->
             Kernel.set_advice p (Some (Rng.int rng n_sites));
             let pid, at = Process.run k p "/bin/cc" in
             let child = Process.get_proc (World.kernel w at) pid in
             Process.exit_proc (World.kernel w at) child 0)
       then r := { !r with execs = !r.execs + 1 }
     | `Mail ->
       if
         attempt (fun () ->
             Kernel.mailbox_deliver k ~path:"/mail/root" ~from:"dev"
               ~body:(Printf.sprintf "build %d done" (Rng.int rng 1000)))
       then r := { !r with mails = !r.mails + 1 }
     | `Namespace ->
       let name = Printf.sprintf "/work/extra%d" (Rng.int rng 16) in
       if
         attempt (fun () ->
             match Kernel.stat k p name with
             | _ -> Kernel.unlink k p name
             | exception K.Error (Proto.Enoent, _) -> ignore (Kernel.creat k p name))
       then begin
         (* Count by what actually happened. *)
         match Kernel.stat k p name with
         | _ -> r := { !r with creates = !r.creates + 1 }
         | exception K.Error _ -> r := { !r with unlinks = !r.unlinks + 1 }
       end;
       g.g_observe (Dirop { site; path = name })
   end);
  g.g_report <- !r

let run w spec ~ops =
  let g = make_gen spec in
  for _ = 1 to ops do
    gen_step w g
  done;
  ignore (World.settle w);
  g.g_report
