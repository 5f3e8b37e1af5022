(* Per-site cache of CSS-granted open leases.

   On a successful read/internal open the CSS may grant a revocable read
   lease on (gf, vv), carried in its open grant. The using site retains the
   whole open grant — serving SS, inode information, incore-inode slot —
   in this LRU across [close], so a re-open of the unchanged file
   completes with zero messages: no [Open_req], no [Storage_req]. Close
   of a lease-backed read open is *deferred*: the SS serving state stays
   registered and the Us_close/Ss_close legs are elided until the lease
   dies. A lease dies one of three ways. The holder kills it (an own
   commit, a coherence event, a capacity eviction) and sends exactly one
   batched close naming the grant; an eviction's rides the cold open that
   displaced it when the CSS that open asks is the lease's SS
   ([make_room]), and otherwise leaves from a zero-delay event. The CSS
   breaks it ([revoke]) and has already released it, the SS registration
   too when the CSS serves it, so the holder owes no close or only the
   SS's half. A crash, partition or merge drops the whole table silently:
   the next merge's §5.6 rebuild restores the CSS lock tables from the
   members' open files, and [Ss.revalidate_serving] drops SS
   registrations no open backs.

   The structure itself is protocol-agnostic: the deferred-close sender
   is a callback installed by [Kernel.create], so any kernel module can
   kill a lease without depending on the US layer.

   An entry is shared by reference with every ofile currently riding it
   ([le_active] counts them). A dead entry ([le_broken]) is out of the
   table and satisfies no further re-opens; the last riding close sends
   the deferred close legs.

   Counters exported through [Sim.Stats]: open.lease.hit,
   open.lease.miss, open.lease.break, open.lease.evict,
   open.lease.defer. *)

module Gfile = Catalog.Gfile
module Vvec = Vv.Version_vector
module Site = Net.Site

(* The close a dead lease owes. *)
type owed =
  | Grant_close (* US -> SS -> CSS, naming the grant *)
  | Plain_close
    (* the same legs naming no grant: a membership change dropped the
       lease, and the §5.6 rebuild counted its riders as plain opens *)
  | Ss_half (* the CSS released the grant at its break; the SS has not *)
  | No_close (* the CSS released the grant and its SS registration *)

type entry = {
  le_gf : Gfile.t;
  le_ss : Site.t;            (* the storage site serving the leased open *)
  le_mode : Proto.open_mode; (* mode the SS/CSS registered (read/internal) *)
  le_info : Proto.inode_info;
  le_slot : int;             (* the SS's incore-inode slot (read guess) *)
  le_vv : Vvec.t;            (* version the lease was granted on *)
  le_id : int;               (* the CSS's grant id *)
  mutable le_active : int;   (* local opens currently riding this grant *)
  mutable le_broken : bool;  (* lease dead: no reuse; close on last drain *)
  mutable le_owed : owed;
}

module Lru =
  Storage.Lru.Make
    (Gfile.Key)
    (struct
      type t = entry (* shared by reference: riders mutate the same record *)
    end)

type t = {
  cache : Lru.t;
  hit : Sim.Stats.counter;
  miss : Sim.Stats.counter;
  break : Sim.Stats.counter;
  evicted : entry -> unit; (* counts a capacity eviction, kills the entry *)
  on_dead : (evicted:bool -> entry -> unit) ref;
  (* deferred-close sender, installed by [Kernel.create]; called exactly
     once per entry, when the lease is dead and no local open rides it,
     with [evicted] when a capacity eviction displaced it idle *)
}

let create ~stats ~capacity () =
  let counter what = Sim.Stats.counter stats ("open.lease." ^ what) in
  let on_dead = ref (fun ~evicted:_ (_ : entry) -> ()) in
  let evict = counter "evict" in
  let evicted e =
    Sim.Stats.cincr evict;
    e.le_broken <- true
  in
  let cache =
    Lru.create
      ~on_evict:(fun _ e ->
        (* Capacity eviction: one batched close — unless an open still
           rides the grant, in which case the last riding close sends
           it. *)
        evicted e;
        if e.le_active <= 0 then !on_dead ~evicted:true e)
      ~capacity ()
  in
  { cache; hit = counter "hit"; miss = counter "miss"; break = counter "break"; evicted; on_dead }

let set_on_dead t f = t.on_dead := f

let length t = Lru.length t.cache

let find_entry t gf = Lru.peek t.cache gf

(* Warm re-open: take a ride on a live lease. Touches recency and counts
   hit/miss. The caller is responsible for only asking on lease-eligible
   opens (read/internal, not shared), so the miss counter means "eligible
   open that had to go cold". *)
let acquire t gf =
  match Lru.find t.cache gf with
  | None ->
    Sim.Stats.cincr t.miss;
    None
  | Some e ->
    Sim.Stats.cincr t.hit;
    e.le_active <- e.le_active + 1;
    Some e

let kill_entry t e =
  Lru.invalidate t.cache e.le_gf;
  Sim.Stats.cincr t.break;
  e.le_broken <- true;
  if e.le_active <= 0 then !(t.on_dead) ~evicted:false e

(* Kill the lease on [gf]: remove it so no re-open can ride it, and send
   the deferred close now (idle) or at the last riding close (active). *)
let kill t gf = Option.iter (kill_entry t) (Lru.peek t.cache gf)

(* The CSS broke grant [id] on [gf], releasing it itself, and its SS
   registration too when [closed]: kill that grant, owing no close or
   only the SS's half. A break of an older grant finds a newer one, or
   none, and kills nothing. *)
let revoke t gf ~id ~closed =
  match Lru.peek t.cache gf with
  | Some e when e.le_id = id ->
    e.le_owed <- (if closed then No_close else Ss_half);
    kill_entry t e;
    Some e
  | Some _ | None -> None

(* A cold open about to ask the CSS at [ss] finds the table full: when
   the least recent grant is idle and [ss] is its SS, evict it now and
   return it, so that its close rides the open request instead of
   travelling on its own after the reply. The caller owes that close. Any
   other victim stays for [insert] to evict as before. *)
let make_room t ~ss =
  if Lru.length t.cache < Lru.capacity t.cache then None
  else
    match Lru.oldest t.cache with
    | Some (gf, e) when e.le_active <= 0 && Site.equal e.le_ss ss ->
      Lru.invalidate t.cache gf;
      t.evicted e;
      Some e
    | Some _ | None -> None

(* Register a fresh grant (the cold open that carried it is its first
   rider). A live entry under the same key would mean a break that never
   got through: kill it first so its registered open still gets closed. *)
let insert t e =
  kill t e.le_gf;
  Lru.insert t.cache e.le_gf e

(* A membership change dropped [e]: it is dead, and the close its last
   rider sends names no grant, since the §5.6 rebuild counted its riders
   as plain opens and started the CSS with no grants. *)
let drop e =
  e.le_broken <- true;
  e.le_owed <- Plain_close

(* Crash, partition or merge: drop every lease silently, sending nothing.
   A dead kernel sends no messages, and after a membership change the
   next merge's §5.6 rebuild does what the closes would: each CSS counts
   only the members' open files, and [Ss.revalidate_serving] drops the
   SS registrations no open backs. An open still riding a dropped lease sees
   it broken and sends its one close when it closes. *)
let clear t =
  ignore
    (Lru.filter_out t.cache (fun _ e ->
         drop e;
         true))
