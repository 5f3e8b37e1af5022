type t = {
  n : int;
  up : bool array;
  link : bool array array;
  mutable version : int;
}

let create ~n =
  if n <= 0 then invalid_arg "Topology.create: n must be positive";
  { n; up = Array.make n true; link = Array.make_matrix n n true; version = 0 }

let n_sites t = t.n

let sites t = List.init t.n Fun.id

let check t s =
  if s < 0 || s >= t.n then invalid_arg "Topology: site out of range"

let bump t = t.version <- t.version + 1

let set_site_up t s b =
  check t s;
  t.up.(s) <- b;
  bump t

let link_up t a b =
  check t a;
  check t b;
  a = b || t.link.(a).(b)

let set_link t a b v =
  check t a;
  check t b;
  if a <> b then begin
    t.link.(a).(b) <- v;
    t.link.(b).(a) <- v;
    bump t
  end

let reachable t a b =
  check t a;
  check t b;
  t.up.(a) && t.up.(b) && link_up t a b

let connected_component t s =
  check t s;
  if not t.up.(s) then []
  else begin
    let seen = Array.make t.n false in
    let rec visit v =
      if not seen.(v) then begin
        seen.(v) <- true;
        for w = 0 to t.n - 1 do
          if (not seen.(w)) && reachable t v w then visit w
        done
      end
    in
    visit s;
    List.filter (fun v -> seen.(v)) (sites t)
  end

let partition t groups =
  let group_of = Array.make t.n (-1) in
  List.iteri
    (fun gi members ->
      List.iter
        (fun s ->
          check t s;
          group_of.(s) <- gi)
        members)
    groups;
  for a = 0 to t.n - 1 do
    for b = a + 1 to t.n - 1 do
      let linked = group_of.(a) >= 0 && group_of.(a) = group_of.(b) in
      t.link.(a).(b) <- linked;
      t.link.(b).(a) <- linked
    done
  done;
  bump t

let heal t =
  for a = 0 to t.n - 1 do
    t.up.(a) <- true;
    for b = 0 to t.n - 1 do
      t.link.(a).(b) <- true
    done
  done;
  bump t

let fully_connected t members =
  List.for_all
    (fun a -> List.for_all (fun b -> reachable t a b) members)
    members

let version t = t.version
