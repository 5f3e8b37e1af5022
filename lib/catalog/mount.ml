type t = {
  root_fg : int;
  mutable mounts : (Gfile.t * int) list; (* mount point -> child fg *)
}

let root_ino = 1

let create ~root_fg = { root_fg; mounts = [] }

let root t = Gfile.make ~fg:t.root_fg ~ino:root_ino

let fg_in_use t fg = fg = t.root_fg || List.exists (fun (_, g) -> g = fg) t.mounts

let point_in_use t point = List.exists (fun (p, _) -> Gfile.equal p point) t.mounts

let add t ~mount_point ~child_fg =
  if fg_in_use t child_fg then invalid_arg "Mount.add: filegroup already mounted";
  if point_in_use t mount_point then invalid_arg "Mount.add: mount point already in use";
  t.mounts <- (mount_point, child_fg) :: t.mounts

let mounted_at t point =
  List.find_opt (fun (p, _) -> Gfile.equal p point) t.mounts |> Option.map snd

let mount_point_of t fg =
  List.find_opt (fun (_, child) -> child = fg) t.mounts |> Option.map fst
