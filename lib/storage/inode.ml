type ftype = Regular | Directory | Hidden_directory | Mailbox | Database | Fifo

let n_direct = 8

let indirect_capacity = Page.size / 4

let max_pages = n_direct + indirect_capacity

type t = {
  ino : int;
  mutable ftype : ftype;
  mutable size : int;
  mutable nlink : int;
  mutable owner : string;
  mutable perms : int;
  mutable mtime : float;
  mutable vv : Vv.Version_vector.t;
  mutable deleted : bool;
  mutable delete_time : float;
  direct : int array;
  mutable indirect : int;
}

let create ~ino ~ftype ~owner =
  {
    ino;
    ftype;
    size = 0;
    nlink = 1;
    owner;
    perms = 0o644;
    mtime = 0.0;
    vv = Vv.Version_vector.zero;
    deleted = false;
    delete_time = 0.0;
    direct = Array.make n_direct 0;
    indirect = 0;
  }

let fresh ~ino ~ftype ~owner ~perms ~vv ~mtime =
  let t = create ~ino ~ftype ~owner in
  t.perms <- perms;
  t.vv <- vv;
  t.mtime <- mtime;
  t

let clone t = { t with direct = Array.copy t.direct }

let npages t = (t.size + Page.size - 1) / Page.size

let is_directory t =
  match t.ftype with
  | Directory | Hidden_directory -> true
  | Regular | Mailbox | Database | Fifo -> false

let ftype_to_string = function
  | Regular -> "regular"
  | Directory -> "directory"
  | Hidden_directory -> "hidden-directory"
  | Mailbox -> "mailbox"
  | Database -> "database"
  | Fifo -> "fifo"

let pp_ftype ppf ft = Format.pp_print_string ppf (ftype_to_string ft)

let pp ppf t =
  Format.fprintf ppf "inode %d (%a, %d bytes, nlink %d, vv %a%s)" t.ino pp_ftype
    t.ftype t.size t.nlink Vv.Version_vector.pp t.vv
    (if t.deleted then ", deleted" else "")
