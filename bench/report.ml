(* Plain-text table rendering for the experiment harness. *)

let rule widths =
  let parts = List.map (fun w -> String.make (w + 2) '-') widths in
  "+" ^ String.concat "+" parts ^ "+"

let pad w s =
  let n = String.length s in
  if n >= w then s else s ^ String.make (w - n) ' '

let table ~title ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let widths =
    List.init ncols (fun i ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 all)
  in
  Printf.printf "\n%s\n" title;
  let line row =
    let cells = List.map2 (fun w c -> " " ^ pad w c ^ " ") widths row in
    Printf.printf "|%s|\n" (String.concat "|" cells)
  in
  Printf.printf "%s\n" (rule widths);
  line header;
  Printf.printf "%s\n" (rule widths);
  List.iter line rows;
  Printf.printf "%s\n" (rule widths)

let f1 v = Printf.sprintf "%.1f" v

let f2 v = Printf.sprintf "%.2f" v

let i = string_of_int

let check b = if b then "PASS" else "FAIL"

(* Per-request-tag latency percentiles from the transport layer's
   histograms ("rpc.latency.<tag>"), in simulated ms. *)
let rpc_latency_table ?(title = "per-tag RPC latency (simulated ms)") stats =
  let prefix = "rpc.latency." in
  let plen = String.length prefix in
  let rows =
    Sim.Stats.hist_names stats
    |> List.filter_map (fun name ->
           if String.length name > plen && String.sub name 0 plen = prefix then begin
             let tag = String.sub name plen (String.length name - plen) in
             let s = Sim.Stats.hist_summary stats name in
             Some [ tag; i s.Sim.Stats.n; f2 s.Sim.Stats.p50; f2 s.Sim.Stats.p95;
                    f2 s.Sim.Stats.p99; f2 s.Sim.Stats.hmax ]
           end
           else None)
  in
  if rows <> [] then
    table ~title ~header:[ "tag"; "calls"; "p50"; "p95"; "p99"; "max" ] rows

(* Buffer-cache hit/miss/eviction counters ("cache.<tier>.hit" etc.) as a
   per-tier table with hit ratios. *)
let cache_table ?(title = "buffer-cache effectiveness") stats =
  let rows =
    List.filter_map
      (fun tier ->
        let get what = Sim.Stats.get stats (Printf.sprintf "cache.%s.%s" tier what) in
        let hits = get "hit" and misses = get "miss" and evicts = get "evict" in
        let total = hits + misses in
        if total = 0 && evicts = 0 then None
        else
          Some
            [ tier; i hits; i misses; i evicts;
              (if total = 0 then "-"
               else Printf.sprintf "%.1f%%" (100.0 *. float_of_int hits /. float_of_int total));
            ])
      [ "us"; "ss" ]
  in
  if rows <> [] then
    table ~title ~header:[ "tier"; "hits"; "misses"; "evictions"; "hit ratio" ] rows

(* Name-cache counters ("name.cache.*") plus the remote partial-pathname
   walk count, as one row — the §2.3.4 lookup fast path's effectiveness. *)
let name_cache_table ?(title = "name-cache effectiveness") stats =
  let get what = Sim.Stats.get stats ("name.cache." ^ what) in
  let hits = get "hit" and misses = get "miss" in
  let total = hits + misses in
  if total > 0 || get "fill" > 0 then
    table ~title
      ~header:
        [ "hits"; "misses"; "fills"; "invalidations"; "evictions";
          "remote walks"; "hit ratio" ]
      [
        [ i hits; i misses; i (get "fill"); i (get "invalidate");
          i (get "evict"); i (Sim.Stats.get stats "name.remote_walks");
          (if total = 0 then "-"
           else Printf.sprintf "%.1f%%" (100.0 *. float_of_int hits /. float_of_int total));
        ];
      ]

(* Bulk-transfer counters: how many batched RPCs each path issued and how
   many pages the average batch carried. A commit notification that
   carried its commit to a copy at the base version counts as one batch of
   the pages it carried, none for an inode alone. *)
let bulk_table ?(title = "bulk-transfer effectiveness") stats =
  let rows =
    List.filter_map
      (fun (label, batches_key, pages_key) ->
        let batches = Sim.Stats.get stats batches_key in
        let pages = Sim.Stats.get stats pages_key in
        if batches = 0 then None
        else
          Some
            [ label; i batches; i pages;
              Printf.sprintf "%.1f" (float_of_int pages /. float_of_int batches) ])
      [
        ("streaming read", "us.bulk.read", "us.bulk.read.pages");
        ("write-behind", "us.bulk.write", "us.bulk.write.pages");
        ("propagation pull", "prop.bulk", "prop.bulk.pages");
        ("carried commit", "prop.carried", "prop.carried.pages");
      ]
  in
  if rows <> [] then
    table ~title ~header:[ "path"; "batched RPCs"; "pages"; "pages/RPC" ] rows

(* Open-lease counters ("open.lease.*"): how often a retained grant
   short-circuited the open protocol, and why grants died. *)
let lease_table ?(title = "open-lease effectiveness") stats =
  let get what = Sim.Stats.get stats ("open.lease." ^ what) in
  let hits = get "hit" and misses = get "miss" in
  let total = hits + misses in
  if total > 0 || get "break" > 0 then
    table ~title
      ~header:
        [ "hits"; "misses"; "deferred closes"; "breaks"; "evictions"; "hit ratio" ]
      [
        [ i hits; i misses; i (get "defer"); i (get "break"); i (get "evict");
          (if total = 0 then "-"
           else
             Printf.sprintf "%.1f%%"
               (100.0 *. float_of_int hits /. float_of_int total));
        ];
      ]

(* ---- machine-readable output (BENCH_<experiment>.json) ---- *)

(* Experiments record named numeric metrics as they run; the harness entry
   point dumps one BENCH_<experiment>.json per experiment that recorded
   any, so CI can compare runs without scraping the tables. *)
let metrics : (string * (string * float) list ref) list ref = ref []

let metric ~experiment name value =
  let bucket =
    match List.assoc_opt experiment !metrics with
    | Some b -> b
    | None ->
      let b = ref [] in
      metrics := (experiment, b) :: !metrics;
      b
  in
  bucket := (name, value) :: !bucket

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let write_metrics () =
  List.iter
    (fun (experiment, bucket) ->
      if !bucket <> [] then begin
        let path = Printf.sprintf "BENCH_%s.json" experiment in
        let oc = open_out path in
        let entries = List.rev !bucket in
        let n = List.length entries in
        output_string oc "{\n";
        List.iteri
          (fun idx (name, v) ->
            Printf.fprintf oc "  %S: %s%s\n" name (json_number v)
              (if idx < n - 1 then "," else ""))
          entries;
        output_string oc "}\n";
        close_out oc;
        Printf.printf "wrote %s (%d metrics)\n" path n
      end)
    (List.rev !metrics)

let section name what =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" name;
  Printf.printf "  %s\n" what;
  Printf.printf "==============================================================\n"
