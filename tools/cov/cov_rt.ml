(* Runtime of the cov_ppx rewriter. An instrumented file registers its
   arms' source lines and gets the array its arms mark. At exit, when
   COV_DIR names a directory, every registered arm is written to a fresh
   file there, one "file index line reached" row per arm. *)

let files = ref []

let file name lines =
  let reached = Array.make (Array.length lines) false in
  files := (name, lines, reached) :: !files;
  reached

let hit reached i = reached.(i) <- true

let () =
  at_exit (fun () ->
      match Sys.getenv_opt "COV_DIR" with
      | None | Some "" -> ()
      | Some dir ->
        let oc = open_out (Filename.temp_file ~temp_dir:dir "cov" ".txt") in
        List.iter
          (fun (name, lines, reached) ->
            Array.iteri
              (fun i line -> Printf.fprintf oc "%s %d %d %b\n" name i line reached.(i))
              lines)
          !files;
        close_out oc)
