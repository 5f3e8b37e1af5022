(* A match-arm coverage rewriter. Each arm of a [match], [function] or
   [try] in an implementation first marks itself reached, in one array per
   file that the file registers with {!Cov_rt} along with each arm's source
   line. Refutation arms ([| _ -> .]) are left alone. *)

open Ppxlib

let arms = "__cov_arms"

let instrument str =
  let lines = ref [] and fname = ref "" in
  let mark (c : case) =
    match c.pc_rhs.pexp_desc with
    | Pexp_unreachable -> c
    | _ ->
      let loc = c.pc_rhs.pexp_loc in
      let open Ast_builder.Default in
      let hit =
        eapply ~loc (evar ~loc "Cov_rt.hit") [ evar ~loc arms; eint ~loc (List.length !lines) ]
      in
      lines := c.pc_lhs.ppat_loc.loc_start.pos_lnum :: !lines;
      fname := c.pc_lhs.ppat_loc.loc_start.pos_fname;
      { c with pc_rhs = pexp_sequence ~loc hit c.pc_rhs }
  in
  let mapper =
    object
      inherit Ast_traverse.map as super

      method! case c = mark (super#case c)
    end
  in
  let str = mapper#structure str in
  match !lines with
  | [] -> str
  | _ :: _ ->
    let loc = Location.none in
    let open Ast_builder.Default in
    let lines = pexp_array ~loc (List.rev_map (eint ~loc) !lines) in
    let register = eapply ~loc (evar ~loc "Cov_rt.file") [ estring ~loc !fname; lines ] in
    pstr_value ~loc Nonrecursive [ value_binding ~loc ~pat:(pvar ~loc arms) ~expr:register ]
    :: str

let () = Driver.register_transformation "cov_ppx" ~impl:instrument
