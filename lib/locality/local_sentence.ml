module Structure = Fmtk_structure.Structure
module Formula = Fmtk_logic.Formula
module Graph = Fmtk_structure.Graph
module Compiled = Fmtk_eval.Compiled

let holds_locally t ~radius ~formula a =
  (match Formula.free_vars formula with
  | [ "x" ] -> ()
  | [] -> ()
  | fv ->
      invalid_arg
        (Printf.sprintf "Local_sentence: free variables must be [x], got [%s]"
           (String.concat "; " fv)));
  let nb = Gaifman.neighborhood t radius [ a ] in
  let pinned = Structure.const nb "@p1" in
  Compiled.run (Compiled.compile_with nb ~vars:[ "x" ] formula) [| pinned |]

type basic = { count : int; radius : int; formula : Formula.t }

let eval_basic t b =
  if b.count <= 0 then true
  else
    let candidates =
      List.filter
        (holds_locally t ~radius:b.radius ~formula:b.formula)
        (Structure.domain t)
    in
    if List.length candidates < b.count then false
    else
      let adj = Gaifman.adjacency t in
      (* Pairwise distances among candidates, via one BFS per candidate. *)
      let dist_from =
        List.map (fun c -> (c, Graph.bfs ~adj [ c ])) candidates
      in
      let r2 = 2 * b.radius in
      let far a c = (List.assoc a dist_from).(c) > r2 in
      let rec pick chosen = function
        | [] -> List.length chosen >= b.count
        | c :: rest ->
            if List.length chosen >= b.count then true
            else if List.for_all (fun a -> far a c) chosen then
              pick (c :: chosen) rest || pick chosen rest
            else pick chosen rest
      in
      pick [] candidates

type combination =
  | Basic of basic
  | Neg of combination
  | Conj of combination * combination
  | Disj of combination * combination

let rec eval_combination t = function
  | Basic b -> eval_basic t b
  | Neg c -> not (eval_combination t c)
  | Conj (c, d) -> eval_combination t c && eval_combination t d
  | Disj (c, d) -> eval_combination t c || eval_combination t d
