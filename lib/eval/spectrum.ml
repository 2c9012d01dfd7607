module Formula = Fmtk_logic.Formula
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple

(* All subsets of a list, lazily, as lists. *)
let rec subsets = function
  | [] -> Seq.return []
  | x :: rest ->
      let tail = subsets rest in
      Seq.append tail (Seq.map (fun s -> x :: s) tail)

(* All structures of the given size, lazily: the cartesian product of the
   powersets of each relation's tuple space. *)
let all_structures ~signature ~size =
  if Signature.consts signature <> [] then
    invalid_arg "Spectrum: constants not supported";
  let rels = Signature.rels signature in
  let rec enumerate = function
    | [] -> Seq.return []
    | (name, arity) :: rest ->
        let tuples = List.of_seq (Tuple.all size arity) in
        Seq.concat_map
          (fun choice ->
            Seq.map (fun others -> (name, choice) :: others) (enumerate rest))
          (subsets tuples)
  in
  Seq.map
    (fun rel_choices -> Structure.make signature ~size rel_choices)
    (enumerate rels)

let models ~signature ~size phi =
  (match Formula.free_vars phi with
  | [] -> ()
  | fv ->
      invalid_arg
        (Printf.sprintf "Spectrum: free variables %s" (String.concat ", " fv)));
  Seq.filter (fun s -> Compiled.sat s phi) (all_structures ~signature ~size)

let satisfiable_at ~signature ~size phi =
  not (Seq.is_empty (models ~signature ~size phi))

let find_model ~signature ~up_to phi =
  let rec go size =
    if size > up_to then None
    else
      match Seq.uncons (models ~signature ~size phi) with
      | Some (m, _) -> Some m
      | None -> go (size + 1)
  in
  go 0

let spectrum ~signature ~up_to phi =
  List.filter
    (fun size -> satisfiable_at ~signature ~size phi)
    (List.init (up_to + 1) Fun.id)
