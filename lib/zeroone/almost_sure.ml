module Structure = Fmtk_structure.Structure
module Formula = Fmtk_logic.Formula
module Signature = Fmtk_logic.Signature
module Gen = Fmtk_structure.Gen
module Compiled = Fmtk_eval.Compiled

type witness_source = Paley | Search of Random.State.t * int

let find_kec_witness ~rng ~k ~size ~attempts =
  let rec go i =
    if i >= attempts then None
    else
      let g = Gen.random_undirected_graph ~rng size 0.5 in
      if Extension.is_kec ~k g then Some g else go (i + 1)
  in
  go 0

let graph_sentence_check phi =
  if not (Formula.is_sentence phi) then
    invalid_arg "Almost_sure: not a sentence";
  if not (Formula.wf Signature.graph phi) then
    invalid_arg "Almost_sure: not a sentence over the graph signature {E/2}"

let decide ?(source = Paley) phi =
  graph_sentence_check phi;
  let q = max 1 (Formula.quantifier_rank phi) in
  let witness =
    match source with
    | Paley ->
        let g = Paley.witness ~k:q in
        if not (Extension.is_kec ~k:q g) then
          failwith "Almost_sure: Paley witness failed k-e.c. verification"
        else g
    | Search (rng, size) -> (
        match find_kec_witness ~rng ~k:q ~size ~attempts:200 with
        | Some g -> g
        | None ->
            failwith
              (Printf.sprintf
                 "Almost_sure: no %d-e.c. graph of size %d found in 200 draws"
                 q size))
  in
  Compiled.sat witness phi

let mu ?source phi = if decide ?source phi then 1.0 else 0.0
