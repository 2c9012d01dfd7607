module Formula = Fmtk_logic.Formula
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Compiled = Fmtk_eval.Compiled

let target =
  Structure.make (Signature.make [ ("T", 1) ]) ~size:2 [ ("T", [ [| 1 |] ]) ]

let fo_var p = "x" ^ p

let rec translate = function
  | Qbf.Var p -> Formula.Rel ("T", [ Formula.v (fo_var p) ])
  | Qbf.True -> Formula.True
  | Qbf.False -> Formula.False
  | Qbf.Not q -> Formula.Not (translate q)
  | Qbf.And (a, b) -> Formula.And (translate a, translate b)
  | Qbf.Or (a, b) -> Formula.Or (translate a, translate b)
  | Qbf.Implies (a, b) -> Formula.Implies (translate a, translate b)
  | Qbf.Exists (p, q) -> Formula.Exists (fo_var p, translate q)
  | Qbf.Forall (p, q) -> Formula.Forall (fo_var p, translate q)

let decide_via_fo ?budget q =
  if not (Qbf.is_closed q) then invalid_arg "Reduction.decide_via_fo: open QBF";
  Compiled.sat ?budget target (translate q)
