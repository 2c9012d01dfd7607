module Structure = Fmtk_structure.Structure
module Formula = Fmtk_logic.Formula
module Gen = Fmtk_structure.Gen
module Compiled = Fmtk_eval.Compiled

let mu_with ~rng ~trials ~sample q =
  if trials <= 0 then invalid_arg "Estimator.mu: trials must be positive";
  let hits = ref 0 in
  for _ = 1 to trials do
    if q (sample rng) then incr hits
  done;
  float_of_int !hits /. float_of_int trials

let mu ~rng ~trials sg n q =
  mu_with ~rng ~trials ~sample:(fun rng -> Gen.random_structure ~rng sg n) q

let mu_formula ~rng ~trials sg n phi =
  if not (Formula.is_sentence phi) then
    invalid_arg "Estimator.mu_formula: not a sentence";
  mu ~rng ~trials sg n (fun s -> Compiled.sat s phi)

let mu_series ~rng ~trials sg ns q =
  List.map (fun n -> (n, mu ~rng ~trials sg n q)) ns
