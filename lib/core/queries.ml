module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Graph = Fmtk_structure.Graph
module Formula = Fmtk_logic.Formula
module Parser = Fmtk_logic.Parser
module Compiled = Fmtk_eval.Compiled

let even s = Structure.size s mod 2 = 0
let connected s = Graph.connected s
let acyclic s = Graph.acyclic s
let is_tree s = Graph.is_tree s
let transitive_closure s = Graph.transitive_closure s
let same_generation s = Fmtk_datalog.Programs.sg_of s

let path2_formula = Parser.parse_exn "exists z. E(x,z) & E(z,y)"
let path2 s = Compiled.definable_relation s path2_formula ~vars:[ "x"; "y" ]

let symmetric_pair_formula = Parser.parse_exn "E(x,y) & E(y,x)"

let symmetric_pair s =
  Compiled.definable_relation s symmetric_pair_formula ~vars:[ "x"; "y" ]

let dominator_formula =
  Parser.parse_exn "exists x. forall y. x = y | E(x,y)"

let dominator s = Compiled.sat s dominator_formula

let symmetric_formula = Parser.parse_exn "forall x y. E(x,y) -> E(y,x)"
let symmetric s = Compiled.sat s symmetric_formula

let isolated_formula =
  Parser.parse_exn "exists x. forall y. !E(x,y) & !E(y,x)"

let isolated s = Compiled.sat s isolated_formula
