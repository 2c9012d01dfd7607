(** The query zoo: every query the paper discusses, as executable semantic
    queries (and, for the FO-expressible ones, as FO formulas too).

    Boolean queries are [Structure.t -> bool]; binary queries return the
    output edge set. The non-FO-expressible ones (EVEN, CONN, ACYCL, TC,
    same-generation, tree-ness) are exactly the targets of the paper's
    inexpressibility tools. *)

module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Formula = Fmtk_logic.Formula

(** {1 Boolean queries (not FO-expressible)} *)

(** EVEN: the domain has even cardinality (slides 44–46). *)
val even : Structure.t -> bool

(** CONN: graph connectivity, undirected sense (slide 60). *)
val connected : Structure.t -> bool

(** ACYCL: no directed cycle (slide 50). *)
val acyclic : Structure.t -> bool

(** Tree-ness: connected and undirected-acyclic (Hanf example, §3.4). *)
val is_tree : Structure.t -> bool

(** {1 Binary queries (not FO-expressible)} *)

(** TC: transitive closure of the edge relation. *)
val transitive_closure : Structure.t -> Tuple.Set.t

(** Same generation (computed by the Datalog program of §3.4). *)
val same_generation : Structure.t -> Tuple.Set.t

(** {1 FO-expressible controls}

    Each comes as a formula and is evaluated via {!Fmtk_eval.Compiled}; they
    pass every locality test — the contrast that powers experiments
    E9–E12. *)

(** [path2_formula]: φ(x,y) = ∃z (E(x,z) ∧ E(z,y)). *)
val path2_formula : Formula.t

val path2 : Structure.t -> Tuple.Set.t

(** [symmetric_pair_formula]: φ(x,y) = E(x,y) ∧ E(y,x). *)
val symmetric_pair_formula : Formula.t

val symmetric_pair : Structure.t -> Tuple.Set.t

(** Boolean: some vertex has an out-edge to every other vertex. *)
val dominator_formula : Formula.t

val dominator : Structure.t -> bool

(** Boolean: the edge relation is symmetric. *)
val symmetric_formula : Formula.t

val symmetric : Structure.t -> bool

(** Boolean: there is an isolated vertex (no in- or out-edges, no loop). *)
val isolated_formula : Formula.t

val isolated : Structure.t -> bool
