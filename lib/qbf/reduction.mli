(** The PSPACE-hardness reduction (slide 19): QBF satisfiability reduces to
    FO model checking over a fixed two-element structure.

    The structure is [B = ({0,1}, T)] with [T = {1}]; a propositional
    variable [p] becomes a first-order variable [xp] ranging over [{0,1}],
    [p] itself becomes the atom [T(xp)], and propositional quantifiers
    become first-order ones. A QBF is true iff [B] models its
    translation — so FO model checking (combined complexity) is
    PSPACE-hard. *)

module Formula = Fmtk_logic.Formula
module Structure = Fmtk_structure.Structure

(** The fixed target structure [({0,1}, T = {1})]. *)
val target : Structure.t

(** Translate a QBF into an FO sentence over [target]'s signature
    [{T/1}]. *)
val translate : Qbf.t -> Formula.t

(** [decide_via_fo q] solves a closed QBF by FO model checking on
    {!target} — must agree with {!Qbf.solve} (verified by tests and
    experiment E17).
    @raise Fmtk_runtime.Budget.Exhausted when [budget] runs out first. *)
val decide_via_fo : ?budget:Fmtk_runtime.Budget.t -> Qbf.t -> bool
