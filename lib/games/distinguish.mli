(** Constructive content of the EF theorem: when the spoiler wins the
    n-round game on [(A, B)], there is a sentence of quantifier rank ≤ n
    on which [A] and [B] disagree — this module extracts one.

    The construction mirrors the game tree: a winning spoiler move in [A]
    yields [∃x ⋀_y ψ_y]; a winning move in [B] yields [∀x ⋁_x ψ_x];
    at rank 0 a discrepant literal over the played pebbles is returned. *)

module Structure = Fmtk_structure.Structure
module Formula = Fmtk_logic.Formula

(** [sentence ~rounds a b] is a sentence [φ] with quantifier rank ≤
    [rounds] such that [A ⊨ φ] and [B ⊭ φ], or [None] if the duplicator
    wins the [rounds]-round game (i.e. [A ≡rounds B]).
    @raise Fmtk_runtime.Budget.Exhausted when the (default unlimited)
    [budget] runs out — see {!Fmtk.Decide} for the graceful-degradation
    wrapper that falls back to cheap certificates instead. *)
val sentence :
  ?budget:Fmtk_runtime.Budget.t ->
  rounds:int -> Structure.t -> Structure.t -> Formula.t option

(** [formula ~rounds a b pairs] generalizes {!sentence} to a start
    position: a formula [ψ(x1..xk)] of rank ≤ [rounds] with
    [A ⊨ ψ(ā)] and [B ⊭ ψ(b̄)], where pebble pair [i] (1-based) is named
    [xi]. [None] if the duplicator wins from [pairs]. Returns [None] as
    well if [pairs] is not even a partial isomorphism — in that case rank 0
    already distinguishes; use [rounds = 0]. *)
val formula :
  ?budget:Fmtk_runtime.Budget.t ->
  rounds:int ->
  Structure.t ->
  Structure.t ->
  (int * int) list ->
  Formula.t option
