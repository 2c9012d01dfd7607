(** Model checking for FO(IFP), by lowering to FO.

    Each fixpoint node [[IFP R(x̄). body](t̄)] is computed bottom-up,
    stage by stage: [S_{i+1} = S_i ∪ {ā | body(S_i, ā)}] until stable
    (at most [n^k] stages — polynomial data complexity, in contrast to
    the PSPACE combined complexity of plain FO with the formula as
    input). A stage is one answer set of the body computed by
    {!Fmtk_eval.Compiled}, the production FO evaluator, over the tuple
    variables followed by the body's parameters (its other free
    variables): one computation covers every parameter value. The node
    then becomes an atom over a fresh relation holding the fixpoint, and
    the formula that remains is plain FO, run by [Compiled] too. Bound
    variables are renamed apart first, so a parameter is never captured
    by a binder of the body. A nested node is recomputed at every stage
    of the nodes around it.

    {2 Budget}

    Every entry point takes an optional [budget] (default unlimited),
    polled once per [Compiled] scan (see {!Fmtk_eval.Compiled}) and once
    per fixpoint stage. Exhaustion raises
    {!Fmtk_runtime.Budget.Exhausted}; an answer that is returned is never
    changed by a budget. *)

module Structure = Fmtk_structure.Structure

(** Work counters, accumulated over every fixpoint node computed:
    [stages] counts the stages, the last (which adds nothing) included;
    [tuples_derived] counts the tuples the stages added, so for nodes
    without parameters it is the total size of the fixpoints. *)
type stats = { mutable stages : int; mutable tuples_derived : int }

val new_stats : unit -> stats

(** [sat ?stats s phi] for FO(IFP) sentences.
    @raise Invalid_argument on free variables, unknown relations or
    uninterpreted constants, or an IFP argument list whose length is not
    the operator's arity.
    @raise Fmtk_runtime.Budget.Exhausted when [budget] runs out first. *)
val sat :
  ?stats:stats ->
  ?budget:Fmtk_runtime.Budget.t ->
  Structure.t -> Fp_formula.t -> bool

(** [holds ?stats s phi ~env] for open formulas; [env] must bind every
    free variable. *)
val holds :
  ?stats:stats ->
  ?budget:Fmtk_runtime.Budget.t ->
  Structure.t ->
  Fp_formula.t ->
  env:(string * int) list ->
  bool

(** [answers ?stats s phi ~vars] — the answer tuples of an open FO(IFP)
    formula over the listed variables. *)
val answers :
  ?stats:stats ->
  ?budget:Fmtk_runtime.Budget.t ->
  Structure.t ->
  Fp_formula.t ->
  vars:string list ->
  Fmtk_structure.Tuple.Set.t
