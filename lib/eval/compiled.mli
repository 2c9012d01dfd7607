(** Compile-then-run FO evaluation: the production model checker.

    The naive interpreter {!Eval} walks the formula AST on every
    evaluation step, resolves variables through an association list, and
    probes relations through [SMap.find] plus a tuple-set search — per
    atom, per assignment. This module instead compiles a {!Formula.t}
    {e once} against a fixed structure into a tree of closures over
    slot-numbered variables: the environment is a single int array,
    free-variable and binder slots are resolved at compile time,
    constants are interpreted at compile time, and every relational atom
    holds its relation's O(1) membership index
    ({!Fmtk_structure.Index}) with an arity-specialized allocation-free
    probe. Experiment E23 measures the gap against the naive
    interpreter, which remains the differential-testing oracle.

    {2 Guarded scans}

    A scan — a quantifier's, or an answer variable's enumeration in
    {!definable_relation_of} — walks the whole domain [0..n-1] unless a
    binary atom pins its variable [y] to one adjacency row. The rows are
    the structure's cached access paths
    ({!Fmtk_structure.Structure.out_rows}/[in_rows]); the guards are
    chosen at compile time, syntactically:
    - [exists y. phi]: an atom [R(t,y)] (resp. [R(y,t)]) among [phi]'s
      top-level conjuncts makes the scan walk the out-row (resp. in-row)
      of [t], where [t] is a constant or an already-bound variable other
      than [y]. Conjuncts under a further [exists z] count when they do
      not mention [z], and [!psi] contributes the atoms that guard
      [forall] in [psi].
    - [forall y. psi]: the same atom, as a negated disjunct of [psi] or
      as a conjunct of an implication's premise ([R(x,y) -> chi],
      [!R(x,y) | chi], [!(R(x,y) & chi)]), makes the scan walk the row:
      outside it [psi] is true.
    - Answer variable [i] of {!definable_relation_of}: an atom among the
      query's top-level conjuncts whose other endpoint is a constant or
      an answer variable before [i].

    Self-loop atoms [R(y,y)] never guard. With several guards the scan
    walks the shortest row at run time; with none it walks the domain.
    Answers are those of the full scan: a guard only skips elements at
    which the scanned formula is false ([exists]) or true ([forall]).

    {2 Budget contract}

    Every evaluating entry point takes an optional [budget] (default
    unlimited) and counts one budget step, exactly as
    {!Fmtk_runtime.Budget.check} would, on entering each scan, guarded
    or not: each quantifier's scan, and each answer variable's
    enumeration in {!definable_relation_of}. A scan visits at most [n]
    elements, so between two polls the evaluator runs at most one
    innermost scan — [n] steps of a quantifier-free body — and a
    deadline, fuel limit or cancellation takes effect within one poll
    interval of such scans. Exhaustion raises
    {!Fmtk_runtime.Budget.Exhausted}; a budget never changes an answer
    that is returned. Experiment E25 measures the poll overhead.

    A compiled formula reuses internal scratch state (including the
    running budget's poller), so a single [t] must not be run from
    several domains at once — compile per domain or serialize runs. *)

module Formula = Fmtk_logic.Formula
module Structure = Fmtk_structure.Structure
module Budget = Fmtk_runtime.Budget

type t

(** [compile a f] compiles [f] for evaluation on [a]. Free variables get
    argument slots in {!Formula.free_vars} order.
    @raise Invalid_argument if [f] mentions a relation or constant not
    interpreted by [a]. *)
val compile : Structure.t -> Formula.t -> t

(** Like {!compile} with an explicit argument-slot order; [vars] must
    cover the free variables (extra names get unconstrained slots). *)
val compile_with : Structure.t -> vars:string list -> Formula.t -> t

(** Free variables in argument-slot order. *)
val free_vars : t -> string list

(** [run t args] evaluates with [args.(i)] assigned to the [i]-th free
    variable (see {!free_vars}).
    @raise Invalid_argument on an argument-count mismatch.
    @raise Budget.Exhausted when [budget] runs out first. *)
val run : ?budget:Budget.t -> t -> int array -> bool

(** Named-environment convenience around {!run}.
    @raise Invalid_argument if a free variable is missing from [env]. *)
val holds : t -> env:(string * int) list -> bool

(** One-shot [compile]+[run] for sentences: does [a] satisfy [f]?
    @raise Invalid_argument if [f] has free variables, or as {!compile}.
    @raise Budget.Exhausted when [budget] runs out first. *)
val sat : ?budget:Budget.t -> Structure.t -> Formula.t -> bool

(** Answer set of an already-compiled query: all tuples (in slot order)
    satisfying it — the [n^k] enumeration reuses one environment array.
    @raise Budget.Exhausted when [budget] runs out first. *)
val definable_relation_of : ?budget:Budget.t -> t -> Fmtk_structure.Tuple.Set.t

(** [definable_relation a f ~vars] evaluates [f] as a query with
    distinguished variables [vars] (a permutation/superset of the free
    variables) and returns the answer tuples in that variable order. *)
val definable_relation :
  ?budget:Budget.t ->
  Structure.t ->
  Formula.t ->
  vars:string list ->
  Fmtk_structure.Tuple.Set.t

(** [answers a f] computes [ans(f, A)] (slide 10): the free variables of
    [f] in {!Formula.free_vars} order and the tuples over them that
    satisfy [f] in [a]. *)
val answers :
  ?budget:Budget.t ->
  Structure.t ->
  Formula.t ->
  string list * Fmtk_structure.Tuple.Set.t
