(** Datalog evaluation: naive and semi-naive bottom-up fixpoints, with
    stratified negation.

    Both strategies compute the same minimal model and share one fixpoint
    loop; semi-naive restricts each recursive rule to derivations that
    use at least one {e new} tuple, which is the classical work saving
    measured by experiment E18.

    A rule body is a conjunction of atoms and negated atoms, answered as
    an FO query by {!Fmtk_eval.Compiled}, the production FO evaluator,
    on a structure holding every predicate as a relation, its variables
    ordered by first occurrence in the positive literals so that each
    walks an adjacency row of an earlier one. A semi-naive variant reads
    the last round's new tuples of one body predicate under a relation of
    its own. Program constants are constants of that structure, whose
    domain is [0..m], [m] the largest constant or element of a relation
    the program uses. *)

module Tuple = Fmtk_structure.Tuple
module Structure = Fmtk_structure.Structure

(** A database instance: predicate name → tuples. *)
module Db : sig
  type t

  val empty : t
  val add : string -> Tuple.Set.t -> t -> t
  val find : t -> string -> Tuple.Set.t
  (** Empty set for unknown predicates. *)

  val preds : t -> string list

  (** EDB view of a structure: one predicate per relation, plus the unary
      ["adom"] (needed to make rules like [sg(x,x) :- adom(x)] safe). *)
  val of_structure : Structure.t -> t
end

(** Work counters. [iterations]: rounds, summed over the strata, the last
    round of each (which derives nothing new) included. [join_work]: rule-body
    matches, i.e. the answers of every rule body (or semi-naive variant)
    evaluated, summed over all rounds. *)
type stats = { iterations : int; join_work : int }

(** [naive program db] — the minimal model (IDB ∪ EDB) plus stats.
    @raise Invalid_argument if a rule is not range-restricted, the
    program is not stratifiable, a constant is negative, or [db] holds
    tuples of a predicate at another arity than the program uses.
    @raise Fmtk_runtime.Budget.Exhausted when the (default unlimited)
    [budget] runs out — polled once per [Compiled] scan (see
    {!Fmtk_eval.Compiled}) and once per rule body evaluated. *)
val naive :
  ?budget:Fmtk_runtime.Budget.t -> Ast.program -> Db.t -> Db.t * stats

(** Semi-naive (differential) evaluation; same result, less join work. *)
val seminaive :
  ?budget:Fmtk_runtime.Budget.t -> Ast.program -> Db.t -> Db.t * stats

(** Convenience: run a program against a structure and read one predicate
    off the result ([strategy] defaults to semi-naive). *)
val run :
  ?strategy:[ `Naive | `Seminaive ] ->
  ?budget:Fmtk_runtime.Budget.t ->
  Ast.program ->
  Structure.t ->
  pred:string ->
  Tuple.Set.t
