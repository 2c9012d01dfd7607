(** Model checking: does a finite structure satisfy a first-order formula?

    This is the naive recursive algorithm of slide 19 — lookup for atoms,
    Boolean semantics for connectives, and a scan of the whole domain for
    each quantifier — giving [O(n^k)] time and [O(k log n)] space for
    domain size [n] and quantifier depth [k]. The instrumentation counters
    make that cost measurable (experiment E1).

    This interpreter is the differential-testing oracle and the E1
    work-counter engine; production callers evaluate through
    {!Compiled}, which computes the same answers under a budget. *)

module Formula = Fmtk_logic.Formula
module Structure = Fmtk_structure.Structure

(** Work counters, incremented during evaluation. *)
type stats = {
  mutable atom_checks : int;  (** relation/equality lookups performed *)
  mutable quantifier_steps : int;
      (** domain elements tried across all quantifier scans *)
}

val new_stats : unit -> stats

(** Variable assignments (environments). *)
type env

val empty_env : env
val bind : string -> int -> env -> env
val lookup : env -> string -> int option

(** [holds ?stats a f ~env] decides [a ⊨ f] under [env].
    @raise Invalid_argument if a free variable of [f] is unbound in [env],
    or [f] mentions a relation/constant not interpreted by [a]. *)
val holds : ?stats:stats -> Structure.t -> Formula.t -> env:env -> bool

(** [sat ?stats a f] — [holds] with the empty environment; [f] must be a
    sentence. *)
val sat : ?stats:stats -> Structure.t -> Formula.t -> bool

(** [answers a f] computes [ans(f, A)] (slide 10): the set of tuples [d̄]
    over the free variables of [f] (in {!Formula.free_vars} order) with
    [A ⊨ f(x̄/d̄)]. Returns the variable order and the answer tuples. *)
val answers :
  ?stats:stats ->
  Structure.t ->
  Formula.t ->
  string list * Fmtk_structure.Tuple.Set.t

(** [definable_relation a f ~vars] evaluates [f] as a query with
    distinguished variables [vars] (a permutation/superset of the free
    variables) and returns the answer tuples in that variable order. *)
val definable_relation :
  ?stats:stats ->
  Structure.t ->
  Formula.t ->
  vars:string list ->
  Fmtk_structure.Tuple.Set.t
