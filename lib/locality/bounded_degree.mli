(** Linear-time FO evaluation on bounded-degree classes
    (Theorems 3.10 and 3.11, Seese's theorem).

    By Theorem 3.10, the truth of a sentence [φ] of quantifier rank [q] on
    a graph of degree ≤ k is determined by the radius-[r] sphere-type
    census truncated at threshold [m] (with [r], [m] as in
    {!Hanf.fo_radius} / {!Hanf.fo_threshold}). The paper's algorithm
    precomputes a table over all census functions up front; that table is
    doubly exponential and most entries are unrealizable, so this
    implementation fills it {e lazily}: each input's truncated census is
    computed in linear time (for fixed k, r) and used as a cache key; on a
    miss the sentence is evaluated once by the [O(n^q)] model checker and
    the verdict recorded. Soundness of the cache is exactly Theorem 3.10.
    Amortized over a family of inputs, per-input cost is the linear census
    — the shape Theorem 3.11 asserts (experiment E13). *)

module Structure = Fmtk_structure.Structure
module Formula = Fmtk_logic.Formula

type t

(** [make phi ~degree_bound] prepares an evaluator for the sentence [phi]
    on graphs of Gaifman degree ≤ [degree_bound]. Radius and threshold
    default to the Theorem 3.10 bounds; override to trade cache granularity
    (both remain sound if ≥ the defaults; smaller values are accepted for
    experimentation but void the guarantee).
    @raise Invalid_argument if [phi] is not a sentence. *)
val make :
  ?radius:int -> ?threshold:int -> Formula.t -> degree_bound:int -> t

(** Evaluate. [workers]/[budget] are passed to the underlying census
    ({!Fmtk_locality.Neighborhood.census}); [budget] also governs the
    model-checking run on a cache miss. The verdict is identical for
    every worker count. @raise Invalid_argument if the structure's
    Gaifman degree exceeds the declared bound.
    @raise Fmtk_runtime.Budget.Exhausted when [budget] runs out first. *)
val eval :
  ?workers:int -> ?budget:Fmtk_runtime.Budget.t -> t -> Structure.t -> bool

val radius : t -> int
val threshold : t -> int

(** (cache hits, cache misses) so far. *)
val cache_stats : t -> int * int
