(** Automorphism orbits, for symmetry pruning in game solvers.

    Two spoiler moves [x] and [x'] of an EF or pebble game lead to
    equivalent subgames whenever some automorphism of the structure fixes
    every already-pebbled element and maps [x] to [x'] — game values
    depend only on the isomorphism type of the position. A solver can
    therefore explore one representative per orbit of the pointwise
    stabilizer of the pebbled elements (Schweikardt's EF-game survey makes
    the observation; on a directed cycle the rotation group collapses the
    root branching factor from [2n] to [2]).

    Orbits are computed by WL-colour-seeded backtracking over {!Iso}:
    colour refinement bounds the candidate pairs; when the refinement is
    discrete the structure is rigid and everything short-circuits (the
    rigidity fast-path — linear orders, most random graphs). Stabilizer
    orbits are obtained by re-running the search with the pinned elements
    individualized as constants, and are cached per pinned set; the cache
    is mutex-guarded so parallel game workers can share one [t]. *)

type t
(** Orbit oracle for one structure. Cheap to build for rigid structures
    (one colour-refinement run); shareable across domains. *)

(** [make ?budget s] builds the oracle. The budget (default unlimited)
    governs the automorphism searches the oracle runs — both the eager
    root-orbit computation and the lazy stabilizer refinements triggered
    later by {!refine}/{!stabilizer}, which raise
    [Fmtk_runtime.Budget.Exhausted] like any other budgeted search. *)
val make : ?budget:Fmtk_runtime.Budget.t -> Structure.t -> t

(** [rigid t] — the automorphism group is trivial. Detected either by a
    discrete WL colouring (no search at all) or by an exhausted
    backtracking search. *)
val rigid : t -> bool

(** Orbit partition of the pointwise stabilizer of some pinned element
    set. [trivial o] means every orbit is a singleton — no pruning is
    possible at [o] or below, which downstream refinements exploit. *)
type orbits

(** Orbits of the full automorphism group (nothing pinned). *)
val root : t -> orbits

val trivial : orbits -> bool

(** One representative (the minimal element) per orbit, ascending. Pinned
    elements are fixed points of the stabilizer, so they always appear.
    For a trivial partition this is the whole domain. *)
val reps : orbits -> int list

(** [orbit_ids o] maps each element to the minimal element of its orbit. *)
val orbit_ids : orbits -> int array

(** [refine t o pins] — orbits of the subgroup of [o]'s stabilizer that
    additionally fixes every element of [pins] pointwise. O(1) when [o]
    is already trivial; otherwise a cache lookup or one search. This is
    the per-move step of the game solvers: pin the pair just played. *)
val refine : t -> orbits -> int list -> orbits

(** [stabilizer t pinned] — orbits of the pointwise stabilizer of
    [pinned], from scratch (cached). Used where positions do not evolve
    incrementally (the pebble game lifts pebbles, shrinking the pinned
    set). *)
val stabilizer : t -> int list -> orbits

(** Root orbit partition as explicit classes (ascending), for tests. *)
val classes : t -> int list list
