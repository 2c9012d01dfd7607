(** Weisfeiler–Leman colour refinement — the toolbox's single refinement
    layer.

    The 1-dimensional algorithm (classic colour refinement over the
    Gaifman graph) previously lived as private copies inside {!Iso} and
    [Fmtk.Decide]; both now call this module. The k-dimensional
    generalisation refines colours of k-tuples and is the closed-form
    companion of the bijective counting game
    ([Fmtk_games.Counting_game]): by Cai–Fürer–Immerman, k-WL
    equivalence coincides with agreement on C^{k+1} (first-order logic
    with counting quantifiers, k+1 variables). In particular 1-WL = C^2
    and 2-WL = C^3, and {!Gen.cfi_pair} generates witnesses separating
    the levels.

    The 1-dimensional refinement runs over the structure's cached CSR
    Gaifman adjacency ({!Structure.gaifman_csr}) with interned
    int-array colour keys; per-round key building can shard across
    domains while interning stays sequential, so the returned colours
    are byte-identical for every [workers] value. *)

(** [refine t] — colour refinement of a single structure to
    stabilization. The interned colour ids are only comparable within
    the returned array; they are assigned in element order, so the
    result does not depend on [workers]. [workers] (default 1) shards
    per-round key building by contiguous vertex range over the shared
    domain pool; the budget is polled once per element per round.
    @raise Fmtk_runtime.Budget.Exhausted when the (default unlimited)
    budget runs out before stabilization. *)
val refine :
  ?workers:int -> ?budget:Fmtk_runtime.Budget.t -> Structure.t -> int array

(** [colors1 t] = [refine t] (sequential, unlimited) — the historical
    name. Constants individualize their elements, so a structure whose
    refinement is discrete (all colours distinct) is rigid — the fast
    path of {!Orbit}. *)
val colors1 : Structure.t -> int array

(** Colour refinement of two structures computed jointly, so colours are
    comparable across them. [workers]/[budget] as in {!refine}. *)
val colors_joint :
  ?workers:int ->
  ?budget:Fmtk_runtime.Budget.t ->
  Structure.t ->
  Structure.t ->
  int array * int array

(** [census_equal1 a b]: the joint 1-WL colour censuses (multisets of
    colours) coincide. A mismatch certifies FO-distinguishability on
    finite structures — counting colour-class sizes is FO-expressible —
    which is how [Fmtk.Decide]'s degradation ladder uses it. *)
val census_equal1 : Structure.t -> Structure.t -> bool

(** Content-canonical colour labels: unlike the interned ids of
    {!colors_joint}, these digests depend solely on refinement content,
    so isomorphic structures of equal size get identical label
    multisets. Used by {!Iso.invariant_key}. Runs [size] refinement
    rounds — meant for the small structures of the iso/registry layer,
    not the million-element pipeline. *)
val canonical_colors : Structure.t -> Digest.t array

(** [equiv ~k a b]: the joint k-WL colour censuses coincide, i.e. the
    structures are not distinguished by k-WL — equivalently, they agree
    on C^{k+1}. Sound and complete for C^{k+1}-equivalence; sound but
    incomplete for isomorphism and for elementary equivalence. *)
val equiv :
  ?budget:Fmtk_runtime.Budget.t -> k:int -> Structure.t -> Structure.t -> bool
