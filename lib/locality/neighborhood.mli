(** Isomorphism types of neighborhoods and their censuses.

    A {e census} counts, for each isomorphism type τ of an r-neighborhood,
    how many elements of a structure realize τ — the object both Hanf
    relations ([⇆r] and [⇆*m,r], slides 59 and Theorem 3.10) compare.

    {b Streaming.} For signatures with no constants and only unary/binary
    relations, the census streams: each element's ball is extracted by a
    scratch-buffer BFS over the cached CSR Gaifman adjacency (O(ball)
    per element, never O(structure)) and resolved through a
    serialization cache before any exact isomorphism test — the path
    that carries the million-element experiments (E28). Other signatures
    fall back to the generic whole-ball extraction. Both paths produce
    identical type ids and censuses, and so does every [workers] value
    (sharded censuses merge per-range registries in range order,
    reproducing the sequential id assignment). *)

module Structure = Fmtk_structure.Structure

(** A registry of neighborhood types: representatives discovered so far.
    Types are matched by invariant-key bucketing followed by exact
    isomorphism (the ablation bench disables the bucketing). *)
type registry

val create_registry : ?bucketing:bool -> unit -> registry

(** [type_id reg nb] returns the id of [nb]'s isomorphism type, registering
    a new type if unseen. *)
val type_id : registry -> Structure.t -> int

(** Representative structure of a type id. *)
val representative : registry -> int -> Structure.t

(** [element_types reg t ~radius] assigns to every element of [t] the type
    id of its radius-[radius] neighborhood. [workers] (default 1) shards
    the census by contiguous vertex range over the shared domain pool;
    the result is identical for every value. The budget is polled once
    per element.
    @raise Fmtk_runtime.Budget.Exhausted when the (default unlimited)
    budget runs out mid-census; the registry stays consistent (types
    already registered remain valid). *)
val element_types :
  ?workers:int ->
  ?budget:Fmtk_runtime.Budget.t ->
  registry ->
  Structure.t ->
  radius:int ->
  int array

(** [census reg t ~radius] is the census as a sorted association list
    [type id ↦ count] (only realized types listed). [workers]/[budget]
    as in {!element_types}. *)
val census :
  ?workers:int ->
  ?budget:Fmtk_runtime.Budget.t ->
  registry ->
  Structure.t ->
  radius:int ->
  (int * int) list

(** Number of exact isomorphism tests performed so far (ablation metric). *)
val iso_tests : registry -> int

(** Number of ball-serialization cache hits so far (streaming-path
    metric: censuses of regular inputs should resolve almost entirely
    here, with {!iso_tests} staying near the number of distinct types). *)
val serial_hits : registry -> int
