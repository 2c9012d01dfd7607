(** Finite relational structures — the paper's model of a database
    (slide 8: "Consider DBs as finite FOL structures").

    A structure has domain [{0, .., size-1}], one set of tuples per relation
    symbol of its signature, and an interpretation for each constant.

    {b Storage.} Each relation is held either as a generic {!Tuple.Set.t}
    or — for binary relations past an internal size threshold, and for
    everything built through {!of_graph} — as CSR adjacency rows
    ({!Csr.t}): flat int arrays, no per-tuple allocation. The choice is
    invisible through this interface ({!rel} materializes a set view on
    demand and caches it); hot paths should prefer {!mem}/{!probe},
    {!iter_rel}/{!iter_rel2}, {!rel_count} and {!gaifman_csr}, which
    never materialize. *)

type t

(** [make sg ~size rels ~consts] builds and validates a structure.
    [rels] gives tuples per relation name (missing relations are empty);
    [consts] interprets constant symbols. Binary relations with at least
    an internal threshold of tuples are stored as CSR rows.
    @raise Invalid_argument if a tuple has the wrong arity, mentions an
    element outside the domain, names an undeclared relation, or a declared
    constant is uninterpreted. *)
val make :
  Fmtk_logic.Signature.t ->
  size:int ->
  ?consts:(string * int) list ->
  (string * int array list) list ->
  t

(** [of_graph sg ~size edges] builds a structure whose relations are given
    as parallel [src]/[dst] endpoint arrays — the allocation-light entry
    point for million-edge inputs (generators, {!Structure_io} streaming
    readers). Every named relation must be binary; each is stored as CSR
    rows directly, never as a tuple set. Missing relations are empty.
    @raise Invalid_argument on a non-binary relation name, an endpoint
    outside the domain, or an uninterpreted constant. *)
val of_graph :
  Fmtk_logic.Signature.t ->
  size:int ->
  ?consts:(string * int) list ->
  (string * (int array * int array)) list ->
  t

val signature : t -> Fmtk_logic.Signature.t
val size : t -> int

(** Domain elements [0 .. size-1]. *)
val domain : t -> int list

(** Tuple set of a relation. For a CSR-backed relation this materializes
    (and caches) the set view — O(m) allocation; fine for small
    structures and tests, avoid on million-edge inputs.
    @raise Not_found for undeclared relations. *)
val rel : t -> string -> Tuple.Set.t

(** Membership test for one tuple (the reference semantics). Set-backed:
    a set lookup. CSR-backed: a binary row search; never materializes. *)
val mem : t -> string -> int array -> bool

(** Number of tuples in one relation, without materializing. *)
val rel_count : t -> string -> int

(** [iter_rel t name f] applies [f] to every tuple. CSR-backed relations
    iterate rows in order and allocate one short-lived tuple per edge;
    prefer {!iter_rel2} for binary relations on hot paths. *)
val iter_rel : t -> string -> (int array -> unit) -> unit

(** [iter_rel2 t name f] applies [f u v] to every pair of a {e binary}
    relation, allocation-free when CSR-backed.
    @raise Invalid_argument if the relation is not binary. *)
val iter_rel2 : t -> string -> (int -> int -> unit) -> unit

(** The CSR rows of a relation, when that is how it is stored ([None]
    for set-backed relations — use {!to_csr} to force). *)
val csr_of_rel : t -> string -> Csr.t option

(** How one relation is stored. *)
val rel_backend : t -> string -> [ `Set | `Csr ]

(** Binary relations with at least this many tuples are auto-converted
    to CSR by {!make} ({!of_graph} always builds CSR). *)
val csr_auto_threshold : int

(** Storage across all relations: ["csr"], ["set"], or ["mixed"] —
    recorded in benchmark output headers. *)
val backend_summary : t -> string

(** [probe t name tup] — same answer as {!mem} but through the relation's
    O(1) membership index (see {!Index}), built lazily on first probe and
    cached on the structure. Wrong-arity or out-of-domain tuples answer
    [false], like {!mem}. @raise Not_found for undeclared relations. *)
val probe : t -> string -> int array -> bool

(** The cached membership index of one relation, for hot loops that want
    to hoist the name lookup and use the allocation-free probes.
    @raise Not_found for undeclared relations. *)
val index : t -> string -> Index.t

(** Force-build the indexes of every relation. Call before sharing the
    structure across domains: index construction mutates the cache, probes
    of a fully indexed structure are read-only. *)
val ensure_indexes : t -> unit

(** [out_rows t name] — the out-rows of a binary relation [R]: row [u]
    lists the [v] with [R(u,v)], sorted and deduplicated. [in_rows t
    name] is the converse: row [v] lists the [u] with [R(u,v)]. These
    are the access paths of guarded quantifier scans
    ({!Fmtk_eval.Compiled}).

    A CSR-backed relation answers [out_rows] with its own rows; every
    other row set is built on first use and cached on the structure.
    Unlike the membership indexes, the row caches are safe to fill from
    several domains at once (a racing build is discarded, never
    half-published), so nothing needs forcing before the structure is
    shared. Derived structures start with empty caches.
    @raise Not_found for undeclared relations.
    @raise Invalid_argument if the relation is not binary. *)
val out_rows : t -> string -> Csr.t

val in_rows : t -> string -> Csr.t

(** Symmetric, self-loop-free Gaifman adjacency of the structure as CSR
    rows: [u ~ v] iff distinct [u], [v] co-occur in some tuple. Built
    once on first use and cached; like the membership indexes, force it
    (call {!gaifman_csr} once) before sharing the structure across
    domains. Shared by 1-WL refinement and the locality modules. *)
val gaifman_csr : t -> Csr.t

(** Interpretation of a constant. @raise Not_found if undeclared. *)
val const : t -> string -> int

(** Total number of tuples across all relations. *)
val tuple_count : t -> int

(** {1 Construction helpers} *)

(** Replace (or add, extending the signature) a relation wholesale. *)
val with_rel : t -> string -> int -> Tuple.Set.t -> t

(** [expand_consts t bindings] adds fresh constant symbols pinned to given
    elements — used to mark distinguished tuples in neighborhoods.
    @raise Invalid_argument if a name is already a constant of [t]. *)
val expand_consts : t -> (string * int) list -> t

(** Force every binary relation into CSR rows (resp. generic sets),
    regardless of size. The two views are observationally identical
    through this interface — the differential test suite pins them
    against each other. *)
val to_csr : t -> t

val to_sets : t -> t

(** {1 Operations} *)

(** [induced t elems] is the substructure induced by [elems] (duplicates
    ignored), with elements renumbered [0..]; the returned array maps new
    elements to old ones. Constants interpreted outside [elems] are dropped
    from the signature. *)
val induced : t -> int list -> t * int array

(** Disjoint union; both arguments must share a signature with no constants.
    Elements of the second argument are shifted by [size first]. *)
val disjoint_union : t -> t -> t

(** [relabel t perm] renames element [i] to [perm.(i)]; [perm] must be a
    permutation of the domain. *)
val relabel : t -> int array -> t

(** Literal equality: same signature, size, relations and constants
    (storage backend does not matter). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
