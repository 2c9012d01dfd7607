(** Compressed-sparse-row storage for binary relations.

    The generic {!Tuple.Set.t} representation costs one heap-allocated
    [int array] per tuple plus balanced-tree overhead — ruinous at the
    10^6–10^7 edges the locality pipeline targets. A [Csr.t] stores a
    binary relation over the int universe [0..n-1] as two flat arrays:
    [offs.(u) .. offs.(u+1)-1] indexes into [targets], whose slice is
    the sorted, duplicate-free list of successors of [u]. Membership is
    a binary search in the row; iteration is a pointer walk; nothing on
    the hot path allocates.

    Rows are {e always} sorted ascending and deduplicated — construction
    normalizes, so structural equality of the arrays is relation
    equality, and row walks are deterministic (the property the
    streaming neighborhood census relies on for its serialization
    cache). *)

type t

(** {1 Growable int vectors}

    A tiny amortized-doubling int buffer, shared by the CSR builders and
    the streaming readers in {!Structure_io} (which must not allocate a
    list cell per edge). *)
module Vec : sig
  type vec

  val create : ?cap:int -> unit -> vec
  val push : vec -> int -> unit
  val length : vec -> int
  val get : vec -> int -> int

  (** Reset length to 0, keeping capacity. *)
  val clear : vec -> unit

  (** Fresh array of the first [length] entries. *)
  val to_array : vec -> int array
end

(** [of_edges ~n (src, dst)] builds the relation [{(src.(i), dst.(i))}].
    The two arrays must have equal length; rows come out sorted and
    deduplicated (counting sort by source, O(n + m log d)).
    @raise Invalid_argument on length mismatch or an endpoint outside
    [0..n-1]. *)
val of_edges : n:int -> int array * int array -> t

(** [of_tuple_set ~n set] converts a binary tuple set.
    @raise Invalid_argument on a non-binary tuple or out-of-domain
    endpoint. *)
val of_tuple_set : n:int -> Tuple.Set.t -> t

(** [of_vecs ~n src dst] — builder-friendly variant of {!of_edges}. *)
val of_vecs : n:int -> Vec.vec -> Vec.vec -> t

(** Number of nodes (rows). *)
val nodes : t -> int

(** Number of stored (deduplicated) edges. *)
val edge_count : t -> int

(** Row bounds: the successors of [u] are
    [targets.(row_start t u) .. targets.(row_end t u - 1)]. *)
val row_start : t -> int -> int

val row_end : t -> int -> int

(** The flat target array. {b Read-only}: mutating it breaks the
    sorted-row invariant and every cached view of the relation. *)
val targets : t -> int array

(** The row-offset array, [nodes t + 1] entries: row [u] is
    [targets.(offsets.(u)) .. targets.(offsets.(u+1) - 1)]. For loops
    that hoist both arrays out of a row walk. {b Read-only}, like
    {!targets}. *)
val offsets : t -> int array

val degree : t -> int -> int
val max_degree : t -> int

(** [mem t u v] — binary search in row [u]; [false] outside the
    domain. *)
val mem : t -> int -> int -> bool

(** [iter_row t u f] applies [f] to each successor of [u] in ascending
    order. *)
val iter_row : t -> int -> (int -> unit) -> unit

(** [iter_edges t f] applies [f u v] to every edge, rows in order. *)
val iter_edges : t -> (int -> int -> unit) -> unit

(** In-degree of every node (one pass over [targets]). *)
val in_degrees : t -> int array

(** [transpose t] — the converse relation [{(v, u) | (u, v) in t}]:
    row [v] lists the predecessors of [v], sorted. *)
val transpose : t -> t

(** [append a b] — disjoint union: rows of [b] follow those of [a] with
    targets shifted by [nodes a]. *)
val append : t -> t -> t

(** [relabel t perm] renames node [u] to [perm.(u)] on both endpoints;
    [perm] must be a permutation (not checked here — callers validate). *)
val relabel : t -> int array -> t

(** Structural equality (= relation equality, by the normalization
    invariant). *)
val equal : t -> t -> bool
