(** Resource governance for the solver runtime.

    Every decision procedure in the toolbox (EF/pebble game search,
    isomorphism and orbit computation, SO/QBF evaluation, fixpoint
    iteration, datalog saturation) is worst-case exponential. A
    [Budget.t] bounds such a search with a wall-clock deadline, a fuel
    (step) counter, a memo-table entry cap, and a cooperative
    cancellation token that works across [Domain.spawn] workers.

    The design is cooperative and amortized: each worker (or sequential
    search) creates a {!poller} and calls {!check} once per explored
    position. The hot path is a single mutable decrement-and-compare;
    only every [poll_interval] steps does the slow path consult the
    shared atomics (cancel flag, deadline clock, fuel pool). Exhaustion
    is signalled by raising {!Exhausted}, which callers translate into a
    [Gave_up] verdict — never a wrong answer. *)

(** Why a search stopped early. *)
type reason =
  | Deadline   (** the wall-clock deadline passed *)
  | Fuel       (** the step/fuel counter ran out *)
  | Memory     (** the memo-table entry cap was exceeded *)
  | Cancelled  (** the cancellation token was set by another domain *)

val reason_to_string : reason -> string

(** Raised from inside a budgeted search when the budget is exhausted.
    Solvers catch it at their entry point and return [Gave_up]. *)
exception Exhausted of reason

(** Fault injection for the differential test suite. Counts are in
    global polled steps (shared across workers). *)
type inject =
  | Exhaust_at of int   (** raise [Exhausted Fuel] at the nth check *)
  | Cancel_at of int    (** set the cancel token at the nth check *)
  | Raise_in_worker     (** raise a non-budget exception inside a
                            parallel worker (never in the coordinating
                            domain) to test clean shutdown *)

type t

(** Cooperative cancellation token, shareable across domains. *)
module Cancel : sig
  type token

  val create : unit -> token

  (** Ask every search holding this token to stop. Safe to call from any
      domain; takes effect within one poll interval. *)
  val set : token -> unit

  val is_set : token -> bool
end

(** [create ()] builds a budget. All limits are optional; an absent
    limit is unlimited.

    [deadline_in]: seconds from now. [fuel]: total steps across all
    workers sharing the budget. [memo_cap]: maximum memo-table entries a
    budgeted solver may retain. [cancel]: an externally controlled
    cancellation token. [poll_interval] (default 256): steps between
    slow-path checks; forced to 1 when [inject] is [Exhaust_at]/
    [Cancel_at] so injections fire precisely. *)
val create :
  ?deadline_in:float ->
  ?fuel:int ->
  ?memo_cap:int ->
  ?cancel:Cancel.token ->
  ?poll_interval:int ->
  ?inject:inject ->
  unit ->
  t

(** [sub ?deadline_in ?fuel ?memo_cap ?poll_interval parent] derives a
    child budget capped by [parent] — the mechanism behind per-request
    budgets in a long-running service: one root budget per server, one
    [sub] per request.

    - The child {e shares the parent's cancellation token}: cancelling
      the parent (or any sibling's shared token) cancels the child
      within one poll interval.
    - [deadline_in] is seconds from now, clamped to the parent's
      absolute deadline; omitted means the parent's deadline applies
      unchanged.
    - Omitting [fuel] shares the parent's fuel pool (child steps drain
      it); providing [fuel] gives the child an {e independent} pool
      capped by the parent's remaining fuel at derivation time — the
      child can then burn at most [min fuel remaining] steps, but those
      steps are not charged back to the parent's pool.
    - [memo_cap] is clamped to the parent's cap.
    - Fault injection is inherited, with a fresh step counter: an
      [Exhaust_at n]/[Cancel_at n] parent makes {e each} child fire at
      its own nth polled step (poll interval forced to 1, as in
      {!create}).

    {2 Poll-interval / amortization contract}

    [poll_interval] (inherited from the parent when omitted) is a
    {e granted step window}: every {!poller} counts [poll_interval]
    hot-path {!check}s against a single slow-path consultation of the
    shared state, and the slow path debits the whole window from the
    fuel pool at once. Consequences callers rely on:
    - cancellation, deadline and fuel exhaustion take effect within one
      poll interval per live poller, never instantly;
    - a fuel pool smaller than [poll_interval × live pollers] can be
      overshot by up to one window per poller — derive children with a
      proportionally smaller interval when handing out small fuel
      grants (the CLI uses [max 1 (min 256 (fuel / 10))]);
    - {!steps} is accurate only to one window per live poller. *)
val sub :
  ?deadline_in:float ->
  ?fuel:int ->
  ?memo_cap:int ->
  ?poll_interval:int ->
  t ->
  t

(** A budget with no limits: every check is a near-no-op. *)
val unlimited : t

val is_unlimited : t -> bool

val poll_interval : t -> int

(** [cancel b] sets the budget's cancellation token. *)
val cancel : t -> unit

(** [exhausted b] is [Some r] if the budget is already known to be
    exhausted (a previous check raised, or the token is set). *)
val exhausted : t -> reason option

(** Total steps counted so far across all pollers (accurate to one poll
    interval per live poller). *)
val steps : t -> int

(** [memo_ok b ~entries] is false when [entries] exceeds the budget's
    memo cap. Solvers call it before inserting into a memo table and
    stop memoizing (or raise via {!check_memo}) when it fails. *)
val memo_ok : t -> entries:int -> bool

(** [check_memo b ~entries] raises [Exhausted Memory] when the cap is
    exceeded. *)
val check_memo : t -> entries:int -> unit

(** Per-worker polling handle. Cheap to create; not shared between
    domains — each domain makes its own from the shared budget. *)
type poller

val poller : t -> poller

(** Count one step; every [poll_interval] steps, consult the shared
    state and raise {!Exhausted} if any limit is hit. The injection
    hook [Raise_in_worker] raises [Injected_fault] when [in_worker] was
    true at poller creation. *)
val check : poller -> unit

(** The slow path of {!check}, taken now: consult the shared state and
    count one whole [poll_interval] window. A hot loop that keeps its
    own countdown of {!poll_interval} steps and calls [poll] once per
    window behaves exactly like one calling {!check} every step, minus
    a cross-module call per step. *)
val poll : poller -> unit

(** [worker_poller b] is like {!poller} but marks the poller as running
    inside a spawned worker domain, arming [Raise_in_worker]. *)
val worker_poller : t -> poller

(** The exception thrown by [Raise_in_worker] fault injection. *)
exception Injected_fault

(** [guard b f] runs [f ()] and maps [Exhausted r] to [Error r]. *)
val guard : t -> (unit -> 'a) -> ('a, reason) result
