(** The serve wire protocol: one JSON object per line, each request
    answered by exactly one JSON object line.

    Requests carry an [op] field selecting the operation, an optional
    [id] echoed verbatim in the response (any JSON value — clients use
    it to match pipelined responses), and optional [timeout] (seconds)
    and [fuel] resource limits, capped server-side.

    {v
      {"id":1,"op":"load","name":"c6","spec":"cycle:6"}
      {"id":2,"op":"eval","structure":"c6","formula":"forall x. exists y. E(x,y)"}
      {"id":3,"op":"eval","structure":"c6","formula":"E(x,y)","ra":true}
      {"id":4,"op":"update","structure":"c6","rel":"E","tuple":[0,3],"action":"insert"}
      {"id":5,"op":"game","left":"c6","right":"c7","rounds":3}
      {"id":6,"op":"decide","left":"c6","right":"c7","rank":3,"timeout":0.5}
      {"id":7,"op":"drop","name":"c6"}
      {"op":"ping"}   {"op":"list"}   {"op":"stats"}
    v}

    Responses have a [status] field:
    - ["ok"] — definitive answer in [result];
    - ["degraded"] — sound answer from a fallback method (the
      {!Fmtk.Decide} ladder), named in [result.method];
    - ["shed"] — admission control refused the request; retry after
      [retry_after_ms];
    - ["error"] — no answer; [code] is machine-readable
      ([bad-json], [bad-request], [unknown-structure], [parse-error],
      [plan-error], [bad-update], [deadline-over-limit], [oversized], [gave-up], [worker-crash], [store-full], [too-large],
      [io-error], [idle-timeout], [shutting-down]), [error] is
      human-readable.

    The [load] / [drop] mutations are acknowledged only after the
    mutation is journaled per the server's durability configuration
    (see {!Store}); an ["ok"] for either means the change survives a
    crash. *)

module Json = Json

(** A parsed request body. *)
type request =
  | Ping
  | List_structures
  | Stats
  | Load of { name : string; spec : string option; text : string option }
  | Drop of { name : string }
  | Eval of { structure : string; formula : string; ra : bool }
      (** [ra] selects the relational-algebra engine (planned physical
          execution, answers maintained incrementally across [update]s)
          instead of the compiled tree-walking evaluator. *)
  | Update of {
      structure : string;
      rel : string;
      tuple : int list;
      add : bool;
    }
      (** Single-tuple insert ([add = true]) or delete against a named
          structure's relation. Maintained RA query results are updated
          by delta propagation rather than recomputation. *)
  | Game of {
      left : string;
      right : string;
      rounds : int;
      pebbles : int option;
      counting : bool;
    }
  | Decide of { left : string; right : string; rank : int }

(** Resource limits requested by the client (validated against the
    server's caps at admission). *)
type limits = { timeout : float option; fuel : int option }

(** A request envelope: the echoed [id] plus either a parsed body or the
    error response to send back. *)
type envelope = {
  id : Json.t option;
  body : (request * limits, string * string) result;
      (** [Error (code, message)] *)
}

(** [parse_request line] — total; malformed JSON or an invalid body
    yields an [Error] envelope (with [id] still echoed when present). *)
val parse_request : string -> envelope

(** True for operations cheap enough to answer on the connection thread,
    bypassing admission control and the worker pool. *)
val is_inline : request -> bool

(** {1 Response builders} — all single-line, [id]-echoing. *)

val ok : ?ms:float -> id:Json.t option -> (string * Json.t) list -> string

val degraded :
  ?ms:float -> id:Json.t option -> (string * Json.t) list -> string

val error : ?ms:float -> id:Json.t option -> code:string -> string -> string

val shed : id:Json.t option -> retry_after_ms:int -> string
