(** The write-ahead journal behind the durable {!Store}.

    An append-only file of framed, checksummed records — one record per
    acknowledged store mutation. Frame layout (all integers big-endian):

    {v
      | u32 payload length | u32 crc32(payload) | u32 crc32(bytes 0-7) | payload |
    v}

    The third word checksums the header itself, so a corrupted length or
    payload-checksum field is detected as corruption rather than
    misparsed as a record boundary. Payloads encode mutations:
    [Put (name, data)] carries a structure serialized by
    {!encode_structure} (the {!Fmtk_structure.Structure_io} directive
    format, or the streaming [graph N] edge-list format for graph-shaped
    structures, so CSR-backed million-edge graphs journal in O(edges)
    with no per-tuple boxing); [Remove name] is a deletion.

    {2 Recovery semantics}

    {!replay} scans the file strictly left to right. The failure model
    is a process killed mid-append ([kill -9]): the file is then a clean
    prefix of what the writer wrote, so the only legitimate damage is a
    {e torn final record} — an incomplete header, a declared length
    running past end of file, or a payload-checksum mismatch on a record
    that ends exactly at end of file. Those yield [Torn] (the caller
    truncates and continues). Any other failure — a header-checksum
    mismatch anywhere, a payload mismatch with more data after it, an
    undecodable payload that passed its checksum — cannot be produced by
    a crash and is reported as [Error (Corrupt _)]: the caller must
    refuse the store rather than silently drop acknowledged mutations. *)

(** One acknowledged mutation. [data] is the serialized structure
    ({!encode_structure}). *)
type record =
  | Put of { name : string; data : string }
  | Remove of { name : string }

(** {1 Codec} *)

(** [frame payload] is the 12-byte header plus [payload]. *)
val frame : string -> string

(** [encode r] is the framed bytes of one record, exactly as
    {!append} writes them. *)
val encode : record -> string

(** Serialize a structure for a [Put] payload: the [graph N] edge-list
    form when the signature is exactly the graph signature (one binary
    relation [E], no constants) — streamed on both ends — and the
    directive form otherwise. *)
val encode_structure : Fmtk_structure.Structure.t -> string

(** Total inverse of {!encode_structure}. *)
val decode_structure :
  string -> (Fmtk_structure.Structure.t, string) result

(** {1 Replay} *)

type tail =
  | Clean
  | Torn of { at : int; dropped : int }
      (** a torn final record: [at] is the byte offset of the last valid
          suffix boundary (truncate the file to [at]), [dropped] the
          torn bytes discarded *)

type error =
  | Corrupt of { at : int; reason : string }
      (** damage a crash cannot produce; refuse the store *)
  | Io_error of string

val error_to_string : error -> string

(** [replay ~path ~init ~f] folds [f] over every valid record in order.
    A missing file is an empty journal: [Ok (init, 0, Clean)]. Returns
    the fold result, the record count, and the tail status. *)
val replay :
  path:string ->
  init:'a ->
  f:('a -> record -> 'a) ->
  ('a * int * tail, error) result

(** {1 Writer} *)

type writer

(** Opens (creating if absent) for append. [inject] arms deterministic
    IO faults ({!Fmtk_runtime.Io_fault}) on this writer's appends and
    syncs. *)
val open_append :
  ?inject:Fmtk_runtime.Io_fault.t -> string -> (writer, string) result

(** Append one framed record. No durability is implied until {!sync}.
    [Error] on a real IO failure (the caller must stop appending — a
    partial frame may be on disk); raises {!Fmtk_runtime.Io_fault.Crash}
    under an armed fault plan. *)
val append : writer -> record -> (unit, string) result

(** [fsync]. *)
val sync : writer -> (unit, string) result

(** Truncate to [bytes] (drop a torn tail found by {!replay}); the next
    append continues from there. *)
val truncate_to : writer -> int -> (unit, string) result

(** Truncate to empty — after a successful snapshot. *)
val reset : writer -> (unit, string) result

(** Current file size in bytes, as tracked by this writer. *)
val size : writer -> int

val path : writer -> string

val close : writer -> unit
