(** Checksummed store snapshots: the journal's compaction partner.

    A snapshot is a full dump of the store — the same framed,
    CRC-checked record stream as the {!Journal}, one [Put] per named
    structure — written with the classic atomic discipline: write to a
    temporary file, [fsync] it, [rename] over the live snapshot, [fsync]
    the directory. A reader therefore sees either the old snapshot or
    the new one, never a partial file; after a successful {!write} the
    caller truncates the journal, and recovery becomes
    [load snapshot; replay journal tail].

    Because snapshots are atomic, {e any} damage found when loading one
    (torn tail included) is real corruption: {!load} refuses rather than
    recovering a partial store. *)

module Structure = Fmtk_structure.Structure

val path : dir:string -> string

(** [write ~dir ?inject entries] atomically replaces the snapshot with
    [entries]. On [Error] the previous snapshot (if any) is untouched.
    Raises {!Fmtk_runtime.Io_fault.Crash} under an armed plan. *)
val write :
  dir:string ->
  ?inject:Fmtk_runtime.Io_fault.t ->
  (string * Structure.t) list ->
  (unit, string) result

(** [load ~dir] reads the snapshot into [(name, structure)] pairs, in
    file order. A missing snapshot is [Ok []]; any invalid byte is
    [Error]. *)
val load : dir:string -> ((string * Structure.t) list, string) result
