(** Datalog abstract syntax — the fixed-point query language whose queries
    (transitive closure, same-generation) the paper uses as canonical
    non-FO-expressible examples (§3.3–3.4). *)

type term = V of string | C of int
type atom = { pred : string; args : term list }
type literal = Pos of atom | Neg of atom
type rule = { head : atom; body : literal list }
type program = rule list

(** Range restriction: every head variable and every variable of a negated
    literal occurs in some positive body literal. Returns an offending
    variable if violated. *)
val range_restricted : rule -> (unit, string) result

(** Predicates defined by the program (appearing in some head). *)
val idb_preds : program -> string list

(** [stratify p] splits the program into strata such that negation only
    refers to strictly lower strata. [Error pred] when a predicate depends
    negatively on itself through recursion. *)
val stratify : program -> (rule list list, string) result

val pp_rule : Format.formatter -> rule -> unit
val pp_program : Format.formatter -> program -> unit
