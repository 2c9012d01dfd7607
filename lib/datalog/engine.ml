module Tuple = Fmtk_structure.Tuple
module Structure = Fmtk_structure.Structure
module Signature = Fmtk_logic.Signature
module Formula = Fmtk_logic.Formula
module Term = Fmtk_logic.Term
module Compiled = Fmtk_eval.Compiled
module Budget = Fmtk_runtime.Budget
module SMap = Map.Make (String)

module Db = struct
  type t = Tuple.Set.t SMap.t

  let empty = SMap.empty

  let add pred tuples db =
    SMap.update pred
      (function
        | None -> Some tuples
        | Some existing -> Some (Tuple.Set.union existing tuples))
      db

  let find db pred =
    Option.value ~default:Tuple.Set.empty (SMap.find_opt pred db)

  let preds db = List.map fst (SMap.bindings db)

  let of_structure s =
    let base =
      List.fold_left
        (fun acc (name, _) -> SMap.add name (Structure.rel s name) acc)
        SMap.empty
        (Signature.rels (Structure.signature s))
    in
    let adom =
      Tuple.Set.of_list (List.map (fun e -> [| e |]) (Structure.domain s))
    in
    SMap.add "adom" adom base
end

type stats = { iterations : int; join_work : int }

(* ---- Rules as FO queries ----

   A rule body is a conjunction of atoms and negated atoms, answered by
   [Compiled] on a structure that holds every predicate as a relation.
   Semi-naive rounds read the last round's new tuples of [p] under the
   relation name [delta p]; a program constant [c] is the structure's
   constant [const_name c]. The fmtk parsers produce neither name. *)

let delta p = "Δ" ^ p
let const_name c = "#" ^ string_of_int c
let term = function Ast.V x -> Term.Var x | Ast.C c -> Term.Const (const_name c)
let atom (a : Ast.atom) = Formula.Rel (a.pred, List.map term a.args)

(* A rule body ready to run: its formula, its answer variables, and the
   map from an answer tuple to the head tuple it derives. *)
type query = {
  head_pred : string;
  body : Formula.t;
  vars : string list;
  head : int array -> int array;
}

let query (head : Ast.atom) body =
  (* Positive literals first: the answer variables, in order of first
     occurrence, then come from them, and each can walk an adjacency row
     of an earlier one. Range restriction puts every head variable among
     them. *)
  let pos, neg =
    List.partition (function Ast.Pos _ -> true | Ast.Neg _ -> false) body
  in
  let body =
    Formula.conj
      (List.map
         (function Ast.Pos a -> atom a | Ast.Neg a -> Formula.Not (atom a))
         (pos @ neg))
  in
  let vars = Formula.free_vars body in
  let cell = function
    | Ast.V x ->
        let i = Option.get (List.find_index (String.equal x) vars) in
        fun tup -> tup.(i)
    | Ast.C c -> fun _ -> c
  in
  let cells = Array.of_list (List.map cell head.args) in
  {
    head_pred = head.pred;
    body;
    vars;
    head = (fun tup -> Array.map (fun cell -> cell tup) cells);
  }

(* The structure a program starts on: one relation per predicate of the
   program, over the elements that occur in those relations or as
   constants. *)
let structure_of program db =
  let atoms =
    List.concat_map
      (fun (r : Ast.rule) ->
        r.head :: List.map (function Ast.Pos a | Ast.Neg a -> a) r.body)
      program
  in
  let rels =
    List.sort_uniq
      (fun (p, _) (q, _) -> compare p q)
      (List.map (fun (a : Ast.atom) -> (a.pred, List.length a.args)) atoms)
  in
  let consts =
    List.sort_uniq compare
      (List.concat_map
         (fun (a : Ast.atom) ->
           List.filter_map (function Ast.C c -> Some c | Ast.V _ -> None) a.args)
         atoms)
  in
  let tuples p = Tuple.Set.elements (Db.find db p) in
  let size =
    List.fold_left
      (fun m (p, _) -> List.fold_left (Array.fold_left max) m (tuples p))
      (List.fold_left max (-1) consts)
      rels
  in
  Structure.expand_consts
    (Structure.make (Signature.make rels) ~size:(size + 1)
       (List.map (fun (p, _) -> (p, tuples p)) rels))
    (List.map (fun c -> (const_name c, c)) consts)

(* The strata of a valid program. *)
let strata program =
  List.iter
    (fun r ->
      match Ast.range_restricted r with
      | Ok () -> ()
      | Error x ->
          invalid_arg
            (Printf.sprintf "Datalog: rule not range-restricted (variable %S): %s"
               x
               (Format.asprintf "%a" Ast.pp_rule r)))
    program;
  match Ast.stratify program with
  | Ok strata -> strata
  | Error pred ->
      invalid_arg
        (Printf.sprintf "Datalog: predicate %S negatively depends on itself" pred)

(* The one fixpoint loop. A stratum's first round runs every rule;
   each later round runs the [variants] of its rules, on a structure
   whose deltas hold the tuples the round before derived first, until a
   round derives nothing new. *)
let evaluate ~variants ?(budget = Budget.unlimited) program db =
  let strata = strata program in
  let poller = Budget.poller budget in
  let iterations = ref 0 and work = ref 0 in
  let derive s queries =
    List.fold_left
      (fun acc q ->
        Budget.check poller;
        let matches =
          Compiled.definable_relation ~budget s q.body ~vars:q.vars
        in
        work := !work + Tuple.Set.cardinal matches;
        Db.add q.head_pred (Tuple.Set.map q.head matches) acc)
      Db.empty queries
  in
  let stratum (db, s) rules =
    let preds = Ast.idb_preds rules in
    let later =
      List.concat_map
        (fun (r : Ast.rule) -> List.map (query r.head) (variants preds r))
        rules
    in
    (* Later rounds see a stratum predicate's growth only if they read it;
       the next strata see its fixpoint. *)
    let read = List.concat_map (fun q -> Formula.rels_used q.body) later in
    let rec round db s queries =
      incr iterations;
      let derived = derive s queries in
      let fresh =
        List.map
          (fun p -> (p, Tuple.Set.diff (Db.find derived p) (Db.find db p)))
          preds
      in
      let db = List.fold_left (fun db (p, t) -> Db.add p t db) db fresh in
      let arity p = Signature.arity (Structure.signature s) p in
      let install s p = Structure.with_rel s p (arity p) (Db.find db p) in
      if List.for_all (fun (_, t) -> Tuple.Set.is_empty t) fresh then
        (db, List.fold_left install s preds)
      else
        let s =
          List.fold_left
            (fun s (p, t) ->
              let s = if List.mem (p, arity p) read then install s p else s in
              Structure.with_rel s (delta p) (arity p) t)
            s fresh
        in
        round db s later
    in
    round db s (List.map (fun (r : Ast.rule) -> query r.head r.body) rules)
  in
  let db, _ = List.fold_left stratum (db, structure_of program db) strata in
  (db, { iterations = !iterations; join_work = !work })

let naive = evaluate ~variants:(fun _ (r : Ast.rule) -> [ r.body ])

(* One variant per positive literal over a predicate of the stratum, that
   literal reading the delta: every derivation that uses a new tuple. *)
let seminaive =
  evaluate ~variants:(fun preds (r : Ast.rule) ->
      List.concat
        (List.mapi
           (fun i -> function
             | Ast.Pos a when List.mem a.pred preds ->
                 [
                   List.mapi
                     (fun j l ->
                       if i = j then Ast.Pos { a with pred = delta a.pred } else l)
                     r.body;
                 ]
             | Ast.Pos _ | Ast.Neg _ -> [])
           r.body))

let run ?(strategy = `Seminaive) ?budget program s ~pred =
  let db = Db.of_structure s in
  let result, _ =
    match strategy with
    | `Naive -> naive ?budget program db
    | `Seminaive -> seminaive ?budget program db
  in
  Db.find result pred
