module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Formula = Fmtk_logic.Formula
module Term = Fmtk_logic.Term
module Compiled = Fmtk_eval.Compiled
module Budget = Fmtk_runtime.Budget

type stats = { mutable stages : int; mutable tuples_derived : int }

let new_stats () = { stages = 0; tuples_derived = 0 }

(* [lower s phi] is [(s', f)]: [f] is [phi] in plain FO over [s'], which
   extends [s] with one relation per fixpoint node. Bound variables get
   names of their own, which the fmtk parser cannot produce: widening an
   atom with parameter columns then never moves a parameter under a
   binder of the same name. A node [[IFP R(x̄). body](t̄)] whose body has
   the parameters p̄ (its free variables other than x̄, and those of the
   nodes around it) becomes the atom [R'(t̄, p̄)] over a fresh relation
   [R']; inside the body, [R(ū)] reads the current stage as [R'(ū, p̄)].
   A stage is one [Compiled] answer set over [x̄ @ p̄], covering every
   parameter value at once; a nested node is recomputed at every stage
   of the nodes around it. *)
let lower ~stats ~poller ~budget s phi =
  let s = ref s and count = ref 0 in
  let fresh x =
    incr count;
    Printf.sprintf "%s'%d" x !count
  in
  let rename env x = Option.value ~default:x (List.assoc_opt x env) in
  (* [env] renames bound variables; [rels] maps each fixpoint relation in
     scope to the relation holding its stage and to its parameters. *)
  let rec go env rels f =
    let term = function Term.Var x -> Term.Var (rename env x) | t -> t in
    let bind x f =
      let y = fresh x in
      (y, go ((x, y) :: env) rels f)
    in
    match f with
    | Fp_formula.True -> Formula.True
    | Fp_formula.False -> Formula.False
    | Fp_formula.Eq (a, b) -> Formula.Eq (term a, term b)
    | Fp_formula.Rel (r, ts) -> (
        let ts = List.map term ts in
        match List.assoc_opt r rels with
        | Some (name, params) -> Formula.Rel (name, ts @ List.map Formula.v params)
        | None -> Formula.Rel (r, ts))
    | Fp_formula.Not f -> Formula.Not (go env rels f)
    | Fp_formula.And (f, g) -> Formula.And (go env rels f, go env rels g)
    | Fp_formula.Or (f, g) -> Formula.Or (go env rels f, go env rels g)
    | Fp_formula.Implies (f, g) -> Formula.Implies (go env rels f, go env rels g)
    | Fp_formula.Exists (x, f) ->
        let y, f = bind x f in
        Formula.Exists (y, f)
    | Fp_formula.Forall (x, f) ->
        let y, f = bind x f in
        Formula.Forall (y, f)
    | Fp_formula.Ifp (r, vars, body, args) ->
        if List.length args <> List.length vars then
          invalid_arg "Fp_eval: IFP argument arity mismatch";
        let ys = List.map fresh vars in
        let name = fresh r in
        let params =
          List.sort_uniq compare
            (List.filter_map
               (fun x -> if List.mem x vars then None else Some (rename env x))
               (Fp_formula.free_vars body)
            @ List.concat_map (fun (_, (_, ps)) -> ps) rels)
        in
        let columns = ys @ params in
        let inner_env = List.combine vars ys @ env
        and inner_rels = (r, (name, params)) :: rels
        and outer = !s in
        let rec stage set =
          Budget.check poller;
          stats.stages <- stats.stages + 1;
          s := Structure.with_rel outer name (List.length columns) set;
          let body = go inner_env inner_rels body in
          let added =
            Tuple.Set.diff
              (Compiled.definable_relation ~budget !s body ~vars:columns)
              set
          in
          if not (Tuple.Set.is_empty added) then begin
            stats.tuples_derived <-
              stats.tuples_derived + Tuple.Set.cardinal added;
            stage (Tuple.Set.union set added)
          end
        in
        stage Tuple.Set.empty;
        Formula.Rel (name, List.map term args @ List.map Formula.v params)
  in
  let f = go [] [] phi in
  (!s, f)

(* Lower [phi] on [s] and compile the result over [vars]. *)
let compiled ?stats ?(budget = Budget.unlimited) s phi ~vars =
  let stats = match stats with Some st -> st | None -> new_stats () in
  let s, f = lower ~stats ~poller:(Budget.poller budget) ~budget s phi in
  Compiled.compile_with s ~vars f

let holds ?stats ?budget s phi ~env =
  let vars = Fp_formula.free_vars phi in
  let args =
    List.map
      (fun x ->
        match List.assoc_opt x env with
        | Some e -> e
        | None -> invalid_arg (Printf.sprintf "Fp_eval: unbound variable %S" x))
      vars
  in
  Compiled.run ?budget
    (compiled ?stats ?budget s phi ~vars)
    (Array.of_list args)

let sat ?stats ?budget s phi = holds ?stats ?budget s phi ~env:[]

let answers ?stats ?budget s phi ~vars =
  Compiled.definable_relation_of ?budget (compiled ?stats ?budget s phi ~vars)
