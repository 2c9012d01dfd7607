(* Random inputs biased toward the shapes that give Compiled's scans a
   guard: binary atoms pinning a bound variable to an adjacency row in
   both directions, universals through [->], [!..|..] and [!(..&..)],
   guards under a nested existential, plus the near misses that must
   not guard (self-loop atoms E(y,y), shadowed binders). Terms include
   the constant 'c, and graphs are sparse enough to have empty rows.
   Shared by test_compiled (set-backed graphs) and test_csr (CSR-backed
   graphs above the auto-conversion threshold). *)

module Formula = Fmtk_logic.Formula
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Eval = Fmtk_eval.Eval
module Compiled = Fmtk_eval.Compiled
open Formula

let signature = Signature.make ~consts:[ "c" ] [ ("E", 2) ]

let graph_of ~n ~c edges =
  Structure.make signature ~size:n ~consts:[ ("c", c) ]
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* A random digraph on 1..6 nodes with up to 2n edges (shrinkable). *)
let small_graph =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let* edges =
      list_size
        (int_range 0 (2 * n))
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    let* c = int_range 0 (n - 1) in
    return (graph_of ~n ~c edges))

(* [m] random edge draws on [n] nodes, from a drawn seed: a QCheck list
   of thousands of edges costs more to build than the test itself. *)
let graph ~n ~m =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let node () = Random.State.int rng n in
      graph_of ~n ~c:(node ()) (List.init m (fun _ -> (node (), node ()))))
    QCheck2.Gen.int

(* Formulas of at most [size] connectives beyond the atoms. *)
let formula_of ~size : Formula.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let var = oneofl [ "x"; "y"; "z" ] in
  let term = frequency [ (4, map v var); (1, return (c "c")) ] in
  let atom = map2 (fun t u -> rel "E" [ t; u ]) term term in
  (* An atom on [y] and another term — which may be [y] itself. *)
  let guard y =
    let* t = term in
    oneofl [ rel "E" [ t; v y ]; rel "E" [ v y; t ] ]
  in
  let either a b =
    map (fun swap -> if swap then And (b, a) else And (a, b)) bool
  in
  sized_size (int_range 0 size)
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               atom;
               atom;
               map2 (fun t u -> Eq (t, u)) term term;
               return True;
             ]
         else
           let sub = self (n - 1) in
           let half = self (n / 2) in
           frequency
             [
               ( 3,
                 let* y = var and* body = sub in
                 let* g = guard y in
                 map (exists y) (either g body) );
               ( 1,
                 (* The guard sits under an inner binder [z]: it still
                    pins [y] unless it mentions [z]. *)
                 let* y = var and* z = var and* body = sub in
                 let* g = guard y in
                 map (fun b -> exists y (exists z b)) (either g body) );
               ( 3,
                 let* y = var and* body = sub in
                 let* g = guard y in
                 oneofl
                   [
                     forall y (Implies (g, body));
                     forall y (Or (Not g, body));
                     forall y (Or (body, Not g));
                     forall y (Not (And (g, Not body)));
                     forall y (Implies (And (body, g), body));
                   ] );
               (1, map2 exists var sub);
               (1, map2 forall var sub);
               (1, map not_ sub);
               (1, map2 (fun a b -> And (a, b)) half half);
               (1, map2 (fun a b -> Or (a, b)) half half);
             ])

let formula = formula_of ~size:5

let print (g, phi) =
  Format.asprintf "%a@.%s" Structure.pp g (Formula.to_string phi)

(* Compiled answers = the naive oracle's, free variables and tuples. *)
let agree g phi =
  let vars, naive = Eval.answers g phi in
  let cvars, compiled = Compiled.answers g phi in
  vars = cvars && Tuple.Set.equal naive compiled
