(* Tests for Fmtk_fixpoint: FO(IFP) syntax, evaluation, and the canonical
   fixpoint definitions (TC, connectivity, EVEN-with-order). *)

module Fp = Fmtk_fixpoint.Fp_formula
module Fp_eval = Fmtk_fixpoint.Fp_eval
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Graph = Fmtk_structure.Graph
module Gen = Fmtk_structure.Gen
module Eval = Fmtk_eval.Eval
module Parser = Fmtk_logic.Parser
module Formula = Fmtk_logic.Formula

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let v x = Fmtk_logic.Term.Var x

let graph_of edges ~size =
  Structure.make Signature.graph ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* ---------- Syntax ---------- *)

let test_of_fo_agrees () =
  let fo = Parser.parse_exn "forall x. exists y. E(x,y) | E(y,x)" in
  List.iter
    (fun g ->
      checkb "FO fragment agrees" (Eval.sat g fo) (Fp_eval.sat g (Fp.of_fo fo)))
    [ Gen.cycle 4; Gen.path 4; graph_of [] ~size:2 ]

let test_free_vars () =
  Alcotest.(check (list string))
    "TC has free u, v" [ "u"; "v" ]
    (Fp.free_vars Fp.transitive_closure);
  Alcotest.(check (list string)) "connectivity closed" [] (Fp.free_vars Fp.connectivity);
  Alcotest.(check (list string)) "even closed" [] (Fp.free_vars Fp.even_on_orders)

let test_positivity () =
  (* positivity is a property of the operator's body (the operator itself
     rebinds its relation variable). *)
  let tc_body =
    Fp.Or
      ( Fp.Rel ("E", [ v "x"; v "y" ]),
        Fp.Exists
          ( "z",
            Fp.And (Fp.Rel ("T", [ v "x"; v "z" ]), Fp.Rel ("E", [ v "z"; v "y" ]))
          ) )
  in
  checkb "TC body positive in T" true (Fp.positive_in "T" tc_body);
  checkb "negated occurrence detected" false
    (Fp.positive_in "T" (Fp.Not (Fp.Rel ("T", [ v "x" ]))));
  checkb "rebinding masks inner occurrences" true
    (Fp.positive_in "T"
       (Fp.Ifp ("T", [ "x" ], Fp.Not (Fp.Rel ("T", [ v "x" ])), [ v "u" ])));
  checkb "left of implies is negative" false
    (Fp.positive_in "T" (Fp.Implies (Fp.Rel ("T", [ v "x" ]), Fp.True)));
  checki "ifp depth" 1 (Fp.ifp_depth Fp.transitive_closure)

(* ---------- TC via IFP ---------- *)

let test_tc () =
  let graphs =
    [
      Gen.successor 6;
      Gen.cycle 4;
      graph_of [ (0, 1); (1, 2); (2, 0); (3, 3) ] ~size:5;
      graph_of [] ~size:3;
    ]
  in
  List.iter
    (fun g ->
      let via_ifp =
        Fp_eval.answers g Fp.transitive_closure ~vars:[ "u"; "v" ]
      in
      checkb "IFP TC = matrix TC" true
        (Tuple.Set.equal via_ifp (Graph.transitive_closure g)))
    graphs

let test_tc_stages () =
  (* On an n-chain the fixpoint needs ~n stages; the stats expose the
     inherently-iterative nature FO lacks. *)
  let stats = Fp_eval.new_stats () in
  ignore
    (Fp_eval.holds ~stats (Gen.successor 8) Fp.transitive_closure
       ~env:[ ("u", 0); ("v", 7) ]);
  checkb "at least 7 stages" true (stats.Fp_eval.stages >= 7)

(* ---------- Connectivity ---------- *)

let test_connectivity () =
  List.iter
    (fun g ->
      checkb "IFP connectivity = BFS" (Graph.connected g)
        (Fp_eval.sat g Fp.connectivity))
    [
      Gen.cycle 5;
      Gen.path 5;
      Gen.union_of [ Gen.cycle 3; Gen.cycle 3 ];
      Gen.binary_tree 2;
      graph_of [] ~size:1;
    ]

(* ---------- EVEN over orders (Immerman–Vardi flavour) ---------- *)

let test_even_on_orders () =
  for n = 1 to 9 do
    checkb
      (Printf.sprintf "IFP even on L%d" n)
      (n mod 2 = 0)
      (Fp_eval.sat (Gen.linear_order n) Fp.even_on_orders)
  done

(* ---------- Nested/parameterized fixpoints ---------- *)

let test_parameterized_fixpoint () =
  (* Reachability from a fixed source held in an outer variable:
     phi(s, t) = [IFP R(y). y = s | ∃z (R(z) ∧ E(z,y))](t). *)
  let body =
    Fp.Or
      ( Fp.Eq (v "y", v "s"),
        Fp.Exists
          ("z", Fp.And (Fp.Rel ("R", [ v "z" ]), Fp.Rel ("E", [ v "z"; v "y" ]))) )
  in
  let reach = Fp.Ifp ("R", [ "y" ], body, [ v "t" ]) in
  let g = graph_of [ (0, 1); (1, 2); (3, 0) ] ~size:4 in
  let holds s t = Fp_eval.holds g reach ~env:[ ("s", s); ("t", t) ] in
  checkb "0 reaches 2" true (holds 0 2);
  checkb "0 does not reach 3" false (holds 0 3);
  checkb "3 reaches 2" true (holds 3 2);
  checkb "source reaches itself" true (holds 2 2)

let test_parameter_capture () =
  (* The body rebinds the operator's parameter [s]: reachability from [s]
     again, with [∃s] naming the predecessor. Row [s] of the table lists
     the [t] reachable from [s] along E = {0→1, 1→2, 3→0}. *)
  let body =
    Fp.Or
      ( Fp.Eq (v "y", v "s"),
        Fp.Exists
          ("s", Fp.And (Fp.Rel ("R", [ v "s" ]), Fp.Rel ("E", [ v "s"; v "y" ]))) )
  in
  let reach = Fp.Ifp ("R", [ "y" ], body, [ v "t" ]) in
  let g = graph_of [ (0, 1); (1, 2); (3, 0) ] ~size:4 in
  let table =
    [|
      [| true; true; true; false |];
      [| false; true; true; false |];
      [| false; false; true; false |];
      [| true; true; true; true |];
    |]
  in
  Array.iteri
    (fun s row ->
      Array.iteri
        (fun t want ->
          checkb
            (Printf.sprintf "holds(s=%d, t=%d)" s t)
            want
            (Fp_eval.holds g reach ~env:[ ("s", s); ("t", t) ]))
        row)
    table

let test_errors () =
  (try
     ignore (Fp_eval.sat (Gen.set 2) Fp.transitive_closure);
     Alcotest.fail "free variables must be rejected"
   with Invalid_argument _ -> ());
  try
    ignore
      (Fp_eval.sat (Gen.set 2)
         (Fp.Exists
            ("w", Fp.Ifp ("T", [ "x" ], Fp.Rel ("Q", [ v "x" ]), [ v "w" ]))));
    Alcotest.fail "unknown relation must be rejected"
  with Invalid_argument _ -> ()

(* ---------- QCheck ---------- *)

let gen_graph =
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let* edges =
    list_size (int_range 0 (n * 2))
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  return (graph_of edges ~size:n)

let prop_tc =
  QCheck2.Test.make ~count:100 ~name:"IFP TC = matrix TC on random graphs"
    gen_graph (fun g ->
      Tuple.Set.equal
        (Fp_eval.answers g Fp.transitive_closure ~vars:[ "u"; "v" ])
        (Graph.transitive_closure g))

let prop_conn =
  QCheck2.Test.make ~count:100 ~name:"IFP connectivity on random graphs"
    gen_graph (fun g -> Fp_eval.sat g Fp.connectivity = Graph.connected g)

let prop_datalog_agrees =
  QCheck2.Test.make ~count:60 ~name:"IFP TC = Datalog TC" gen_graph (fun g ->
      Tuple.Set.equal
        (Fp_eval.answers g Fp.transitive_closure ~vars:[ "u"; "v" ])
        (Fmtk_datalog.Programs.tc_of g))

(* ---------- Differential: lowering vs syntactic unfolding ---------- *)

(* Free variables of the random formulas. *)
let pool = [ "x"; "y"; "s" ]

(* Random FO(IFP) formulas over E: a unary fixpoint named R or S whose
   body may hold [nest] more levels, which may rebind an outer name.
   Quantifiers and fixpoint variables shadow the pool, so bodies read
   pool variables as parameters and rebind them; relation variables
   occur under negation too. A body nests at most one quantifier: the
   oracle's unfolding stacks one copy per stage. *)
let gen_fp ~nest =
  let open QCheck2.Gen in
  let rec go depth ~nest ~quant vars rels =
    let var = oneofl vars in
    let atom =
      frequency
        ((2, map2 (fun a b -> Fp.Rel ("E", [ v a; v b ])) var var)
        :: (1, map2 (fun a b -> Fp.Eq (v a, v b)) var var)
        ::
        (if rels = [] then []
         else [ (3, map2 (fun r a -> Fp.Rel (r, [ v a ])) (oneofl rels) var) ]))
    in
    if depth = 0 then atom
    else
      let sub = go (depth - 1) ~nest ~quant vars rels in
      let bind k =
        let* x = oneofl pool in
        map (k x) (go (depth - 1) ~nest ~quant:false (x :: vars) rels)
      in
      frequency
        [
          (2, atom);
          (1, map (fun f -> Fp.Not f) sub);
          (2, map2 (fun f g -> Fp.And (f, g)) sub sub);
          (2, map2 (fun f g -> Fp.Or (f, g)) sub sub);
          (1, map2 (fun f g -> Fp.Implies (f, g)) sub sub);
          ((if quant then 3 else 0), bind (fun x f -> Fp.Exists (x, f)));
          ((if quant then 1 else 0), bind (fun x f -> Fp.Forall (x, f)));
          ((if nest > 0 then 2 else 0), ifp (depth - 1) (nest - 1) vars rels);
        ]
  and ifp depth nest vars rels =
    let* r = oneofl [ "R"; "S" ] in
    let* x = oneofl pool in
    let* a = oneofl vars in
    map
      (fun body -> Fp.Ifp (r, [ x ], body, [ v a ]))
      (go depth ~nest ~quant:true (x :: vars) (r :: rels))
  in
  ifp 3 nest pool []

(* Bound variables renamed apart, so that the unfolding below never moves
   a free variable under a binder of the same name. *)
let rename_apart f =
  let count = ref 0 in
  let rn env x = Option.value ~default:x (List.assoc_opt x env) in
  let term env = function Fmtk_logic.Term.Var x -> v (rn env x) | t -> t in
  let fresh env x =
    incr count;
    let y = Printf.sprintf "b%d" !count in
    (y, (x, y) :: env)
  in
  let rec go env = function
    | (Fp.True | Fp.False) as f -> f
    | Fp.Eq (a, b) -> Fp.Eq (term env a, term env b)
    | Fp.Rel (r, ts) -> Fp.Rel (r, List.map (term env) ts)
    | Fp.Not f -> Fp.Not (go env f)
    | Fp.And (f, g) -> Fp.And (go env f, go env g)
    | Fp.Or (f, g) -> Fp.Or (go env f, go env g)
    | Fp.Implies (f, g) -> Fp.Implies (go env f, go env g)
    | Fp.Exists (x, f) ->
        let y, env' = fresh env x in
        Fp.Exists (y, go env' f)
    | Fp.Forall (x, f) ->
        let y, env' = fresh env x in
        Fp.Forall (y, go env' f)
    | Fp.Ifp (r, xs, body, args) ->
        let ys, env' =
          List.fold_right
            (fun x (ys, env) ->
              let y, env = fresh env x in
              (y :: ys, env))
            xs ([], env)
        in
        Fp.Ifp (r, ys, go env' body, List.map (term env) args)
  in
  go [] f

(* The oracle's FO formula: each unary fixpoint unfolded n times —
   psi_0 = false, psi_(i+1) = psi_i | body[R(u) := psi_i(u)] — which on n
   elements reaches the fixpoint. *)
let rec unfold n = function
  | Fp.True -> Formula.True
  | Fp.False -> Formula.False
  | Fp.Eq (a, b) -> Formula.Eq (a, b)
  | Fp.Rel (r, ts) -> Formula.Rel (r, ts)
  | Fp.Not f -> Formula.Not (unfold n f)
  | Fp.And (f, g) -> Formula.And (unfold n f, unfold n g)
  | Fp.Or (f, g) -> Formula.Or (unfold n f, unfold n g)
  | Fp.Implies (f, g) -> Formula.Implies (unfold n f, unfold n g)
  | Fp.Exists (x, f) -> Formula.Exists (x, unfold n f)
  | Fp.Forall (x, f) -> Formula.Forall (x, unfold n f)
  | Fp.Ifp (r, [ x ], body, [ t ]) ->
      let body = unfold n body in
      let rec replace psi = function
        | Formula.Rel (r', [ u ]) when r' = r -> Formula.subst x u psi
        | Formula.Not f -> Formula.Not (replace psi f)
        | Formula.And (f, g) -> Formula.And (replace psi f, replace psi g)
        | Formula.Or (f, g) -> Formula.Or (replace psi f, replace psi g)
        | Formula.Implies (f, g) ->
            Formula.Implies (replace psi f, replace psi g)
        | Formula.Exists (y, f) -> Formula.Exists (y, replace psi f)
        | Formula.Forall (y, f) -> Formula.Forall (y, replace psi f)
        | f -> f
      in
      let rec stage i psi =
        if i = 0 then psi else stage (i - 1) (Formula.Or (psi, replace psi body))
      in
      Formula.subst x t (stage n Formula.False)
  | Fp.Ifp _ -> invalid_arg "unfold: unary fixpoints only"

let prop_unfolding =
  QCheck2.Test.make ~count:500
    ~name:"IFP lowering = syntactic unfolding under naive Eval"
    ~print:(fun (g, phi) ->
      Format.asprintf "%a@.%s" Structure.pp g (Fp.to_string phi))
    QCheck2.Gen.(
      let* n = int_range 1 4 in
      let* edges =
        list_size (int_range 0 (n * 2))
          (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      (* An unfolding grows like (occurrences + 1)^n per fixpoint level,
         and an inner level may read the outer relation: nested
         fixpoints are drawn on at most two elements. *)
      let* phi = gen_fp ~nest:(if n <= 2 then 1 else 0) in
      return (graph_of edges ~size:n, phi))
    (fun (g, phi) ->
      Tuple.Set.equal
        (Fp_eval.answers g phi ~vars:pool)
        (Eval.definable_relation g
           (unfold (Structure.size g) (rename_apart phi))
           ~vars:pool))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_tc; prop_conn; prop_datalog_agrees; prop_unfolding ]

let () =
  Alcotest.run "fmtk_fixpoint"
    [
      ( "syntax",
        [
          Alcotest.test_case "of_fo" `Quick test_of_fo_agrees;
          Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "positivity" `Quick test_positivity;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "transitive closure" `Quick test_tc;
          Alcotest.test_case "stage counting" `Quick test_tc_stages;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "EVEN over orders" `Quick test_even_on_orders;
          Alcotest.test_case "parameterized fixpoint" `Quick test_parameterized_fixpoint;
          Alcotest.test_case "parameter capture" `Quick test_parameter_capture;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
      ("properties", qcheck_cases);
    ]
