(* Tests for Fmtk_eval.Compiled (the compile-then-run engine of E23) and
   Fmtk_structure.Index, with the naive Eval interpreter as differential
   oracle, plus EF solver equivalence across memo/parallel configs. *)

module Formula = Fmtk_logic.Formula
module Parser = Fmtk_logic.Parser
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Index = Fmtk_structure.Index
module Gen = Fmtk_structure.Gen
module Eval = Fmtk_eval.Eval
module Compiled = Fmtk_eval.Compiled
module Ef = Fmtk_games.Ef
module Budget = Fmtk_runtime.Budget
open Formula

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let f = Parser.parse_exn

let graph_of edges ~size =
  Structure.make Signature.graph ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* ---------- Compiled engine: basic semantics ---------- *)

let test_sentences () =
  let s = graph_of [ (0, 1); (1, 2) ] ~size:3 in
  List.iter
    (fun phi ->
      checkb (Formula.to_string phi) (Eval.sat s phi) (Compiled.sat s phi))
    [
      True;
      False;
      f "exists x y. E(x,y)";
      f "forall x. exists y. E(x,y)";
      f "exists x. forall y. !E(y,x)";
      f "forall x y. E(x,y) -> E(y,x)";
      f "exists x. x = x & !E(x,x)";
    ]

let test_free_vars_and_run () =
  let s = graph_of [ (0, 1) ] ~size:2 in
  let ct = Compiled.compile s (f "E(x,y)") in
  Alcotest.(check (list string)) "slot order" [ "x"; "y" ] (Compiled.free_vars ct);
  checkb "edge" true (Compiled.run ct [| 0; 1 |]);
  checkb "non-edge" false (Compiled.run ct [| 1; 0 |]);
  checkb "holds env" true (Compiled.holds ct ~env:[ ("y", 1); ("x", 0) ]);
  (try
     ignore (Compiled.run ct [| 0 |]);
     Alcotest.fail "arity mismatch must raise"
   with Invalid_argument _ -> ());
  (* compile_with: explicit order and unconstrained extra slots. *)
  let ct2 = Compiled.compile_with s ~vars:[ "y"; "x"; "z" ] (f "E(x,y)") in
  checkb "reordered" true (Compiled.run ct2 [| 1; 0; 0 |]);
  checki "z ranges free" 2
    (Tuple.Set.cardinal (Compiled.definable_relation_of ct2))

let test_constants () =
  let sg = Signature.make ~consts:[ "a"; "b" ] [ ("E", 2) ] in
  let s =
    Structure.make sg ~size:3 ~consts:[ ("a", 0); ("b", 2) ]
      [ ("E", [ [| 0; 1 |]; [| 1; 2 |] ]) ]
  in
  List.iter
    (fun phi ->
      checkb (Formula.to_string phi) (Eval.sat s phi) (Compiled.sat s phi))
    [ f "exists x. E('a,x)"; f "E('a,'b)"; f "'a != 'b" ]

let test_errors () =
  let s = graph_of [] ~size:2 in
  let expect_invalid phi =
    try
      ignore (Compiled.sat s phi);
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid (exists_many [ "x"; "y" ] (rel "R" [ v "x"; v "y" ]));
  expect_invalid (f "exists x. x = 'c");
  expect_invalid (f "E(x,y)");
  (* Wrong-arity atom is well-defined: simply false, as for Eval. *)
  let phi = exists "x" (rel "E" [ v "x" ]) in
  checkb "wrong arity false" (Eval.sat s phi) (Compiled.sat s phi)

(* ---------- Index unit tests ---------- *)

let test_index_small_arities () =
  (* Arity <= 2 over a small domain: the bitset representation. *)
  let t1 = Index.build ~size:5 ~arity:1 (Tuple.Set.of_list [ [| 0 |]; [| 3 |] ]) in
  checkb "mem1 hit" true (Index.mem1 t1 3);
  checkb "mem1 miss" false (Index.mem1 t1 2);
  checkb "mem1 out of domain" false (Index.mem1 t1 17);
  checkb "mem agrees" true (Index.mem t1 [| 0 |]);
  checkb "wrong arity" false (Index.mem t1 [| 0; 0 |]);
  let t2 = Index.build ~size:4 ~arity:2 (Tuple.Set.of_list [ [| 1; 2 |] ]) in
  checkb "mem2 hit" true (Index.mem2 t2 1 2);
  checkb "mem2 miss" false (Index.mem2 t2 2 1);
  checkb "mem2 negative" false (Index.mem2 t2 (-1) 2);
  let t0 = Index.build ~size:3 ~arity:0 (Tuple.Set.singleton [||]) in
  checkb "nullary present" true (Index.mem t0 [||]);
  let e0 = Index.build ~size:3 ~arity:0 Tuple.Set.empty in
  checkb "nullary absent" false (Index.mem e0 [||])

let test_index_higher_arities () =
  (* Arity 3 packs into one int; a huge domain forces the generic
     (tuple-keyed) fallback. Same answers either way. *)
  let tuples = Tuple.Set.of_list [ [| 0; 1; 2 |]; [| 2; 2; 2 |] ] in
  let packed = Index.build ~size:3 ~arity:3 tuples in
  let generic = Index.build ~size:(1 lsl 22) ~arity:3 tuples in
  List.iter
    (fun (tup, expect) ->
      checkb "packed" expect (Index.mem packed tup);
      checkb "generic" expect (Index.mem generic tup))
    [
      ([| 0; 1; 2 |], true);
      ([| 2; 2; 2 |], true);
      ([| 1; 0; 2 |], false);
      ([| 0; 1 |], false);
      ([| 0; 1; 2; 0 |], false);
      ([| 0; 1; 3 |], false);
    ];
  checkb "packed out of its domain" false (Index.mem packed [| 0; 1; 5 |]);
  checki "arity" 3 (Index.arity packed)

let test_index_of_tuples () =
  let t = Index.of_tuples ~arity:2 (Tuple.Set.of_list [ [| 7; 7 |] ]) in
  checkb "inferred bound covers max" true (Index.mem t [| 7; 7 |]);
  checkb "beyond inferred bound" false (Index.mem t [| 8; 8 |]);
  let e = Index.of_tuples ~arity:2 Tuple.Set.empty in
  checkb "empty set" false (Index.mem e [| 0; 0 |])

let test_probe_cache_invalidation () =
  let s = graph_of [ (0, 1) ] ~size:3 in
  checkb "probe before" true (Structure.probe s "E" [| 0; 1 |]);
  (* Derived structures must not inherit the parent's index cache. *)
  let s' = Structure.with_rel s "E" 2 (Tuple.Set.singleton [| 2; 2 |]) in
  checkb "old tuple gone" false (Structure.probe s' "E" [| 0; 1 |]);
  checkb "new tuple present" true (Structure.probe s' "E" [| 2; 2 |]);
  checkb "parent unchanged" true (Structure.probe s "E" [| 0; 1 |]);
  let sub, _ = Structure.induced s [ 0; 1 ] in
  checkb "induced re-indexed" true (Structure.probe sub "E" [| 0; 1 |]);
  (try
     ignore (Structure.probe s "R" [| 0 |]);
     Alcotest.fail "undeclared relation must raise"
   with Not_found -> ());
  (* probe = mem on every possible pair. *)
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          checkb "probe = mem"
            (Structure.mem s "E" [| x; y |])
            (Structure.probe s "E" [| x; y |]))
        (Structure.domain s))
    (Structure.domain s)

(* ---------- Differential: compiled vs naive on random inputs ---------- *)

let gen_graph =
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let* edges =
    list_size (int_range 0 (n * 2))
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  return (graph_of edges ~size:n)

let gen_formula : Formula.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Formula in
  let var = oneofl [ "x"; "y"; "z" ] in
  sized_size (int_range 0 6)
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               return True;
               return False;
               map2 (fun a b -> Eq (v a, v b)) var var;
               map2 (fun a b -> rel "E" [ v a; v b ]) var var;
             ]
         else
           oneof
             [
               map not_ (self (n - 1));
               map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Implies (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Iff (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun x g -> exists x g) var (self (n - 1));
               map2 (fun x g -> forall x g) var (self (n - 1));
             ])

let agree g phi =
  (* Compare full answer sets: this checks [holds] on every assignment of
     the free variables, not just one. *)
  let vars, naive = Eval.answers g phi in
  let cvars, compiled = Compiled.answers g phi in
  vars = cvars && Tuple.Set.equal naive compiled

let prop_differential =
  (* The acceptance bar: agreement on >= 500 random (formula, structure)
     pairs. *)
  QCheck2.Test.make ~count:500
    ~name:"compiled agrees with naive Eval on random (structure, formula)"
    QCheck2.Gen.(pair gen_graph gen_formula)
    (fun (g, phi) -> agree g phi)

let prop_differential_roundtrip =
  QCheck2.Test.make ~count:200
    ~name:"compiled agrees with naive Eval after parser round-trip"
    QCheck2.Gen.(pair gen_graph gen_formula)
    (fun (g, phi) ->
      let phi' = Parser.parse_exn (Formula.to_string phi) in
      agree g phi')

let prop_definable_relation =
  QCheck2.Test.make ~count:200
    ~name:"compiled definable_relation matches naive under var reorder"
    QCheck2.Gen.(pair gen_graph gen_formula)
    (fun (g, phi) ->
      let vars = [ "z"; "y"; "x" ] in
      Tuple.Set.equal
        (Eval.definable_relation g phi ~vars)
        (Compiled.definable_relation g phi ~vars))

(* ---------- Budgeted evaluation ---------- *)

(* Answer set of a budgeted run, or the reason it gave up. *)
let budgeted budget g phi =
  match Compiled.answers ~budget g phi with
  | answers -> Ok answers
  | exception Budget.Exhausted r -> Error r

(* Budget checks one unbudgeted-equivalent run makes: with poll interval
   1 every check reaches the shared step counter. *)
let checks_of g phi =
  let b = Budget.create ~fuel:max_int ~poll_interval:1 () in
  ignore (Compiled.answers ~budget:b g phi);
  Budget.steps b

let test_budget_poll_points () =
  let g = graph_of [ (0, 1); (1, 2); (2, 0) ] ~size:3 in
  (* One check per scan entry: 1 + 3 + 9 for three nested quantifiers
     over three elements. *)
  checki "sentence: one check per quantifier scan" 13
    (checks_of g (f "forall x. forall y. exists z. x = x"));
  (* Enumerating the answer variables x, y is scanned the same way:
     1 + 3, then one exists-z scan per candidate tuple. *)
  checki "query: one check per answer-variable scan" 4
    (checks_of g (f "E(x,y)"));
  checki "query with a quantifier" (4 + 9)
    (checks_of g (f "exists z. E(x,z) & E(z,y)"));
  (* A guarded scan is polled once on entry, like a full one, but only
     walks its row: below, each guarded row has one element, so the inner
     scan is entered 3 times instead of 6 (exists) or 9 (forall). *)
  checki "guarded exists: one check per scan entered" (1 + 3 + 3)
    (checks_of g (f "forall x. exists y. (forall z. z = z) & E(y,x)"));
  checki "guarded forall: one check per scan entered" (1 + 3 + 3)
    (checks_of g (f "forall x. forall y. (exists z. x = z) | !E(x,y)"));
  (* Fuel [n] runs out at the [n]-th check: a one-check run needs 2. *)
  let phi = f "exists x. E(x,x)" in
  (match budgeted (Budget.create ~fuel:1 ~poll_interval:1 ()) g phi with
  | Error Budget.Fuel -> ()
  | _ -> Alcotest.fail "fuel 1 must give up");
  match budgeted (Budget.create ~fuel:2 ~poll_interval:1 ()) g phi with
  | Ok ([], ans) -> checkb "fuel 2 answers" true (Tuple.Set.is_empty ans)
  | _ -> Alcotest.fail "fuel 2 must answer"

(* The outcome a budget must produce on a run of [checks] checks that
   exhausts at check [at]: [reason] from there on, the oracle's answer
   before. *)
let oracle_agrees g phi (vars, ans) =
  let vars', naive = Eval.answers g phi in
  vars = vars' && Tuple.Set.equal ans naive

let expect_outcome g phi ~checks ~at ~reason = function
  | Error r -> at <= checks && r = reason
  | Ok answers -> at > checks && oracle_agrees g phi answers

let gen_fuel = QCheck2.Gen.(map (fun e -> int_of_float (10. ** e)) (float_range 0. 4.))

let prop_budget_fuel =
  QCheck2.Test.make ~count:500
    ~name:"budgeted compiled: Eval's answer or Exhausted Fuel, fuel 1..10^4"
    QCheck2.Gen.(
      pair (triple gen_graph gen_formula gen_fuel) (oneofl [ 1; 7; 256 ]))
    (fun ((g, phi, fuel), window) ->
      (* Fuel is debited a whole poll window at a time, so the run gives
         up at the end of the window that drains it — the same step a
         [Budget.check] per step would. *)
      let budget = Budget.create ~fuel ~poll_interval:window () in
      let at = window * ((fuel + window - 1) / window) in
      expect_outcome g phi ~checks:(checks_of g phi) ~at ~reason:Budget.Fuel
        (budgeted budget g phi))

let prop_budget_injected =
  QCheck2.Test.make ~count:300
    ~name:"budgeted compiled: injected Exhaust_at/Cancel_at only give up"
    QCheck2.Gen.(triple gen_graph gen_formula (int_range 1 200))
    (fun (g, phi, at) ->
      let checks = checks_of g phi in
      let run inject = budgeted (Budget.create ~inject ()) g phi in
      expect_outcome g phi ~checks ~at ~reason:Budget.Fuel
        (run (Budget.Exhaust_at at))
      && expect_outcome g phi ~checks ~at ~reason:Budget.Cancelled
           (run (Budget.Cancel_at at)))

(* ---------- EF solver: config equivalence ---------- *)

(* All config corners, including a forced multi-domain fan-out so the
   [Domain.spawn] path runs even where the machine reports one core. *)
let ef_configs =
  [
    ( "memo seq",
      { Ef.memo = true; parallel = false; workers = None; orbit = true } );
    ( "no-memo seq",
      { Ef.memo = false; parallel = false; workers = None; orbit = true } );
    ( "memo seq no-orbit",
      { Ef.memo = true; parallel = false; workers = None; orbit = false } );
    ( "no-memo seq no-orbit",
      { Ef.memo = false; parallel = false; workers = None; orbit = false } );
    ( "memo par3",
      { Ef.memo = true; parallel = true; workers = Some 3; orbit = true } );
    ( "memo par3 no-orbit",
      { Ef.memo = true; parallel = true; workers = Some 3; orbit = false } );
    ( "no-memo par2",
      { Ef.memo = false; parallel = true; workers = Some 2; orbit = true } );
    ("auto", Ef.default_config);
  ]

let test_ef_config_equivalence () =
  let games =
    [
      ("L5 vs L6 r2", Gen.linear_order 5, Gen.linear_order 6, 2);
      ("L7 vs L8 r3", Gen.linear_order 7, Gen.linear_order 8, 3);
      ("L7 vs L7 r3", Gen.linear_order 7, Gen.linear_order 7, 3);
      ("C6 vs C7 r2", Gen.cycle 6, Gen.cycle 7, 2);
      ("C4 vs C4 r3", Gen.cycle 4, Gen.cycle 4, 3);
      ("K3 vs L3 r2", Gen.complete 3, Gen.linear_order 3, 2);
    ]
  in
  List.iter
    (fun (name, a, b, rounds) ->
      let reference = Ef.duplicator_wins ~rounds a b in
      List.iter
        (fun (cname, config) ->
          checkb
            (Printf.sprintf "%s [%s]" name cname)
            reference
            (Ef.duplicator_wins ~config ~rounds a b))
        ef_configs)
    games

let test_ef_from_position_equivalence () =
  let a = Gen.linear_order 6 and b = Gen.linear_order 7 in
  List.iter
    (fun start ->
      let reference = Ef.duplicator_wins_from ~rounds:2 a b start in
      List.iter
        (fun (cname, config) ->
          checkb
            (Printf.sprintf "from %d pairs [%s]" (List.length start) cname)
            reference
            (Ef.duplicator_wins_from ~config ~rounds:2 a b start))
        ef_configs)
    [ []; [ (0, 0) ]; [ (0, 0); (5, 6) ]; [ (0, 6) ] ]

let prop_ef_random_graphs =
  let gen =
    let open QCheck2.Gen in
    let graph =
      let* n = int_range 1 5 in
      let* edges =
        list_size (int_range 0 (n * 2))
          (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      return (graph_of edges ~size:n)
    in
    pair graph graph
  in
  QCheck2.Test.make ~count:100
    ~name:"EF verdict independent of memo/parallel on random graph pairs" gen
    (fun (a, b) ->
      let reference = Ef.duplicator_wins ~rounds:2 a b in
      List.for_all
        (fun (_, config) ->
          Ef.duplicator_wins ~config ~rounds:2 a b = reference)
        ef_configs)

(* Guard-biased formulas: every guarded scan must answer exactly what
   the full scan would, on set-backed graphs and on the same graphs
   forced to CSR rows. *)
let prop_guarded =
  QCheck2.Test.make ~count:500
    ~name:"guarded scans: compiled agrees with naive Eval (set and CSR)"
    ~print:Guard_gen.print
    QCheck2.Gen.(pair Guard_gen.small_graph Guard_gen.formula)
    (fun (g, phi) ->
      Guard_gen.agree g phi && Guard_gen.agree (Structure.to_csr g) phi)

let prop_guarded_definable_relation =
  QCheck2.Test.make ~count:200
    ~name:"guarded answer variables: definable_relation under var reorder"
    ~print:Guard_gen.print
    QCheck2.Gen.(pair Guard_gen.small_graph Guard_gen.formula)
    (fun (g, phi) ->
      List.for_all
        (fun vars ->
          Tuple.Set.equal
            (Eval.definable_relation g phi ~vars)
            (Compiled.definable_relation g phi ~vars))
        [ [ "z"; "y"; "x" ]; [ "x"; "w"; "z"; "y" ] ])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_differential;
      prop_differential_roundtrip;
      prop_definable_relation;
      prop_budget_fuel;
      prop_budget_injected;
      prop_ef_random_graphs;
      prop_guarded;
      prop_guarded_definable_relation;
    ]

let () =
  Alcotest.run "fmtk_compiled"
    [
      ( "compiled",
        [
          Alcotest.test_case "sentences" `Quick test_sentences;
          Alcotest.test_case "free vars and run" `Quick test_free_vars_and_run;
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "budget poll points" `Quick test_budget_poll_points;
        ] );
      ( "index",
        [
          Alcotest.test_case "small arities" `Quick test_index_small_arities;
          Alcotest.test_case "higher arities" `Quick test_index_higher_arities;
          Alcotest.test_case "of_tuples" `Quick test_index_of_tuples;
          Alcotest.test_case "probe cache invalidation" `Quick
            test_probe_cache_invalidation;
        ] );
      ( "ef",
        [
          Alcotest.test_case "config equivalence" `Quick
            test_ef_config_equivalence;
          Alcotest.test_case "from-position equivalence" `Quick
            test_ef_from_position_equivalence;
        ] );
      ("differential", qcheck_cases);
    ]
