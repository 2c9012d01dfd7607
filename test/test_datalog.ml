(* Tests for Fmtk_datalog: AST validation, stratification, naive and
   semi-naive evaluation, canonical programs. *)

module Ast = Fmtk_datalog.Ast
module Engine = Fmtk_datalog.Engine
module Programs = Fmtk_datalog.Programs
module Structure = Fmtk_structure.Structure
module Signature = Fmtk_logic.Signature
module Tuple = Fmtk_structure.Tuple
module Graph = Fmtk_structure.Graph
module Gen = Fmtk_structure.Gen
open Ast

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

let atom pred args = { pred; args }

let graph_of edges ~size =
  Structure.make Signature.graph ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* ---------- AST ---------- *)

let test_range_restriction () =
  let ok = { head = atom "p" [ V "x" ]; body = [ Pos (atom "e" [ V "x"; V "y" ]) ] } in
  checkb "safe rule" true (range_restricted ok = Ok ());
  let bad_head = { head = atom "p" [ V "z" ]; body = [ Pos (atom "e" [ V "x"; V "y" ]) ] } in
  checkb "unsafe head" true (range_restricted bad_head = Error "z");
  let bad_neg =
    {
      head = atom "p" [ V "x" ];
      body = [ Pos (atom "e" [ V "x"; V "x" ]); Neg (atom "e" [ V "x"; V "w" ]) ];
    }
  in
  checkb "unsafe negation" true (range_restricted bad_neg = Error "w")

let test_stratification () =
  (* tc program: single stratum. *)
  (match stratify Programs.transitive_closure with
  | Ok [ _ ] -> ()
  | Ok strata -> Alcotest.failf "expected 1 stratum, got %d" (List.length strata)
  | Error e -> Alcotest.failf "unexpected: %s" e);
  (* unreachable: two strata, tc before unreach. *)
  (match stratify Programs.unreachable with
  | Ok [ s1; s2 ] ->
      checkb "tc first" true
        (List.for_all (fun r -> r.head.pred = "tc") s1);
      checkb "unreach second" true
        (List.for_all (fun r -> r.head.pred = "unreach") s2)
  | Ok strata -> Alcotest.failf "expected 2 strata, got %d" (List.length strata)
  | Error e -> Alcotest.failf "unexpected: %s" e);
  (* p :- !p is not stratifiable. *)
  let bad =
    [ { head = atom "p" [ V "x" ]; body = [ Pos (atom "e" [ V "x" ]); Neg (atom "p" [ V "x" ]) ] } ]
  in
  checkb "negative self-dependency" true (stratify bad = Error "p")

(* ---------- Engine vs reference graph algorithms ---------- *)

let test_tc_matches_graph () =
  let graphs =
    [
      Gen.successor 6;
      Gen.cycle 5;
      graph_of [ (0, 1); (1, 2); (2, 0); (3, 4) ] ~size:5;
      graph_of [] ~size:3;
      Gen.binary_tree 3;
    ]
  in
  List.iter
    (fun g ->
      checkb "datalog TC = Floyd-Warshall TC" true
        (Tuple.Set.equal (Programs.tc_of g) (Graph.transitive_closure g)))
    graphs

let test_naive_equals_seminaive () =
  let g = graph_of [ (0, 1); (1, 2); (2, 3); (3, 1); (0, 4) ] ~size:5 in
  List.iter
    (fun program ->
      let db = Engine.Db.of_structure g in
      let r1, _ = Engine.naive program db in
      let r2, _ = Engine.seminaive program db in
      List.iter
        (fun pred ->
          checkb
            (Printf.sprintf "agree on %s" pred)
            true
            (Tuple.Set.equal (Engine.Db.find r1 pred) (Engine.Db.find r2 pred)))
        (Ast.idb_preds program))
    [ Programs.transitive_closure; Programs.same_generation; Programs.unreachable ]

let test_seminaive_less_work () =
  (* On a long chain, semi-naive does asymptotically less join work. *)
  let g = Gen.successor 24 in
  let db = Engine.Db.of_structure g in
  let _, naive_stats = Engine.naive Programs.transitive_closure db in
  let _, semi_stats = Engine.seminaive Programs.transitive_closure db in
  checkb "semi-naive does less work" true
    (semi_stats.Engine.join_work < naive_stats.Engine.join_work);
  checkb "both iterate about n times" true
    (naive_stats.Engine.iterations >= 23 && semi_stats.Engine.iterations >= 23)

let test_same_generation () =
  (* On the full binary tree, x and y are in the same generation iff they
     are at the same depth. *)
  let depth_of i =
    let rec go i d = if i = 0 then d else go ((i - 1) / 2) (d + 1) in
    go i 0
  in
  let t = Gen.binary_tree 3 in
  let sg = Programs.sg_of t in
  let n = Structure.size t in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      checkb
        (Printf.sprintf "sg(%d,%d)" i j)
        (depth_of i = depth_of j)
        (Tuple.Set.mem [| i; j |] sg)
    done
  done

let test_stratified_negation () =
  let g = graph_of [ (0, 1); (1, 2) ] ~size:4 in
  (* nonedge = complement. *)
  let nonedge = Engine.run Programs.non_edge g ~pred:"nonedge" in
  checki "16 pairs - 2 edges" 14 (Tuple.Set.cardinal nonedge);
  checkb "complement correct" true
    (Tuple.Set.mem [| 1; 0 |] nonedge && not (Tuple.Set.mem [| 0; 1 |] nonedge));
  (* unreach = complement of tc. *)
  let unreach = Engine.run Programs.unreachable g ~pred:"unreach" in
  let tc = Graph.transitive_closure g in
  let n = Structure.size g in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      checkb
        (Printf.sprintf "unreach(%d,%d)" u v)
        (not (Tuple.Set.mem [| u; v |] tc))
        (Tuple.Set.mem [| u; v |] unreach)
    done
  done

let test_constants_in_rules () =
  (* reach0(x) :- tc(0, x) — constants in rule bodies. *)
  let program =
    Programs.transitive_closure
    @ [ { head = atom "reach0" [ V "x" ]; body = [ Pos (atom "tc" [ C 0; V "x" ]) ] } ]
  in
  let g = graph_of [ (0, 1); (1, 2); (3, 0) ] ~size:4 in
  let reach = Engine.run program g ~pred:"reach0" in
  checkb "0 reaches 1, 2" true
    (Tuple.Set.mem [| 1 |] reach && Tuple.Set.mem [| 2 |] reach);
  checkb "0 does not reach 3" false (Tuple.Set.mem [| 3 |] reach)

let test_engine_validation () =
  let bad = [ { head = atom "p" [ V "z" ]; body = [ Pos (atom "e" [ V "x" ]) ] } ] in
  let db = Engine.Db.empty in
  (try
     ignore (Engine.naive bad db);
     Alcotest.fail "unsafe rule must be rejected"
   with Invalid_argument _ -> ());
  let unstrat =
    [ { head = atom "p" [ V "x" ]; body = [ Pos (atom "e" [ V "x" ]); Neg (atom "p" [ V "x" ]) ] } ]
  in
  try
    ignore (Engine.seminaive unstrat db);
    Alcotest.fail "unstratifiable program must be rejected"
  with Invalid_argument _ -> ()

let test_db_of_structure () =
  let g = graph_of [ (0, 1) ] ~size:3 in
  let db = Engine.Db.of_structure g in
  checki "adom" 3 (Tuple.Set.cardinal (Engine.Db.find db "adom"));
  checki "E" 1 (Tuple.Set.cardinal (Engine.Db.find db "E"));
  checki "unknown pred empty" 0 (Tuple.Set.cardinal (Engine.Db.find db "zzz"))

(* ---------- QCheck ---------- *)

let gen_graph =
  let open QCheck2.Gen in
  let* n = int_range 1 7 in
  let* edges =
    list_size (int_range 0 (n * 2))
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  return (graph_of edges ~size:n)

let prop_tc_correct =
  QCheck2.Test.make ~count:100 ~name:"datalog TC = matrix TC on random graphs"
    gen_graph (fun g ->
      Tuple.Set.equal (Programs.tc_of g) (Graph.transitive_closure g))

let prop_strategies_agree =
  QCheck2.Test.make ~count:100 ~name:"naive = semi-naive on random graphs"
    gen_graph (fun g ->
      let db = Engine.Db.of_structure g in
      let r1, _ = Engine.naive Programs.same_generation db in
      let r2, _ = Engine.seminaive Programs.same_generation db in
      Tuple.Set.equal (Engine.Db.find r1 "sg") (Engine.Db.find r2 "sg"))

let prop_sg_reflexive_symmetric =
  QCheck2.Test.make ~count:100 ~name:"same-generation is reflexive and symmetric"
    gen_graph (fun g ->
      let sg = Programs.sg_of g in
      let n = Structure.size g in
      let refl = List.for_all (fun i -> Tuple.Set.mem [| i; i |] sg) (List.init n Fun.id) in
      let sym =
        Tuple.Set.for_all (fun t -> Tuple.Set.mem [| t.(1); t.(0) |] sg) sg
      in
      refl && sym)

(* Two recursive literals in one rule: each semi-naive variant joins one
   delta with the whole relation. The last rule has a head constant
   outside the graph and a repeated head variable. *)
let nonlinear_tc =
  [
    { head = atom "tc" [ V "x"; V "y" ]; body = [ Pos (atom "E" [ V "x"; V "y" ]) ] };
    {
      head = atom "tc" [ V "x"; V "y" ];
      body = [ Pos (atom "tc" [ V "x"; V "z" ]); Pos (atom "tc" [ V "z"; V "y" ]) ];
    };
    {
      head = atom "cyclic" [ C 9; V "x"; V "x" ];
      body = [ Pos (atom "tc" [ V "x"; V "x" ]) ];
    };
  ]

let prop_nonlinear_tc =
  QCheck2.Test.make ~count:100 ~name:"nonlinear TC = matrix TC, both strategies"
    gen_graph (fun g ->
      let tc = Graph.transitive_closure g in
      let cyclic =
        Tuple.Set.filter_map
          (fun t -> if t.(0) = t.(1) then Some [| 9; t.(0); t.(0) |] else None)
          tc
      in
      List.for_all
        (fun eval ->
          let db, _ = eval nonlinear_tc (Engine.Db.of_structure g) in
          Tuple.Set.equal (Engine.Db.find db "tc") tc
          && Tuple.Set.equal (Engine.Db.find db "cyclic") cyclic)
        [ Engine.naive ?budget:None; Engine.seminaive ?budget:None ])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_tc_correct;
      prop_strategies_agree;
      prop_sg_reflexive_symmetric;
      prop_nonlinear_tc;
    ]

let () =
  Alcotest.run "fmtk_datalog"
    [
      ( "ast",
        [
          Alcotest.test_case "range restriction" `Quick test_range_restriction;
          Alcotest.test_case "stratification" `Quick test_stratification;
        ] );
      ( "engine",
        [
          Alcotest.test_case "TC matches reference" `Quick test_tc_matches_graph;
          Alcotest.test_case "naive = semi-naive" `Quick test_naive_equals_seminaive;
          Alcotest.test_case "semi-naive work" `Quick test_seminaive_less_work;
          Alcotest.test_case "same generation" `Quick test_same_generation;
          Alcotest.test_case "stratified negation" `Quick test_stratified_negation;
          Alcotest.test_case "constants in rules" `Quick test_constants_in_rules;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "db of structure" `Quick test_db_of_structure;
        ] );
      ("properties", qcheck_cases);
    ]
