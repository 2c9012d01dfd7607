(* The experiment harness: one section per experiment of DESIGN.md
   (E1–E18 plus ablations). Shape experiments print the tables/series the
   paper's figures and theorems assert; timing experiments use Bechamel.

   Run all:        dune exec bench/main.exe
   One section:    dune exec bench/main.exe -- --only E5
   List sections:  dune exec bench/main.exe -- --list *)

module Signature = Fmtk_logic.Signature
module Formula = Fmtk_logic.Formula
module Parser = Fmtk_logic.Parser
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Graph = Fmtk_structure.Graph
module Gen = Fmtk_structure.Gen
module Iso = Fmtk_structure.Iso
module Eval = Fmtk_eval.Eval
module Compile = Fmtk_db.Compile
module Ef = Fmtk_games.Ef
module Pebble = Fmtk_games.Pebble
module Counting_game = Fmtk_games.Counting_game
module Wl = Fmtk_structure.Wl
module Strategy = Fmtk_games.Strategy
module Distinguish = Fmtk_games.Distinguish
module Gaifman = Fmtk_locality.Gaifman
module Gaifman_local = Fmtk_locality.Gaifman_local
module Neighborhood = Fmtk_locality.Neighborhood
module Hanf = Fmtk_locality.Hanf
module Bndp = Fmtk_locality.Bndp
module Bounded_degree = Fmtk_locality.Bounded_degree
module Local_sentence = Fmtk_locality.Local_sentence
module Estimator = Fmtk_zeroone.Estimator
module Extension = Fmtk_zeroone.Extension
module Paley = Fmtk_zeroone.Paley
module Almost_sure = Fmtk_zeroone.Almost_sure
module Fo_circuit = Fmtk_circuits.Fo_circuit
module Qbf = Fmtk_qbf.Qbf
module Reduction = Fmtk_qbf.Reduction
module Engine = Fmtk_datalog.Engine
module Programs = Fmtk_datalog.Programs
module Budget = Fmtk_runtime.Budget
module Queries = Fmtk.Queries
module Reductions = Fmtk.Reductions
module Method = Fmtk.Method

let f = Parser.parse_exn
let pf = Format.printf
let rng () = Random.State.make [| 20090629 |]

(* ---------- Bechamel helpers ---------- *)

let run_bechamel tests =
  let open Bechamel in
  let open Toolkit in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Bechamel.Analyze.OLS.estimates est with
      | Some (v :: _) ->
          if v > 1e6 then pf "  %-46s %10.3f ms/run@." name (v /. 1e6)
          else pf "  %-46s %10.1f ns/run@." name v
      | Some [] | None -> pf "  %-46s (no estimate)@." name)
    (List.sort compare rows)

let bench name fn = Bechamel.Test.make ~name (Bechamel.Staged.stage fn)

(* Direct wall-clock measurement: Bechamel's OLS is great for shapes, but
   the speedup table wants plain ratios of ns/run on identical work. *)
let time_ns ?(warmup = true) ~iters fn =
  if warmup then ignore (Sys.opaque_identity (fn ()));
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (fn ()))
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int iters

(* Median, min and max of a sample list. *)
let spread xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  (a.(Array.length a / 2), a.(0), a.(Array.length a - 1))

(* [samples] timings of [fn] in ns/run, each over enough runs to last
   about 30 ms (one run at least). *)
let sample_ns ~samples fn =
  let iters = max 1 (int_of_float (3e7 /. time_ns ~iters:1 fn)) in
  spread (List.init samples (fun _ -> time_ns ~iters fn))

(* ---------- E1: combined complexity O(n^k) ---------- *)

let nested_forall k =
  let xs = List.init k (fun i -> Printf.sprintf "x%d" i) in
  Formula.forall_many xs
    (Formula.conj (List.map (fun x -> Formula.Eq (Formula.v x, Formula.v x)) xs))

let e1 () =
  pf "Deterministic work counter (quantifier scans) = Σ n^i, i ≤ k:@.";
  pf "  %6s %4s %16s@." "n" "k" "work";
  List.iter
    (fun (n, k) ->
      let stats = Eval.new_stats () in
      ignore (Eval.sat ~stats (Gen.set n) (nested_forall k));
      pf "  %6d %4d %16d@." n k stats.Eval.quantifier_steps)
    [ (16, 1); (16, 2); (16, 3); (16, 4); (8, 4); (32, 2); (64, 2) ];
  pf "Shape: polynomial in n for fixed k; exponential in k for fixed n.@.";
  pf "@.Wall-clock (Bechamel):@.";
  let g n = Gen.random_graph ~rng:(rng ()) n 0.5 in
  let phi_k k =
    (* A qr-k sentence that cannot short-circuit: alternating blocks. *)
    match k with
    | 2 -> f "forall x. exists y. E(x,y) | E(y,x)"
    | 3 -> f "forall x. exists y. forall z. x = y | E(x,z) | E(z,y) | z != z"
    | _ -> nested_forall k
  in
  let tests =
    List.concat_map
      (fun n ->
        List.map
          (fun k ->
            let graph = g n and phi = phi_k k in
            bench (Printf.sprintf "eval n=%-3d k=%d" n k) (fun () ->
                Eval.sat graph phi))
          [ 2; 3 ])
      [ 8; 16; 32 ]
  in
  run_bechamel (Bechamel.Test.make_grouped ~name:"E1" tests)

(* ---------- E2: FO in AC0 ---------- *)

let e2 () =
  let phi = f "forall x. exists y. E(x,y) & !E(y,x)" in
  pf "sentence: forall x. exists y. E(x,y) & !E(y,x)@.";
  pf "  %6s %10s %7s %8s %8s@." "n" "size" "depth" "inputs" "agree";
  List.iter
    (fun n ->
      let compiled = Fo_circuit.compile Signature.graph ~size:n phi in
      let agree = ref true in
      let r = rng () in
      for _ = 1 to 20 do
        let s = Gen.random_graph ~rng:r n 0.4 in
        if Fo_circuit.run compiled s <> Eval.sat s phi then agree := false
      done;
      pf "  %6d %10d %7d %8d %8b@." n
        (Fo_circuit.circuit_size compiled)
        (Fo_circuit.circuit_depth compiled)
        (Fo_circuit.input_count compiled)
        !agree)
    [ 2; 4; 8; 16; 32; 48 ];
  pf "Shape: depth constant in n, size polynomial — the AC0 family of slide 23.@."

(* ---------- E3: finite compactness fails ---------- *)

let e3 () =
  pf "λn = 'there are at least n elements' (slide 29):@.";
  pf "  %4s %18s@." "n" "min model size";
  List.iter
    (fun n ->
      (* Smallest m with set-of-size-m ⊨ λn. *)
      let rec find m = if Eval.sat (Gen.set m) (Formula.at_least n) then m else find (m + 1) in
      pf "  %4d %18d@." n (find 0))
    [ 1; 2; 3; 5; 8 ];
  let subset = [ 1; 2; 3; 5; 8 ] in
  let phi = Formula.conj (List.map Formula.at_least subset) in
  pf "finite subset {λ1,λ2,λ3,λ5,λ8} has the finite model of size %d: %b@." 8
    (Eval.sat (Gen.set 8) phi);
  pf
    "but every size-m set falsifies λ(m+1), so {λn | n ∈ ℕ} has no finite \
     model@.";
  pf "⇒ finite compactness fails (checked at every size up to 8 — the@.";
  pf "   refutation of λ(m+1) on an m-set costs ~m! evaluator steps):@.";
  let all_fail =
    List.for_all
      (fun m -> not (Eval.sat (Gen.set m) (Formula.at_least (m + 1))))
      (List.init 9 Fun.id)
  in
  pf "  each set of size m falsifies λ(m+1): %b@." all_fail

(* ---------- E4: EVEN(∅) via games ---------- *)

let e4 () =
  pf "EVEN on bare sets: witnesses |A| = 2n, |B| = 2n+1 (slides 44-45):@.";
  pf "  %4s %6s %6s %12s %14s@." "n" "|A|" "|B|" "method" "certified";
  List.iter
    (fun n ->
      let a = Gen.set (2 * n) and b = Gen.set ((2 * n) + 1) in
      let via, ok =
        if n <= 4 then
          ("solver", Method.game_rank ~rounds:n ~query:Queries.even a b = Ok ())
        else if n <= 5 then
          ( "strategy",
            Method.game_rank_with_strategy ~rounds:n ~query:Queries.even
              ~strategy:(Strategy.sets a b) a b
            = Ok () )
        else
          ( "sampled",
            Queries.even a
            && (not (Queries.even b))
            && Strategy.verify_sampled ~rng:(rng ()) ~lines:20_000 ~rounds:n a
                 b (Strategy.sets a b)
               = None )
      in
      pf "  %4d %6d %6d %12s %14b@." n (2 * n) ((2 * n) + 1) via ok)
    [ 1; 2; 3; 4; 5; 6; 8 ];
  pf "Shape: certified at every rank ⇒ EVEN is not FO-definable.@."

(* ---------- E5: Theorem 3.1 ---------- *)

let e5 () =
  pf "L_m ≡n L_k — exact solver sweep (n ≤ 3), characterization:@.";
  pf "m = k or min(m,k) ≥ 2^n - 1 (Theorem 3.1 states ≥ 2^n suffices)@.";
  let mismatches = ref 0 in
  for n = 0 to 3 do
    let bound = min 9 ((1 lsl n) + 2) in
    for m = 0 to bound do
      for k = 0 to bound do
        let solver =
          Ef.duplicator_wins ~rounds:n (Gen.linear_order m) (Gen.linear_order k)
        in
        let closed = Strategy.linear_orders_equiv ~rounds:n m k in
        if solver <> closed then incr mismatches
      done
    done
  done;
  pf "  solver vs closed form mismatches (n ≤ 3): %d@." !mismatches;
  pf "  boundary rows at n = 3 (threshold 2^3 - 1 = 7):@.";
  List.iter
    (fun (m, k) ->
      pf "    L%-2d ≡3 L%-2d : %b@." m k
        (Ef.duplicator_wins ~rounds:3 (Gen.linear_order m) (Gen.linear_order k)))
    [ (6, 7); (7, 8); (7, 9); (8, 9) ];
  pf "  successor vs order (the paper's \"successor would do\" remark):@.";
  pf "  minimal m with X_m ≡n X_(m+1), by exact solver:@.";
  let minimal_m family n =
    let rec find m =
      if m > 16 then None
      else if Ef.duplicator_wins ~rounds:n (family m) (family (m + 1)) then
        Some m
      else find (m + 1)
    in
    find 0
  in
  List.iter
    (fun n ->
      let s = minimal_m Gen.successor n and l = minimal_m Gen.linear_order n in
      let show = function Some m -> string_of_int m | None -> ">16" in
      pf "    n=%d: successor chains %s, linear orders %s@." n (show s) (show l))
    [ 1; 2; 3 ];
  pf "  strategy-verified large instances:@.";
  List.iter
    (fun (m, k, n, exhaustive) ->
      let a = Gen.linear_order m and b = Gen.linear_order k in
      let s = Strategy.linear_orders m k in
      let ok, how =
        if exhaustive then (Strategy.verify ~rounds:n a b s = None, "exhaustive")
        else
          ( Strategy.verify_sampled ~rng:(rng ()) ~lines:20_000 ~rounds:n a b s
            = None,
            "20k sampled lines" )
      in
      pf "    L%-3d ≡%d L%-3d (distance-doubling strategy, %s): %b@." m n k how
        ok)
    [ (16, 17, 4, true); (31, 32, 5, false); (40, 64, 5, false) ]

(* ---------- E6/E7: the order->graph constructions ---------- *)

let e6 () =
  pf "Order → 2nd-successor graph (the slide-48 figure):@.";
  pf "  %4s %12s %12s %10s@." "n" "components" "connected" "FO=direct";
  List.iter
    (fun n ->
      let ord = Gen.linear_order n in
      let g = Reductions.conn_construction ord in
      pf "  %4d %12d %12b %10b@." n (Graph.component_count g)
        (Graph.connected g)
        (Structure.equal g (Reductions.conn_construction_direct ord)))
    [ 3; 4; 5; 6; 7; 8; 12; 13; 20; 21; 40; 41 ];
  pf "Shape: connected ⇔ odd; exactly 2 components when even.@."

let e7 () =
  pf "Order → 2nd-successor + back edge (acyclicity trick):@.";
  pf "  %4s %10s %10s@." "n" "acyclic" "FO=direct";
  List.iter
    (fun n ->
      let ord = Gen.linear_order n in
      let g = Reductions.acycl_construction ord in
      pf "  %4d %10b %10b@." n (Graph.acyclic g)
        (Structure.equal g (Reductions.acycl_construction_direct ord)))
    [ 3; 4; 5; 6; 9; 10; 15; 16 ];
  pf "Shape: acyclic ⇔ even.@."

(* ---------- E8: CONN via TC ---------- *)

let e8 () =
  pf "Connectivity decided through the TC oracle (slide 50):@.";
  let cases =
    [
      ("cycle 9", Gen.cycle 9);
      ("path 8", Gen.path 8);
      ("2 cycles", Gen.union_of [ Gen.cycle 4; Gen.cycle 5 ]);
      ("tree d=3", Gen.binary_tree 3);
      ("empty 5", Structure.make Signature.graph ~size:5 []);
    ]
  in
  pf "  %-10s %10s %12s %14s@." "graph" "direct" "via mat-TC" "via datalog-TC";
  List.iter
    (fun (name, g) ->
      pf "  %-10s %10b %12b %14b@." name (Graph.connected g)
        (Reductions.connectivity_via_tc ~tc:Graph.transitive_closure g)
        (Reductions.connectivity_via_tc ~tc:Programs.tc_of g))
    cases

(* ---------- E9: BNDP ---------- *)

let e9 () =
  pf "BNDP (Definition 3.3): output degree counts.@.";
  pf "TC on the n-chain (input degrees ⊆ {0,1}):@.";
  pf "  %4s %16s@." "n" "|degs(TC(G))|";
  List.iter
    (fun n ->
      pf "  %4d %16d@." n
        (Bndp.output_degree_count Queries.transitive_closure (Gen.successor n)))
    [ 4; 8; 16; 24; 32 ];
  pf "Same-generation on the depth-d binary tree (degrees ⊆ {0,1,2}):@.";
  pf "  %4s %16s@." "d" "|degs(SG(G))|";
  List.iter
    (fun d ->
      pf "  %4d %16d@." d
        (Bndp.output_degree_count Queries.same_generation (Gen.binary_tree d)))
    [ 1; 2; 3; 4; 5 ];
  pf "FO control ∃z(E(x,z) ∧ E(z,y)):@.";
  pf "  %4s %16s@." "n" "|degs(Q(G))|";
  List.iter
    (fun n ->
      pf "  %4d %16d@." n (Bndp.output_degree_count Queries.path2 (Gen.successor n)))
    [ 4; 8; 16; 32 ];
  pf "Shape: TC ≈ n degrees, SG = d+1 degrees (values 1,2,4,..,2^d), FO constant.@."

(* ---------- E10: Gaifman locality ---------- *)

let e10 () =
  pf "TC on a long chain (the slide-58 argument):@.";
  (match
     Gaifman_local.violation ~arity:2 ~radius:1 Queries.transitive_closure
       (Gen.path 12)
   with
  | Some (a, b) ->
      let show l = String.concat "," (List.map string_of_int l) in
      pf "  violating pair at radius 1: (%s) vs (%s)@." (show a) (show b)
  | None -> pf "  UNEXPECTED: no violation@.");
  List.iter
    (fun r ->
      let v =
        Gaifman_local.violation ~arity:2 ~radius:r Queries.transitive_closure
          (Gen.path (6 * (r + 1)))
      in
      pf "  radius %d on a %d-chain: violation %s@." r
        (6 * (r + 1))
        (match v with Some _ -> "found" | None -> "none"))
    [ 1; 2 ];
  pf "FO controls are Gaifman-local at their qr-derived radius:@.";
  let family = [ Gen.path 10; Gen.cycle 9; Gen.binary_tree 3 ] in
  List.iter
    (fun (name, rank, q) ->
      let radius = Gaifman_local.fo_radius ~rank in
      pf "  %-22s (qr %d, radius %d): local = %b@." name rank radius
        (Gaifman_local.holds_on ~arity:2 ~radius q family))
    [
      ("path2", 1, Queries.path2);
      ("symmetric-pair", 0, Queries.symmetric_pair);
    ]

(* ---------- E11: Hanf locality ---------- *)

let e11 () =
  pf "2 cycles of m vs 1 cycle of 2m (slide-60 figure), radius 2:@.";
  pf "  %4s %8s %14s %14s@." "m" "⇆2" "CONN differs" "violation";
  List.iter
    (fun m ->
      let g1 = Gen.union_of [ Gen.cycle m; Gen.cycle m ] in
      let g2 = Gen.cycle (2 * m) in
      let equiv = Hanf.equiv ~radius:2 g1 g2 in
      let differs = Graph.connected g2 && not (Graph.connected g1) in
      pf "  %4d %8b %14b %14b@." m equiv differs (equiv && differs))
    [ 4; 5; 6; 7; 10; 15 ];
  pf "Shape: ⇆2 holds exactly when m > 2r+1 = 5; CONN always differs.@.";
  pf "Tree example: chain 2m vs chain m ⊎ cycle m (m = 8, radius 1):@.";
  let m = 8 in
  let g1 = Gen.path (2 * m) and g2 = Gen.union_of [ Gen.path m; Gen.cycle m ] in
  pf "  ⇆1: %b, tree-ness differs: %b@." (Hanf.equiv ~radius:1 g1 g2)
    (Graph.is_tree g1 && not (Graph.is_tree g2))

(* ---------- E12: hierarchy Hanf ⊆ Gaifman ⊆ BNDP ---------- *)

let e12 () =
  pf "Query zoo × locality tools (witness families; ✓ = passes):@.";
  let bool_queries =
    [
      ("CONN", Queries.connected);
      ("ACYCL", Queries.acyclic);
      ("TREE", Queries.is_tree);
      ("dominator (FO)", Queries.dominator);
      ("symmetric (FO)", Queries.symmetric);
    ]
  in
  let hanf_pairs =
    [
      (Gen.union_of [ Gen.cycle 7; Gen.cycle 7 ], Gen.cycle 14);
      (Gen.path 16, Gen.union_of [ Gen.path 8; Gen.cycle 8 ]);
    ]
  in
  pf "  Boolean queries, Hanf at radius 2:@.";
  List.iter
    (fun (name, q) ->
      let violated = Hanf.hanf_local_violation ~radius:2 q hanf_pairs <> None in
      pf "    %-16s %s@." name (if violated then "✗ violated" else "✓ passes"))
    bool_queries;
  pf "  Binary queries, Gaifman at radius 1 + BNDP on chains:@.";
  let bin_queries =
    [
      ("TC", Queries.transitive_closure);
      ("same-gen", Queries.same_generation);
      ("path2 (FO)", Queries.path2);
      ("sym-pair (FO)", Queries.symmetric_pair);
    ]
  in
  let chains = List.map Gen.successor [ 4; 8; 16 ] in
  List.iter
    (fun (name, q) ->
      let gaifman =
        Gaifman_local.violation ~arity:2 ~radius:1 q (Gen.path 12) = None
      in
      let bndp = Bndp.bounded q chains in
      pf "    %-16s Gaifman %s   BNDP %s@." name
        (if gaifman then "✓" else "✗")
        (if bndp then "✓" else "✗");
      (* Theorem 3.9: BNDP failure must come with Gaifman failure here. *)
      assert (bndp || not gaifman))
    bin_queries;
  pf "  Hierarchy (Thm 3.9) respected: every Gaifman-passing query passes BNDP.@."

(* ---------- E13: linear-time bounded-degree evaluation ---------- *)

let e13 () =
  let phi = f "forall x. exists y. E(x,y)" in
  pf "sentence: forall x. exists y. E(x,y); family: directed cycles@.";
  let ev = Bounded_degree.make phi ~degree_bound:2 in
  (* Warm the cache. *)
  ignore (Bounded_degree.eval ev (Gen.cycle 32));
  pf "  radius %d, threshold %d@." (Bounded_degree.radius ev)
    (Bounded_degree.threshold ev);
  let agree = ref true in
  List.iter
    (fun n ->
      if Bounded_degree.eval ev (Gen.cycle n) <> Eval.sat (Gen.cycle n) phi then
        agree := false)
    [ 40; 80; 160 ];
  pf "  agreement with naive on the family: %b@." !agree;
  let hits, misses = Bounded_degree.cache_stats ev in
  pf "  cache: %d hits / %d misses@." hits misses;
  pf "@.Wall-clock, cached (census) vs naive O(n^2) (Bechamel):@.";
  let cached_tests =
    List.map
      (fun n ->
        let g = Gen.cycle n in
        bench (Printf.sprintf "hanf-cached n=%-5d" n) (fun () ->
            Bounded_degree.eval ev g))
      [ 256; 1024; 4096 ]
  in
  let naive_tests =
    List.map
      (fun n ->
        let g = Gen.cycle n in
        bench (Printf.sprintf "naive       n=%-5d" n) (fun () ->
            Eval.sat g phi))
      [ 256; 1024; 2048 ]
  in
  run_bechamel
    (Bechamel.Test.make_grouped ~name:"E13" (cached_tests @ naive_tests));
  pf
    "Shape: cached grows linearly (≈4x per 4x n); naive grows \
     quadratically (≈16x per 4x n); the crossover falls between n = 1024 \
     and n = 4096.@."

(* ---------- E14: Gaifman normal form / basic local sentences ---------- *)

let e14 () =
  pf "Basic local sentences vs plain FO on random graphs:@.";
  (* 'There are >= 2 loops at distance > 2' as a basic local sentence;
     FO equivalent uses an explicit non-adjacency expansion valid at
     radius 1: d(x,y) > 2 iff no common neighbour and not adjacent. *)
  let basic =
    { Local_sentence.count = 2; radius = 1; formula = f "E(x,x)" }
  in
  let fo =
    f
      "exists x y. E(x,x) & E(y,y) & x != y & !E(x,y) & !E(y,x) & !(exists \
       z. (E(x,z) | E(z,x)) & (E(y,z) | E(z,y)))"
  in
  let r = rng () in
  let agreements = ref 0 and total = 200 in
  for _ = 1 to total do
    let g = Gen.random_graph ~rng:r 8 0.15 in
    if Local_sentence.eval_basic g basic = Eval.sat g fo then incr agreements
  done;
  pf "  agreement on %d/%d random graphs@." !agreements total;
  pf "Scattered-sequence evaluation on chains:@.";
  let b = { Local_sentence.count = 3; radius = 1; formula = f "exists y. E(x,y)" } in
  List.iter
    (fun n ->
      pf "  chain %2d: 3 scattered vertices with successors: %b@." n
        (Local_sentence.eval_basic (Gen.path n) b))
    [ 5; 7; 9; 11; 13 ]

(* ---------- E15: 0-1 law, Monte-Carlo ---------- *)

let e15 () =
  let q1 = f "forall x y. E(x,y)" in
  let q2 = f "forall x y. x = y | (exists z. E(z,x) & !E(z,y))" in
  pf "μn series (400 trials each):@.";
  pf "  %4s %9s %9s %9s@." "n" "Q1" "Q2" "EVEN";
  List.iter
    (fun n ->
      let m1 = Estimator.mu_formula ~rng:(rng ()) ~trials:400 Signature.graph n q1 in
      let m2 = Estimator.mu_formula ~rng:(rng ()) ~trials:400 Signature.graph n q2 in
      let me =
        Estimator.mu ~rng:(rng ()) ~trials:10 Signature.graph n Queries.even
      in
      pf "  %4d %9.3f %9.3f %9.0f@." n m1 m2 me)
    [ 2; 3; 4; 5; 8; 16; 32; 40 ];
  pf "Shape: μ(Q1) → 0, μ(Q2) → 1, μ(EVEN) alternates (no limit).@."

(* ---------- E16: almost-sure theory, decided ---------- *)

let e16 () =
  let battery =
    [
      "exists x y. E(x,y)";
      "forall x. exists y. E(x,y)";
      "exists x. forall y. !E(x,y)";
      "forall x y. exists z. E(z,x) & E(z,y)";
      "exists x y z. E(x,y) & E(y,z) & E(x,z)";
      "forall x y. x = y | E(x,y)";
    ]
  in
  pf "  %-45s %5s %5s %9s@." "sentence" "μ(w1)" "μ(w2)" "MC(n=32)";
  List.iter
    (fun s ->
      let phi = f s in
      let m1 =
        Almost_sure.mu ~source:(Almost_sure.Search (rng (), 130)) phi
      in
      let m2 =
        Almost_sure.mu
          ~source:(Almost_sure.Search (Random.State.make [| 7 |], 140))
          phi
      in
      let mc =
        Estimator.mu_with ~rng:(rng ()) ~trials:150
          ~sample:(fun r -> Gen.random_undirected_graph ~rng:r 32 0.5)
          (fun g -> Eval.sat g phi)
      in
      pf "  %-45s %5.0f %5.0f %9.2f@." s m1 m2 mc)
    battery;
  pf "Shape: two independent verified witnesses agree; Monte-Carlo trends match.@."

(* ---------- E17: QBF / PSPACE ---------- *)

let e17 () =
  pf "QBF solved directly and via the FO model-checking reduction:@.";
  pf "  %6s %12s %8s %8s@." "n" "quantifiers" "QBF" "via FO";
  List.iter
    (fun n ->
      let q = Qbf.pigeonhole_valid n in
      pf "  %6d %12d %8b %8b@." n (Qbf.quantifier_count q) (Qbf.solve q)
        (Reduction.decide_via_fo q))
    [ 1; 2; 3 ];
  pf "@.Wall-clock scaling (exponential in quantifier count):@.";
  let tests =
    List.map
      (fun n ->
        let q = Qbf.pigeonhole_valid n in
        bench (Printf.sprintf "qbf php n=%d (%2d quantifiers)" n
                 (Qbf.quantifier_count q))
          (fun () -> Qbf.solve q))
      [ 1; 2; 3 ]
  in
  run_bechamel (Bechamel.Test.make_grouped ~name:"E17" tests)

(* ---------- E18: Datalog naive vs semi-naive ---------- *)

(* Samples per E18/E20 wall-clock row, printed as median [min, max]. *)
let recursive_samples = 5

let pf_sampled name (m, lo, hi) =
  pf "  %-34s %12.1f [%12.1f, %12.1f]@." name (m /. 1e3) (lo /. 1e3)
    (hi /. 1e3)

let e18 () =
  pf "TC on the n-chain: fixpoint work (rule-body matches):@.";
  pf "  %6s %12s %12s %8s %12s@." "n" "naive" "semi-naive" "ratio" "iterations";
  List.iter
    (fun n ->
      let db = Engine.Db.of_structure (Gen.successor n) in
      let _, s1 = Engine.naive Programs.transitive_closure db in
      let _, s2 = Engine.seminaive Programs.transitive_closure db in
      pf "  %6d %12d %12d %8.1f %12d@." n s1.Engine.join_work
        s2.Engine.join_work
        (float_of_int s1.Engine.join_work /. float_of_int s2.Engine.join_work)
        s2.Engine.iterations)
    [ 8; 16; 32; 48 ];
  pf "Shape: the naive/semi-naive ratio grows with n.@.";
  pf "@.Wall-clock, µs per run, median [min, max] of %d samples:@."
    recursive_samples;
  let row name program s =
    let db = Engine.Db.of_structure s in
    pf_sampled name (sample_ns ~samples:recursive_samples (fun () -> program db))
  in
  List.iter
    (fun n ->
      let chain = Gen.successor n in
      row (Printf.sprintf "naive TC chain n=%d" n)
        (Engine.naive Programs.transitive_closure) chain;
      row (Printf.sprintf "semi-naive TC chain n=%d" n)
        (Engine.seminaive Programs.transitive_closure) chain)
    [ 8; 16; 32; 64 ];
  List.iter
    (fun d ->
      row (Printf.sprintf "semi-naive SG tree depth %d" d)
        (Engine.seminaive Programs.same_generation) (Gen.binary_tree d))
    [ 4; 5; 6 ]

(* ---------- E19: beyond FO — MSO and existential SO ---------- *)

let e19 () =
  let module So_eval = Fmtk_so.So_eval in
  let module So_queries = Fmtk_so.So_queries in
  pf "EVEN over linear orders, MSO-definable (FO cannot, Theorem 3.1):@.";
  pf "  %4s %8s@." "n" "MSO-even";
  List.iter
    (fun n ->
      pf "  %4d %8b@." n
        (So_eval.sat (Gen.linear_order n) So_queries.even_on_orders))
    [ 4; 5; 6; 7; 8; 9 ];
  pf "Connectivity, MSO-definable (FO cannot, Corollary 3.2):@.";
  let cases =
    [
      ("cycle 6", Gen.cycle 6);
      ("2 cycles", Gen.union_of [ Gen.cycle 3; Gen.cycle 3 ]);
      ("path 6", Gen.path 6);
    ]
  in
  List.iter
    (fun (name, g) ->
      pf "  %-10s MSO: %b  BFS: %b@." name
        (So_eval.sat g So_queries.connectivity)
        (Graph.connected g))
    cases;
  pf "Fagin's theorem flavour — NP queries in existential SO:@.";
  pf "  3-colorability (∃MSO):@.";
  List.iter
    (fun (name, g) ->
      pf "    %-14s ∃MSO: %-5b brute force: %b@." name
        (So_eval.sat g So_queries.three_colorable)
        (So_queries.three_colorable_direct g))
    [
      ("K3", Graph.symmetric_closure (Gen.complete 3));
      ("K4", Graph.symmetric_closure (Gen.complete 4));
      ("C5", Graph.symmetric_closure (Gen.cycle 5));
      ("grid 2x3", Graph.symmetric_closure (Gen.grid 2 3));
    ];
  pf "  Hamiltonian path (∃SO, binary relation quantifier):@.";
  List.iter
    (fun (name, g) ->
      pf "    %-14s ∃SO: %-5b backtracking: %b@." name
        (So_eval.sat g So_queries.hamiltonian_path)
        (So_queries.hamiltonian_path_direct g))
    [
      ("path 4", Gen.path 4);
      ("cycle 4", Gen.cycle 4);
      ("out-star 4", Structure.make Signature.graph ~size:4
                       [ ("E", [ [| 0; 1 |]; [| 0; 2 |]; [| 0; 3 |] ]) ]);
    ];
  pf "@.Wall-clock: the second-order quantifier exponent (Bechamel):@.";
  let tests =
    List.map
      (fun n ->
        let g = Graph.symmetric_closure (Gen.cycle n) in
        bench (Printf.sprintf "3COL via ∃MSO n=%-2d" n) (fun () ->
            So_eval.sat g So_queries.three_colorable))
      [ 4; 6; 8 ]
  in
  run_bechamel (Bechamel.Test.make_grouped ~name:"E19" tests)

(* ---------- E20: fixpoint logic FO(IFP) ---------- *)

let e20 () =
  let module Fp = Fmtk_fixpoint.Fp_formula in
  let module Fp_eval = Fmtk_fixpoint.Fp_eval in
  pf "TC as an IFP formula — stages grow with the data (FO cannot iterate):@.";
  pf "  %6s %8s %14s %18s@." "n" "stages" "tuples derived" "matches matrix TC";
  List.iter
    (fun n ->
      let g = Gen.successor n in
      let stats = Fp_eval.new_stats () in
      let ans = Fp_eval.answers ~stats g Fp.transitive_closure ~vars:[ "u"; "v" ] in
      pf "  %6d %8d %14d %18b@." n stats.Fp_eval.stages
        stats.Fp_eval.tuples_derived
        (Fmtk_structure.Tuple.Set.equal ans (Graph.transitive_closure g)))
    [ 4; 8; 12; 16 ];
  pf "Connectivity and EVEN-with-order in FO(IFP):@.";
  List.iter
    (fun (name, g) ->
      pf "  %-12s IFP-CONN: %-5b BFS: %b@." name
        (Fp_eval.sat g Fp.connectivity) (Graph.connected g))
    [
      ("cycle 8", Gen.cycle 8);
      ("2 cycles", Gen.union_of [ Gen.cycle 4; Gen.cycle 4 ]);
    ];
  List.iter
    (fun n ->
      pf "  L%-3d IFP-EVEN: %b (expected %b)@." n
        (Fp_eval.sat (Gen.linear_order n) Fp.even_on_orders)
        (n mod 2 = 0))
    [ 6; 7; 8; 9 ];
  pf
    "Immerman–Vardi in action: with an order, the fixpoint logic expresses \
     EVEN,@.";
  pf "which Theorem 3.1 proved impossible for FO.@.";
  pf "@.Wall-clock on TC chains, µs per run, median [min, max] of %d samples:@."
    recursive_samples;
  List.iter
    (fun n ->
      let g = Gen.successor n in
      let db = Engine.Db.of_structure g in
      pf_sampled
        (Printf.sprintf "IFP answers n=%d" n)
        (sample_ns ~samples:recursive_samples (fun () ->
             Fp_eval.answers g Fp.transitive_closure ~vars:[ "u"; "v" ]));
      pf_sampled
        (Printf.sprintf "Datalog semi-naive n=%d" n)
        (sample_ns ~samples:recursive_samples (fun () ->
             Engine.seminaive Programs.transitive_closure db)))
    [ 8; 16; 32; 64 ]

(* ---------- E21: trees — automata vs MSO (Thatcher–Wright) ---------- *)

let e21 () =
  let module Tree = Fmtk_trees.Tree in
  let module Automaton = Fmtk_trees.Automaton in
  let module Mso_trees = Fmtk_trees.Mso_trees in
  let r = rng () in
  pf "Boolean-expression trees: automaton run vs MSO sentence vs direct:@.";
  pf "  %6s %6s %10s %6s %8s %8s@." "depth" "size" "automaton" "MSO" "direct" "agree";
  List.iter
    (fun d ->
      let t = Tree.random ~rng:r ~internal:[ "and"; "or" ] ~leaves:[ "0"; "1" ] d in
      let a = Mso_trees.eval_via_automaton t in
      let m = Mso_trees.eval_via_mso t in
      let dr = Mso_trees.eval_direct t in
      pf "  %6d %6d %10b %6b %8b %8b@." d (Tree.size t) a m dr
        (a = m && m = dr))
    [ 0; 1; 2; 3; 3; 3 ];
  pf "Boolean closure + emptiness (decidability of MSO on trees):@.";
  let internal = [ "and"; "or" ] and leaves = [ "0"; "1" ] in
  let contradiction =
    Automaton.intersect ~alphabet:Mso_trees.bool_alphabet Automaton.boolean_eval
      (Automaton.complement Automaton.boolean_eval)
  in
  pf "  L(eval-true) nonempty: %b@."
    (Automaton.nonempty ~internal ~leaves Automaton.boolean_eval);
  pf "  L(eval-true ∧ ¬eval-true) nonempty: %b@."
    (Automaton.nonempty ~internal ~leaves contradiction);
  pf "  L(eval-true) over only-0 leaves nonempty: %b@."
    (Automaton.nonempty ~internal ~leaves:[ "0" ] Automaton.boolean_eval);
  pf "@.Wall-clock: linear automaton vs exponential MSO evaluation (Bechamel):@.";
  let tests =
    List.concat_map
      (fun d ->
        let t =
          Tree.random ~rng:r ~internal:[ "and"; "or" ] ~leaves:[ "0"; "1" ] d
        in
        [
          bench (Printf.sprintf "automaton depth=%d (n=%-2d)" d (Tree.size t))
            (fun () -> Mso_trees.eval_via_automaton t);
          bench (Printf.sprintf "MSO       depth=%d (n=%-2d)" d (Tree.size t))
            (fun () -> Mso_trees.eval_via_mso t);
        ])
      [ 2; 3 ]
  in
  run_bechamel (Bechamel.Test.make_grouped ~name:"E21" tests)

(* ---------- E22: counting quantifiers and aggregates ---------- *)

let e22 () =
  let module Counting = Fmtk_counting.Counting in
  let module Relation = Fmtk_db.Relation in
  let module Aggregate = Fmtk_db.Aggregate in
  pf "FO(Cnt) vs its FO expansion — succinctness of counting:@.";
  pf "  %4s %14s %14s %14s %14s@." "k" "cnt rank" "cnt size" "FO rank" "FO size";
  List.iter
    (fun k ->
      let phi = Counting.degree_at_least_sentence k in
      let fo = Counting.expand phi in
      pf "  %4d %14d %14d %14d %14d@." k (Counting.rank phi)
        (Counting.size phi)
        (Formula.quantifier_rank fo) (Formula.size fo))
    [ 1; 2; 4; 8; 16 ];
  pf "Shape: counting stays constant; the expansion grows with k (rank k+1, size Θ(k²)).@.";
  pf "@.Semantic agreement (counting eval vs expanded FO eval vs aggregation):@.";
  let r = rng () in
  let agree = ref true in
  for _ = 1 to 50 do
    let g = Gen.random_graph ~rng:r 8 0.3 in
    let k = 1 + Random.State.int r 3 in
    let phi = Counting.degree_at_least_sentence k in
    let via_cnt = Counting.sat g phi in
    let via_fo = Eval.sat g (Counting.expand phi) in
    let via_agg =
      let edges = Relation.of_set [ "src"; "dst" ] (Structure.rel g "E") in
      let deg = Aggregate.group_by edges ~keys:[ "src" ] ~op:Aggregate.Count ~into:"d" in
      Relation.cardinality (Aggregate.having deg ~attr:"d" ~pred:(fun d -> d >= k)) > 0
    in
    if not (via_cnt = via_fo && via_fo = via_agg) then agree := false
  done;
  pf "  three-way agreement on 50 random instances: %b@." !agree;
  pf "@.Wall-clock: counting scan vs expanded FO evaluation (Bechamel):@.";
  let g = Gen.random_graph ~rng:r 24 0.5 in
  let tests =
    List.concat_map
      (fun k ->
        let phi = Counting.degree_at_least_sentence k in
        let fo = Counting.expand phi in
        [
          bench (Printf.sprintf "counting  k=%d" k) (fun () -> Counting.sat g phi);
          bench (Printf.sprintf "expansion k=%d" k) (fun () -> Eval.sat g fo);
        ])
      [ 2; 4 ]
  in
  run_bechamel (Bechamel.Test.make_grouped ~name:"E22" tests)

(* ---------- E23: compiled evaluation engine and parallel EF ---------- *)

module Compiled = Fmtk_eval.Compiled

(* Where to write the machine-readable results (set by --json; used by
   bench/run_bench.sh to emit BENCH_eval.json for perf tracking). *)
let json_path : string option ref = ref None

(* --workers N: cap for the forced fan-out and the E24/E26 worker-
   scaling curves. The curves sweep the powers of two up to the cap
   (and the cap itself), so `--workers 4` measures 1/2/4 domains. *)
let workers_flag : int option ref = ref None

(* --max-n N: size ceiling for the E28 locality sweep (CI smoke runs
   stop at 10^5; the full sweep reaches 10^6). *)
let max_n_flag : int ref = ref 1_000_000

(* The storage the structure layer auto-selects at benchmark sizes:
   probe with a binary relation at the CSR threshold. *)
let effective_backend () =
  Structure.backend_summary (Gen.cycle Structure.csr_auto_threshold)

(* Shared header for every BENCH_*.json trail: experiment id, the unit
   timings are reported in, the machine's available domains, and the
   structure backend in effect — so trails from different machines and
   PRs are comparable at a glance. *)
let json_open oc ~experiment ~unit_ =
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": %S,\n\
    \  \"unit\": %S,\n\
    \  \"domains\": %d,\n\
    \  \"backend\": %S,\n"
    experiment unit_
    (Domain.recommended_domain_count ())
    (effective_backend ())

let scaling_grid () =
  match !workers_flag with
  | None -> [ 1; 2; 4; 8 ]
  | Some k ->
      let base = List.filter (fun w -> w <= k) [ 1; 2; 4; 8 ] in
      if List.mem k base then base else base @ [ k ]

(* A G(n, m) random digraph: [m] distinct loop-free edges. *)
let gnm ~rng n m =
  let edges = Hashtbl.create m in
  while Hashtbl.length edges < m do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v then Hashtbl.replace edges (u, v) ()
  done;
  Structure.make Signature.graph ~size:n
    [ ("E", Hashtbl.fold (fun (u, v) () acc -> [| u; v |] :: acc) edges []) ]

(* E23's eval workloads, (name, structure, formula): the E1 workloads at
   the acceptance point n = 40, k = 3, the E13 naive O(n^2) baseline of
   Theorem 3.11, and three guarded shapes on a G(100, 495) digraph — the
   triangle sentence and two answer sets (the open wedge and the 3-path),
   where every inner variable walks an adjacency row. A formula with free
   variables is timed as its answer set. E25 re-times them under a
   budget. *)
let e23_eval_workloads () =
  let g100 = gnm ~rng:(rng ()) 100 495 in
  [
    ("E1 nested-quantifier n=40 k=3", Gen.set 40, nested_forall 3);
    ( "E1 alternating n=40 k=3",
      Gen.random_graph ~rng:(rng ()) 40 0.5,
      f "forall x. exists y. forall z. x = y | E(x,z) | E(z,y) | z != z" );
    ( "E1 alternating n=32 k=2",
      Gen.random_graph ~rng:(rng ()) 32 0.5,
      f "forall x. exists y. E(x,y) | E(y,x)" );
    ( "E13 successor-sentence cycle n=1024",
      Gen.cycle 1024,
      f "forall x. exists y. E(x,y)" );
    ( "E13 successor-sentence cycle n=256",
      Gen.cycle 256,
      f "forall x. exists y. E(x,y)" );
    ( "guarded triangle sentence G(100,495)",
      g100,
      f "exists x y z. E(x,y) & E(y,z) & E(z,x)" );
    ( "guarded open-wedge answers G(100,495)",
      g100,
      f "E(x,y) & E(y,z) & !E(x,z)" );
    ( "guarded 3-path answers G(100,495)",
      g100,
      f "E(x,y) & E(z,w) & E(y,z)" );
  ]

(* One evaluation of a compiled E23 workload: the truth value of a
   sentence, the answer set of a query. *)
let run_compiled ?budget ct =
  if Compiled.free_vars ct = [] then ignore (Compiled.run ?budget ct [||])
  else ignore (Compiled.definable_relation_of ?budget ct)

(* E23 eval samples per workload. The naive interpreter is not timed
   where it would take minutes: it enumerates all n^k candidate tuples
   of a k-variable query, 10^8 for the 3-path. *)
let e23_samples = 5
let e23_naive_limit = 1e6

let e23 () =
  let eval_rows = ref [] and ef_rows = ref [] in
  pf "Naive interpreter vs compiled engine (same structure, same formula;@.";
  pf "median [min, max] ns of %d samples):@." e23_samples;
  pf "  %-40s %32s %32s %9s@." "workload" "naive ns [min, max]"
    "compiled ns [min, max]" "speedup";
  List.iter
    (fun (name, g, phi) ->
      let vars = Formula.free_vars phi in
      let naive_run () = ignore (Eval.definable_relation g phi ~vars) in
      let naive =
        if float_of_int (Structure.size g) ** float_of_int (List.length vars)
           > e23_naive_limit
        then None
        else Some (sample_ns ~samples:e23_samples naive_run)
      in
      let ct = Compiled.compile g phi in
      let ((cm, clo, chi) as compiled) =
        sample_ns ~samples:e23_samples (fun () -> run_compiled ct)
      in
      (match naive with
      | Some (nm, nlo, nhi) ->
          pf "  %-40s %9.0f [%9.0f, %9.0f] %9.0f [%9.0f, %9.0f] %8.1fx@." name
            nm nlo nhi cm clo chi (nm /. cm)
      | None ->
          pf "  %-40s %32s %9.0f [%9.0f, %9.0f] %9s@." name "(not run)" cm clo
            chi "-");
      eval_rows := (name, naive, compiled) :: !eval_rows)
    (e23_eval_workloads ());
  pf "@.EF solver: sequential vs parallel root fan-out (%d domains available):@."
    (Domain.recommended_domain_count ());
  pf "  %-36s %12s %12s %9s@." "game" "seq ns" "par ns" "speedup";
  let ef_workload ?warmup ~iters name a b rounds =
    let seq =
      time_ns ?warmup ~iters (fun () ->
          Ef.duplicator_wins
            ~config:{ Ef.default_config with Ef.parallel = false }
            ~rounds a b)
    in
    let par =
      time_ns ?warmup ~iters (fun () -> Ef.duplicator_wins ~rounds a b)
    in
    pf "  %-36s %12.0f %12.0f %8.1fx@." name seq par (seq /. par);
    ef_rows := (name, seq, par) :: !ef_rows
  in
  ef_workload ~iters:3 "orders L12 vs L13, 3 rounds" (Gen.linear_order 12)
    (Gen.linear_order 13) 3;
  (* One cold run each (~10 s sequential): E23 must fit the CI smoke
     deadline, and this search builds its memo tables per run anyway. *)
  ef_workload ~warmup:false ~iters:1 "orders L15 vs L16, 4 rounds"
    (Gen.linear_order 15) (Gen.linear_order 16) 4;
  ef_workload ~iters:3 "cycles C12 vs C13, 3 rounds" (Gen.cycle 12)
    (Gen.cycle 13) 3;
  ef_workload ~iters:3 "cycles C16 vs C16, 3 rounds" (Gen.cycle 16)
    (Gen.cycle 16) 3;
  pf "Shape: compiled >= 5x on the E1 workloads; EF parallel speedup grows@.";
  pf "with the subtree work per top-level move.@.";
  (* Machine-readable trail for future PRs. *)
  match !json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let out = Printf.fprintf in
      json_open oc ~experiment:"E23" ~unit_:"ns/run";
      out oc "  \"samples\": %d,\n  \"workloads\": [\n" e23_samples;
      let ns_json (m, lo, hi) =
        Printf.sprintf "{\"median\": %.1f, \"min\": %.1f, \"max\": %.1f}" m lo
          hi
      in
      let eval_json =
        List.rev_map
          (fun (name, naive, ((cm, _, _) as compiled)) ->
            Printf.sprintf
              "{\"name\": %S, \"kind\": \"eval\", \"naive_ns\": %s, \
               \"compiled_ns\": %s, \"speedup\": %s}"
              name
              (match naive with Some n -> ns_json n | None -> "null")
              (ns_json compiled)
              (match naive with
              | Some (nm, _, _) -> Printf.sprintf "%.2f" (nm /. cm)
              | None -> "null"))
          !eval_rows
      and ef_json =
        List.rev_map
          (fun (name, seq, par) ->
            Printf.sprintf
              "{\"name\": %S, \"kind\": \"ef\", \"sequential_ns\": %.1f, \
               \"parallel_ns\": %.1f, \"speedup\": %.2f}"
              name seq par (seq /. par))
          !ef_rows
      in
      out oc "    %s\n" (String.concat ",\n    " (eval_json @ ef_json));
      out oc "  ]\n}\n";
      close_out oc;
      pf "Wrote %s@." path

(* ---------- E24: symmetry-pruned EF search ---------- *)

type e24_entry = {
  game : string;
  unpruned_seq_ns : float;
  orbit_seq_ns : float;
  unpruned_par_ns : float;
  orbit_par_ns : float;
  unpruned_positions : int;
  orbit_positions : int;
}

let e24 () =
  (* Forced fan-out: on single-domain containers the parallel columns
     measure the scheduling overhead honestly rather than hiding it. *)
  let forced =
    match !workers_flag with
    | Some k -> k
    | None -> max 4 (Domain.recommended_domain_count ())
  in
  let entries = ref [] in
  pf "EF solver: orbit pruning x parallel fan-out (forced workers: %d,@."
    forced;
  pf "recommended domains: %d). Positions = memo misses, sequential runs.@."
    (Domain.recommended_domain_count ());
  pf "  %-28s %11s %11s %11s %11s %7s %9s %9s@." "game" "plain ns" "orbit ns"
    "plain-par" "orbit-par" "orbitx" "plain pos" "orbit pos";
  let workload ~iters name a b rounds =
    let last = ref { Ef.positions = 0; memo_hits = 0; workers = 1 } in
    let run ~orbit ~parallel () =
      let v, s =
        Ef.solve
          ~config:
            {
              Ef.memo = true;
              parallel;
              workers = (if parallel then Some forced else None);
              orbit;
            }
          ~rounds a b
      in
      last := s;
      v
    in
    let unpruned_seq_ns = time_ns ~iters (run ~orbit:false ~parallel:false) in
    let unpruned_positions = !last.Ef.positions in
    let orbit_seq_ns = time_ns ~iters (run ~orbit:true ~parallel:false) in
    let orbit_positions = !last.Ef.positions in
    let unpruned_par_ns = time_ns ~iters (run ~orbit:false ~parallel:true) in
    let orbit_par_ns = time_ns ~iters (run ~orbit:true ~parallel:true) in
    pf "  %-28s %11.0f %11.0f %11.0f %11.0f %6.1fx %9d %9d@." name
      unpruned_seq_ns orbit_seq_ns unpruned_par_ns orbit_par_ns
      (unpruned_seq_ns /. orbit_seq_ns)
      unpruned_positions orbit_positions;
    entries :=
      {
        game = name;
        unpruned_seq_ns;
        orbit_seq_ns;
        unpruned_par_ns;
        orbit_par_ns;
        unpruned_positions;
        orbit_positions;
      }
      :: !entries
  in
  workload ~iters:3 "cycles C12 vs C13, 3 rounds" (Gen.cycle 12) (Gen.cycle 13)
    3;
  workload ~iters:1 "cycles C16 vs C16, 3 rounds" (Gen.cycle 16) (Gen.cycle 16)
    3;
  workload ~iters:1 "cycles C20 vs C21, 3 rounds" (Gen.cycle 20) (Gen.cycle 21)
    3;
  workload ~iters:3 "sets S10 vs S11, 4 rounds" (Gen.set 10) (Gen.set 11) 4;
  workload ~iters:1 "orders L15 vs L16, 4 rounds" (Gen.linear_order 15)
    (Gen.linear_order 16) 4;
  pf "Shape: orbit >= 5x on cycle workloads (C_n roots collapse 2n -> 2);@.";
  pf "rigid orders take the rigidity fast path (overhead < 5%%).@.";
  (* Worker-scaling curve: the same solve forced through 1/2/4/8
     domains (work-stealing deques, pooled workers, L1 memo tiers),
     plus the automatic policy. Speedups are against the forced
     workers=1 run — the sequential fast path — and the effective
     worker count is reported next to the requested one, so a
     single-core container shows up as requested=8/effective=8 with
     speedup < 1 (honest overhead) and auto=1 with speedup 1.0, never
     as a fabricated scaling curve. *)
  let scale_rows = ref [] in
  let grid = scaling_grid () in
  pf "Worker scaling (orbit on; speedup vs forced workers=1):@.";
  let scale_workload ~iters name a b rounds =
    let run workers () =
      Ef.solve
        ~config:{ Ef.memo = true; parallel = true; workers; orbit = true }
        ~rounds a b
    in
    let seq_v, _ = run (Some 1) () in
    let seq_ns = time_ns ~iters (fun () -> fst (run (Some 1) ())) in
    let verdicts_match = ref true in
    let per_worker =
      List.map
        (fun w ->
          let v, (s : Ef.stats) = run (Some w) () in
          if v <> seq_v then verdicts_match := false;
          let ns = time_ns ~iters (fun () -> fst (run (Some w) ())) in
          pf "  %-28s workers=%d (effective %d): %11.0f ns, speedup %.2f@."
            name w s.Ef.workers ns (seq_ns /. ns);
          (w, s.Ef.workers, ns))
        grid
    in
    let auto_v, (auto_s : Ef.stats) = run None () in
    if auto_v <> seq_v then verdicts_match := false;
    let auto_ns = time_ns ~iters (fun () -> fst (run None ())) in
    pf "  %-28s auto (effective %d): %17.0f ns, speedup %.2f@." name
      auto_s.Ef.workers auto_ns (seq_ns /. auto_ns);
    scale_rows :=
      (name, seq_ns, per_worker, auto_s.Ef.workers, auto_ns, !verdicts_match)
      :: !scale_rows
  in
  scale_workload ~iters:3 "cycles C12 vs C13, 3 rounds" (Gen.cycle 12)
    (Gen.cycle 13) 3;
  scale_workload ~iters:3 "sets S10 vs S11, 4 rounds" (Gen.set 10)
    (Gen.set 11) 4;
  pf "Shape: auto never fans out past the hardware (speedup 1.0 on one@.";
  pf "core); forced curves expose per-domain overhead on small cores.@.";
  match !json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let out = Printf.fprintf in
      json_open oc ~experiment:"E24" ~unit_:"ns/run";
      out oc "  \"forced_workers\": %d,\n  \"workloads\": [\n" forced;
      let rows = List.rev !entries in
      List.iteri
        (fun i e ->
          out oc
            "    {\"name\": %S,\n\
            \     \"unpruned_seq_ns\": %.1f, \"orbit_seq_ns\": %.1f,\n\
            \     \"unpruned_par_ns\": %.1f, \"orbit_par_ns\": %.1f,\n\
            \     \"orbit_speedup\": %.2f, \"parallel_speedup\": %.2f, \
             \"combined_speedup\": %.2f,\n\
            \     \"unpruned_positions\": %d, \"orbit_positions\": %d}%s\n"
            e.game e.unpruned_seq_ns e.orbit_seq_ns e.unpruned_par_ns
            e.orbit_par_ns
            (e.unpruned_seq_ns /. e.orbit_seq_ns)
            (e.orbit_seq_ns /. e.orbit_par_ns)
            (e.unpruned_seq_ns /. e.orbit_par_ns)
            e.unpruned_positions e.orbit_positions
            (if i = List.length rows - 1 then "" else ",")
        )
        rows;
      out oc "  ],\n  \"worker_scaling\": [\n";
      let rows = List.rev !scale_rows in
      List.iteri
        (fun i (name, seq_ns, per_worker, auto_workers, auto_ns, ok) ->
          out oc "    {\"name\": %S, \"seq_ns\": %.1f, \"verdicts_match\": %b,\n"
            name seq_ns ok;
          out oc "     \"curve\": [";
          List.iteri
            (fun j (req, eff, ns) ->
              out oc
                "%s{\"requested\": %d, \"effective\": %d, \"ns\": %.1f, \
                 \"parallel_speedup\": %.2f}"
                (if j = 0 then "" else ", ")
                req eff ns (seq_ns /. ns))
            per_worker;
          out oc "],\n";
          out oc
            "     \"auto\": {\"effective\": %d, \"ns\": %.1f, \
             \"parallel_speedup\": %.2f}}%s\n"
            auto_workers auto_ns (seq_ns /. auto_ns)
            (if i = List.length rows - 1 then "" else ","))
        rows;
      out oc "  ]\n}\n";
      close_out oc;
      pf "Wrote %s@." path

(* ---------- E25: budget poll overhead ---------- *)

let e25 () =
  (* The governance bargain: threading a live budget through the EF hot
     loop must stay within ~2% of the unbudgeted search. Workload is
     E24's rigid-order case (L15 vs L16, 4 rounds): orbit pruning is a
     no-op there, so the timing is pure search-loop cost.

     Wall-clock run-to-run noise on a multi-second search is ±5-8% —
     larger than the effect being measured — so this experiment reports
     two complementary numbers: (a) interleaved min-of-k wall clock for
     the A/B comparison, and (b) a deterministic per-check
     microbenchmark times the check count of the workload, which bounds
     the overhead independent of scheduler noise. *)
  let a = Gen.linear_order 15 and b = Gen.linear_order 16 in
  let config =
    { Ef.memo = true; parallel = false; workers = None; orbit = true }
  in
  (* (b) tight-loop cost of one Budget.check, unlimited vs live. A live
     budget that never trips: huge fuel pool plus a distant deadline, so
     every poll does its full slow-path work. *)
  let live interval =
    Budget.create ~fuel:(1 lsl 50) ~deadline_in:3600.0 ~poll_interval:interval
      ()
  in
  let per_check_ns p =
    let n = 20_000_000 in
    time_ns ~iters:1 (fun () ->
        for _ = 1 to n do
          Budget.check p
        done)
    /. float_of_int n
  in
  let unlimited_check_ns = per_check_ns (Budget.poller Budget.unlimited) in
  let live_check_ns = per_check_ns (Budget.poller (live 256)) in
  let live_check1_ns = per_check_ns (Budget.poller (live 1)) in
  pf "Budget.check microbenchmark (20M tight-loop iterations):@.";
  pf "  unlimited %.2f ns, live interval=256 %.2f ns, interval=1 %.2f ns@."
    unlimited_check_ns live_check_ns live_check1_ns;
  (* (a) interleaved wall clock, min of [rounds] per configuration. *)
  let single fn =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (fn ()));
    (Unix.gettimeofday () -. t0) *. 1e9
  in
  let run_un () = Ef.solve ~config ~rounds:4 a b in
  let run_bud interval () =
    Ef.solve ~config ~budget:(live interval) ~rounds:4 a b
  in
  let rounds = 3 in
  let min_un = ref infinity and min_b256 = ref infinity
  and min_b1 = ref infinity in
  for _ = 1 to rounds do
    min_un := Float.min !min_un (single run_un);
    min_b256 := Float.min !min_b256 (single (run_bud 256));
    min_b1 := Float.min !min_b1 (single (run_bud 1))
  done;
  (* Check count of the workload: one check per win() entry = explored
     positions + memo hits. *)
  let _, (st : Ef.stats) = run_un () in
  let checks = st.positions + st.memo_hits in
  let implied_pct =
    float_of_int checks *. (live_check_ns -. unlimited_check_ns)
    /. !min_un *. 100.0
  in
  let pct v = (v -. !min_un) /. !min_un *. 100.0 in
  pf "EF search, orders L15 vs L16, 4 rounds (min of %d, interleaved):@."
    rounds;
  pf "  %-24s %12s %10s@." "configuration" "ns/run" "overhead";
  pf "  %-24s %12.0f %10s@." "no budget" !min_un "-";
  pf "  %-24s %12.0f %9.2f%%@." "poll interval 256" !min_b256 (pct !min_b256);
  pf "  %-24s %12.0f %9.2f%%@." "poll interval 1" !min_b1 (pct !min_b1);
  pf "  %d budget checks/run x %.2f ns marginal = %.2f%% implied overhead@."
    checks
    (live_check_ns -. unlimited_check_ns)
    implied_pct;
  pf "Shape: implied overhead ≤ 2%% at the default interval; wall-clock@.";
  pf "deltas below the ±5%% noise floor are not meaningful on their own.@.";
  (* (c) compiled FO evaluation: E23's eval workloads with no budget vs
     a live deadline budget at the default poll interval (one check per
     quantifier-scan entry). Each sample runs ~20 ms; the two
     configurations alternate which goes first. Median and min/max. *)
  let samples = 21 in
  let eval_rows =
    List.map
      (fun (name, g, phi) ->
        let ct = Compiled.compile g phi in
        let run budget () = run_compiled ?budget ct in
        let iters = max 1 (int_of_float (2e7 /. time_ns ~iters:1 (run None))) in
        let timed budget = time_ns ~iters (run budget) in
        let un = ref [] and bud = ref [] in
        for i = 1 to samples do
          let deadline = Budget.create ~deadline_in:3600.0 ~poll_interval:256 () in
          let sample_un () = un := timed None :: !un in
          let sample_bud () = bud := timed (Some deadline) :: !bud in
          if i mod 2 = 0 then (sample_un (); sample_bud ())
          else (sample_bud (); sample_un ())
        done;
        (name, spread !un, spread !bud))
      (e23_eval_workloads ())
  in
  let overhead (un, _, _) (bud, _, _) = (bud -. un) /. un *. 100.0 in
  pf "@.Compiled FO evaluation, E23 eval workloads (median [min, max] of %d):@."
    samples;
  pf "  %-36s %32s %32s %9s@." "workload" "no budget ns [min, max]"
    "deadline/256 ns [min, max]" "overhead";
  List.iter
    (fun (name, ((m, lo, hi) as un), ((bm, blo, bhi) as bud)) ->
      pf "  %-36s %9.0f [%9.0f, %9.0f] %9.0f [%9.0f, %9.0f] %8.2f%%@." name m
        lo hi bm blo bhi (overhead un bud))
    eval_rows;
  pf "Shape: median overhead ≤ 5%% on every workload.@.";
  match !json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let out = Printf.fprintf in
      json_open oc ~experiment:"E25" ~unit_:"ns/run";
      out oc "  \"workload\": \"orders L15 vs L16, 4 rounds\",\n";
      out oc
        "  \"check_ns\": {\"unlimited\": %.3f, \"live_interval256\": %.3f, \
         \"live_interval1\": %.3f},\n"
        unlimited_check_ns live_check_ns live_check1_ns;
      out oc "  \"checks_per_run\": %d,\n  \"implied_overhead_pct\": %.3f,\n"
        checks implied_pct;
      out oc
        "  \"wall_min_ns\": {\"unbudgeted\": %.1f, \"interval256\": %.1f, \
         \"interval1\": %.1f},\n"
        !min_un !min_b256 !min_b1;
      out oc
        "  \"wall_overhead_pct\": {\"interval256\": %.2f, \"interval1\": \
         %.2f},\n"
        (pct !min_b256) (pct !min_b1);
      let ns_json (m, lo, hi) =
        Printf.sprintf "{\"median\": %.1f, \"min\": %.1f, \"max\": %.1f}" m lo hi
      in
      out oc "  \"compiled_eval\": {\n    \"samples\": %d,\n    \"workloads\": [\n"
        samples;
      List.iteri
        (fun i (name, un, bud) ->
          out oc
            "      {\"name\": %S, \"no_budget_ns\": %s, \"deadline256_ns\": \
             %s, \"median_overhead_pct\": %.2f}%s\n"
            name (ns_json un) (ns_json bud) (overhead un bud)
            (if i = List.length eval_rows - 1 then "" else ","))
        eval_rows;
      out oc "    ]\n  }\n}\n";
      close_out oc;
      pf "Wrote %s@." path

(* ---------- E26: game engine port + C^k vs k-WL cross-validation ---------- *)

let e26 () =
  (* Part 1: the generic-engine solvers on the E5/E24 reference
     workloads. The numbers to compare against live in BENCH_games.json
     (regenerated by bench/run_bench.sh --games-only): the port must sit
     within run-to-run noise of the pre-engine solver, so a drift past
     ±10% on the E24 rows is a regression, not jitter. *)
  let timing_rows = ref [] in
  let seq_config =
    { Ef.memo = true; parallel = false; workers = None; orbit = true }
  in
  let time_row ~iters name fn =
    let positions = ref 0 in
    let ns =
      time_ns ~iters (fun () ->
          let v, (s : Ef.stats) = fn () in
          positions := s.positions;
          v)
    in
    timing_rows := (name, ns, !positions) :: !timing_rows;
    pf "  %-36s %12.0f ns %9d pos@." name ns !positions
  in
  pf "Engine-ported solvers on the reference workloads (sequential,@.";
  pf "orbit pruning on; compare E24 rows against BENCH_games.json):@.";
  time_row ~iters:3 "E24: cycles C12 vs C13, 3 rounds" (fun () ->
      Ef.solve ~config:seq_config ~rounds:3 (Gen.cycle 12) (Gen.cycle 13));
  time_row ~iters:3 "E24: sets S10 vs S11, 4 rounds" (fun () ->
      Ef.solve ~config:seq_config ~rounds:4 (Gen.set 10) (Gen.set 11));
  time_row ~iters:1 "E24: orders L15 vs L16, 4 rounds" (fun () ->
      Ef.solve ~config:seq_config ~rounds:4 (Gen.linear_order 15)
        (Gen.linear_order 16));
  time_row ~iters:3 "E5: orders L7 vs L9, 3 rounds" (fun () ->
      Ef.solve ~config:seq_config ~rounds:3 (Gen.linear_order 7)
        (Gen.linear_order 9));
  time_row ~iters:3 "pebble k=3: C6 vs C3+C3, 6 rounds" (fun () ->
      Pebble.solve ~pebbles:3 ~rounds:6 (Gen.cycle 6)
        (Gen.union_of [ Gen.cycle 3; Gen.cycle 3 ]));
  let cfi3_u, cfi3_t = Gen.cfi_pair 3 in
  time_row ~iters:3 "counting k=3: CFI(3) pair, 8 rounds" (fun () ->
      Counting_game.solve ~pebbles:3 ~rounds:8 cfi3_u cfi3_t);
  (* The E5 closed-form cross-check, re-run on the ported solver: the
     characterization must still hold mismatch-free. *)
  let e5_mismatches = ref 0 in
  let e5_sweep_ns =
    time_ns ~iters:1 (fun () ->
        for n = 0 to 3 do
          let bound = min 9 ((1 lsl n) + 2) in
          for m = 0 to bound do
            for k = 0 to bound do
              if
                Ef.duplicator_wins ~rounds:n (Gen.linear_order m)
                  (Gen.linear_order k)
                <> Strategy.linear_orders_equiv ~rounds:n m k
              then incr e5_mismatches
            done
          done
        done)
  in
  pf "  %-36s %12.0f ns %9d mismatches@." "E5: closed-form sweep (n <= 3)"
    e5_sweep_ns !e5_mismatches;
  (* Worker-scaling curve through the kernel's parallel path (deques,
     pooled domains, L1 memo tiers) on the E5 reference workload;
     speedups against the forced workers=1 sequential fast path, with
     the effective count reported so single-core results read as
     overhead, not scaling. *)
  let scale_name = "E5: orders L7 vs L9, 3 rounds" in
  let scale_run workers () =
    Ef.solve
      ~config:{ Ef.memo = true; parallel = true; workers; orbit = true }
      ~rounds:3 (Gen.linear_order 7) (Gen.linear_order 9)
  in
  let scale_seq_v, _ = scale_run (Some 1) () in
  let scale_seq_ns = time_ns ~iters:3 (fun () -> fst (scale_run (Some 1) ())) in
  let scale_match = ref true in
  let scale_curve =
    List.map
      (fun w ->
        let v, (s : Ef.stats) = scale_run (Some w) () in
        if v <> scale_seq_v then scale_match := false;
        let ns = time_ns ~iters:3 (fun () -> fst (scale_run (Some w) ())) in
        pf "  %-36s workers=%d (eff %d): %.0f ns, speedup %.2f@." scale_name w
          s.Ef.workers ns (scale_seq_ns /. ns);
        (w, s.Ef.workers, ns))
      (scaling_grid ())
  in
  (* Part 2: C^k agreement grid — the bijective k-pebble counting game
     (unbounded rank approximated by rank r) against (k-1)-WL, which
     decides C^k equivalence exactly. The sound direction is an
     invariant ((k-1)-WL-equivalent pairs are C^k-equivalent at every
     rank); the converse is empirical cross-validation at rank r, which
     is enough to expose a divergence on every family sampled here. *)
  let c6 = Gen.cycle 6 and c33 = Gen.union_of [ Gen.cycle 3; Gen.cycle 3 ] in
  let cfi4_u, cfi4_t = Gen.cfi_pair 4 in
  let grid_pairs =
    [
      ("cfi m=3", cfi3_u, cfi3_t);
      ("cfi m=4", cfi4_u, cfi4_t);
      ("cycle C6 vs C3+C3", c6, c33);
      ("cycle C7 vs C7", Gen.cycle 7, Gen.cycle 7);
      ("order L5 vs L6", Gen.linear_order 5, Gen.linear_order 6);
      ("order L6 vs L6", Gen.linear_order 6, Gen.linear_order 6);
    ]
  in
  let grid_rows = ref [] in
  let grid_mismatches = ref 0 in
  pf "C^k (bijective counting game, rank r) vs (k-1)-WL agreement grid:@.";
  pf "  %-22s %3s %4s %10s %12s %7s@." "pair" "k" "rank" "(k-1)-WL" "C^k game"
    "agree";
  List.iter
    (fun (name, a, b) ->
      List.iter
        (fun k ->
          let rank = min 10 (2 * max (Structure.size a) (Structure.size b)) in
          let wl_eq = Wl.equiv ~k:(k - 1) a b in
          let game_eq = Counting_game.equiv_ck ~k ~rank a b in
          let agree = wl_eq = game_eq in
          if not agree then incr grid_mismatches;
          grid_rows := (name, k, rank, wl_eq, game_eq, agree) :: !grid_rows;
          pf "  %-22s %3d %4d %10s %12s %7b@." name k rank
            (if wl_eq then "equiv" else "distinct")
            (if game_eq then "equiv" else "distinct")
            agree)
        [ 2; 3 ])
    grid_pairs;
  pf "  grid disagreements: %d (0 = game and refinement cross-validate)@."
    !grid_mismatches;
  (* Part 3: the CFI certificate. Twisting one fibre of a cycle cover
     flips the component count (2 -> 1) without moving any degree or
     1-WL colour: the pair is C^2-blind but C^3-separated, witnessing
     the strictness of the counting hierarchy (Cai–Fürer–Immerman). *)
  let cfi_rows = ref [] in
  pf "CFI pairs over C_m: 1-WL blind, C^3 sees:@.";
  pf "  %-6s %4s %10s %8s %8s@." "m" "size" "components" "1-WL" "2-WL";
  List.iter
    (fun m ->
      let u, t = Gen.cfi_pair m in
      let comps = (Graph.component_count u, Graph.component_count t) in
      let wl1 = Wl.equiv ~k:1 u t and wl2 = Wl.equiv ~k:2 u t in
      cfi_rows := (m, Structure.size u, comps, wl1, wl2) :: !cfi_rows;
      pf "  %-6d %4d %6d vs %d %8s %8s@." m (Structure.size u) (fst comps)
        (snd comps)
        (if wl1 then "blind" else "sees")
        (if wl2 then "blind" else "sees"))
    [ 3; 4; 5 ];
  let game_blind = Counting_game.equiv_ck ~k:2 ~rank:6 cfi3_u cfi3_t in
  let game_sees = not (Counting_game.equiv_ck ~k:3 ~rank:8 cfi3_u cfi3_t) in
  pf "  game level (m=3): C^2 blind at rank 6: %b, C^3 sees at rank 8: %b@."
    game_blind game_sees;
  pf "Shape: every grid row agrees; CFI rows read blind/sees down the@.";
  pf "columns — the engine's third instance reproduces the WL hierarchy.@.";
  match !json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let out = Printf.fprintf in
      json_open oc ~experiment:"E26" ~unit_:"ns/run";
      out oc "  \"engine_timings\": [\n";
      let rows = List.rev !timing_rows in
      List.iteri
        (fun i (name, ns, positions) ->
          out oc "    {\"name\": %S, \"engine_ns\": %.1f, \"positions\": %d}%s\n"
            name ns positions
            (if i = List.length rows - 1 then "" else ","))
        rows;
      out oc "  ],\n  \"e5_sweep\": {\"ns\": %.1f, \"mismatches\": %d},\n"
        e5_sweep_ns !e5_mismatches;
      out oc
        "  \"worker_scaling\": {\"name\": %S, \"seq_ns\": %.1f, \
         \"verdicts_match\": %b, \"curve\": ["
        scale_name scale_seq_ns !scale_match;
      List.iteri
        (fun j (req, eff, ns) ->
          out oc
            "%s{\"requested\": %d, \"effective\": %d, \"ns\": %.1f, \
             \"parallel_speedup\": %.2f}"
            (if j = 0 then "" else ", ")
            req eff ns (scale_seq_ns /. ns))
        scale_curve;
      out oc "]},\n";
      out oc "  \"agreement_grid\": [\n";
      let rows = List.rev !grid_rows in
      List.iteri
        (fun i (name, k, rank, wl_eq, game_eq, agree) ->
          out oc
            "    {\"pair\": %S, \"k\": %d, \"rank\": %d, \"wl_equiv\": %b, \
             \"game_equiv\": %b, \"agree\": %b}%s\n"
            name k rank wl_eq game_eq agree
            (if i = List.length rows - 1 then "" else ","))
        rows;
      out oc "  ],\n  \"grid_disagreements\": %d,\n" !grid_mismatches;
      out oc "  \"cfi_certificate\": [\n";
      let rows = List.rev !cfi_rows in
      List.iteri
        (fun i (m, size, (cu, ct), wl1, wl2) ->
          out oc
            "    {\"m\": %d, \"size\": %d, \"components\": [%d, %d], \
             \"wl1_blind\": %b, \"wl2_sees\": %b}%s\n"
            m size cu ct wl1 (not wl2)
            (if i = List.length rows - 1 then "" else ","))
        rows;
      out oc "  ],\n  \"game_c2_blind_m3\": %b, \"game_c3_sees_m3\": %b\n}\n"
        game_blind game_sees;
      close_out oc;
      pf "Wrote %s@." path

(* ---------- Ablations ---------- *)

let ablation () =
  pf "EF solver memoization (L5 vs L6, 3 rounds):@.";
  List.iter
    (fun memo ->
      let _, stats =
        Ef.solve
          ~config:{ Ef.default_config with Ef.memo = memo }
          ~rounds:3 (Gen.linear_order 5) (Gen.linear_order 6)
      in
      pf "  memo=%-5b positions explored: %d (memo hits: %d)@." memo
        stats.Ef.positions stats.Ef.memo_hits)
    [ true; false ];
  pf "Census invariant-key bucketing (random degree-3 graph, n=120, r=2):@.";
  let many_types = Gen.bounded_degree_graph ~rng:(rng ()) 120 3 in
  List.iter
    (fun bucketing ->
      let reg = Neighborhood.create_registry ~bucketing () in
      let census = Neighborhood.census reg many_types ~radius:2 in
      pf "  bucketing=%-5b types: %d, exact iso tests: %d@." bucketing
        (List.length census)
        (Neighborhood.iso_tests reg))
    [ true; false ];
  pf "Direct recursive eval vs RA-compiled join plan (conjunctive query):@.";
  let phi = f "exists x y z. E(x,y) & E(y,z) & E(z,x)" in
  let g = Gen.random_graph ~rng:(rng ()) 40 0.1 in
  let tests =
    [
      bench "direct eval (triangle query, n=40)" (fun () -> Eval.sat g phi);
      bench "RA join plan (triangle query, n=40)" (fun () ->
          Compile.sat_any g phi);
    ]
  in
  run_bechamel (Bechamel.Test.make_grouped ~name:"ablation" tests)

(* ---------- driver ---------- *)

(* ---------- E27: serve — closed-loop load with and without faults ---------- *)

module Server = Fmtk_server.Server
module Sjson = Fmtk_server.Json

let e27 () =
  (* A closed-loop load generator: [conns] client threads, each holding
     one connection and firing its next request the moment the previous
     answer lands. The request mix exercises every pool op (eval with
     and without free variables, EF games, the Decide ladder) against
     preloaded structures whose ground-truth verdicts are computed
     up front — so besides latency we measure the robustness claims:
     zero server crashes and zero flipped verdicts, with faults off and
     with the deterministic fault mix on. *)
  let conns = 32 and per_conn = 32 in
  let preload =
    [
      ("c5", "cycle:5");
      ("c6", "cycle:6");
      ("c12", "cycle:12");
      ("l7", "order:7");
      ("c100", "cycle:100");
      ("p100", "chain:100");
    ]
  in
  (* Ground truth for every definitive answer the mix can elicit. *)
  let truth_game_c5_c6_r3 =
    match Ef.solve_verdict ~rounds:3 (Gen.cycle 5) (Gen.cycle 6) with
    | Ef.Equivalent, _ -> true
    | Ef.Distinguished, _ -> false
    | Ef.Gave_up _, _ -> failwith "unlimited solver gave up"
  in
  let mix seq =
    match seq mod 6 with
    | 0 ->
        ( Printf.sprintf
            {|{"op":"eval","id":%d,"structure":"c6","formula":"forall x. exists y. E(x,y)"}|}
            seq,
          Some ("value", true) )
    | 1 ->
        ( Printf.sprintf
            {|{"op":"game","id":%d,"left":"c5","right":"c6","rounds":3}|} seq,
          Some ("equivalent", truth_game_c5_c6_r3) )
    | 2 ->
        ( Printf.sprintf
            {|{"op":"eval","id":%d,"structure":"c12","formula":"E(x,y)"}|} seq,
          None )
    | 3 ->
        (* Structures past the exact-game horizon under a deliberately
           tiny deadline: the ladder answers via the degree-sequence
           rung — these are the [degraded] responses of the run. *)
        ( Printf.sprintf
            {|{"op":"decide","id":%d,"left":"c100","right":"p100","rank":3,"timeout":0.05}|}
            seq,
          Some ("verdict-equivalent", false) )
    | 4 ->
        ( Printf.sprintf
            {|{"op":"eval","id":%d,"structure":"l7","formula":"exists x. forall y. x = y | x < y"}|}
            seq,
          Some ("value", true) )
    | _ ->
        ( Printf.sprintf
            {|{"op":"decide","id":%d,"left":"c6","right":"c12","rank":3}|} seq,
          Some ("verdict-equivalent", false) )
  in
  let run_load ~inject =
    let cfg =
      {
        (Server.default_config (Server.Tcp ("127.0.0.1", 0))) with
        Server.workers = max 2 (min 4 (Domain.recommended_domain_count () - 2));
        (* Below the connection count, so the closed-loop burst
           genuinely trips admission control. *)
        max_inflight = 20;
        inject_faults = inject;
        log = None;
      }
    in
    let srv =
      match Server.create ~preload cfg with
      | Ok s -> s
      | Error e -> failwith ("server create failed: " ^ e)
    in
    let runner = Thread.create Server.run srv in
    let port = match Server.port srv with Some p -> p | None -> assert false in
    let latencies = Array.make (conns * per_conn) 0.0 in
    let shed = Atomic.make 0
    and degraded = Atomic.make 0
    and errors = Atomic.make 0
    and oks = Atomic.make 0
    and wrong = Atomic.make 0
    and dropped = Atomic.make 0 in
    let field name v = List.assoc_opt name v in
    let check_truth expect resp_fields =
      match expect with
      | None -> ()
      | Some (key, want) -> (
          match field "result" resp_fields with
          | Some (Sjson.Obj r) -> (
              match key with
              | "value" | "equivalent" -> (
                  match field key r with
                  | Some (Sjson.Bool got) ->
                      if got <> want then Atomic.incr wrong
                  | _ -> ())
              | "verdict-equivalent" -> (
                  match field "verdict" r with
                  | Some (Sjson.Str "equivalent") ->
                      if not want then Atomic.incr wrong
                  | Some (Sjson.Str ("distinguished" | "distinguishable")) ->
                      if want then Atomic.incr wrong
                  | _ -> ())
              | _ -> ())
          | _ -> ())
    in
    let client cid =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      for i = 0 to per_conn - 1 do
        let seq = (cid * per_conn) + i in
        let line, expect = mix seq in
        let t0 = Unix.gettimeofday () in
        output_string oc line;
        output_char oc '\n';
        flush oc;
        match input_line ic with
        | resp -> (
            latencies.(seq) <- (Unix.gettimeofday () -. t0) *. 1000.;
            match Sjson.parse resp with
            | Ok (Sjson.Obj fields) -> (
                match field "status" fields with
                | Some (Sjson.Str "ok") ->
                    Atomic.incr oks;
                    check_truth expect fields
                | Some (Sjson.Str "degraded") ->
                    Atomic.incr degraded;
                    check_truth expect fields
                | Some (Sjson.Str "shed") -> Atomic.incr shed
                | Some (Sjson.Str "error") -> Atomic.incr errors
                | _ -> Atomic.incr dropped)
            | _ -> Atomic.incr dropped)
        | exception End_of_file -> Atomic.incr dropped
      done;
      (try Unix.close fd with Unix.Unix_error _ -> ())
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init conns (fun cid -> Thread.create client cid) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    (* SIGTERM-equivalent drain: shutdown must complete and the runner
       thread must come home — a hung drain fails the whole bench. *)
    let t_shut = Unix.gettimeofday () in
    Server.shutdown srv;
    Thread.join runner;
    let drain_s = Unix.gettimeofday () -. t_shut in
    let s = Server.stats srv in
    let sorted = Array.copy latencies in
    Array.sort compare sorted;
    let pct p =
      sorted.(min (Array.length sorted - 1)
                (int_of_float (p *. float_of_int (Array.length sorted))))
    in
    let total = conns * per_conn in
    ( total,
      wall,
      pct 0.50,
      pct 0.99,
      Atomic.get oks,
      Atomic.get degraded,
      Atomic.get errors,
      Atomic.get shed,
      Atomic.get wrong,
      Atomic.get dropped,
      drain_s,
      s )
  in
  pf "Closed-loop load: %d connections x %d requests, mixed ops@." conns
    per_conn;
  let report name
      (total, wall, p50, p99, oks, degraded, errors, shed, wrong, dropped, drain_s, s)
      =
    pf "  %s:@." name;
    pf "    %d requests in %.2fs  (%.0f req/s)@." total wall
      (float_of_int total /. wall);
    pf "    p50 %.2f ms   p99 %.2f ms@." p50 p99;
    pf "    ok %d  degraded %d  error %d  shed %d  dropped %d@." oks degraded
      errors shed dropped;
    pf "    wrong verdicts %d  drain %.3fs  cache hit-rate %.2f@." wrong
      drain_s
      (let probes = s.Server.cache_hits + s.Server.cache_misses in
       if probes = 0 then 0.0
       else float_of_int s.Server.cache_hits /. float_of_int probes)
  in
  let clean = run_load ~inject:false in
  report "clean" clean;
  let faulted = run_load ~inject:true in
  report "with injected faults (3 in 10 requests)" faulted;
  let ( _,
        _,
        _,
        _,
        _,
        _,
        f_errors,
        _,
        f_wrong,
        f_dropped,
        _,
        _ ) =
    faulted
  in
  pf "Shape: zero wrong verdicts and zero dropped responses in both@.";
  pf "runs; the faulted run answers every request too — errors, not@.";
  pf "silence (%d structured errors, %d wrong, %d dropped).@." f_errors f_wrong
    f_dropped;
  match !json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let out = Printf.fprintf in
      let emit name
          (total, wall, p50, p99, oks, degraded, errors, shed, wrong, dropped, drain_s, s)
          last =
        out oc
          "    {\"run\": %S, \"connections\": %d, \"requests\": %d, \
           \"wall_s\": %.3f, \"throughput_rps\": %.1f, \"p50_ms\": %.3f, \
           \"p99_ms\": %.3f, \"ok\": %d, \"degraded\": %d, \"error\": %d, \
           \"shed\": %d, \"wrong_verdicts\": %d, \"dropped\": %d, \
           \"drain_s\": %.3f, \"cache_hits\": %d, \"cache_misses\": %d}%s\n"
          name conns total wall
          (float_of_int total /. wall)
          p50 p99 oks degraded errors shed wrong dropped drain_s
          s.Server.cache_hits s.Server.cache_misses
          (if last then "" else ",")
      in
      json_open oc ~experiment:"E27" ~unit_:"ms";
      out oc "  \"runs\": [\n";
      emit "clean" clean false;
      emit "faulted" faulted true;
      out oc "  ]\n}\n";
      close_out oc

(* ---------- E28: million-element locality pipeline ---------- *)

type e28_entry = {
  family : string;
  n : int;
  workload : string; (* "hanf_census" | "wl_refine" *)
  wall_ns : float;
  ns_per_node : float;
  detail : int; (* realized types / stable colours *)
}

let e28 () =
  let workers =
    match !workers_flag with
    | Some k -> k
    | None -> Domain.recommended_domain_count ()
  in
  let sizes = List.filter (fun n -> n <= !max_n_flag) [ 10_000; 100_000; 1_000_000 ] in
  let entries = ref [] in
  pf "Streaming locality pipeline, %d worker(s), backend %s; linear-time@."
    workers (effective_backend ());
  pf "shape: ns/node should stay flat as n grows 100x.@.";
  pf "  %-10s %9s %-12s %10s %9s %7s@." "family" "n" "workload" "wall ms"
    "ns/node" "detail";
  let run family n g =
    (* One full-pipeline run per measurement: fresh registry, so the
       census pays serialization, hashing and type registration every
       time — the steady state a new input sees. *)
    let iters = max 1 (200_000 / n) in
    let measure workload detail fn =
      let wall_ns = time_ns ~iters fn in
      let ns_per_node = wall_ns /. float_of_int n in
      pf "  %-10s %9d %-12s %10.1f %9.1f %7d@." family n workload
        (wall_ns /. 1e6) ns_per_node (detail ());
      entries :=
        { family; n; workload; wall_ns; ns_per_node; detail = detail () }
        :: !entries
    in
    let types = ref 0 in
    measure "hanf_census" (fun () -> !types) (fun () ->
        let reg = Neighborhood.create_registry () in
        let census = Neighborhood.census ~workers reg g ~radius:1 in
        types := List.length census);
    let colours = ref 0 in
    measure "wl_refine" (fun () -> !colours) (fun () ->
        let c = Wl.refine ~workers g in
        let seen = Hashtbl.create 64 in
        Array.iter (fun v -> Hashtbl.replace seen v ()) c;
        colours := Hashtbl.length seen)
  in
  List.iter
    (fun n ->
      let side = int_of_float (sqrt (float_of_int n)) in
      run "torus" (side * side) (Gen.torus side side))
    sizes;
  List.iter
    (fun n -> run "regular4" n (Gen.random_regular ~rng:(rng ()) n 4))
    sizes;
  (* The acceptance shape: per family and workload, ns/node at the
     largest size within 3x of the smallest. *)
  let rows = List.rev !entries in
  let scaling = ref [] in
  List.iter
    (fun family ->
      List.iter
        (fun workload ->
          let mine =
            List.filter (fun e -> e.family = family && e.workload = workload) rows
          in
          match (mine, List.rev mine) with
          | lo :: _, hi :: _ when lo.n < hi.n ->
              let ratio = hi.ns_per_node /. lo.ns_per_node in
              scaling := (family, workload, lo.n, hi.n, ratio) :: !scaling;
              pf "  scaling %s/%s: ns/node(%d) = %.2fx ns/node(%d) %s@." family
                workload hi.n ratio lo.n
                (if ratio <= 3.0 then "(within 3x)" else "(EXCEEDS 3x)")
          | _ -> ())
        [ "hanf_census"; "wl_refine" ])
    [ "torus"; "regular4" ];
  pf "Shape: every scaling row within 3x — the census and refinement@.";
  pf "are O(n) in practice, not just asymptotically.@.";
  match !json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let out = Printf.fprintf in
      json_open oc ~experiment:"E28" ~unit_:"ns/node";
      out oc "  \"workers\": %d,\n  \"max_n\": %d,\n  \"rows\": [\n" workers
        !max_n_flag;
      List.iteri
        (fun i e ->
          out oc
            "    {\"family\": %S, \"n\": %d, \"workload\": %S, \"wall_ns\": \
             %.0f, \"ns_per_node\": %.2f, \"detail\": %d}%s\n"
            e.family e.n e.workload e.wall_ns e.ns_per_node e.detail
            (if i = List.length rows - 1 then "" else ","))
        rows;
      out oc "  ],\n  \"scaling\": [\n";
      let srows = List.rev !scaling in
      List.iteri
        (fun i (family, workload, lo, hi, ratio) ->
          out oc
            "    {\"family\": %S, \"workload\": %S, \"n_lo\": %d, \"n_hi\": \
             %d, \"ns_per_node_ratio\": %.3f}%s\n"
            family workload lo hi ratio
            (if i = List.length srows - 1 then "" else ","))
        srows;
      out oc "  ]\n}\n";
      close_out oc;
      pf "Wrote %s@." path

(* ---------- E29: durability — journal overhead and recovery speed ---------- *)

module Dstore = Fmtk_server.Store

let rm_rf_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let e29 () =
  (* Journal overhead on the serve mix: the same closed-loop client as
     E27, but with 2 mutations (a load and a drop) in every 8 requests,
     run against an in-memory store, a durable store with interval
     fsync, and a durable store with fsync-per-ack. The number that
     matters is the interval-sync slowdown over in-memory on identical
     work — the cost of never losing an acked mutation to kill -9. *)
  let conns = 16 and per_conn = 64 in
  let total = conns * per_conn in
  let preload =
    [ ("c5", "cycle:5"); ("c6", "cycle:6"); ("c12", "cycle:12"); ("l7", "order:7") ]
  in
  let mix cid seq =
    match seq mod 8 with
    | 6 ->
        Printf.sprintf {|{"op":"load","id":%d,"name":"w%d","spec":"cycle:%d"}|}
          seq cid
          (20 + (seq mod 30))
    | 7 -> Printf.sprintf {|{"op":"drop","id":%d,"name":"w%d"}|} seq cid
    | 0 | 3 ->
        Printf.sprintf
          {|{"op":"eval","id":%d,"structure":"c6","formula":"forall x. exists y. E(x,y)"}|}
          seq
    | 1 ->
        Printf.sprintf {|{"op":"game","id":%d,"left":"c5","right":"c6","rounds":3}|}
          seq
    | 2 ->
        Printf.sprintf
          {|{"op":"eval","id":%d,"structure":"l7","formula":"exists x. forall y. x = y | x < y"}|}
          seq
    | 4 ->
        Printf.sprintf {|{"op":"decide","id":%d,"left":"c6","right":"c12","rank":3}|}
          seq
    | _ ->
        Printf.sprintf {|{"op":"eval","id":%d,"structure":"c12","formula":"E(x,y)"}|}
          seq
  in
  let run_mode ~data_dir ~sync =
    let cfg =
      {
        (Server.default_config (Server.Tcp ("127.0.0.1", 0))) with
        Server.workers = max 2 (min 4 (Domain.recommended_domain_count () - 2));
        max_inflight = 2 * conns;
        data_dir;
        sync;
        log = None;
      }
    in
    let srv =
      match Server.create ~preload cfg with
      | Ok s -> s
      | Error e -> failwith ("server create failed: " ^ e)
    in
    let runner = Thread.create Server.run srv in
    let port = match Server.port srv with Some p -> p | None -> assert false in
    let latencies = Array.make total 0.0 in
    let errors = Atomic.make 0 in
    let client cid =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      for i = 0 to per_conn - 1 do
        let seq = (cid * per_conn) + i in
        let t0 = Unix.gettimeofday () in
        output_string oc (mix cid seq);
        output_char oc '\n';
        flush oc;
        match input_line ic with
        | resp ->
            latencies.(seq) <- (Unix.gettimeofday () -. t0) *. 1000.;
            if
              (match Sjson.parse resp with
              | Ok (Sjson.Obj fields) -> (
                  match List.assoc_opt "status" fields with
                  | Some (Sjson.Str ("ok" | "degraded")) -> false
                  | _ -> true)
              | _ -> true)
            then Atomic.incr errors
        | exception End_of_file -> Atomic.incr errors
      done;
      (try Unix.close fd with Unix.Unix_error _ -> ())
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init conns (fun cid -> Thread.create client cid) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let s = Server.stats srv in
    Server.shutdown srv;
    Thread.join runner;
    let sorted = Array.copy latencies in
    Array.sort compare sorted;
    let pct p =
      sorted.(min (Array.length sorted - 1)
                (int_of_float (p *. float_of_int (Array.length sorted))))
    in
    let journaled =
      match s.Server.durability with
      | Some d -> d.Dstore.journaled
      | None -> 0
    in
    (wall, pct 0.50, pct 0.99, Atomic.get errors, journaled)
  in
  let base =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fmtk-e29-%d" (Unix.getpid ()))
  in
  pf "Serve mix (%d conns x %d reqs, 2 mutations in 8) against three@." conns
    per_conn;
  pf "store backends; overhead is the slowdown over the in-memory store.@.";
  let report label (wall, p50, p99, errors, journaled) overhead =
    pf "  %-16s %7.0f req/s  p50 %6.2f ms  p99 %6.2f ms  err %d  journaled %d%s@."
      label
      (float_of_int total /. wall)
      p50 p99 errors journaled
      (match overhead with
      | None -> ""
      | Some pct -> Printf.sprintf "  overhead %+.1f%%" pct)
  in
  let mem = run_mode ~data_dir:None ~sync:Dstore.Always in
  let mem_wall = (fun (w, _, _, _, _) -> w) mem in
  report "memory" mem None;
  let overhead (w, _, _, _, _) = ((w /. mem_wall) -. 1.) *. 100. in
  let dir_i = base ^ "-interval" and dir_a = base ^ "-always" in
  rm_rf_dir dir_i;
  rm_rf_dir dir_a;
  let interval = run_mode ~data_dir:(Some dir_i) ~sync:(Dstore.Interval 32) in
  report "interval:32" interval (Some (overhead interval));
  let always = run_mode ~data_dir:(Some dir_a) ~sync:Dstore.Always in
  report "always" always (Some (overhead always));
  rm_rf_dir dir_i;
  rm_rf_dir dir_a;
  (* Recovery speed: fill a journal with [records] puts, reopen (tail
     replay), compact, reopen again (snapshot load). *)
  let records = 2000 in
  let rec_dir = base ^ "-recovery" in
  rm_rf_dir rec_dir;
  let ok_or = function Ok v -> v | Error e -> failwith e in
  let st, _ =
    ok_or
      (Dstore.open_durable ~capacity:(records + 8) ~sync:Dstore.Never
         ~dir:rec_dir ())
  in
  for i = 0 to records - 1 do
    match
      Dstore.put st
        ~name:(Printf.sprintf "r%04d" i)
        (Gen.cycle (8 + (i mod 64)))
    with
    | Ok () -> ()
    | Error e -> failwith (Dstore.put_error_to_string e)
  done;
  let journal_bytes =
    match Dstore.durability_stats st with
    | Some d -> d.Dstore.journal_bytes
    | None -> 0
  in
  Dstore.close st;
  let st2, replay =
    ok_or (Dstore.open_durable ~capacity:(records + 8) ~dir:rec_dir ())
  in
  (match Dstore.compact st2 with Ok () -> () | Error e -> failwith e);
  Dstore.close st2;
  let st3, snap =
    ok_or (Dstore.open_durable ~capacity:(records + 8) ~dir:rec_dir ())
  in
  Dstore.close st3;
  rm_rf_dir rec_dir;
  pf "Recovery of %d structures (%d journal bytes):@." records journal_bytes;
  pf "  journal replay  %7.1f ms  (%.0f records/s)@."
    replay.Dstore.recovery_ms
    (float_of_int replay.Dstore.journal_records
    /. (replay.Dstore.recovery_ms /. 1000.));
  pf "  snapshot load   %7.1f ms  (%.0f records/s)@." snap.Dstore.recovery_ms
    (float_of_int snap.Dstore.snapshot_records
    /. (snap.Dstore.recovery_ms /. 1000.));
  pf "Shape: interval-sync overhead within 15%% of in-memory; zero@.";
  pf "errors in every mode; both recovery paths well under a second.@.";
  match !json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let out = Printf.fprintf in
      json_open oc ~experiment:"E29" ~unit_:"ms";
      let emit label (wall, p50, p99, errors, journaled) last =
        out oc
          "    {\"mode\": %S, \"requests\": %d, \"wall_s\": %.3f, \
           \"throughput_rps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \
           \"errors\": %d, \"journaled\": %d, \"overhead_pct\": %.2f}%s\n"
          label total wall
          (float_of_int total /. wall)
          p50 p99 errors journaled
          (let w, _, _, _, _ = mem in
           ((wall /. w) -. 1.) *. 100.)
          (if last then "" else ",")
      in
      out oc "  \"runs\": [\n";
      emit "memory" mem false;
      emit "interval:32" interval false;
      emit "always" always true;
      out oc "  ],\n";
      out oc
        "  \"recovery\": {\"records\": %d, \"journal_bytes\": %d, \
         \"journal_replay_ms\": %.3f, \"snapshot_load_ms\": %.3f}\n"
        records journal_bytes replay.Dstore.recovery_ms
        snap.Dstore.recovery_ms;
      out oc "}\n";
      close_out oc;
      pf "Wrote %s@." path

(* ---------- E30: query planner — naive vs planned + delta maintenance ---------- *)

type e30_entry = {
  query : string;
  kind : string;
  qn : int;
  naive_ns : float;
  planned_ns : float;
}

(* The pipeline's two acceptance shapes: (1) on multi-join queries the
   cost-based physical plan beats the naive algebra interpreter (which
   materializes every active-domain padding join the compiler emits) by
   >= 5x at the largest size; (2) maintaining a materialized answer
   under a single-tuple update costs <= 10% of re-planning and
   re-running from scratch. Both engines are checked against each other
   before being timed — a fast wrong answer is not a result. *)
let e30 () =
  let module Planner = Fmtk_db.Planner in
  let module Delta = Fmtk_db.Delta in
  let module Algebra = Fmtk_db.Algebra in
  let module Relation = Fmtk_db.Relation in
  let queries =
    [
      (* parity rows: joins the naive natural-join interpreter already
         evaluates in a good order — the planner must match it (within
         noise), not beat it *)
      ("2path", "E(x,y) & E(y,z)", [ 40; 80; 160 ], `Parity);
      ("triangle", "E(x,y) & E(y,z) & E(z,x)", [ 40; 80; 160 ], `Parity);
      (* optimization rows, >= 5x at the largest size: cost-based join
         reordering (the formula order starts with a cross product),
         inequality anti-filters, and padding elimination for guarded
         negation *)
      ("misordered-3path", "E(x,y) & E(z,w) & E(y,z)", [ 40; 80; 160 ], `Speedup);
      ("neq-join", "E(x,y) & E(y,z) & x != z", [ 40; 80; 160 ], `Speedup);
      ("guarded-neg", "E(x,y) & !E(y,x)", [ 40; 80; 160 ], `Speedup);
    ]
  in
  let entries = ref [] in
  pf "Planned physical execution vs the naive algebra interpreter@.";
  pf "on sparse random graphs (avg degree 3). Shape: >= 5x on every@.";
  pf "optimization row at the largest size; parity rows within noise.@.";
  pf "  %-16s %6s %12s %12s %9s@." "query" "n" "naive ms" "planned ms"
    "speedup";
  List.iter
    (fun (name, text, sizes, cls) ->
      let phi = f text in
      let kind = match cls with `Parity -> "parity" | `Speedup -> "speedup" in
      List.iter
        (fun n ->
          let g = Gen.random_graph ~rng:(rng ()) n (3.0 /. float_of_int n) in
          let naive () =
            match Compile.answers_naive g phi with
            | Ok (_, ts) -> ts
            | Error (`Msg m) -> failwith m
          in
          let planned () =
            match Compile.answers_any g phi with
            | Ok (_, ts) -> ts
            | Error (`Msg m) -> failwith m
          in
          if not (Tuple.Set.equal (naive ()) (planned ())) then
            failwith (Printf.sprintf "E30: engines disagree on %s at %d" name n);
          let iters = if n >= 160 then 2 else 3 in
          let naive_ns = time_ns ~iters naive in
          let planned_ns = time_ns ~iters:(iters * 5) planned in
          entries :=
            { query = name; kind; qn = n; naive_ns; planned_ns } :: !entries;
          pf "  %-16s %6d %12.2f %12.2f %8.1fx@." name n (naive_ns /. 1e6)
            (planned_ns /. 1e6)
            (naive_ns /. planned_ns))
        sizes)
    queries;
  let rows = List.rev !entries in
  List.iter
    (fun (name, _, sizes, cls) ->
      match cls with
      | `Parity -> ()
      | `Speedup -> (
          let largest = List.fold_left max 0 sizes in
          match
            List.find_opt (fun e -> e.query = name && e.qn = largest) rows
          with
          | Some e ->
              let sp = e.naive_ns /. e.planned_ns in
              pf "  acceptance %s at n=%d: %.1fx %s@." name largest sp
                (if sp >= 5.0 then "(>= 5x)" else "(BELOW 5x)")
          | None -> ()))
    queries;
  (* Delta maintenance: a stream of single-tuple updates against a
     materialized triangle query, vs re-planning and re-running. *)
  let n = 120 in
  let g = Gen.random_graph ~rng:(rng ()) n (3.0 /. float_of_int n) in
  let phi = f "E(x,y) & E(y,z) & E(z,x)" in
  let e =
    Algebra.Project (Formula.free_vars phi, Compile.compile phi)
  in
  let db = Algebra.Database.of_structure g in
  let d =
    match Delta.materialize db e with Ok d -> d | Error m -> failwith m
  in
  (* 50 chords not present in the sparse graph, each inserted then
     deleted: 100 updates, net zero. *)
  let chords =
    List.init 50 (fun i ->
        [| (i * 7 + 1) mod n; ((i * 13 + n) / 2 + 5) mod n |])
  in
  let before = Relation.tuples (Delta.result d) in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun tup ->
      (match Delta.update d ~rel:"E" tup ~add:true with
      | Ok () -> ()
      | Error m -> failwith m);
      match Delta.update d ~rel:"E" tup ~add:false with
      | Ok () -> ()
      | Error m -> failwith m)
    chords;
  let delta_ns =
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (2 * List.length chords)
  in
  if not (Tuple.Set.equal before (Relation.tuples (Delta.result d))) then
    failwith "E30: delta round-trip diverged";
  let full_ns =
    time_ns ~iters:5 (fun () ->
        match Compile.answers_any g phi with
        | Ok (_, ts) -> ts
        | Error (`Msg m) -> failwith m)
  in
  let ratio = delta_ns /. full_ns in
  pf "  delta: %.1f us/update vs %.1f us full re-eval = %.1f%% %s@."
    (delta_ns /. 1e3) (full_ns /. 1e3) (ratio *. 100.)
    (if ratio <= 0.10 then "(<= 10%)" else "(ABOVE 10%)");
  match !json_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let out = Printf.fprintf in
      json_open oc ~experiment:"E30" ~unit_:"ns/run";
      out oc "  \"rows\": [\n";
      List.iteri
        (fun i en ->
          out oc
            "    {\"query\": %S, \"class\": %S, \"n\": %d, \"naive_ns\": \
             %.0f, \"planned_ns\": %.0f, \"speedup\": %.2f}%s\n"
            en.query en.kind en.qn en.naive_ns en.planned_ns
            (en.naive_ns /. en.planned_ns)
            (if i = List.length rows - 1 then "" else ","))
        rows;
      out oc "  ],\n";
      out oc
        "  \"delta\": {\"query\": \"triangle\", \"n\": %d, \"updates\": %d, \
         \"delta_ns_per_update\": %.0f, \"full_ns\": %.0f, \"ratio\": %.4f}\n"
        n
        (2 * List.length chords)
        delta_ns full_ns ratio;
      out oc "}\n";
      close_out oc;
      pf "Wrote %s@." path

let sections =
  [
    ("E1", "combined complexity O(n^k) (Stockmeyer/Vardi)", e1);
    ("E2", "FO is in AC0: circuit family measurements", e2);
    ("E3", "finite compactness fails (λn family)", e3);
    ("E4", "EVEN(∅) inexpressibility via games", e4);
    ("E5", "Theorem 3.1: L_m ≡n L_k", e5);
    ("E6", "order → graph: connectivity construction", e6);
    ("E7", "order → graph: acyclicity construction", e7);
    ("E8", "CONN via the TC oracle", e8);
    ("E9", "BNDP: TC and same-generation vs FO", e9);
    ("E10", "Gaifman locality: the chain argument", e10);
    ("E11", "Hanf locality: two cycles vs one", e11);
    ("E12", "hierarchy Hanf ⊆ Gaifman ⊆ BNDP on the zoo", e12);
    ("E13", "Theorem 3.11: linear time on bounded degree", e13);
    ("E14", "Theorem 3.12: basic local sentences", e14);
    ("E15", "0-1 law: μn series", e15);
    ("E16", "almost-sure theory decided on verified witnesses", e16);
    ("E17", "PSPACE: QBF and the FO reduction", e17);
    ("E18", "Datalog: naive vs semi-naive", e18);
    ("E19", "beyond FO: MSO and existential SO", e19);
    ("E20", "fixpoint logic FO(IFP): TC, CONN, Immerman–Vardi", e20);
    ("E21", "trees: automata = MSO (Thatcher–Wright)", e21);
    ("E22", "counting quantifiers and aggregates", e22);
    ("E23", "compiled FO engine + parallel EF: speedup table", e23);
    ("E24", "symmetry-pruned EF search: orbit x parallel grid", e24);
    ("E25", "budget poll overhead: rigid-order EF search and compiled FO eval", e25);
    ("E26", "engine port timings + C^k vs k-WL agreement + CFI certificate", e26);
    ("E27", "serve: closed-loop load, faults on/off, shed/drain discipline", e27);
    ("E28", "million-element locality: streaming census + sharded 1-WL", e28);
    ("E29", "durability: journal overhead on the serve mix + recovery speed", e29);
    ("E30", "query planner: naive vs planned multi-joins + delta maintenance", e30);
    ("ablation", "design-choice ablations", ablation);
  ]

(* Per-case deadline: one pathological section must not stall the whole
   run. SIGALRM raises at the next allocation safe point; sequential
   sections (the slow ones) abort promptly, and the section is reported
   as skipped rather than hanging the harness. *)
exception Section_deadline

let with_deadline secs run =
  match secs with
  | None -> run ()
  | Some s ->
      let previous =
        Sys.signal Sys.sigalrm
          (Sys.Signal_handle (fun _ -> raise Section_deadline))
      in
      let finish () =
        ignore (Unix.alarm 0);
        Sys.set_signal Sys.sigalrm previous
      in
      ignore (Unix.alarm s);
      (try
         run ();
         finish ()
       with
      | Section_deadline ->
          finish ();
          pf "  [section skipped: exceeded %ds deadline]@." s
      | e ->
          finish ();
          raise e)

let () =
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | "--only" :: id :: rest ->
        let _, json, d = parse rest in
        (Some id, json, d)
    | "--json" :: path :: rest ->
        let only, _, d = parse rest in
        (only, Some path, d)
    | "--deadline" :: secs :: rest -> (
        let only, json, _ = parse rest in
        match int_of_string_opt secs with
        | Some s when s > 0 -> (only, json, Some s)
        | _ ->
            Printf.eprintf "--deadline expects a positive second count\n";
            exit 2)
    | "--workers" :: n :: rest -> (
        match int_of_string_opt n with
        | Some k when k > 0 ->
            workers_flag := Some k;
            parse rest
        | _ ->
            Printf.eprintf "--workers expects a positive domain count\n";
            exit 2)
    | "--max-n" :: n :: rest -> (
        match int_of_string_opt n with
        | Some k when k > 0 ->
            max_n_flag := k;
            parse rest
        | _ ->
            Printf.eprintf "--max-n expects a positive size\n";
            exit 2)
    | _ :: rest -> parse rest
    | [] -> (None, None, None)
  in
  let only, json, deadline = parse (List.tl args) in
  (match only with
  | Some o when not (List.exists (fun (id, _, _) -> id = o) sections) ->
      Printf.eprintf "unknown experiment %S (try --list)\n" o;
      exit 2
  | _ -> ());
  (* Fail on an unwritable --json target now, not after the benchmarks
     (append mode: probe writability without truncating existing data). *)
  (match json with
  | Some path -> (
      match open_out_gen [ Open_append; Open_creat ] 0o644 path with
      | oc -> close_out oc
      | exception Sys_error msg ->
          Printf.eprintf "cannot write --json target: %s\n" msg;
          exit 2)
  | None -> ());
  json_path := json;
  if List.mem "--list" args then
    List.iter (fun (id, doc, _) -> pf "%-9s %s@." id doc) sections
  else begin
    List.iter
      (fun (id, doc, run) ->
        match only with
        | Some o when o <> id -> ()
        | _ ->
            pf "@.======== %s: %s ========@." id doc;
            with_deadline deadline run)
      sections;
    pf "@.All requested experiment sections completed.@."
  end
