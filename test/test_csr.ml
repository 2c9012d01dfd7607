(* Differential suite for the CSR storage backend: every observable —
   evaluation, colour refinement, neighborhood censuses, Hanf
   equivalence, bounded-degree verdicts — must be identical whether a
   binary relation is stored as a tuple set or as CSR rows, for every
   worker count, and under budget fault injection. *)

module Signature = Fmtk_logic.Signature
module Formula = Fmtk_logic.Formula
module Parser = Fmtk_logic.Parser
module Structure = Fmtk_structure.Structure
module Csr = Fmtk_structure.Csr
module Gen = Fmtk_structure.Gen
module Wl = Fmtk_structure.Wl
module Io = Fmtk_structure.Structure_io
module Eval = Fmtk_eval.Eval
module Compiled = Fmtk_eval.Compiled
module Tuple = Fmtk_structure.Tuple
module Neighborhood = Fmtk_locality.Neighborhood
module Hanf = Fmtk_locality.Hanf
module Bounded_degree = Fmtk_locality.Bounded_degree
module Budget = Fmtk_runtime.Budget
module Spec = Fmtk.Spec

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let f s = Result.get_ok (Parser.parse s)

(* ---------- Csr unit behaviour ---------- *)

let test_csr_normalized () =
  (* Rows come out sorted and deduplicated whatever the input order. *)
  let c = Csr.of_edges ~n:4 ([| 2; 0; 0; 2; 0 |], [| 1; 3; 2; 1; 3 |]) in
  checki "dedup" 3 (Csr.edge_count c);
  checkb "row sorted" true
    (let acc = ref [] in
     Csr.iter_row c 0 (fun w -> acc := w :: !acc);
     List.rev !acc = [ 2; 3 ]);
  checkb "mem yes" true (Csr.mem c 2 1);
  checkb "mem no" false (Csr.mem c 1 2);
  checkb "mem out of range" false (Csr.mem c 9 1);
  checkb "equal after shuffle" true
    (Csr.equal c (Csr.of_edges ~n:4 ([| 0; 0; 2 |], [| 3; 2; 1 |])))

let test_csr_append_relabel () =
  let a = Csr.of_edges ~n:2 ([| 0 |], [| 1 |]) in
  let b = Csr.of_edges ~n:3 ([| 2 |], [| 0 |]) in
  let u = Csr.append a b in
  checki "union nodes" 5 (Csr.nodes u);
  checkb "left kept" true (Csr.mem u 0 1);
  checkb "right shifted" true (Csr.mem u 4 2);
  let r = Csr.relabel a [| 1; 0 |] in
  checkb "relabel" true (Csr.mem r 1 0 && not (Csr.mem r 0 1))

let test_csr_degrees () =
  let c = Csr.of_edges ~n:3 ([| 0; 0; 1 |], [| 1; 2; 2 |]) in
  checki "degree" 2 (Csr.degree c 0);
  checki "max degree" 2 (Csr.max_degree c);
  checkb "in degrees" true (Csr.in_degrees c = [| 0; 1; 2 |])

(* ---------- Structure auto-selection ---------- *)

let test_backend_selection () =
  let small = Gen.cycle 10 in
  Alcotest.(check string) "small stays set" "set" (Structure.backend_summary small);
  let big = Gen.cycle Structure.csr_auto_threshold in
  Alcotest.(check string) "big auto-csr" "csr" (Structure.backend_summary big);
  let forced = Structure.to_csr small in
  Alcotest.(check string) "forced csr" "csr" (Structure.backend_summary forced);
  Alcotest.(check string) "back to sets" "set"
    (Structure.backend_summary (Structure.to_sets forced));
  checkb "of_graph is csr" true
    (Structure.rel_backend (Gen.torus 3 3) "E" = `Csr)

(* ---------- Adjacency rows (guarded-scan access paths) ---------- *)

let test_rows_cache () =
  let edges = [ (0, 1); (0, 2); (2, 0); (3, 3) ] in
  let g =
    Structure.make Signature.graph ~size:4
      [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]
  in
  let src = Array.of_list (List.map fst edges)
  and dst = Array.of_list (List.map snd edges) in
  let expect_out = Csr.of_edges ~n:4 (src, dst)
  and expect_in = Csr.of_edges ~n:4 (dst, src) in
  checkb "transpose" true (Csr.equal (Csr.transpose expect_out) expect_in);
  checkb "out rows (set-backed)" true
    (Csr.equal (Structure.out_rows g "E") expect_out);
  checkb "in rows (set-backed)" true
    (Csr.equal (Structure.in_rows g "E") expect_in);
  checkb "cached" true (Structure.in_rows g "E" == Structure.in_rows g "E");
  (* A CSR-backed relation is its own out-rows. *)
  let c = Structure.to_csr g in
  checkb "csr reused" true
    (match Structure.csr_of_rel c "E" with
    | Some rows -> rows == Structure.out_rows c "E"
    | None -> false);
  checkb "in rows (csr-backed)" true
    (Csr.equal (Structure.in_rows c "E") expect_in);
  (* A derived structure rebuilds its rows. *)
  let d = Structure.with_rel g "E" 2 (Tuple.Set.singleton [| 1; 3 |]) in
  checkb "derived rows" true
    (Csr.equal (Structure.in_rows d "E") (Csr.of_edges ~n:4 ([| 3 |], [| 1 |])));
  checkb "parent unchanged" true (Csr.equal (Structure.in_rows g "E") expect_in);
  (try
     ignore (Structure.out_rows (Gen.set 3) "E");
     Alcotest.fail "undeclared relation must raise"
   with Not_found -> ());
  let ternary =
    Structure.make (Signature.make [ ("R", 3) ]) ~size:2 [ ("R", [ [| 0; 1; 1 |] ]) ]
  in
  try
    ignore (Structure.in_rows ternary "R");
    Alcotest.fail "non-binary relation must raise"
  with Invalid_argument _ -> ()

let test_rows_two_domains () =
  (* Both domains fill the same empty caches at once; every answer is
     the right rows, and the cache settles on one copy. *)
  for _ = 1 to 20 do
    let g = Gen.random_graph ~rng:(Random.State.make [| 7 |]) 60 0.1 in
    let fill () = (Structure.out_rows g "E", Structure.in_rows g "E") in
    let d = Domain.spawn fill in
    let out1, in1 = fill () in
    let out2, in2 = Domain.join d in
    let out, inn = fill () in
    checkb "out agree" true (Csr.equal out1 out2 && (out == out1 || out == out2));
    checkb "in agree" true
      (Csr.equal in1 in2 && Csr.equal inn (Csr.transpose out)
      && (inn == in1 || inn == in2))
  done

(* ---------- Differential properties ----------

   Both backends of the same structure must agree observably. The
   qcheck generator draws small random digraphs; [both] returns the
   set-backed and CSR-backed views. *)

let gen_graph : Structure.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 14 in
  let* edges = list_size (int_range 0 30) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
  return
    (Structure.make Signature.graph ~size:n
       [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ])

let both g = (Structure.to_sets g, Structure.to_csr g)

let sentences =
  [
    f "forall x. exists y. E(x,y) | E(y,x)";
    f "exists x. exists y. E(x,y) & E(y,x)";
    f "forall x. ~E(x,x)";
  ]

let prop_eval_agrees =
  QCheck2.Test.make ~count:100 ~name:"eval: csr = set" gen_graph (fun g ->
      let s, c = both g in
      List.for_all (fun phi -> Eval.sat s phi = Eval.sat c phi) sentences)

(* The compiled engine probes CSR rows through [Index.of_csr] and
   tuple sets through bitset/hash indexes: answers must coincide, with
   the naive evaluator as the oracle. *)
let queries =
  sentences
  @ [
      f "E(x,y) & exists z. E(y,z) & ~E(z,x)";
      f "forall y. E(x,y) -> E(y,x)";
      f "exists y. E(x,y) & E(y,x) & x != y";
    ]

let prop_compiled_agrees =
  QCheck2.Test.make ~count:100 ~name:"compiled eval: csr = set = naive"
    gen_graph (fun g ->
      let s, c = both g in
      List.for_all
        (fun phi ->
          let vars, naive = Eval.answers s phi in
          List.for_all
            (fun x ->
              let vars', ans = Compiled.answers x phi in
              vars' = vars && Tuple.Set.equal ans naive)
            [ s; c ])
        queries)

(* Guard-biased formulas on graphs big enough that [Structure.make]
   stores E as CSR rows by itself: guarded scans then walk the
   relation's own rows (out) and their transpose (in). The naive oracle
   costs n^(rank + free variables), so formulas stay within 2: enough
   for a variable, constant or answer-variable guard. *)
let prop_guarded_auto_csr =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 70 80 in
      let* g = Guard_gen.graph ~n ~m:(Structure.csr_auto_threshold * 3) in
      let* phi = Guard_gen.formula_of ~size:2 in
      return (g, phi))
  in
  QCheck2.Test.make ~count:40 ~print:Guard_gen.print
    ~name:"guarded scans above csr_auto_threshold: compiled = naive" gen
    (fun (g, phi) ->
      QCheck2.assume
        (Formula.quantifier_rank phi + List.length (Formula.free_vars phi) <= 2);
      Structure.rel_backend g "E" = `Csr && Guard_gen.agree g phi)

let prop_structure_equal =
  QCheck2.Test.make ~count:100 ~name:"equal/mem/rel_count: csr = set" gen_graph
    (fun g ->
      let s, c = both g in
      Structure.equal s c
      && Structure.rel_count s "E" = Structure.rel_count c "E"
      && List.for_all
           (fun u ->
             List.for_all
               (fun v -> Structure.mem s "E" [| u; v |] = Structure.mem c "E" [| u; v |])
               (Structure.domain s))
           (Structure.domain s))

let prop_wl_agrees =
  QCheck2.Test.make ~count:100 ~name:"wl refine: csr = set, workers 1/2/4"
    gen_graph (fun g ->
      let s, c = both g in
      let base = Wl.refine s in
      List.for_all
        (fun workers -> Wl.refine ~workers c = base && Wl.refine ~workers s = base)
        [ 1; 2; 4 ])

let prop_census_agrees =
  QCheck2.Test.make ~count:100
    ~name:"neighborhood census: csr = set = generic, workers 1/2/4" gen_graph
    (fun g ->
      let s, c = both g in
      List.for_all
        (fun radius ->
          (* Fresh registries: ids must coincide because discovery order
             does — that is the determinism claim, stronger than census
             equality up to renaming. *)
          let census b x =
            let reg = Neighborhood.create_registry () in
            Neighborhood.census ~workers:b reg x ~radius
          in
          let base = census 1 s in
          List.for_all (fun w -> census w c = base && census w s = base) [ 1; 2; 4 ])
        [ 0; 1; 2 ])

let prop_element_types_agree =
  QCheck2.Test.make ~count:100 ~name:"element types: csr = set, shared registry"
    gen_graph (fun g ->
      let s, c = both g in
      (* One registry across both views: the streaming fast path (csr)
         and its serialization cache must resolve to the ids the generic
         path established, and vice versa. *)
      let reg = Neighborhood.create_registry () in
      Neighborhood.element_types reg s ~radius:1
      = Neighborhood.element_types reg c ~radius:1)

let prop_hanf_agrees =
  QCheck2.Test.make ~count:60 ~name:"hanf equiv: csr = set, workers 1/2/4"
    QCheck2.Gen.(pair gen_graph gen_graph) (fun (g, h) ->
      let gs, gc = both g and hs, hc = both h in
      Structure.size g <> Structure.size h
      ||
      let base = Hanf.equiv ~radius:1 gs hs in
      List.for_all
        (fun workers -> Hanf.equiv ~workers ~radius:1 gc hc = base)
        [ 1; 2; 4 ])

let prop_bounded_degree_agrees =
  QCheck2.Test.make ~count:40 ~name:"bounded degree eval: csr = set" gen_graph
    (fun g ->
      let s, c = both g in
      let phi = f "forall x. exists y. E(x,y) | E(y,x)" in
      let ev () = Bounded_degree.make phi ~degree_bound:30 ~radius:1 ~threshold:2 in
      Bounded_degree.eval (ev ()) s = Bounded_degree.eval (ev ()) c)

(* ---------- Fault injection through the locality pipeline ---------- *)

let test_census_budget_faults () =
  let g = Structure.to_csr (Gen.cycle 64) in
  let reg () = Neighborhood.create_registry () in
  (* Exhaust_at: the census raises instead of answering, sequential and
     sharded alike. *)
  List.iter
    (fun workers ->
      let budget = Budget.create ~inject:(Budget.Exhaust_at 10) () in
      match Neighborhood.census ~workers ~budget (reg ()) g ~radius:1 with
      | _ -> Alcotest.failf "Exhaust_at survived (workers %d)" workers
      | exception Budget.Exhausted Budget.Fuel -> ())
    [ 1; 2; 4 ];
  (* Cancel_at behaves the same way. *)
  (let budget = Budget.create ~inject:(Budget.Cancel_at 10) () in
   match Neighborhood.census ~workers:2 ~budget (reg ()) g ~radius:1 with
   | _ -> Alcotest.fail "Cancel_at survived"
   | exception Budget.Exhausted Budget.Cancelled -> ());
  (* Raise_in_worker: the real fault wins over any concurrent
     Exhausted, and join discipline means no worker is leaked — the
     next call on the same pool must still answer. *)
  (* poll_interval 1: Raise_in_worker fires on the slow-path poll, and
     each worker only polls a handful of times on a 64-element census. *)
  (let budget = Budget.create ~poll_interval:1 ~inject:Budget.Raise_in_worker () in
   match Neighborhood.census ~workers:4 ~budget (reg ()) g ~radius:1 with
   | _ -> Alcotest.fail "Raise_in_worker survived"
   | exception Budget.Injected_fault -> ());
  let clean = Neighborhood.census ~workers:4 (reg ()) g ~radius:1 in
  checki "pool usable after fault" 1 (List.length clean);
  (* Wl.refine under the same discipline. *)
  (let budget = Budget.create ~inject:(Budget.Exhaust_at 5) () in
   match Wl.refine ~workers:2 ~budget g with
   | _ -> Alcotest.fail "refine: Exhaust_at survived"
   | exception Budget.Exhausted Budget.Fuel -> ());
  checkb "refine usable after fault" true (Array.length (Wl.refine ~workers:2 g) = 64)

(* ---------- Large-scale generators ---------- *)

let test_generators_regular () =
  let degrees g =
    let c = Option.get (Structure.csr_of_rel g "E") in
    List.init (Structure.size g) (Csr.degree c)
  in
  let t = Gen.torus 5 4 in
  checkb "torus 4-regular" true (List.for_all (( = ) 4) (degrees t));
  checki "torus vertex-transitive" 1
    (List.length (Neighborhood.census (Neighborhood.create_registry ()) t ~radius:1));
  let ch = Gen.chorded_cycle 12 ~stride:3 in
  checkb "chorded 4-regular" true (List.for_all (( = ) 4) (degrees ch));
  let rng = Random.State.make [| 7 |] in
  let r = Gen.random_regular ~rng 40 3 in
  checkb "random-regular exact" true (List.for_all (( = ) 3) (degrees r));
  checkb "no self loops" true
    (let ok = ref true in
     Structure.iter_rel2 r "E" (fun u v -> if u = v then ok := false);
     !ok);
  checkb "symmetric" true
    (let c = Option.get (Structure.csr_of_rel r "E") in
     let ok = ref true in
     Csr.iter_edges c (fun u v -> if not (Csr.mem c v u) then ok := false);
     !ok);
  (* Determinism: the same seed reproduces the same graph. *)
  let r2 = Gen.random_regular ~rng:(Random.State.make [| 7 |]) 40 3 in
  checkb "seeded determinism" true (Structure.equal r r2)

(* ---------- Streaming edge-list format ---------- *)

let test_graph_format () =
  let s = Result.get_ok (Io.parse "# c5\ngraph 5\n0 1\n1 2\n2 3\n3 4\n4 0\n") in
  checki "undirected doubles" 10 (Structure.rel_count s "E");
  checkb "roundtrip" true
    (Structure.equal s (Result.get_ok (Io.parse (Io.to_graph_string s))));
  let d = Result.get_ok (Io.parse "graph 3 directed\n0 1\n1 2\n") in
  checki "directed keeps" 2 (Structure.rel_count d "E");
  checkb "directed equal gen" true (Structure.equal d (Gen.path 3));
  (* Total-parser error discipline: malformed lines answer Error with a
     line number, never an exception. *)
  List.iter
    (fun (text, frag) ->
      match Io.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error e ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
            go 0
          in
          checkb (Printf.sprintf "%S reports %s" text frag) true (contains e frag))
    [
      ("graph 3\n0 5\n", "line 2");
      ("graph 3\n0\n", "line 2");
      ("graph 3\n0 1 2\n", "trailing");
      ("graph 3\n0 99999999999999999999\n", "too large");
      ("graph -1\n", "bad graph header");
      ("graph 3 sideways\n", "bad graph header");
    ];
  (* [load] streams without reading the whole file. *)
  let tmp = Filename.temp_file "fmtk_graph" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc "graph 4\n0 1\n1 2\n2 3\n";
      close_out oc;
      match Io.load tmp with
      | Ok g -> checki "loaded edges" 6 (Structure.rel_count g "E")
      | Error e -> Alcotest.fail e)

let test_spec_families () =
  let size spec =
    match Spec.parse spec with
    | Ok s -> Structure.size s
    | Error e -> Alcotest.fail e
  in
  checki "torus spec" 12 (size "torus:4x3");
  checki "chorded spec" 10 (size "chorded:10:3");
  checki "regular spec" 20 (size "regular:20:4:7");
  List.iter
    (fun bad ->
      match Spec.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "torus:4"; "chorded:10:0"; "regular:20:21:7"; "regular:5:3:1" ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_eval_agrees;
      prop_structure_equal;
      prop_wl_agrees;
      prop_census_agrees;
      prop_element_types_agree;
      prop_hanf_agrees;
      prop_bounded_degree_agrees;
      prop_compiled_agrees;
      prop_guarded_auto_csr;
    ]

let () =
  Alcotest.run "fmtk_csr"
    [
      ( "csr",
        [
          Alcotest.test_case "normalized rows" `Quick test_csr_normalized;
          Alcotest.test_case "append and relabel" `Quick test_csr_append_relabel;
          Alcotest.test_case "degrees" `Quick test_csr_degrees;
          Alcotest.test_case "rows cache" `Quick test_rows_cache;
          Alcotest.test_case "rows from two domains" `Quick test_rows_two_domains;
        ] );
      ( "backend",
        [
          Alcotest.test_case "auto selection" `Quick test_backend_selection;
          Alcotest.test_case "budget faults" `Quick test_census_budget_faults;
        ] );
      ( "generators",
        [ Alcotest.test_case "regular families" `Quick test_generators_regular ] );
      ( "io",
        [
          Alcotest.test_case "graph format" `Quick test_graph_format;
          Alcotest.test_case "spec families" `Quick test_spec_families;
        ] );
      ("differential", qcheck_cases);
    ]
