(* Tests for Fmtk_zeroone: Monte-Carlo μ_n, extension axioms / k-e.c.,
   Paley witnesses, and the almost-sure-theory decision procedure. *)

module Signature = Fmtk_logic.Signature
module Parser = Fmtk_logic.Parser
module Formula = Fmtk_logic.Formula
module Structure = Fmtk_structure.Structure
module Gen = Fmtk_structure.Gen
module Eval = Fmtk_eval.Eval
module Estimator = Fmtk_zeroone.Estimator
module Extension = Fmtk_zeroone.Extension
module Paley = Fmtk_zeroone.Paley
module Almost_sure = Fmtk_zeroone.Almost_sure

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let rng () = Random.State.make [| 2024 |]
let f = Parser.parse_exn

(* ---------- Estimator ---------- *)

let test_mu_complete_graph () =
  (* Q1 = forall x y. E(x,y): only complete-with-loops graphs — probability
     2^-(n^2) exactly; at n = 2 that's 1/16. *)
  let q1 = f "forall x y. E(x,y)" in
  let m = Estimator.mu_formula ~rng:(rng ()) ~trials:4000 Signature.graph 2 q1 in
  checkb "mu_2(Q1) ~ 1/16" true (m > 0.02 && m < 0.12);
  let m8 = Estimator.mu_formula ~rng:(rng ()) ~trials:300 Signature.graph 8 q1 in
  checkb "mu_8(Q1) ~ 0" true (m8 < 0.01)

let test_mu_q2_tends_to_one () =
  (* Q2 = forall x forall y exists z. E(z,x) & !E(z,y) — a.s. true
     (slide 63). For x = y it is falsifiable only... note E(z,x) & !E(z,x)
     is unsatisfiable, so Q2 as literally stated fails whenever x = y is
     forced; the paper's reading quantifies distinct x, y. *)
  let q2 = f "forall x y. x = y | (exists z. E(z,x) & !E(z,y))" in
  (* Convergence is slow: the failure probability is ~ n^2 (3/4)^n, still
     ~0.98 at n = 12 and only negligible near n = 40. *)
  let m12 = Estimator.mu_formula ~rng:(rng ()) ~trials:100 Signature.graph 12 q2 in
  let m40 = Estimator.mu_formula ~rng:(rng ()) ~trials:100 Signature.graph 40 q2 in
  checkb "mu grows" true (m40 >= m12);
  checkb "mu_40(Q2) near 1" true (m40 > 0.85)

let test_mu_even_alternates () =
  let even s = Structure.size s mod 2 = 0 in
  let series =
    Estimator.mu_series ~rng:(rng ()) ~trials:10 Signature.graph
      [ 2; 3; 4; 5 ] even
  in
  checkb "alternates 1,0,1,0" true
    (List.map snd series = [ 1.0; 0.0; 1.0; 0.0 ])

let test_mu_errors () =
  try
    ignore (Estimator.mu ~rng:(rng ()) ~trials:0 Signature.graph 3 (fun _ -> true));
    Alcotest.fail "expected invalid trials"
  with Invalid_argument _ -> ()

(* ---------- k-e.c. ---------- *)

let test_kec_small () =
  (* The 5-cycle (= Paley graph of order 5) is 1-e.c. but not 2-e.c. *)
  let c5 = Paley.graph 5 in
  checkb "C5 is 1-e.c." true (Extension.is_kec ~k:1 c5);
  checkb "C5 is not 2-e.c." false (Extension.is_kec ~k:2 c5);
  (* An empty graph is not even 1-e.c. (no adjacent witness). *)
  checkb "empty graph fails" false
    (Extension.is_kec ~k:1 (Structure.make Signature.graph ~size:4 []));
  (* A complete graph fails 1-e.c. (no non-adjacent witness). *)
  checkb "complete graph fails" false
    (Extension.is_kec ~k:1 (Fmtk_structure.Graph.symmetric_closure (Gen.complete 5)))

let test_kec_failure_witness () =
  let c5 = Paley.graph 5 in
  match Extension.kec_failure ~k:2 c5 with
  | None -> Alcotest.fail "expected a 2-e.c. failure on C5"
  | Some (xs, ys) ->
      checkb "witness size <= 2" true (List.length xs + List.length ys <= 2)

let test_kec_matches_axiom () =
  (* is_kec agrees with evaluating the FO extension axioms. *)
  let graphs =
    [
      Paley.graph 5;
      Paley.graph 13;
      Gen.random_undirected_graph ~rng:(rng ()) 12 0.5;
    ]
  in
  List.iter
    (fun g ->
      let by_verifier = Extension.is_kec ~k:2 g in
      let by_axioms =
        List.for_all
          (fun (xs, ys) -> Eval.sat g (Extension.extension_axiom ~xs ~ys))
          [ (0, 1); (1, 0); (2, 0); (1, 1); (0, 2) ]
      in
      checkb "verifier = axioms" by_verifier by_axioms)
    graphs

let test_sigma_extension () =
  (* Uniform random structures over {E/2} of moderate size satisfy the
     1-extension property (needs all 8 atom-types on z over a single
     element, incl. loops); tiny structures cannot. *)
  let sg = Signature.graph in
  let big = Gen.random_structure ~rng:(rng ()) sg 64 in
  let tiny = Gen.random_structure ~rng:(rng ()) sg 3 in
  checkb "random 64 has 1-extension" true (Extension.sigma_extension_holds ~k:1 big);
  checkb "random 3 lacks it" false (Extension.sigma_extension_holds ~k:1 tiny)

(* ---------- Paley ---------- *)

let test_paley_structure () =
  let g = Paley.graph 13 in
  checki "order" 13 (Structure.size g);
  (* (q-1)/2-regular and symmetric. *)
  let degs = Fmtk_structure.Graph.degree_set g in
  checkb "6-regular" true (degs = [ 6 ]);
  checkb "symmetric" true
    (Fmtk_structure.Tuple.Set.for_all
       (fun t -> Structure.mem g "E" [| t.(1); t.(0) |])
       (Structure.rel g "E"));
  try
    ignore (Paley.graph 7);
    Alcotest.fail "7 mod 4 = 3 must be rejected"
  with Invalid_argument _ -> ()

let test_paley_witness_kec () =
  (* The k = 2 witness must verify 2-e.c. *)
  let w = Paley.witness ~k:2 in
  checkb "2-e.c." true (Extension.is_kec ~k:2 w)

let test_is_prime () =
  checkb "13 prime" true (Paley.is_prime 13);
  checkb "1 not prime" false (Paley.is_prime 1);
  checkb "91 = 7*13" false (Paley.is_prime 91)

(* ---------- Almost-sure decisions ---------- *)

(* qr-3 sentences need a 3-e.c. witness; random graphs reach 3-e.c. only
   around n ~ 120 (the expected number of unwitnessed extensions drops
   below 1 there). The search is expensive, so the battery shares one
   verified witness; one end-to-end [decide] call covers the API path. *)
let search_source () = Almost_sure.Search (rng (), 130)

let witness3 =
  lazy
    (match
       Almost_sure.find_kec_witness ~rng:(rng ()) ~k:3 ~size:130 ~attempts:200
     with
    | Some g -> g
    | None -> Alcotest.fail "no 3-e.c. witness found at size 130")

let battery =
  [
    (* Any two vertices have a common in-neighbour: a.s. true. *)
    ("forall x y. exists z. E(z,x) & E(z,y)", true);
    ("exists x y. E(x,y)", true);
    (* The graph is complete: a.s. false. *)
    ("forall x y. x = y | E(x,y)", false);
    (* Isolated vertex exists: a.s. false. *)
    ("exists x. forall y. !E(x,y)", false);
    (* Triangle exists: a.s. true. *)
    ("exists x y z. E(x,y) & E(y,z) & E(x,z)", true);
  ]

let test_decide_battery () =
  let w = Lazy.force witness3 in
  List.iter
    (fun (sentence, expected) ->
      checkb sentence expected (Eval.sat w (f sentence)))
    battery;
  (* One end-to-end decide() call (its own witness search). *)
  checkb "decide() end to end" true
    (Almost_sure.decide ~source:(search_source ())
       (f "exists x y z. E(x,y) & E(y,z) & E(x,z)"))

let test_decide_small_paley () =
  (* qr <= 2 sentences decided on the deterministic Paley witness agree
     with the searched witness. *)
  List.iter
    (fun sentence ->
      let phi = f sentence in
      checkb sentence
        (Almost_sure.decide ~source:Almost_sure.Paley phi)
        (Almost_sure.decide ~source:(search_source ()) phi))
    [ "exists x y. E(x,y)"; "forall x. exists y. E(x,y)"; "exists x. E(x,x)" ]

let test_decide_matches_montecarlo () =
  (* The decided value matches the empirical trend at n = 32. *)
  let w = Lazy.force witness3 in
  List.iter
    (fun sentence ->
      let phi = f sentence in
      let decided = if Eval.sat w phi then 1.0 else 0.0 in
      (* Sample the same measure the decision procedure models: undirected
         loop-free G(n, 1/2). *)
      let est =
        Estimator.mu_with ~rng:(rng ()) ~trials:200
          ~sample:(fun rng -> Gen.random_undirected_graph ~rng 32 0.5)
          (fun s -> Eval.sat s phi)
      in
      checkb sentence true (Float.abs (decided -. est) < 0.35))
    (List.map fst battery)

let test_decide_rejects () =
  (try
     ignore (Almost_sure.decide (f "E(x,y)"));
     Alcotest.fail "free variables must be rejected"
   with Invalid_argument _ -> ());
  try
    ignore (Almost_sure.decide (f "exists x. P(x)"));
    Alcotest.fail "non-graph signature must be rejected"
  with Invalid_argument _ -> ()

let test_find_kec_witness () =
  match Almost_sure.find_kec_witness ~rng:(rng ()) ~k:2 ~size:30 ~attempts:50 with
  | None -> Alcotest.fail "should find a 2-e.c. graph at size 30"
  | Some g -> checkb "verified" true (Extension.is_kec ~k:2 g)

(* ---------- The 0-1 dichotomy as a property ---------- *)

let gen_sentence_qr2 =
  (* Random qr <= 2 graph sentences built from a template set. *)
  QCheck2.Gen.oneofl
    (List.map f
       [
         "exists x. E(x,x)";
         "forall x. exists y. E(x,y)";
         "exists x y. E(x,y) & E(y,x)";
         "forall x y. E(x,y) -> E(y,x)";
         "exists x. forall y. E(x,y) | x = y";
         "forall x. exists y. E(x,y) & x != y";
       ])

let prop_zero_one_dichotomy =
  QCheck2.Test.make ~count:12 ~name:"decided mu is 0 or 1 and stable across witnesses"
    gen_sentence_qr2 (fun phi ->
      let a = Almost_sure.decide ~source:(Almost_sure.Search (rng (), 35)) phi in
      let b =
        Almost_sure.decide
          ~source:(Almost_sure.Search (Random.State.make [| 99 |], 45))
          phi
      in
      a = b)

(* [Extension.kec_failure] against the definition read literally: sizes
   1..k, subsets in lexicographic order, masks in increasing order, the
   first mask no z outside S realizes. *)
let reference_kec_failure ~k g =
  let n = Structure.size g in
  let adjacent z u = Structure.mem g "E" [| z; u |] in
  let rec subsets size start =
    if size = 0 then [ [] ]
    else if start >= n then []
    else
      List.map (fun rest -> start :: rest) (subsets (size - 1) (start + 1))
      @ subsets size (start + 1)
  in
  let realized s mask =
    List.exists
      (fun z ->
        (not (List.mem z s))
        && List.for_all2
             (fun i u -> adjacent z u = ((mask lsr i) land 1 = 1))
             (List.init (List.length s) Fun.id) s)
      (List.init n Fun.id)
  in
  List.find_map
    (fun s ->
      List.find_map
        (fun mask ->
          if realized s mask then None
          else
            let side bit =
              List.filteri (fun i _ -> (mask lsr i) land 1 = bit) s
            in
            Some (side 1, side 0))
        (List.init (1 lsl List.length s) Fun.id))
    (List.concat_map (fun size -> subsets size 0) (List.init k succ))

let prop_kec_failure_reference =
  let gen =
    let open QCheck2.Gen in
    let* n = int_range 0 9 in
    let* p = float_range 0.2 0.8 in
    let* seed = int in
    let* k = int_range 0 3 in
    let rng = Random.State.make [| seed |] in
    (* Directed graphs too: the verifier reads E(z,u) as given. *)
    return (k, Gen.random_graph ~rng n p)
  in
  QCheck2.Test.make ~count:300 ~name:"kec_failure = definition, same witness"
    gen (fun (k, g) -> Extension.kec_failure ~k g = reference_kec_failure ~k g)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_zero_one_dichotomy; prop_kec_failure_reference ]

let () =
  Alcotest.run "fmtk_zeroone"
    [
      ( "estimator",
        [
          Alcotest.test_case "Q1 complete graph" `Quick test_mu_complete_graph;
          Alcotest.test_case "Q2 tends to one" `Quick test_mu_q2_tends_to_one;
          Alcotest.test_case "EVEN alternates" `Quick test_mu_even_alternates;
          Alcotest.test_case "errors" `Quick test_mu_errors;
        ] );
      ( "extension",
        [
          Alcotest.test_case "small graphs" `Quick test_kec_small;
          Alcotest.test_case "failure witness" `Quick test_kec_failure_witness;
          Alcotest.test_case "matches FO axioms" `Quick test_kec_matches_axiom;
          Alcotest.test_case "sigma extension" `Quick test_sigma_extension;
        ] );
      ( "paley",
        [
          Alcotest.test_case "structure" `Quick test_paley_structure;
          Alcotest.test_case "witness is k-e.c." `Quick test_paley_witness_kec;
          Alcotest.test_case "primality" `Quick test_is_prime;
        ] );
      ( "almost-sure",
        [
          Alcotest.test_case "battery" `Slow test_decide_battery;
          Alcotest.test_case "Paley vs searched" `Slow test_decide_small_paley;
          Alcotest.test_case "matches Monte-Carlo" `Slow test_decide_matches_montecarlo;
          Alcotest.test_case "input validation" `Quick test_decide_rejects;
          Alcotest.test_case "witness search" `Quick test_find_kec_witness;
        ] );
      ("properties", qcheck_cases);
    ]
