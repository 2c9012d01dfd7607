(* fmtk — command-line front end for the finite model theory toolbox.

   Structures are given either as files (see Structure_io) or as generator
   specs like "cycle:8", "order:5", "chain:6", "set:4", "complete:3",
   "tree:3", "grid:3x4", "random:20:0.3:7", "paley:13", "cfi:4",
   "cfi-twisted:4".

   Exit codes: 0 success, 1 usage/input error, 2 resource budget
   exhausted before an answer (gave up), 3 internal error. Set
   FMTK_DEBUG=1 to get a backtrace on internal errors. *)

module Signature = Fmtk_logic.Signature
module Formula = Fmtk_logic.Formula
module Parser = Fmtk_logic.Parser
module Structure = Fmtk_structure.Structure
module Structure_io = Fmtk_structure.Structure_io
module Tuple = Fmtk_structure.Tuple
module Gen = Fmtk_structure.Gen
module Graph = Fmtk_structure.Graph
module Compiled = Fmtk_eval.Compiled
module Compile = Fmtk_db.Compile
module Algebra = Fmtk_db.Algebra
module Planner = Fmtk_db.Planner
module Physical = Fmtk_db.Physical
module Ef = Fmtk_games.Ef
module Pebble = Fmtk_games.Pebble
module Counting_game = Fmtk_games.Counting_game
module Distinguish = Fmtk_games.Distinguish
module Neighborhood = Fmtk_locality.Neighborhood
module Hanf = Fmtk_locality.Hanf
module Estimator = Fmtk_zeroone.Estimator
module Almost_sure = Fmtk_zeroone.Almost_sure
module Paley = Fmtk_zeroone.Paley
module Fo_circuit = Fmtk_circuits.Fo_circuit
module Engine = Fmtk_datalog.Engine
module Programs = Fmtk_datalog.Programs
module Budget = Fmtk_runtime.Budget
module Decide = Fmtk.Decide
module Spec = Fmtk.Spec
module Server = Fmtk_server.Server

open Cmdliner

(* ---- uniform command execution and exit codes ---- *)

let debug_enabled () = Sys.getenv_opt "FMTK_DEBUG" = Some "1"

(* ---- signal discipline for one-shot commands ----

   SIGINT/SIGTERM cancel the active budget instead of killing the
   process mid-solve: the solvers observe the cancellation within one
   poll interval, join every spawned domain, and unwind with
   [Budget.Exhausted Cancelled]; [exec] then exits 130/143 (the shell
   convention for death-by-SIGINT/SIGTERM) instead of dumping a raw
   backtrace. Commands that hold no budget exit immediately from the
   handler (they spawn no domains), and a second signal always
   force-exits. The [serve] command replaces these handlers with its
   graceful-shutdown discipline. *)

let active_budget = ref Budget.unlimited

let signal_code = ref None

let install_signal_discipline () =
  let handle code =
    Sys.Signal_handle
      (fun _ ->
        match !signal_code with
        | Some c -> exit c (* second signal: stop waiting, exit now *)
        | None ->
            signal_code := Some code;
            let b = !active_budget in
            if Budget.is_unlimited b then exit code else Budget.cancel b)
  in
  (try Sys.set_signal Sys.sigint (handle 130) with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigterm (handle 143) with Invalid_argument _ -> ()

(* Every subcommand body runs through [exec]: errors become a uniform
   [Error (`Msg _)] (exit 1), budget exhaustion exits 2 — or 130/143
   when the exhaustion was a signal-driven cancellation — anything else
   is an internal error (exit 3, backtrace only under FMTK_DEBUG=1). *)
let exec body =
  match body () with
  | Ok () -> ( match !signal_code with Some c -> c | None -> 0)
  | Error (`Msg m) ->
      Format.eprintf "fmtk: %s@." m;
      1
  | exception Budget.Exhausted r -> (
      match !signal_code with
      | Some c ->
          Format.eprintf "fmtk: interrupted; cancelled the active solve@.";
          c
      | None ->
          Format.eprintf "fmtk: gave up: %s budget exhausted@."
            (Budget.reason_to_string r);
          2)
  | exception e ->
      Format.eprintf "fmtk: internal error: %s@." (Printexc.to_string e);
      if debug_enabled () then
        Format.eprintf "%s@." (Printexc.get_backtrace ());
      3

(* ---- structure argument ---- *)

let structure_conv =
  let parse spec =
    match Spec.parse spec with Ok s -> Ok s | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf s -> Format.fprintf ppf "<structure n=%d>" (Structure.size s))

let formula_conv =
  let parse s =
    match Parser.parse s with Ok f -> Ok f | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Formula.pp)

let structure_arg ~name ~doc idx =
  Arg.(required & pos idx (some structure_conv) None & info [] ~docv:name ~doc)

let formula_arg idx =
  Arg.(
    required
    & pos idx (some formula_conv) None
    & info [] ~docv:"FORMULA" ~doc:"First-order formula (fmtk syntax).")

(* ---- resource budget flags ---- *)

let budget_term =
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Give up after $(docv) seconds of wall-clock time (exit code 2).")
  in
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Give up after $(docv) solver steps (exit code 2).")
  in
  let mk deadline_in fuel =
    (* Small fuel counts must actually bind: the poll interval is a
       granted step window, so keep it well under the fuel pool. The
       budget always carries a cancellation token (~0.001% measured
       poll overhead, E25) so the signal handlers above can interrupt
       the solve cleanly. *)
    let poll_interval =
      match fuel with Some f -> max 1 (min 256 (f / 10)) | None -> 256
    in
    let b =
      Budget.create ?deadline_in ?fuel ~poll_interval
        ~cancel:(Budget.Cancel.create ()) ()
    in
    active_budget := b;
    b
  in
  Term.(const mk $ timeout $ fuel)

(* ---- input checks ----

   A formula or canonical query that does not fit its structure is an
   input error (exit 1), caught here before an evaluator raises on it. *)

let ( let* ) = Result.bind
let input_error fmt = Format.kasprintf (fun m -> Error (`Msg m)) fmt

let fits sg phi =
  if Formula.wf sg phi then Ok ()
  else input_error "formula does not fit the signature %a" Signature.pp sg

let sentence phi =
  if Formula.is_sentence phi then Ok ()
  else
    input_error "not a sentence (free: %s)"
      (String.concat ", " (Formula.free_vars phi))

(* A canonical query over the signature [need] reads all its relations. *)
let reads need s =
  let sg = Structure.signature s in
  match
    List.find_opt
      (fun r -> not (List.mem r (Signature.rels sg)))
      (Signature.rels need)
  with
  | None -> Ok ()
  | Some (r, k) ->
      input_error "the query reads %s/%d, not in the signature %a" r k
        Signature.pp sg

(* One tuple a line, flushed once at the end: a per-line [@.] flush
   costs one write(2) per answer. *)
let print_tuples tuples =
  Tuple.Set.iter (fun t -> Format.printf "%a@\n" Tuple.pp t) tuples;
  Format.printf "@?"

(* ---- eval ---- *)

let eval_cmd =
  let run s phi use_ra any explain budget =
    exec @@ fun () ->
    let* () = fits (Structure.signature s) phi in
    let fv = Formula.free_vars phi in
    if explain then begin
      (* print the three plan stages without evaluating *)
      let db = Algebra.Database.of_structure s in
      let e = Algebra.Project (fv, Compile.compile phi) in
      match Planner.explain db e with
      | Error m -> Error (`Msg m)
      | Ok ex ->
          Format.printf "logical:@.  %a@." Algebra.pp ex.Planner.logical;
          Format.printf "optimized:@.  %a@." Algebra.pp ex.Planner.optimized;
          Format.printf "physical:@.%a@." Physical.pp ex.Planner.physical;
          Ok ()
    end
    else if fv = [] then
      let v =
        if use_ra then
          if any then Compile.sat_any ~budget s phi
          else Compile.sat ~budget s phi
        else Ok (Compiled.sat ~budget s phi)
      in
      match v with
      | Error (`Msg _) as e -> e
      | Ok v ->
          Format.printf "%b@." v;
          Ok ()
    else
      let v =
        if use_ra then
          if any then Compile.answers_any ~budget s phi
          else Compile.answers ~budget s phi
        else Ok (Compiled.answers ~budget s phi)
      in
      match v with
      | Error (`Msg _) as e -> e
      | Ok (vars, answers) ->
          Format.printf "answers over (%s):@." (String.concat "," vars);
          print_tuples answers;
          Ok ()
  in
  let ra =
    Arg.(
      value & flag
      & info [ "ra" ]
          ~doc:
            "Evaluate through the relational-algebra planner (cost-based \
             logical/physical plans). Refuses non-safe-range queries unless \
             $(b,--any) is given.")
  in
  let any =
    Arg.(
      value & flag
      & info [ "any" ]
          ~doc:
            "With $(b,--ra): skip the safe-range gate and evaluate under \
             active-domain-padded semantics.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the logical, optimized and physical plans instead of \
             evaluating.")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate an FO formula on a structure")
    Term.(
      const run
      $ structure_arg ~name:"STRUCTURE" ~doc:"Structure (file or generator spec)." 0
      $ formula_arg 1 $ ra $ any $ explain $ budget_term)

(* ---- game ---- *)

let game_cmd =
  (* Pebbled variants bypass the Decide ladder: they answer a different
     question (FO^k / C^k agreement, not plain ≡rank), so the EF-specific
     certificate rungs would be unsound for them. *)
  let run_pebbled a b ~rounds ~pebbles ~counting budget =
    let verdict, (stats : Fmtk_games.Engine.stats) =
      if counting then
        Counting_game.solve_verdict ~budget ~pebbles ~rounds a b
      else Pebble.solve_verdict ~budget ~pebbles ~rounds a b
    in
    let game_name =
      if counting then
        Printf.sprintf "%d-pebble bijective counting (C^%d)" pebbles pebbles
      else Printf.sprintf "%d-pebble (FO^%d)" pebbles pebbles
    in
    (match verdict with
    | Pebble.Equivalent ->
        Format.printf "duplicator wins the %d-round %s game@." rounds
          game_name
    | Pebble.Distinguished ->
        Format.printf "duplicator loses the %d-round %s game@." rounds
          game_name
    | Pebble.Gave_up r -> raise (Budget.Exhausted r));
    Format.printf "(%d positions, %d memo hits, %d worker(s))@."
      stats.positions stats.memo_hits stats.workers;
    Ok ()
  in
  let run a b rounds pebbles counting distinguish budget =
    exec @@ fun () ->
    match pebbles with
    | Some k when k > 0 -> run_pebbled a b ~rounds ~pebbles:k ~counting budget
    | Some _ -> Error (`Msg "need at least one pebble")
    | None when counting ->
        Error (`Msg "--counting needs a pebble count (-k K)")
    | None ->
    let outcome = Decide.equiv ~budget ~extract:distinguish ~rank:rounds a b in
    (match outcome.Decide.verdict with
    | Decide.Equivalent ->
        Format.printf "duplicator wins the %d-round game@." rounds;
        (match outcome.Decide.answered_by with
        | Some m when m <> Decide.Exact_game ->
            Format.printf "(exact search gave up; certified by %s)@."
              (Decide.method_to_string m)
        | _ -> ())
    | Decide.Distinguished phi_opt -> (
        Format.printf "duplicator loses the %d-round game@." rounds;
        match phi_opt with
        | Some phi when distinguish ->
            Format.printf "distinguishing sentence (qr ≤ %d): %a@." rounds
              Formula.pp phi
        | _ -> ())
    | Decide.Distinguishable ->
        let m =
          match outcome.Decide.answered_by with
          | Some m -> Decide.method_to_string m
          | None -> "certificate"
        in
        Format.printf
          "exact search gave up; %s certifies the structures are \
           distinguishable (at some rank, possibly above %d)@."
          m rounds
    | Decide.Gave_up r -> raise (Budget.Exhausted r));
    Ok ()
  in
  let rounds =
    Arg.(
      required
      & opt (some int) None
      & info [ "n"; "rounds" ] ~docv:"N" ~doc:"Number of rounds.")
  in
  let pebbles =
    Arg.(
      value
      & opt (some int) None
      & info [ "k"; "pebbles" ] ~docv:"K"
          ~doc:
            "Play the $(docv)-pebble game (agreement on FO^$(docv) up to \
             quantifier rank $(b,--rounds)) instead of the plain EF game.")
  in
  let counting =
    Arg.(
      value & flag
      & info [ "counting" ]
          ~doc:
            "With $(b,-k): play the bijective counting game instead, \
             deciding agreement on the counting logic C^K.")
  in
  let distinguish =
    Arg.(
      value & flag
      & info [ "distinguish" ]
          ~doc:"When the spoiler wins, print a separating sentence.")
  in
  Cmd.v
    (Cmd.info "game" ~doc:"Play the Ehrenfeucht-Fraïssé game on two structures")
    Term.(
      const run
      $ structure_arg ~name:"LEFT" ~doc:"First structure." 0
      $ structure_arg ~name:"RIGHT" ~doc:"Second structure." 1
      $ rounds $ pebbles $ counting $ distinguish $ budget_term)

(* ---- locality ---- *)

let census_cmd =
  let run s radius =
    exec @@ fun () ->
    let reg = Neighborhood.create_registry () in
    let census = Neighborhood.census reg s ~radius in
    Format.printf "radius-%d neighborhood census (%d types):@." radius
      (List.length census);
    List.iter
      (fun (id, count) ->
        let rep = Neighborhood.representative reg id in
        Format.printf "  type %d: %d element(s), ball size %d@." id count
          (Structure.size rep))
      census;
    Ok ()
  in
  let radius =
    Arg.(
      required & opt (some int) None
      & info [ "r"; "radius" ] ~docv:"R" ~doc:"Neighborhood radius.")
  in
  Cmd.v
    (Cmd.info "census" ~doc:"Neighborhood-type census of a structure")
    Term.(
      const run
      $ structure_arg ~name:"STRUCTURE" ~doc:"Structure." 0
      $ radius)

let hanf_cmd =
  let run a b radius threshold =
    exec @@ fun () ->
    (match threshold with
    | None ->
        Format.printf "G ⇆%d G': %b@." radius (Hanf.equiv ~radius a b)
    | Some m ->
        Format.printf "G ⇆*%d,%d G': %b@." m radius
          (Hanf.threshold_equiv ~threshold:m ~radius a b));
    Ok ()
  in
  let radius =
    Arg.(
      required & opt (some int) None
      & info [ "r"; "radius" ] ~docv:"R" ~doc:"Neighborhood radius.")
  in
  let threshold =
    Arg.(
      value & opt (some int) None
      & info [ "m"; "threshold" ] ~docv:"M"
          ~doc:"Use the threshold variant ⇆*m,r.")
  in
  Cmd.v
    (Cmd.info "hanf" ~doc:"Test Hanf equivalence of two structures")
    Term.(
      const run
      $ structure_arg ~name:"LEFT" ~doc:"First structure." 0
      $ structure_arg ~name:"RIGHT" ~doc:"Second structure." 1
      $ radius $ threshold)

(* ---- zeroone ---- *)

let mu_cmd =
  let run phi n trials seed =
    exec @@ fun () ->
    let* () = sentence phi in
    let* () = fits Signature.graph phi in
    let rng = Random.State.make [| seed |] in
    let m = Estimator.mu_formula ~rng ~trials Signature.graph n phi in
    Format.printf "μ_%d ≈ %.4f  (%d trials)@." n m trials;
    Ok ()
  in
  let n =
    Arg.(required & opt (some int) None & info [ "n" ] ~docv:"N" ~doc:"Domain size.")
  in
  let trials =
    Arg.(value & opt int 200 & info [ "trials" ] ~docv:"T" ~doc:"Sample count.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "mu" ~doc:"Monte-Carlo estimate of μ_n for a graph sentence")
    Term.(const run $ formula_arg 0 $ n $ trials $ seed)

let decide_cmd =
  let run phi size seed =
    exec @@ fun () ->
    let* () = sentence phi in
    let* () = fits Signature.graph phi in
    let source =
      match size with
      | Some sz -> Almost_sure.Search (Random.State.make [| seed |], sz)
      | None -> Almost_sure.Paley
    in
    Format.printf "μ = %.0f@." (Almost_sure.mu ~source phi);
    Ok ()
  in
  let size =
    Arg.(
      value & opt (some int) None
      & info [ "search" ] ~docv:"N"
          ~doc:"Search random graphs of size N for a k-e.c. witness instead \
                of using a Paley graph.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "decide"
       ~doc:"Decide the almost-sure value μ ∈ {0,1} of a graph sentence")
    Term.(const run $ formula_arg 0 $ size $ seed)

(* ---- circuit ---- *)

let circuit_cmd =
  let run phi size =
    exec @@ fun () ->
    let* () = sentence phi in
    let* () = fits Signature.graph phi in
    let compiled = Fo_circuit.compile Signature.graph ~size phi in
    Format.printf "domain size %d: circuit size %d, depth %d, %d inputs@."
      size
      (Fo_circuit.circuit_size compiled)
      (Fo_circuit.circuit_depth compiled)
      (Fo_circuit.input_count compiled);
    Ok ()
  in
  let size =
    Arg.(required & opt (some int) None & info [ "n" ] ~docv:"N" ~doc:"Domain size.")
  in
  Cmd.v
    (Cmd.info "circuit" ~doc:"Compile a graph sentence to its AC0 circuit")
    Term.(const run $ formula_arg 0 $ size)

(* ---- datalog ---- *)

let datalog_cmd =
  let run s program strategy budget =
    exec @@ fun () ->
    let* prog, pred =
      match program with
      | "tc" -> Ok (Programs.transitive_closure, "tc")
      | "sg" -> Ok (Programs.same_generation, "sg")
      | "unreach" -> Ok (Programs.unreachable, "unreach")
      | other -> input_error "unknown program %S (tc|sg|unreach)" other
    in
    let* eval =
      match strategy with
      | "naive" -> Ok (Engine.naive ~budget prog)
      | "seminaive" -> Ok (Engine.seminaive ~budget prog)
      | other -> input_error "unknown strategy %S (naive|seminaive)" other
    in
    let result, stats = eval (Engine.Db.of_structure s) in
    let tuples = Engine.Db.find result pred in
    Format.printf "%s: %d tuples (%d iterations, %d join steps)@." pred
      (Tuple.Set.cardinal tuples)
      stats.Engine.iterations stats.Engine.join_work;
    print_tuples tuples;
    Ok ()
  in
  let program =
    Arg.(
      value & opt string "tc"
      & info [ "program" ] ~docv:"P" ~doc:"Program: tc, sg, or unreach.")
  in
  let strategy =
    Arg.(
      value & opt string "seminaive"
      & info [ "strategy" ] ~docv:"S" ~doc:"naive or seminaive.")
  in
  Cmd.v
    (Cmd.info "datalog" ~doc:"Run a canonical Datalog program on a structure")
    Term.(
      const run
      $ structure_arg ~name:"STRUCTURE" ~doc:"EDB structure." 0
      $ program $ strategy $ budget_term)

(* ---- reduce ---- *)

let reduce_cmd =
  let run trick n =
    exec @@ fun () ->
    let ord = Gen.linear_order n in
    match trick with
    | "conn" ->
        let g = Fmtk.Reductions.conn_construction ord in
        Format.printf "%a@." Structure.pp g;
        Format.printf "components: %d (order size %d is %s)@."
          (Graph.component_count g) n
          (if n mod 2 = 0 then "even" else "odd");
        Ok ()
    | "acycl" ->
        let g = Fmtk.Reductions.acycl_construction ord in
        Format.printf "%a@." Structure.pp g;
        Format.printf "acyclic: %b@." (Graph.acyclic g);
        Ok ()
    | other -> Error (`Msg (Printf.sprintf "unknown trick %S (conn|acycl)" other))
  in
  let trick =
    Arg.(value & opt string "conn" & info [ "trick" ] ~docv:"T" ~doc:"conn or acycl.")
  in
  let n =
    Arg.(required & opt (some int) None & info [ "n" ] ~docv:"N" ~doc:"Order size.")
  in
  Cmd.v
    (Cmd.info "reduce" ~doc:"Apply a §3.3 order-to-graph construction")
    Term.(const run $ trick $ n)

(* ---- qbf ---- *)

let qbf_cmd =
  let run n budget =
    exec @@ fun () ->
    let q = Fmtk_qbf.Qbf.pigeonhole_valid n in
    let direct = Fmtk_qbf.Qbf.solve ~budget q in
    let via_fo = Fmtk_qbf.Reduction.decide_via_fo ~budget q in
    Format.printf
      "pigeonhole(%d): %d quantifiers, QBF solver: %b, via FO model \
       checking: %b@."
      n
      (Fmtk_qbf.Qbf.quantifier_count q)
      direct via_fo;
    Ok ()
  in
  let n =
    Arg.(value & opt int 2 & info [ "n" ] ~docv:"N" ~doc:"Pigeonhole size.")
  in
  Cmd.v
    (Cmd.info "qbf"
       ~doc:"Solve a QBF directly and through the PSPACE-hardness reduction")
    Term.(const run $ n $ budget_term)

(* ---- mso / ifp ---- *)

let mso_cmd =
  let run s query budget =
    exec @@ fun () ->
    let* phi, need =
      match query with
      | "even" -> Ok (Fmtk_so.So_queries.even_on_orders, Signature.order)
      | "conn" -> Ok (Fmtk_so.So_queries.connectivity, Signature.graph)
      | "3col" -> Ok (Fmtk_so.So_queries.three_colorable, Signature.graph)
      | "ham" -> Ok (Fmtk_so.So_queries.hamiltonian_path, Signature.graph)
      | other -> input_error "unknown MSO query %S (even|conn|3col|ham)" other
    in
    let* () = reads need s in
    Format.printf "%b@." (Fmtk_so.So_eval.sat ~budget s phi);
    Ok ()
  in
  let query =
    Arg.(
      value & opt string "conn"
      & info [ "query" ] ~docv:"Q"
          ~doc:"even (over orders), conn, 3col, or ham (∃SO).")
  in
  Cmd.v
    (Cmd.info "mso" ~doc:"Evaluate a second-order query on a structure")
    Term.(
      const run
      $ structure_arg ~name:"STRUCTURE" ~doc:"Structure." 0
      $ query $ budget_term)

let ifp_cmd =
  let run s query budget =
    exec @@ fun () ->
    let module Fp = Fmtk_fixpoint.Fp_formula in
    let module Fp_eval = Fmtk_fixpoint.Fp_eval in
    let stats = Fp_eval.new_stats () in
    let* need, closed =
      match query with
      | "tc" -> Ok (Signature.graph, None)
      | "conn" -> Ok (Signature.graph, Some Fp.connectivity)
      | "even" -> Ok (Signature.order, Some Fp.even_on_orders)
      | other -> input_error "unknown IFP query %S (tc|conn|even)" other
    in
    let* () = reads need s in
    (match closed with
    | Some phi -> Format.printf "%b@." (Fp_eval.sat ~stats ~budget s phi)
    | None ->
        let tuples =
          Fp_eval.answers ~stats ~budget s Fp.transitive_closure
            ~vars:[ "u"; "v" ]
        in
        Format.printf "tc: %d pairs@." (Tuple.Set.cardinal tuples);
        print_tuples tuples);
    Format.printf "(%d fixpoint stages, %d tuples derived)@."
      stats.Fp_eval.stages stats.Fp_eval.tuples_derived;
    Ok ()
  in
  let query =
    Arg.(
      value & opt string "tc"
      & info [ "query" ] ~docv:"Q" ~doc:"tc, conn, or even (over orders).")
  in
  Cmd.v
    (Cmd.info "ifp" ~doc:"Evaluate a fixpoint-logic query on a structure")
    Term.(
      const run
      $ structure_arg ~name:"STRUCTURE" ~doc:"Structure." 0
      $ query $ budget_term)

(* ---- serve / query ---- *)

let addr_args =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Serve on a Unix-domain socket at $(docv).")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Serve on TCP port $(docv) (0 picks a free port).")
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Host to bind/connect with $(b,--port).")
  in
  (socket, port, host)

let resolve_addr socket port host =
  match (socket, port) with
  | Some path, None -> Ok (Server.Unix_path path)
  | None, Some p -> Ok (Server.Tcp (host, p))
  | Some _, Some _ -> Error (`Msg "--socket and --port are mutually exclusive")
  | None, None -> Error (`Msg "need --socket PATH or --port PORT")

let serve_cmd =
  let run socket port host workers max_inflight default_timeout max_timeout
      drain_timeout idle_timeout max_line preloads data_dir sync_pol
      snapshot_threshold inject quiet =
    exec @@ fun () ->
    match resolve_addr socket port host with
    | Error _ as e -> e
    | Ok addr -> (
        match Fmtk_server.Store.sync_policy_of_string sync_pol with
        | Error e -> Error (`Msg e)
        | Ok sync -> (
        let preload =
          List.map
            (fun kv ->
              match String.index_opt kv '=' with
              | Some i ->
                  Ok
                    ( String.sub kv 0 i,
                      String.sub kv (i + 1) (String.length kv - i - 1) )
              | None -> Error (`Msg (Printf.sprintf "--preload wants NAME=SPEC, got %S" kv)))
            preloads
        in
        match
          List.fold_left
            (fun acc p ->
              match (acc, p) with
              | (Error _ as e), _ -> e
              | _, (Error _ as e) -> e
              | Ok ps, Ok p -> Ok (p :: ps))
            (Ok []) preload
        with
        | Error _ as e -> e
        | Ok preload -> (
            let d = Server.default_config addr in
            let cfg =
              {
                d with
                Server.workers = Option.value workers ~default:d.Server.workers;
                max_inflight =
                  Option.value max_inflight ~default:d.Server.max_inflight;
                default_timeout =
                  Option.value default_timeout ~default:d.Server.default_timeout;
                max_timeout =
                  Option.value max_timeout ~default:d.Server.max_timeout;
                drain_timeout =
                  Option.value drain_timeout ~default:d.Server.drain_timeout;
                idle_timeout =
                  Option.value idle_timeout ~default:d.Server.idle_timeout;
                max_line = Option.value max_line ~default:d.Server.max_line;
                data_dir;
                sync;
                snapshot_threshold =
                  Option.value snapshot_threshold
                    ~default:d.Server.snapshot_threshold;
                inject_faults = inject;
                log =
                  (if quiet then None
                   else Some (fun m -> Format.eprintf "fmtk-serve: %s@."m));
              }
            in
            match Server.create ~preload:(List.rev preload) cfg with
            | Error e -> Error (`Msg e)
            | Ok srv ->
                (* First signal: graceful drain (run returns, exit 0).
                   Second signal: give up waiting, exit with the shell's
                   death-by-signal code. *)
                let stopping = ref false in
                let handler code =
                  Sys.Signal_handle
                    (fun _ ->
                      if !stopping then exit code
                      else begin
                        stopping := true;
                        Server.shutdown srv
                      end)
                in
                Sys.set_signal Sys.sigint (handler 130);
                Sys.set_signal Sys.sigterm (handler 143);
                Server.run srv;
                Ok ())))
  in
  let socket, port, host = addr_args in
  let workers =
    Arg.(
      value & opt (some int) None
      & info [ "workers" ] ~docv:"N" ~doc:"Worker-domain pool size.")
  in
  let max_inflight =
    Arg.(
      value & opt (some int) None
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Admission watermark: shed new work past $(docv) in-flight requests.")
  in
  let default_timeout =
    Arg.(
      value & opt (some float) None
      & info [ "default-timeout" ] ~docv:"SECS"
          ~doc:"Per-request deadline when the request names none.")
  in
  let max_timeout =
    Arg.(
      value & opt (some float) None
      & info [ "max-timeout" ] ~docv:"SECS"
          ~doc:"Reject requests asking for more than $(docv) seconds.")
  in
  let drain_timeout =
    Arg.(
      value & opt (some float) None
      & info [ "drain-timeout" ] ~docv:"SECS"
          ~doc:"Seconds to drain in-flight requests on shutdown before \
                cancelling stragglers.")
  in
  let idle_timeout =
    Arg.(
      value & opt (some float) None
      & info [ "idle-timeout" ] ~docv:"SECS"
          ~doc:"Close connections idle for $(docv) seconds (0 disables).")
  in
  let max_line =
    Arg.(
      value & opt (some int) None
      & info [ "max-line" ] ~docv:"BYTES" ~doc:"Reject request lines over $(docv) bytes.")
  in
  let preload =
    Arg.(
      value & opt_all string []
      & info [ "preload" ] ~docv:"NAME=SPEC"
          ~doc:"Preload a structure into the store (repeatable).")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Persist the structure store under $(docv) (write-ahead journal \
             + checksummed snapshots); on restart every acknowledged \
             load/drop is recovered before the socket binds. A corrupt \
             $(docv) refuses startup (exit 1).")
  in
  let sync_pol =
    Arg.(
      value & opt string "always"
      & info [ "sync" ] ~docv:"POLICY"
          ~doc:
            "Journal fsync policy with $(b,--data-dir): $(b,always) (fsync \
             before every ack), $(b,interval:N) (every N mutations), or \
             $(b,never) (leave it to OS writeback).")
  in
  let snapshot_threshold =
    Arg.(
      value
      & opt (some int) None
      & info [ "snapshot-threshold" ] ~docv:"BYTES"
          ~doc:
            "Compact the journal into a snapshot once it grows past \
             $(docv) bytes.")
  in
  let inject =
    Arg.(
      value & flag
      & info [ "inject-faults" ]
          ~doc:"Deterministically inject budget/worker faults into a \
                fraction of requests (the robustness test harness).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No lifecycle logging on stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-running query service (line-delimited JSON over a \
          socket)")
    Term.(
      const run $ socket $ port $ host $ workers $ max_inflight
      $ default_timeout $ max_timeout $ drain_timeout $ idle_timeout
      $ max_line $ preload $ data_dir $ sync_pol $ snapshot_threshold
      $ inject $ quiet)

let query_cmd =
  let run socket port host retry requests =
    exec @@ fun () ->
    match resolve_addr socket port host with
    | Error _ as e -> e
    | Ok addr -> (
        let sockaddr, domain =
          match addr with
          | Server.Unix_path p -> (Unix.ADDR_UNIX p, Unix.PF_UNIX)
          | Server.Tcp (h, p) ->
              let inet =
                try Unix.inet_addr_of_string h
                with _ -> (Unix.gethostbyname h).Unix.h_addr_list.(0)
              in
              (Unix.ADDR_INET (inet, p), Unix.PF_INET)
        in
        let deadline = Unix.gettimeofday () +. retry in
        let rec connect () =
          let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
          match Unix.connect fd sockaddr with
          | () -> Ok fd
          | exception Unix.Unix_error (e, _, _) ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              if Unix.gettimeofday () < deadline then begin
                Unix.sleepf 0.05;
                connect ()
              end
              else
                Error
                  (`Msg
                     (Printf.sprintf "cannot connect: %s"
                        (Unix.error_message e)))
        in
        match connect () with
        | Error _ as e -> e
        | Ok fd ->
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            (* [shed] responses carry the server's own backoff hint:
               honor it (with jitter, so a burst of shed clients does
               not reconverge on the same instant) for a bounded number
               of attempts before surfacing the shed to the caller. *)
            let retry_after resp =
              match Fmtk_server.Json.parse resp with
              | Error _ -> None
              | Ok json -> (
                  match
                    Option.bind
                      (Fmtk_server.Json.member "status" json)
                      Fmtk_server.Json.get_string
                  with
                  | Some "shed" ->
                      Some
                        (Option.value ~default:50
                           (Option.bind
                              (Fmtk_server.Json.member "retry_after_ms" json)
                              Fmtk_server.Json.get_int))
                  | _ -> None)
            in
            let rng = Random.State.make_self_init () in
            let send line =
              let rec attempt tries =
                output_string oc line;
                output_char oc '\n';
                flush oc;
                match input_line ic with
                | resp -> (
                    match retry_after resp with
                    | Some ms when tries < 5 ->
                        let ms = max 1 (min 2000 ms) in
                        let jittered =
                          (ms / 2) + Random.State.int rng ((ms / 2) + 1)
                        in
                        Unix.sleepf (float_of_int jittered /. 1000.);
                        attempt (tries + 1)
                    | _ ->
                        print_endline resp;
                        Ok ())
                | exception End_of_file ->
                    Error (`Msg "server closed the connection")
              in
              attempt 0
            in
            let rec send_all = function
              | [] -> Ok ()
              | line :: rest -> (
                  match send line with Ok () -> send_all rest | e -> e)
            in
            let result =
              match requests with
              | [] ->
                  (* No arguments: relay stdin, one request per line. *)
                  let rec pump () =
                    match input_line stdin with
                    | line -> (
                        match send line with Ok () -> pump () | e -> e)
                    | exception End_of_file -> Ok ()
                  in
                  pump ()
              | reqs -> send_all reqs
            in
            close_out_noerr oc;
            result)
  in
  let socket, port, host = addr_args in
  let retry =
    Arg.(
      value & opt float 5.0
      & info [ "retry" ] ~docv:"SECS"
          ~doc:
            "Keep retrying the connection for $(docv) seconds (covers \
             server startup races in scripts).")
  in
  let requests =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "JSON request lines, sent in order (default: read them from \
             stdin). Sent verbatim — malformed lines exercise the \
             server's error surface.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Send request lines to a running fmtk server and print responses")
    Term.(const run $ socket $ port $ host $ retry $ requests)

let main =
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 1 ~doc:"on usage or input errors.";
      Cmd.Exit.info 2
        ~doc:
          "when a resource budget ($(b,--timeout), $(b,--fuel)) was \
           exhausted before an answer.";
      Cmd.Exit.info 3 ~doc:"on internal errors (FMTK_DEBUG=1 for a backtrace).";
    ]
  in
  let info =
    Cmd.info "fmtk" ~version:"1.0.0" ~exits
      ~doc:"The finite model theory toolbox of a database theoretician"
  in
  Cmd.group info
    [
      eval_cmd;
      game_cmd;
      census_cmd;
      hanf_cmd;
      mu_cmd;
      decide_cmd;
      circuit_cmd;
      datalog_cmd;
      reduce_cmd;
      qbf_cmd;
      mso_cmd;
      ifp_cmd;
      serve_cmd;
      query_cmd;
    ]

let () =
  if debug_enabled () then Printexc.record_backtrace true;
  install_signal_discipline ();
  exit
    (match Cmd.eval_value main with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 1
    | Error `Exn -> 3)
