(* Traced in-process replay for the perfbench benchmark.

   Usage: fmtk_trace OPS.jsonl OUT.txt

   OPS.jsonl holds one JSON object per line:
     {"kind":"serve","preload":[[NAME,SPEC],...],"data_dir":DIR|null,
      "sync":POLICY,"snapshot_threshold":BYTES}
     {"kind":"req","op":I,"line":REQUEST}     a serve request line
     {"kind":"cli","op":I,"argv":[...]}       a one-shot fmtk command

   Serve requests run through the same library calls, in the same order,
   as [Fmtk_server.Server] runs them; CLI commands through the calls
   bin/fmtk_cli.ml makes. Each call into a library module is wrapped in a
   span. OUT.txt gets, once the replay has ended:
     S id parent op name start_us end_us   one span
     C op name value                       one counter
     R op text                             the op's response or summary *)

module Json = Fmtk_server.Json
module Protocol = Fmtk_server.Protocol
module Store = Fmtk_server.Store
module Qcache = Fmtk_server.Qcache
module Pcache = Fmtk_server.Pcache
module Budget = Fmtk_runtime.Budget
module Structure = Fmtk_structure.Structure
module Structure_io = Fmtk_structure.Structure_io
module Tuple = Fmtk_structure.Tuple
module Gen = Fmtk_structure.Gen
module Formula = Fmtk_logic.Formula
module Parser = Fmtk_logic.Parser
module Compiled = Fmtk_eval.Compiled
module Eval = Fmtk_eval.Eval
module Algebra = Fmtk_db.Algebra
module Compile = Fmtk_db.Compile
module Planner = Fmtk_db.Planner
module Physical = Fmtk_db.Physical
module Relation = Fmtk_db.Relation
module Ef = Fmtk_games.Ef
module Decide = Fmtk.Decide
module Spec = Fmtk.Spec
module Engine = Fmtk_datalog.Engine
module Programs = Fmtk_datalog.Programs
module Fp_eval = Fmtk_fixpoint.Fp_eval
module Fp_formula = Fmtk_fixpoint.Fp_formula
module Hanf = Fmtk_locality.Hanf
module Extension = Fmtk_zeroone.Extension

(* ---- spans and counters ---- *)

type span = {
  id : int;
  parent : int;
  op : int;
  name : string;
  t0 : float;
  t1 : float;
}

let origin = Unix.gettimeofday ()
let spans : span list ref = ref []
let counters : (int * string * float) list ref = ref []
let results : (int * string) list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let cur_op = ref (-1)

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let op = !cur_op in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    stack := List.tl !stack;
    spans := { id; parent; op; name; t0; t1 } :: !spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let count name v = counters := (!cur_op, name, v) :: !counters
let counti name v = count name (float_of_int v)
let result text = results := (!cur_op, text) :: !results

let write_out path =
  let oc = open_out path in
  let us t = (t -. origin) *. 1e6 in
  List.iter
    (fun s ->
      Printf.fprintf oc "S %d %d %d %s %.3f %.3f\n" s.id s.parent s.op s.name
        (us s.t0) (us s.t1))
    (List.rev !spans);
  List.iter
    (fun (op, name, v) -> Printf.fprintf oc "C %d %s %.17g\n" op name v)
    (List.rev !counters);
  List.iter
    (fun (op, text) -> Printf.fprintf oc "R %d %s\n" op text)
    (List.rev !results);
  close_out oc

(* ---- the serve path (mirrors Server.run_request) ---- *)

(* The server's game configuration: sequential, memoised, no orbit
   pruning. *)
let seq_config =
  { Ef.memo = true; parallel = false; workers = None; orbit = false }

type serve = {
  store : Store.t;
  cache : Qcache.t;
  pcache : Pcache.t;
  root : Budget.t;
  seen_texts : (string, unit) Hashtbl.t;
      (* parse-tier keys seen since the tier last filled, so a
         [Qcache.formula] call can be labelled as a parse *)
}

let cache_capacity = 512

exception Reject of string * string

let tuple_json tup = Json.List (List.map Json.of_int (Array.to_list tup))

let answer_fields vars tuples =
  if vars = [] then [ ("value", Json.Bool (not (Tuple.Set.is_empty tuples))) ]
  else
    let total = Tuple.Set.cardinal tuples in
    let sample = Tuple.Set.to_seq tuples |> Seq.take 50 |> List.of_seq in
    [
      ("vars", Json.List (List.map (fun v -> Json.Str v) vars));
      ("count", Json.of_int total);
      ("tuples", Json.List (List.map tuple_json sample));
      ("truncated", Json.Bool (total > List.length sample));
    ]

let durability t =
  match Store.durability_stats t.store with
  | Some d -> (d.Store.journal_bytes, d.Store.compactions)
  | None -> (0, 0)

(* Journal bytes one mutation of [kind] ("update" or "churn") appended
   next to its request's size, or that a compaction ran instead. *)
let journaled t ~kind payload f =
  let b0, c0 = durability t in
  let v = f () in
  let b1, c1 = durability t in
  if Store.durability_stats t.store <> None then begin
    if c1 > c0 then counti "snapshot.compactions" (c1 - c0)
    else begin
      counti ("journal." ^ kind ^ ".bytes") (b1 - b0);
      counti ("journal." ^ kind ^ ".payload_bytes") payload
    end
  end;
  v

let execute t line req =
  let get name =
    match span "store.get" (fun () -> Store.get t.store name) with
    | Some s -> s
    | None -> raise (Reject ("unknown-structure", name))
  in
  let budget = Budget.sub t.root ~deadline_in:60. ~poll_interval:256 in
  match req with
  | Protocol.Load { name; spec; text } -> (
      let parsed =
        span "structure.build" (fun () ->
            match (spec, text) with
            | Some sp, _ -> Spec.parse sp
            | None, Some tx -> Structure_io.parse tx
            | None, None -> Error "load needs a spec or text")
      in
      match parsed with
      | Error e -> raise (Reject ("parse-error", e))
      | Ok s -> (
          match
            journaled t ~kind:"churn" (String.length line) (fun () ->
                span "store.put" (fun () -> Store.put t.store ~name s))
          with
          | Error e -> raise (Reject ("store", Store.put_error_to_string e))
          | Ok () ->
              span "qcache.invalidate" (fun () ->
                  Qcache.invalidate t.cache ~sname:name);
              span "pcache.invalidate" (fun () ->
                  Pcache.invalidate t.pcache ~sname:name);
              [
                ("name", Json.Str name);
                ("size", Json.of_int (Structure.size s));
                ("tuples", Json.of_int (Structure.tuple_count s));
              ]))
  | Protocol.Drop { name } -> (
      match
        journaled t ~kind:"churn" (String.length line) (fun () ->
            span "store.remove" (fun () -> Store.remove t.store name))
      with
      | Ok true ->
          span "qcache.invalidate" (fun () ->
              Qcache.invalidate t.cache ~sname:name);
          span "pcache.invalidate" (fun () ->
              Pcache.invalidate t.pcache ~sname:name);
          [ ("name", Json.Str name); ("dropped", Json.Bool true) ]
      | Ok false -> raise (Reject ("unknown-structure", name))
      | Error e -> raise (Reject ("io-error", e)))
  | Protocol.Eval { structure; formula; ra } -> (
      let s = get structure in
      let sg = Structure.signature s in
      let key = Format.asprintf "%a" Fmtk_logic.Signature.pp sg ^ "\x00" ^ formula in
      let fresh = not (Hashtbl.mem t.seen_texts key) in
      if fresh then begin
        if Hashtbl.length t.seen_texts >= cache_capacity then
          Hashtbl.reset t.seen_texts;
        Hashtbl.replace t.seen_texts key ()
      end;
      let parsed =
        span (if fresh then "parser.parse" else "qcache.formula") (fun () ->
            Qcache.formula t.cache sg formula)
      in
      match parsed with
      | Error e -> raise (Reject ("parse-error", e))
      | Ok phi ->
          if ra then begin
            let s, seq =
              match Store.get_seq t.store structure with
              | Some p -> p
              | None -> (s, 0)
            in
            let m0 = Pcache.misses t.pcache in
            let r =
              span "pcache.with_result" (fun () ->
                  Pcache.with_result ~budget t.pcache ~sname:structure ~seq s
                    formula phi (fun vars rel ->
                      let tuples = Relation.tuples rel in
                      span "server.answers" (fun () -> answer_fields vars tuples)))
            in
            counti "pcache.miss" (Pcache.misses t.pcache - m0);
            match r with
            | Error e -> raise (Reject ("plan-error", e))
            | Ok fields -> ("engine", Json.Str "ra") :: fields
          end
          else begin
            let m0 = Qcache.misses t.cache in
            let fields =
              span "qcache.with_compiled" (fun () ->
                  Qcache.with_compiled t.cache ~sname:structure s formula phi
                    (fun c ->
                      if Compiled.free_vars c = [] then
                        let v =
                          span "compiled.run" (fun () -> Compiled.run c [||])
                        in
                        [ ("value", Json.Bool v) ]
                      else
                        let rel =
                          span "compiled.answers" (fun () ->
                              Compiled.definable_relation_of c)
                        in
                        span "server.answers" (fun () ->
                            answer_fields (Compiled.free_vars c) rel)))
            in
            counti "qcache.miss" (Qcache.misses t.cache - m0);
            fields
          end)
  | Protocol.Update { structure; rel; tuple; add } -> (
      let tup = Array.of_list tuple in
      match
        journaled t ~kind:"update" (String.length line) (fun () ->
            span "store.update" (fun () ->
                Store.update t.store ~name:structure ~rel tup ~add))
      with
      | Error (`Unknown m | `Invalid m | `Io m) -> raise (Reject ("update", m))
      | Ok (s', changed, seq) ->
          if changed then begin
            let m0 = Pcache.maintained t.pcache in
            span "pcache.apply_update" (fun () ->
                Pcache.apply_update ~budget t.pcache ~sname:structure ~seq s'
                  ~rel tup ~add);
            counti "pcache.maintained" (Pcache.maintained t.pcache - m0);
            span "qcache.invalidate" (fun () ->
                Qcache.invalidate t.cache ~sname:structure)
          end;
          [
            ("name", Json.Str structure);
            ("rel", Json.Str rel);
            ("tuple", tuple_json tup);
            ("action", Json.Str (if add then "insert" else "delete"));
            ("changed", Json.Bool changed);
            ("tuples", Json.of_int (Structure.tuple_count s'));
          ])
  | Protocol.Game { left; right; rounds; _ } -> (
      let a = get left and b = get right in
      let verdict, (st : Fmtk_games.Engine.stats) =
        span "games.solve" (fun () ->
            Ef.solve_verdict ~config:seq_config ~budget ~rounds a b)
      in
      counti "games.positions" st.positions;
      counti "games.memo_hits" st.memo_hits;
      let base = [ ("game", Json.Str "ef"); ("rounds", Json.of_int rounds) ] in
      let v eq =
        base
        @ [ ("equivalent", Json.Bool eq); ("positions", Json.of_int st.positions) ]
      in
      match verdict with
      | Fmtk_games.Engine.Equivalent -> v true
      | Fmtk_games.Engine.Distinguished -> v false
      | Fmtk_games.Engine.Gave_up _ -> raise (Reject ("gave-up", "game")))
  | Protocol.Decide { left; right; rank } ->
      let a = get left and b = get right in
      let outcome =
        span "decide.equiv" (fun () ->
            Decide.equiv ~config:seq_config ~budget ~rank a b)
      in
      counti "decide.positions" outcome.Decide.positions;
      let meth =
        match outcome.Decide.answered_by with
        | Some m -> Decide.method_to_string m
        | None -> "none"
      in
      let verdict =
        match outcome.Decide.verdict with
        | Decide.Equivalent -> "equivalent"
        | Decide.Distinguished _ -> "distinguished"
        | Decide.Distinguishable -> "distinguishable"
        | Decide.Gave_up _ -> "gave-up"
      in
      [
        ("verdict", Json.Str verdict);
        ("rank", Json.of_int rank);
        ("method", Json.Str meth);
        ("positions", Json.of_int outcome.Decide.positions);
      ]
  | Protocol.Ping | Protocol.List_structures | Protocol.Stats ->
      [ ("inline", Json.Bool true) ]

let serve_request t line =
  let t0 = Unix.gettimeofday () in
  let env = span "protocol.decode" (fun () -> Protocol.parse_request line) in
  let id = env.Protocol.id in
  let response =
    match env.Protocol.body with
    | Error (code, msg) ->
        span "protocol.encode" (fun () -> Protocol.error ~id ~code msg)
    | Ok (req, _) -> (
        match execute t line req with
        | fields ->
            let ms = (Unix.gettimeofday () -. t0) *. 1000. in
            span "protocol.encode" (fun () -> Protocol.ok ~ms ~id fields)
        | exception Reject (code, msg) ->
            span "protocol.encode" (fun () -> Protocol.error ~id ~code msg))
  in
  counti "protocol.response_bytes" (String.length response + 1);
  result response

let serve_setup json =
  let str k = Option.bind (Json.member k json) Json.get_string in
  let preload =
    match Json.member "preload" json with
    | Some (Json.List l) ->
        List.filter_map
          (function
            | Json.List [ Json.Str n; Json.Str s ] -> Some (n, s) | _ -> None)
          l
    | _ -> []
  in
  let store =
    match str "data_dir" with
    | None -> Store.create ()
    | Some dir -> (
        let sync =
          match Store.sync_policy_of_string (Option.value ~default:"always" (str "sync")) with
          | Ok s -> s
          | Error e -> failwith e
        in
        let snapshot_threshold =
          Option.value ~default:(64 * 1024 * 1024)
            (Option.bind (Json.member "snapshot_threshold" json) Json.get_int)
        in
        match
          span "store.recovery" (fun () ->
              Store.open_durable ~sync ~snapshot_threshold ~dir ())
        with
        | Ok (st, _) -> st
        | Error e -> failwith e)
  in
  List.iter
    (fun (name, spec) ->
      match span "structure.build" (fun () -> Spec.parse spec) with
      | Error e -> failwith e
      | Ok s -> (
          match span "store.put" (fun () -> Store.put store ~name s) with
          | Ok () -> ()
          | Error e -> failwith (Store.put_error_to_string e)))
    preload;
  {
    store;
    cache = Qcache.create ~capacity:cache_capacity ();
    pcache = Pcache.create ~capacity:cache_capacity ();
    root = Budget.create ~cancel:(Budget.Cancel.create ()) ();
    seen_texts = Hashtbl.create 64;
  }

(* ---- the one-shot CLI path (mirrors bin/fmtk_cli.ml) ---- *)

let build spec =
  match span "structure.build" (fun () -> Spec.parse spec) with
  | Ok s -> s
  | Error e -> failwith e

let parse text =
  match span "parser.parse" (fun () -> Parser.parse text) with
  | Ok phi -> phi
  | Error e -> failwith e

let eval_stats_work (st : Eval.stats) = st.Eval.atom_checks + st.Eval.quantifier_steps

let cli argv =
  match argv with
  | [ "eval"; sp; text ] ->
      let s = build sp in
      let phi = parse text in
      let st = Eval.new_stats () in
      let _, answers =
        span "eval.answers" (fun () -> Eval.answers ~stats:st s phi)
      in
      counti "eval.work" (eval_stats_work st);
      result (string_of_int (Tuple.Set.cardinal answers))
  | [ "eval"; sp; text; "--ra" ] -> (
      let s = build sp in
      let phi = parse text in
      let e =
        span "compile.compile" (fun () ->
            if not (Compile.safe_range phi) then failwith "not safe-range";
            Algebra.Project (Formula.free_vars phi, Compile.compile phi))
      in
      let db = Algebra.Database.of_structure s in
      match span "planner.plan" (fun () -> Planner.plan db e) with
      | Error m -> failwith m
      | Ok p -> (
          match span "physical.run" (fun () -> Physical.run db p) with
          | Error m -> failwith m
          | Ok rel ->
              let rows = Relation.cardinality rel in
              count "planner.est" p.Physical.est;
              counti "physical.rows" rows;
              result (string_of_int rows)))
  | [ "game"; a; b; "-n"; r ] ->
      let a = build a and b = build b in
      let outcome =
        span "decide.equiv" (fun () ->
            Decide.equiv ~rank:(int_of_string r) a b)
      in
      counti "decide.positions" outcome.Decide.positions;
      result
        (match outcome.Decide.verdict with
        | Decide.Equivalent -> "true"
        | _ -> "false")
  | [ "datalog"; sp; "--program"; "sg" ] ->
      let s = build sp in
      let db = span "datalog.edb" (fun () -> Engine.Db.of_structure s) in
      let out, st =
        span "datalog.seminaive" (fun () ->
            Engine.seminaive Programs.same_generation db)
      in
      counti "datalog.iterations" st.Engine.iterations;
      counti "datalog.join_steps" st.Engine.join_work;
      result (string_of_int (Tuple.Set.cardinal (Engine.Db.find out "sg")))
  | [ "ifp"; sp; "--query"; "tc" ] ->
      let s = build sp in
      let st = Fp_eval.new_stats () in
      let tuples =
        span "fixpoint.ifp" (fun () ->
            Fp_eval.answers ~stats:st s Fp_formula.transitive_closure
              ~vars:[ "u"; "v" ])
      in
      counti "fixpoint.stages" st.Fp_eval.stages;
      result (string_of_int (Tuple.Set.cardinal tuples))
  | [ "hanf"; a; b; "-r"; r ] ->
      let a = build a and b = build b in
      let v =
        span "locality.hanf" (fun () -> Hanf.equiv ~radius:(int_of_string r) a b)
      in
      counti "locality.nodes" (Structure.size a + Structure.size b);
      result (string_of_bool v)
  | [ "decide"; text; "--search"; n; "--seed"; seed ] ->
      (* Almost_sure.decide with a Search source, call by call. *)
      let phi = parse text in
      let k = max 1 (Formula.quantifier_rank phi) in
      let rng = Random.State.make [| int_of_string seed |] in
      let size = int_of_string n in
      let rec draw i =
        if i >= 200 then failwith "no k-e.c. witness in 200 draws"
        else begin
          counti "zeroone.draws" 1;
          let g =
            span "zeroone.draw" (fun () ->
                Gen.random_undirected_graph ~rng size 0.5)
          in
          if span "zeroone.kec" (fun () -> Extension.is_kec ~k g) then g
          else draw (i + 1)
        end
      in
      let g = draw 0 in
      let v = span "eval.sat" (fun () -> Eval.sat g phi) in
      result (if v then "1" else "0")
  | _ -> failwith ("unsupported command: " ^ String.concat " " argv)

(* ---- driver ---- *)

let () =
  match Sys.argv with
  | [| _; ops_path; out_path |] ->
      let ic = open_in ops_path in
      let serve = ref None in
      (try
         while true do
           let line = input_line ic in
           match Json.parse line with
           | Error e -> failwith ("bad ops line: " ^ e)
           | Ok json -> (
               let op =
                 Option.value ~default:(-1)
                   (Option.bind (Json.member "op" json) Json.get_int)
               in
               cur_op := op;
               match Option.bind (Json.member "kind" json) Json.get_string with
               | Some "serve" -> serve := Some (serve_setup json)
               | Some "req" -> (
                   match
                     (!serve, Option.bind (Json.member "line" json) Json.get_string)
                   with
                   | Some t, Some l -> span "op" (fun () -> serve_request t l)
                   | _ -> failwith "req before serve setup")
               | Some "cli" -> (
                   match Json.member "argv" json with
                   | Some (Json.List l) ->
                       span "op" (fun () ->
                           cli (List.filter_map Json.get_string l))
                   | _ -> failwith "cli op without argv")
               | _ -> failwith "unknown op kind")
         done
       with End_of_file -> ());
      close_in ic;
      (match !serve with Some t -> Store.close t.store | None -> ());
      write_out out_path
  | _ ->
      prerr_endline "usage: fmtk_trace OPS.jsonl OUT.txt";
      exit 2
