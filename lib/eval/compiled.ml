module Formula = Fmtk_logic.Formula
module Term = Fmtk_logic.Term
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Index = Fmtk_structure.Index
module Tuple = Fmtk_structure.Tuple
module Csr = Fmtk_structure.Csr
module Budget = Fmtk_runtime.Budget

(* A running budget's poller plus a local countdown of its poll window.
   Counting here and calling [Budget.poll] once per window is
   [Budget.check] per step without a call per quantifier scan: dune's
   dev profile compiles with -opaque, so [Budget.check] is never inlined
   here, and on short scans that call is measurable (E25). *)
type gate = { poller : Budget.poller; window : int; mutable left : int }

(* One candidate range of a guarded scan: row [node env] of an
   adjacency row set (offsets and targets hoisted out of the [Csr.t]). *)
type guard = { offs : int array; tgt : int array; node : int array -> int }

type t = {
  free : string list; (* slot order of the free variables *)
  nslots : int;
  code : int array -> bool;
  gate : gate option ref;
      (* read by every quantifier closure; each entry point installs its
         budget's gate, [None] when unbudgeted, before running [code] *)
  size : int; (* of the structure's domain *)
  enum_guards : guard list array;
      (* per answer slot: the guards of its enumeration in
         [definable_relation_of] (see [guards_of]) *)
}

let poll = function
  | None -> ()
  | Some g ->
      g.left <- g.left - 1;
      if g.left <= 0 then begin
        g.left <- g.window;
        Budget.poll g.poller
      end

(* Compile-time variable scope: name -> slot. Shadowing is handled by
   consing, exactly like the interpreter's environment — except the lookup
   happens once, at compile time. *)
type scope = (string * int) list

let compile_term a (scope : scope) t : int array -> int =
  match t with
  | Term.Var x -> (
      match List.assoc_opt x scope with
      | Some slot -> fun env -> env.(slot)
      | None -> invalid_arg (Printf.sprintf "Compiled: unbound variable %S" x))
  | Term.Const c -> (
      match Structure.const a c with
      | e -> fun _ -> e
      | exception Not_found ->
          invalid_arg (Printf.sprintf "Compiled: uninterpreted constant %S" c))

(* ---- Guards ----

   A binary atom [R(t,y)] {e guards} [y] in a formula [f] when [f]
   implies it ([must]): every [y] satisfying [f] then lies in the
   out-row of [t] (the in-row, for [R(y,t)]), so a scan for [y] may walk
   that row instead of the domain. Dually, an atom guards a universal
   [forall y. g] when its negation implies [g] ([unless]): outside the
   row [g] is true. Both collect atoms syntactically; an atom under a
   binder that it mentions is dropped, which also handles shadowing. *)

let mentions x (_, t, u) = t = Term.Var x || u = Term.Var x

let rec must = function
  | Formula.Rel (r, [ t; u ]) -> [ (r, t, u) ]
  | Formula.And (g, h) -> must g @ must h
  | Formula.Not g -> unless g
  | Formula.Exists (z, g) -> List.filter (fun a -> not (mentions z a)) (must g)
  | _ -> []

and unless = function
  | Formula.Or (g, h) -> unless g @ unless h
  | Formula.Implies (g, h) -> must g @ unless h
  | Formula.Not g -> must g
  | Formula.Forall (z, g) ->
      List.filter (fun a -> not (mentions z a)) (unless g)
  | _ -> []

(* The rows among [atoms] that guard [y]: those whose other endpoint
   is a constant or a variable that [bound] accepts (already bound when
   [y] is scanned), never [y] itself. *)
let guards_of a ~bound ~node y atoms =
  let sg = Structure.signature a in
  let endpoint = function
    | Term.Var x -> x <> y && bound x
    | Term.Const _ -> true
  in
  List.filter_map
    (fun (r, t, u) ->
      if not (Signature.mem_rel sg r && Signature.arity sg r = 2) then None
      else
        let row rows t =
          Some { offs = Csr.offsets rows; tgt = Csr.targets rows; node = node t }
        in
        if u = Term.Var y && endpoint t then row (Structure.out_rows a r) t
        else if t = Term.Var y && endpoint u then row (Structure.in_rows a r) u
        else None)
    atoms

(* Index of the guard with the shortest row at [env]. *)
let shortest guards env =
  let best = ref 0 and len = ref max_int in
  for i = 0 to Array.length guards - 1 do
    let g = guards.(i) in
    let u = g.node env in
    let d = g.offs.(u + 1) - g.offs.(u) in
    if d < !len then begin
      best := i;
      len := d
    end
  done;
  !best

(* [0, 1, 2, ...]: the targets an unguarded scan walks. One array,
   grown on demand and never written after publication, serves every
   compiled formula, so a cached [t] holds no O(n) state of its own. *)
let identity = Atomic.make [||]

let rec identity_upto n =
  let a = Atomic.get identity in
  if Array.length a >= n then a
  else
    let b = Array.init (max n (2 * Array.length a)) Fun.id in
    if Atomic.compare_and_set identity a b then b else identity_upto n

(* A scan of a domain of size [n] over the range its guards pick at
   [env]: [walk env tgt lo hi] visits [tgt.(lo) .. tgt.(hi - 1)] — the
   domain when there is no guard, else the shortest guard row. Polled
   once on entry, guarded or not. *)
let ranged gate ~n guards walk =
  match guards with
  | [] ->
      let domain = identity_upto n in
      fun env ->
        poll !gate;
        walk env domain 0 n
  | [ g ] ->
      fun env ->
        poll !gate;
        let u = g.node env in
        walk env g.tgt g.offs.(u) g.offs.(u + 1)
  | guards ->
      let guards = Array.of_list guards in
      fun env ->
        poll !gate;
        let g = guards.(shortest guards env) in
        let u = g.node env in
        walk env g.tgt g.offs.(u) g.offs.(u + 1)

let compile_with a ~vars f =
  (match
     List.find_opt (fun x -> not (List.mem x vars)) (Formula.free_vars f)
   with
  | Some x ->
      invalid_arg (Printf.sprintf "Compiled: free variable %S not listed" x)
  | None -> ());
  let n = Structure.size a in
  let gate = ref None in
  let nslots = ref (List.length vars) in
  let scope0 : scope = List.mapi (fun i x -> (x, i)) vars in
  let rec go (scope : scope) depth f : int array -> bool =
    (match f with
    | Formula.Exists _ | Formula.Forall _ ->
        nslots := max !nslots (depth + 1)
    | _ -> ());
    match f with
    | Formula.True -> fun _ -> true
    | Formula.False -> fun _ -> false
    | Formula.Eq (t, u) ->
        let ct = compile_term a scope t and cu = compile_term a scope u in
        fun env -> ct env = cu env
    | Formula.Rel (r, ts) -> (
        let idx =
          match Structure.index a r with
          | idx -> idx
          | exception Not_found ->
              invalid_arg (Printf.sprintf "Compiled: unknown relation %S" r)
        in
        let cts = List.map (compile_term a scope) ts in
        (* Arity-specialized probes: no per-atom tuple allocation. A
           wrong-arity atom is a constant [false], as for the naive
           evaluator's set probe. *)
        match cts with
        | _ when List.length cts <> Index.arity idx -> fun _ -> false
        | [] -> fun _ -> Index.mem idx [||]
        | [ c0 ] -> fun env -> Index.mem1 idx (c0 env)
        | [ c0; c1 ] -> fun env -> Index.mem2 idx (c0 env) (c1 env)
        | _ ->
            let cts = Array.of_list cts in
            let scratch = Array.make (Array.length cts) 0 in
            fun env ->
              Array.iteri (fun i c -> scratch.(i) <- c env) cts;
              Index.mem idx scratch)
    | Formula.Not g ->
        let cg = go scope depth g in
        fun env -> not (cg env)
    | Formula.And (g, h) ->
        let cg = go scope depth g and ch = go scope depth h in
        fun env -> cg env && ch env
    | Formula.Or (g, h) ->
        let cg = go scope depth g and ch = go scope depth h in
        fun env -> cg env || ch env
    | Formula.Implies (g, h) ->
        let cg = go scope depth g and ch = go scope depth h in
        fun env -> (not (cg env)) || ch env
    | Formula.Iff (g, h) ->
        let cg = go scope depth g and ch = go scope depth h in
        fun env -> cg env = ch env
    | Formula.Exists (x, g) ->
        let slot = depth in
        let cg = go ((x, slot) :: scope) (depth + 1) g in
        ranged gate ~n (quantifier_guards scope x (must g))
          (fun env tgt lo hi ->
            let rec scan i =
              i < hi
              && ((env.(slot) <- tgt.(i);
                   cg env)
                 || scan (i + 1))
            in
            scan lo)
    | Formula.Forall (x, g) ->
        let slot = depth in
        let cg = go ((x, slot) :: scope) (depth + 1) g in
        ranged gate ~n (quantifier_guards scope x (unless g))
          (fun env tgt lo hi ->
            let rec scan i =
              i >= hi
              || ((env.(slot) <- tgt.(i);
                   cg env)
                 && scan (i + 1))
            in
            scan lo)
  and quantifier_guards scope x atoms =
    guards_of a x atoms
      ~bound:(fun z -> List.mem_assoc z scope)
      ~node:(compile_term a scope)
  in
  let code = go scope0 (List.length vars) f in
  (* Answer slot [i] may be guarded by the query's own atoms, through
     constants and the answer slots before it. *)
  let slot_of x = List.assoc_opt x scope0 and atoms = must f in
  let enum_guards =
    Array.of_list
      (List.mapi
         (fun i x ->
           guards_of a x
             (if slot_of x = Some i then atoms else [])
             ~bound:(fun z ->
               match slot_of z with Some j -> j < i | None -> false)
             ~node:(compile_term a scope0))
         vars)
  in
  { size = n; free = vars; nslots = !nslots; code; gate; enum_guards }

let compile a f = compile_with a ~vars:(Formula.free_vars f) f
let free_vars t = t.free

(* Install [budget]'s gate and return a fresh environment. *)
let start ?(budget = Budget.unlimited) t =
  (t.gate :=
     if Budget.is_unlimited budget then None
     else
       let window = Budget.poll_interval budget in
       Some { poller = Budget.poller budget; window; left = window });
  Array.make (max 1 t.nslots) 0

let run ?budget t args =
  let nfree = List.length t.free in
  if Array.length args <> nfree then
    invalid_arg
      (Printf.sprintf "Compiled.run: %d arguments for %d free variables"
         (Array.length args) nfree);
  let env = start ?budget t in
  Array.blit args 0 env 0 nfree;
  t.code env

let holds t ~env =
  run t
    (Array.of_list
       (List.map
          (fun x ->
            match List.assoc_opt x env with
            | Some e -> e
            | None ->
                invalid_arg
                  (Printf.sprintf "Compiled: unbound variable %S" x))
          t.free))

let sat ?budget a f =
  (match Formula.free_vars f with
  | [] -> ()
  | fv ->
      invalid_arg
        (Printf.sprintf "Compiled.sat: not a sentence (free: %s)"
           (String.concat ", " fv)));
  run ?budget (compile a f) [||]

let definable_relation_of ?budget t =
  let k = List.length t.free in
  let env = start ?budget t in
  let acc = ref Tuple.Set.empty in
  (* Each answer variable's enumeration is polled like a quantifier
     scan. *)
  let rec enum i =
    if i = k then (
      if t.code env then acc := Tuple.Set.add (Array.sub env 0 k) !acc)
    else
      ranged t.gate ~n:t.size t.enum_guards.(i)
        (fun env tgt lo hi ->
          for j = lo to hi - 1 do
            env.(i) <- tgt.(j);
            enum (i + 1)
          done)
        env
  in
  enum 0;
  !acc

let definable_relation ?budget a f ~vars =
  definable_relation_of ?budget (compile_with a ~vars f)

let answers ?budget a f =
  let vars = Formula.free_vars f in
  (vars, definable_relation ?budget a f ~vars)
