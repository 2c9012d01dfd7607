module Structure = Fmtk_structure.Structure
module Signature = Fmtk_logic.Signature
module Tuple = Fmtk_structure.Tuple
module Iso = Fmtk_structure.Iso
module Index = Fmtk_structure.Index
module Csr = Fmtk_structure.Csr
module Budget = Fmtk_runtime.Budget
module Shard = Fmtk_runtime.Shard

(* ---- Type registry ---- *)

(* Serialization keys of radius-r balls (see [serialize] below) are flat
   int arrays; like [Wl]'s colour keys they need a full-content hash. *)
module KeyTbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash (a : int array) =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x01000193
    done;
    !h land max_int
end)

(* Cap on serialization-cache entries (registry-global and per census
   worker). Balls of genuinely diverse shape stop being cached past the
   cap and pay the exact-iso path instead — bounded memory, same
   answers. *)
let serial_cap = 200_000

type registry = {
  bucketing : bool;
  (* invariant key -> type ids sharing it *)
  buckets : (string, int list ref) Hashtbl.t;
  (* Growable array of representatives, indexed by type id: O(1) lookup
     where the old newest-first list cost O(count) per [representative]
     call — called once per candidate in every iso test. Slots >= count
     are padding (duplicates of earlier entries). *)
  mutable reps : Structure.t array;
  mutable count : int;
  mutable iso_tests : int;
  (* Streaming-census serialization cache: ball serialization -> type
     id. Sound (equal serializations are isomorphic) but not complete —
     misses fall back to exact [type_id]. Keys are only comparable
     between structures of equal signature; [serial_sig] guards. *)
  serial : int KeyTbl.t;
  mutable serial_sig : Signature.t option;
  mutable serial_hits : int;
}

let create_registry ?(bucketing = true) () =
  {
    bucketing;
    buckets = Hashtbl.create 64;
    reps = [||];
    count = 0;
    iso_tests = 0;
    serial = KeyTbl.create 256;
    serial_sig = None;
    serial_hits = 0;
  }

let iso_tests reg = reg.iso_tests
let serial_hits reg = reg.serial_hits

let representative reg id =
  if id < 0 || id >= reg.count then invalid_arg "Neighborhood: bad type id";
  reg.reps.(id)

let register reg nb =
  let id = reg.count in
  if id = Array.length reg.reps then begin
    (* Double the capacity, using the new element as padding. *)
    let grown = Array.make (max 8 (2 * id)) nb in
    Array.blit reg.reps 0 grown 0 id;
    reg.reps <- grown
  end;
  reg.reps.(id) <- nb;
  reg.count <- id + 1;
  id

let type_id reg nb =
  let matches candidate_ids =
    List.find_opt
      (fun id ->
        reg.iso_tests <- reg.iso_tests + 1;
        Iso.isomorphic (representative reg id) nb)
      candidate_ids
  in
  if reg.bucketing then (
    let key = Iso.invariant_key nb in
    let bucket =
      match Hashtbl.find_opt reg.buckets key with
      | Some b -> b
      | None ->
          let b = ref [] in
          Hashtbl.add reg.buckets key b;
          b
    in
    match matches !bucket with
    | Some id -> id
    | None ->
        let id = register reg nb in
        bucket := id :: !bucket;
        id)
  else
    match matches (List.init reg.count Fun.id) with
    | Some id -> id
    | None -> register reg nb

(* ---- Streaming census: the bounded-arity fast path ----

   For signatures with no constants and every relation unary or binary,
   a radius-r ball is extracted by a scratch-buffer BFS over the cached
   CSR Gaifman adjacency (allocating O(ball), never O(structure)) and
   canonically described by a flat int serialization in BFS order. Equal
   serializations are isomorphic balls (the serialization lists, per
   member, its unary/self-loop memberships and every in-ball incident
   edge with directions per relation), so a cache keyed on them resolves
   repeat shapes without any iso test; mismatched serializations of
   isomorphic balls merely miss the cache and pay one exact [type_id].
   Census ids and counts are therefore identical to the generic path's.

   Sharding: contiguous vertex ranges, one fresh local registry (and
   serialization cache) per worker, merged in range order afterwards —
   global ids are assigned at each type's first realizing element, which
   is the same order the sequential pass uses, so results are
   byte-identical for every worker count. *)

type rel_probe = U of Index.t | B of Csr.t

type fast_ctx = {
  sg : Signature.t;
  g : Csr.t;  (* Gaifman adjacency *)
  kinds : (string * rel_probe) list;  (* signature order *)
  unary : Index.t array;  (* arity-1 indexes, signature order *)
  binary : Csr.t array;  (* arity-2 rows, signature order *)
}

(* The fast path needs every per-member unary mask to fit an OCaml int.
   Binary relations are walked as CSR rows — one row read per ball
   member per relation, never a per-pair membership probe (each probe is
   a random memory access, and at 10^6 nodes those dominate the whole
   census). *)
let fast_ctx t =
  let sg = Structure.signature t in
  let rels = Signature.rels sg in
  let nu = List.length (List.filter (fun (_, k) -> k = 1) rels) in
  if
    Signature.consts sg <> []
    || List.exists (fun (_, k) -> k < 1 || k > 2) rels
    || nu > 62
  then None
  else begin
    (* Index/CSR construction and the Gaifman build mutate [t]'s caches;
       all happen here, before any worker domain is spawned. *)
    let n = Structure.size t in
    let kinds =
      List.map
        (fun (name, k) ->
          if k = 1 then (name, U (Structure.index t name))
          else
            let csr =
              match Structure.csr_of_rel t name with
              | Some c -> c
              | None -> Csr.of_tuple_set ~n (Structure.rel t name)
            in
            (name, B csr))
        rels
    in
    let unary =
      Array.of_list (List.filter_map (function _, U i -> Some i | _ -> None) kinds)
    in
    let binary =
      Array.of_list (List.filter_map (function _, B c -> Some c | _ -> None) kinds)
    in
    Some { sg; g = Structure.gaifman_csr t; kinds; unary; binary }
  end

(* Per-worker scratch: two size-n arrays reset only on touched entries,
   a ball buffer doubling as the BFS queue, a reusable key vector, and a
   small row buffer for sorting in-ball targets by local id. *)
type scratch = {
  dist : int array;  (* -1 = outside the current ball *)
  local : int array;  (* BFS-order local id, -1 outside *)
  mutable ball : int array;
  mutable ball_len : int;
  key : Csr.Vec.vec;
  mutable tmp : int array;
  mutable tmp_len : int;
}

let make_scratch n =
  {
    dist = Array.make (max n 1) (-1);
    local = Array.make (max n 1) (-1);
    ball = Array.make 16 0;
    ball_len = 0;
    key = Csr.Vec.create ~cap:64 ();
    tmp = Array.make 16 0;
    tmp_len = 0;
  }

let push_tmp sc v =
  if sc.tmp_len = Array.length sc.tmp then begin
    let grown = Array.make (2 * sc.tmp_len) 0 in
    Array.blit sc.tmp 0 grown 0 sc.tmp_len;
    sc.tmp <- grown
  end;
  sc.tmp.(sc.tmp_len) <- v;
  sc.tmp_len <- sc.tmp_len + 1

(* Insertion sort: rows are ball-sized, a handful of elements. *)
let sort_tmp sc =
  for i = 1 to sc.tmp_len - 1 do
    let x = sc.tmp.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && sc.tmp.(!j) > x do
      sc.tmp.(!j + 1) <- sc.tmp.(!j);
      decr j
    done;
    sc.tmp.(!j + 1) <- x
  done

let push_ball sc u =
  if sc.ball_len = Array.length sc.ball then begin
    let grown = Array.make (2 * sc.ball_len) 0 in
    Array.blit sc.ball 0 grown 0 sc.ball_len;
    sc.ball <- grown
  end;
  sc.ball.(sc.ball_len) <- u;
  sc.local.(u) <- sc.ball_len;
  sc.ball_len <- sc.ball_len + 1

let bfs_ball ctx sc ~radius v =
  sc.ball_len <- 0;
  sc.dist.(v) <- 0;
  push_ball sc v;
  let head = ref 0 in
  while !head < sc.ball_len do
    let u = sc.ball.(!head) in
    incr head;
    let du = sc.dist.(u) in
    if du < radius then
      Csr.iter_row ctx.g u (fun w ->
          if sc.dist.(w) < 0 then begin
            sc.dist.(w) <- du + 1;
            push_ball sc w
          end)
  done

let reset_scratch sc =
  for i = 0 to sc.ball_len - 1 do
    let u = sc.ball.(i) in
    sc.dist.(u) <- -1;
    sc.local.(u) <- -1
  done

(* Serialize the current ball: size, then per member (in BFS order) its
   unary mask followed by, per binary relation, the member's in-ball
   out-targets as sorted local ids, [-1]-terminated. Equal
   serializations => the local-id bijection is an isomorphism of the
   induced neighborhoods pinning the center (local id 0): unary
   memberships and every relation's exact directed edge set (self-loops
   included; in-edges appear in the source member's section) coincide.
   One CSR row read per member per relation — no per-pair probes. *)
let serialize ctx sc =
  Csr.Vec.clear sc.key;
  Csr.Vec.push sc.key sc.ball_len;
  for i = 0 to sc.ball_len - 1 do
    let u = sc.ball.(i) in
    let umask = ref 0 in
    Array.iteri
      (fun j idx -> if Index.mem1 idx u then umask := !umask lor (1 lsl j))
      ctx.unary;
    Csr.Vec.push sc.key !umask;
    Array.iter
      (fun csr ->
        sc.tmp_len <- 0;
        Csr.iter_row csr u (fun w ->
            let lw = sc.local.(w) in
            if lw >= 0 then push_tmp sc lw);
        sort_tmp sc;
        for j = 0 to sc.tmp_len - 1 do
          Csr.Vec.push sc.key sc.tmp.(j)
        done;
        Csr.Vec.push sc.key (-1))
      ctx.binary
  done;
  Csr.Vec.to_array sc.key

(* Materialize the current ball as a neighborhood structure (local
   numbering = BFS order, center pinned as "@p1") — the cache-miss path,
   O(ball) like the serialization. *)
let build_neighborhood ctx sc =
  let rels =
    List.map
      (fun (name, probe) ->
        let acc = ref [] in
        (match probe with
        | U idx ->
            for i = sc.ball_len - 1 downto 0 do
              if Index.mem1 idx sc.ball.(i) then acc := [| i |] :: !acc
            done
        | B csr ->
            for i = sc.ball_len - 1 downto 0 do
              let u = sc.ball.(i) in
              Csr.iter_row csr u (fun w ->
                  let lw = sc.local.(w) in
                  if lw >= 0 then acc := [| i; lw |] :: !acc)
            done);
        (name, !acc))
      ctx.kinds
  in
  let nb = Structure.make ctx.sg ~size:sc.ball_len rels in
  Structure.expand_consts nb [ ("@p1", 0) ]

(* ---- Generic (fallback) extraction: constants or higher arities ---- *)

(* Per-element incidence index: the tuples each element occurs in. Makes
   one-element neighborhood extraction cost proportional to the ball, not
   the whole structure — the census over all elements is then linear for
   fixed radius and degree (the requirement of Theorem 3.11). *)
let incidence_index t =
  let incident = Array.make (Structure.size t) [] in
  List.iter
    (fun (rname, _) ->
      Structure.iter_rel t rname (fun tup ->
          let seen = ref [] in
          Array.iter
            (fun e ->
              if not (List.mem e !seen) then begin
                seen := e :: !seen;
                incident.(e) <- (rname, tup) :: incident.(e)
              end)
            tup))
    (Signature.rels (Structure.signature t));
  incident

let neighborhood_of ~sg ~incident ~ball ~pinned =
  let in_ball = Hashtbl.create 16 in
  List.iteri (fun i e -> Hashtbl.add in_ball e i) ball;
  let per_rel = Hashtbl.create 4 in
  List.iter
    (fun e ->
      List.iter
        (fun (rname, tup) ->
          if Array.for_all (Hashtbl.mem in_ball) tup then begin
            let renamed = Array.map (Hashtbl.find in_ball) tup in
            let set =
              Option.value ~default:Tuple.Set.empty
                (Hashtbl.find_opt per_rel rname)
            in
            Hashtbl.replace per_rel rname (Tuple.Set.add renamed set)
          end)
        incident.(e))
    ball;
  let rels =
    List.map
      (fun (rname, _) ->
        ( rname,
          Tuple.Set.elements
            (Option.value ~default:Tuple.Set.empty
               (Hashtbl.find_opt per_rel rname)) ))
      (Signature.rels sg)
  in
  let nb =
    Structure.make
      (Signature.make (Signature.rels sg))
      ~size:(List.length ball) rels
  in
  Structure.expand_consts nb [ ("@p1", Hashtbl.find in_ball pinned) ]

let generic_element_types ~budget reg t ~radius =
  let poller = Budget.poller budget in
  let adj = Gaifman.adjacency t in
  let sg = Structure.signature t in
  if Signature.consts sg <> [] then
    (* Constants would need per-ball re-interpretation; use the generic
       (whole-structure) extraction. *)
    Array.of_list
      (List.map
         (fun e ->
           Budget.check poller;
           type_id reg (Gaifman.neighborhood ~adj t radius [ e ]))
         (Structure.domain t))
  else
    let incident = incidence_index t in
    Array.of_list
      (List.map
         (fun e ->
           Budget.check poller;
           let ball = Gaifman.ball_adj ~adj radius [ e ] in
           type_id reg (neighborhood_of ~sg ~incident ~ball ~pinned:e))
         (Structure.domain t))

(* ---- Streaming census driver ---- *)

(* Whether the registry's serialization cache speaks this signature. *)
let serial_usable reg sg =
  match reg.serial_sig with
  | None ->
      reg.serial_sig <- Some sg;
      true
  | Some sg' -> Signature.equal sg' sg

let fast_element_types ~workers ~budget reg t ctx ~radius =
  let n = Structure.size t in
  let types = Array.make n 0 in
  let use_cache = serial_usable reg ctx.sg in
  let w, chunk = Shard.plan ~workers ~n in
  if w <= 1 then begin
    (* Sequential: resolve against the registry and its cache directly. *)
    let poller = Budget.poller budget in
    let sc = make_scratch n in
    for v = 0 to n - 1 do
      Budget.check poller;
      bfs_ball ctx sc ~radius v;
      let key = if use_cache then serialize ctx sc else [||] in
      let id =
        match if use_cache then KeyTbl.find_opt reg.serial key else None with
        | Some id ->
            reg.serial_hits <- reg.serial_hits + 1;
            id
        | None ->
            let id = type_id reg (build_neighborhood ctx sc) in
            if use_cache && KeyTbl.length reg.serial < serial_cap then
              KeyTbl.replace reg.serial key id;
            id
      in
      reset_scratch sc;
      types.(v) <- id
    done;
    types
  end
  else begin
    (* Worker w owns [w*chunk, min n ((w+1)*chunk)) with a fresh local
       registry and cache. Element results are encoded in [types]:
       >= 0 is a local type id; <= -2 encodes global id [-v - 2] (a hit
       in the shared read-only cache, which only holds ids from earlier
       completed calls). *)
    let locals = Array.init w (fun _ -> create_registry ~bucketing:true ()) in
    Shard.ranges ~workers:w ~budget ~n (fun poller ~stop ~idx ~lo ~hi ->
        let lreg = locals.(idx) in
        let sc = make_scratch n in
        let v = ref lo in
        while !v < hi && not (stop ()) do
          Budget.check poller;
          bfs_ball ctx sc ~radius !v;
          let key = serialize ctx sc in
          (match
             if use_cache then KeyTbl.find_opt reg.serial key else None
           with
          | Some gid -> types.(!v) <- -gid - 2
          | None -> (
              match KeyTbl.find_opt lreg.serial key with
              | Some lid -> types.(!v) <- lid
              | None ->
                  let lid = type_id lreg (build_neighborhood ctx sc) in
                  if KeyTbl.length lreg.serial < serial_cap then
                    KeyTbl.replace lreg.serial key lid;
                  types.(!v) <- lid));
          reset_scratch sc;
          incr v
        done);
    (* Merge in range order: global ids are assigned at each type's
       first realizing element, reproducing the sequential order. *)
    for idx = 0 to w - 1 do
      let lreg = locals.(idx) in
      let lo = idx * chunk and hi = min n ((idx + 1) * chunk) in
      if lo < hi then begin
        let map = Array.make (max lreg.count 1) (-1) in
        for v = lo to hi - 1 do
          let enc = types.(v) in
          if enc <= -2 then types.(v) <- -enc - 2
          else begin
            if map.(enc) < 0 then
              map.(enc) <- type_id reg (representative lreg enc);
            types.(v) <- map.(enc)
          end
        done;
        if use_cache then
          KeyTbl.iter
            (fun key lid ->
              if
                map.(lid) >= 0
                && KeyTbl.length reg.serial < serial_cap
                && not (KeyTbl.mem reg.serial key)
              then KeyTbl.replace reg.serial key map.(lid))
            lreg.serial
      end
    done;
    types
  end

let element_types ?(workers = 1) ?(budget = Budget.unlimited) reg t ~radius =
  match fast_ctx t with
  | Some ctx -> fast_element_types ~workers ~budget reg t ctx ~radius
  | None -> generic_element_types ~budget reg t ~radius

let census ?workers ?budget reg t ~radius =
  let types = element_types ?workers ?budget reg t ~radius in
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun id ->
      Hashtbl.replace counts id
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts id)))
    types;
  List.sort compare (Hashtbl.fold (fun id c acc -> (id, c) :: acc) counts [])
