(* Automorphism orbits with stabilizer refinement — see orbit.mli.

   The search is seeded by colour refinement: automorphic elements have
   equal WL colours, so orbits partition colour classes, and a discrete
   colouring proves rigidity without any search. Within a class, orbits
   are discovered left to right: an element either maps onto an earlier
   orbit root (one complete backtracking search over [Iso.find_iso], with
   the pinned elements individualized as constants on both sides) or
   founds a new orbit. Every automorphism found is applied in full to the
   union-find, so one generator can merge many pairs across classes. *)

type orbits = {
  pinned : int list; (* sorted, deduplicated *)
  ids : int array; (* element -> minimal element of its orbit *)
  reps_list : int list; (* ascending *)
  is_trivial : bool;
}

type t = {
  structure : Structure.t;
  size : int;
  budget : Fmtk_runtime.Budget.t; (* governs all automorphism searches *)
  trivial_orbits : orbits;
  mutable root_orbits : orbits; (* set once by [make] *)
  cache : (int list, orbits) Hashtbl.t; (* pinned set -> stabilizer orbits *)
  lock : Mutex.t; (* guards [cache]; computations run outside it *)
}

let trivial o = o.is_trivial
let reps o = o.reps_list
let orbit_ids o = o.ids

(* Individualize pinned elements as fresh constants. Names are chosen to
   be implausible as user constants; a clash raises loudly in
   [expand_consts] rather than corrupting the search. *)
let pin_consts pinned =
  List.mapi (fun i p -> (Printf.sprintf "__orb_p%d" i, p)) pinned

(* A full automorphism of [t.structure] fixing [pinned] pointwise and
   mapping [r] to [e], if one exists. Complete search: [Iso.find_iso]
   backtracks over all WL-colour-compatible assignments. *)
let automorphism_mapping ~budget structure ~pinned r e =
  let pins = pin_consts pinned in
  let sa = Structure.expand_consts structure (("__orb_t", r) :: pins) in
  let sb = Structure.expand_consts structure (("__orb_t", e) :: pins) in
  Iso.find_iso ~budget sa sb

let make_orbits ~pinned ~ids n =
  let reps_list =
    List.filter (fun i -> ids.(i) = i) (List.init n Fun.id)
  in
  { pinned; ids; reps_list; is_trivial = List.length reps_list = n }

let compute ~budget structure ~pinned =
  let n = Structure.size structure in
  let pinned_s =
    if pinned = [] then structure
    else Structure.expand_consts structure (pin_consts pinned)
  in
  let colors = Wl.colors1 pinned_s in
  let distinct = Hashtbl.create (max 16 n) in
  Array.iter (fun c -> Hashtbl.replace distinct c ()) colors;
  if Hashtbl.length distinct = n then
    (* Discrete colouring: rigid (or trivial stabilizer), no search. *)
    make_orbits ~pinned ~ids:(Array.init n Fun.id) n
  else begin
    let parent = Array.init n Fun.id in
    let rec find i =
      if parent.(i) = i then i
      else begin
        let r = find parent.(i) in
        parent.(i) <- r;
        r
      end
    in
    let union i j =
      let ri = find i and rj = find j in
      if ri <> rj then parent.(max ri rj) <- min ri rj
    in
    (* colour -> orbit roots discovered so far, ascending. *)
    let roots : (int, int list) Hashtbl.t = Hashtbl.create 16 in
    for e = 0 to n - 1 do
      if find e = e then begin
        let c = colors.(e) in
        let cands =
          List.filter
            (fun r -> find r = r)
            (Option.value ~default:[] (Hashtbl.find_opt roots c))
        in
        let merged =
          List.exists
            (fun r ->
              match automorphism_mapping ~budget structure ~pinned r e with
              | Some sigma ->
                  Array.iteri (fun i si -> union i si) sigma;
                  true
              | None -> false)
            cands
        in
        if not merged then
          Hashtbl.replace roots c
            (Option.value ~default:[] (Hashtbl.find_opt roots c) @ [ e ])
      end
    done;
    make_orbits ~pinned ~ids:(Array.init n find) n
  end

let make ?(budget = Fmtk_runtime.Budget.unlimited) structure =
  let n = Structure.size structure in
  let trivial_orbits =
    make_orbits ~pinned:[] ~ids:(Array.init n Fun.id) n
  in
  let t =
    {
      structure;
      size = n;
      budget;
      trivial_orbits;
      root_orbits = trivial_orbits;
      cache = Hashtbl.create 64;
      lock = Mutex.create ();
    }
  in
  t.root_orbits <- compute ~budget structure ~pinned:[];
  t

let rigid t = t.root_orbits.is_trivial
let root t = t.root_orbits

let stabilizer t pinned =
  if t.root_orbits.is_trivial then t.trivial_orbits
  else
    let pinned = List.sort_uniq Int.compare pinned in
    if pinned = [] then t.root_orbits
    else begin
      Mutex.lock t.lock;
      let cached = Hashtbl.find_opt t.cache pinned in
      Mutex.unlock t.lock;
      match cached with
      | Some o -> o
      | None ->
          (* Compute outside the lock: two workers may race on the same
             key, but the results are equal and the last write wins. *)
          let o = compute ~budget:t.budget t.structure ~pinned in
          Mutex.lock t.lock;
          Hashtbl.replace t.cache pinned o;
          Mutex.unlock t.lock;
          o
    end

let refine t o pins =
  if o.is_trivial then o
  else
    let pinned = List.sort_uniq Int.compare (pins @ o.pinned) in
    if pinned = o.pinned then o else stabilizer t pinned

let classes t =
  let o = t.root_orbits in
  let buckets = Hashtbl.create 16 in
  Array.iteri
    (fun e root ->
      Hashtbl.replace buckets root
        (e :: Option.value ~default:[] (Hashtbl.find_opt buckets root)))
    o.ids;
  List.map
    (fun r -> List.rev (Hashtbl.find buckets r))
    (List.sort Int.compare (Hashtbl.fold (fun r _ acc -> r :: acc) buckets []))
