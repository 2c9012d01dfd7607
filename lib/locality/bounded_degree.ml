module Structure = Fmtk_structure.Structure
module Formula = Fmtk_logic.Formula
module Compiled = Fmtk_eval.Compiled

type t = {
  phi : Formula.t;
  degree_bound : int;
  radius : int;
  threshold : int;
  registry : Neighborhood.registry;
  cache : ((int * int) list, bool) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let make ?radius ?threshold phi ~degree_bound =
  if not (Formula.is_sentence phi) then
    invalid_arg "Bounded_degree.make: not a sentence";
  let rank = Formula.quantifier_rank phi in
  let radius = Option.value ~default:(Hanf.fo_radius ~rank) radius in
  let threshold =
    Option.value ~default:(Hanf.fo_threshold ~rank ~degree:degree_bound) threshold
  in
  {
    phi;
    degree_bound;
    radius;
    threshold;
    registry = Neighborhood.create_registry ();
    cache = Hashtbl.create 64;
    hits = 0;
    misses = 0;
  }

let radius ev = ev.radius
let threshold ev = ev.threshold
let cache_stats ev = (ev.hits, ev.misses)

let truncated_census ?workers ?budget ev s =
  let census = Neighborhood.census ?workers ?budget ev.registry s ~radius:ev.radius in
  List.map (fun (id, c) -> (id, min c ev.threshold)) census

let eval ?workers ?budget ev s =
  let deg = Gaifman.degree s in
  if deg > ev.degree_bound then
    invalid_arg
      (Printf.sprintf
         "Bounded_degree.eval: degree %d exceeds declared bound %d" deg
         ev.degree_bound);
  let key = truncated_census ?workers ?budget ev s in
  match Hashtbl.find_opt ev.cache key with
  | Some v ->
      ev.hits <- ev.hits + 1;
      v
  | None ->
      ev.misses <- ev.misses + 1;
      let v = Compiled.sat ?budget s ev.phi in
      Hashtbl.replace ev.cache key v;
      v
