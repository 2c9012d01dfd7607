module Structure = Fmtk_structure.Structure
module Signature = Fmtk_logic.Signature
module Formula = Fmtk_logic.Formula
module Tuple = Fmtk_structure.Tuple
module Compiled = Fmtk_eval.Compiled

let with_order s ~perm =
  if Signature.mem_rel (Structure.signature s) "lt" then
    invalid_arg "Order_invariance: structure already interprets lt";
  let n = Structure.size s in
  if Array.length perm <> n then
    invalid_arg "Order_invariance: permutation length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun e ->
      if e < 0 || e >= n || seen.(e) then
        invalid_arg "Order_invariance: not a permutation";
      seen.(e) <- true)
    perm;
  let tuples = ref Tuple.Set.empty in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      tuples := Tuple.Set.add [| perm.(i); perm.(j) |] !tuples
    done
  done;
  Structure.with_rel s "lt" 2 !tuples

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let eval_under s phi perm = Compiled.sat (with_order s ~perm) phi

let invariant_exhaustive s phi =
  let n = Structure.size s in
  if n > 7 then None
  else
    let perms = permutations (Structure.domain s) in
    match perms with
    | [] -> Some true
    | first :: rest ->
        let reference = eval_under s phi (Array.of_list first) in
        Some
          (List.for_all
             (fun p -> eval_under s phi (Array.of_list p) = reference)
             rest)

let invariant_sampled ~rng ~trials s phi =
  let n = Structure.size s in
  let random_perm () =
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- tmp
    done;
    perm
  in
  let reference = eval_under s phi (Array.init n Fun.id) in
  let rec go i =
    i >= trials || (eval_under s phi (random_perm ()) = reference && go (i + 1))
  in
  go 0

let eval_under_some_order s phi =
  eval_under s phi (Array.init (Structure.size s) Fun.id)
