module Structure = Fmtk_structure.Structure
module Formula = Fmtk_logic.Formula
module Signature = Fmtk_logic.Signature
module Tuple = Fmtk_structure.Tuple

(* Enumerate subsets of [0..n-1] of size exactly [k], as lists. *)
let rec subsets_of_size n k start =
  if k = 0 then [ [] ]
  else if start >= n then []
  else
    List.map (fun rest -> start :: rest) (subsets_of_size n (k - 1) (start + 1))
    @ subsets_of_size n k (start + 1)

(* Adjacency of "E" as bitset rows: [adjacent z u] iff [E(z,u)]. *)
let bitset_rows g =
  let n = Structure.size g in
  let stride = (n + 7) / 8 in
  let bits = Bytes.make (n * stride) '\000' in
  Structure.iter_rel2 g "E" (fun z u ->
      let i = (z * stride) + (u lsr 3) in
      Bytes.set_uint8 bits i (Bytes.get_uint8 bits i lor (1 lsl (u land 7))));
  fun z u ->
    Bytes.get_uint8 bits ((z * stride) + (u lsr 3)) land (1 lsl (u land 7)) <> 0

let kec_failure ~k g =
  let n = Structure.size g in
  let adjacent = bitset_rows g in
  (* For each subset S with 1 <= |S| <= k, every adjacency bitmask over S
     must be realized by some z outside S. Subsets S = s.(0) < .. <
     s.(size-1) come in lexicographic order; [masks.(d).(z)] is z's
     adjacency mask over s.(0..d), extended one element per level. The
     first failure is the first subset with an unrealized mask, and its
     smallest such mask. *)
  let s = Array.make (max k 1) 0 in
  let in_s = Array.make n false in
  let masks = Array.init (max k 1) (fun _ -> Array.make n 0) in
  let none = Array.make n 0 in
  let seen = Array.make (1 lsl max k 1) 0 and stamp = ref 0 in
  let witness size =
    incr stamp;
    let total = 1 lsl size and realized = ref 0 and z = ref 0 in
    let last = masks.(size - 1) in
    while !realized < total && !z < n do
      if not in_s.(!z) then begin
        let m = last.(!z) in
        if seen.(m) <> !stamp then begin
          seen.(m) <- !stamp;
          incr realized
        end
      end;
      incr z
    done;
    if !realized = total then None
    else
      let mask = ref 0 in
      while seen.(!mask) = !stamp do
        incr mask
      done;
      let side bit =
        List.filter_map
          (fun i -> if (!mask lsr i) land 1 = bit then Some s.(i) else None)
          (List.init size Fun.id)
      in
      Some (side 1, side 0)
  in
  let rec choose size d start =
    if d = size then witness size
    else
      let rec next v =
        if v > n - (size - d) then None
        else begin
          s.(d) <- v;
          in_s.(v) <- true;
          let prev = if d = 0 then none else masks.(d - 1) in
          let cur = masks.(d) and bit = 1 lsl d in
          for z = 0 to n - 1 do
            cur.(z) <- (if adjacent z v then prev.(z) lor bit else prev.(z))
          done;
          let found = choose size (d + 1) (v + 1) in
          in_s.(v) <- false;
          match found with None -> next (v + 1) | Some _ -> found
        end
      in
      next start
  in
  let rec try_sizes size =
    if size > k then None
    else
      match choose size 0 0 with None -> try_sizes (size + 1) | found -> found
  in
  try_sizes 1

let is_kec ~k g = kec_failure ~k g = None

let extension_axiom ~xs ~ys =
  let open Formula in
  let xvars = List.init xs (fun i -> Printf.sprintf "x%d" (i + 1)) in
  let yvars = List.init ys (fun i -> Printf.sprintf "y%d" (i + 1)) in
  let all = xvars @ yvars in
  let rec pairs = function
    | [] -> []
    | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
  in
  let distinct = List.map (fun (a, b) -> neq (v a) (v b)) (pairs all) in
  let z = "z" in
  let z_conditions =
    List.map (fun x -> rel "E" [ v z; v x ]) xvars
    @ List.map (fun y -> not_ (rel "E" [ v z; v y ])) yvars
    @ List.map (fun a -> neq (v z) (v a)) all
  in
  forall_many all
    (implies (conj distinct) (exists z (conj z_conditions)))

let sigma_extension_holds ~k g =
  let sg = Structure.signature g in
  let n = Structure.size g in
  (* Atoms on a new element z over a base set S: all tuples over S ∪ {z}
     that mention z, for every relation. z is encoded as -1. *)
  let atoms_over s =
    List.concat_map
      (fun (rname, arity) ->
        let elems = -1 :: s in
        let rec tuples i =
          if i = 0 then [ [] ]
          else
            List.concat_map
              (fun rest -> List.map (fun e -> e :: rest) elems)
              (tuples (i - 1))
        in
        List.filter_map
          (fun tup -> if List.mem (-1) tup then Some (rname, tup) else None)
          (tuples arity))
      (Signature.rels sg)
  in
  let type_of_z s z =
    List.map
      (fun (rname, tup) ->
        let concrete =
          Array.of_list (List.map (fun e -> if e = -1 then z else e) tup)
        in
        Structure.mem g rname concrete)
      (atoms_over s)
  in
  let rec check_sizes size =
    if size > k then true
    else
      List.for_all
        (fun s ->
          let atoms = atoms_over s in
          let total = 1 lsl List.length atoms in
          let seen = Hashtbl.create total in
          List.iter
            (fun z -> if not (List.mem z s) then Hashtbl.replace seen (type_of_z s z) ())
            (Structure.domain g);
          Hashtbl.length seen = total)
        (subsets_of_size n size 0)
      && check_sizes (size + 1)
  in
  check_sizes 0
