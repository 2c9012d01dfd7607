(* Compressed-sparse-row binary relations: two flat int arrays, rows
   sorted and deduplicated. See csr.mli for the invariants. *)

module Vec = struct
  type vec = { mutable data : int array; mutable len : int }

  let create ?(cap = 16) () = { data = Array.make (max cap 1) 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let grown = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 grown 0 v.len;
      v.data <- grown
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let length v = v.len
  let get v i = v.data.(i)
  let clear v = v.len <- 0
  let to_array v = Array.sub v.data 0 v.len
end

type t = { n : int; offs : int array; tgt : int array }

let nodes t = t.n
let edge_count t = t.offs.(t.n)
let row_start t u = t.offs.(u)
let row_end t u = t.offs.(u + 1)
let targets t = t.tgt
let offsets t = t.offs
let degree t u = t.offs.(u + 1) - t.offs.(u)

let max_degree t =
  let best = ref 0 in
  for u = 0 to t.n - 1 do
    let d = degree t u in
    if d > !best then best := d
  done;
  !best

(* Sort the slice [lo, hi) of [arr] in place (via a copy — construction
   only, never on a probe path). *)
let sort_slice arr lo hi =
  let len = hi - lo in
  if len > 1 then begin
    let tmp = Array.sub arr lo len in
    Array.sort Int.compare tmp;
    Array.blit tmp 0 arr lo len
  end

(* Shared tail of every constructor: [raw] holds each row contiguously
   (bounds in [offs]), possibly unsorted with duplicates; sort rows and
   compact away the duplicates. *)
let normalize ~n offs raw =
  let m = offs.(n) in
  for u = 0 to n - 1 do
    sort_slice raw offs.(u) offs.(u + 1)
  done;
  (* Count surviving entries, then compact. *)
  let out_offs = Array.make (n + 1) 0 in
  let keep = ref 0 in
  for u = 0 to n - 1 do
    out_offs.(u) <- !keep;
    for i = offs.(u) to offs.(u + 1) - 1 do
      if i = offs.(u) || raw.(i) <> raw.(i - 1) then incr keep
    done
  done;
  out_offs.(n) <- !keep;
  if !keep = m then { n; offs; tgt = raw }
  else begin
    let tgt = Array.make !keep 0 in
    let w = ref 0 in
    for u = 0 to n - 1 do
      for i = offs.(u) to offs.(u + 1) - 1 do
        if i = offs.(u) || raw.(i) <> raw.(i - 1) then begin
          tgt.(!w) <- raw.(i);
          incr w
        end
      done
    done;
    { n; offs = out_offs; tgt }
  end

let check_endpoint n e =
  if e < 0 || e >= n then
    invalid_arg (Printf.sprintf "Csr: endpoint %d outside domain [0,%d)" e n)

(* Counting sort by source over an abstract edge supply. *)
let build ~n ~m ~(src : int -> int) ~(dst : int -> int) =
  if n < 0 then invalid_arg "Csr: negative node count";
  let check = check_endpoint n in
  let deg = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let u = src i and v = dst i in
    check u;
    check v;
    deg.(u) <- deg.(u) + 1
  done;
  let offs = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offs.(u + 1) <- offs.(u) + deg.(u)
  done;
  let raw = Array.make m 0 in
  let cursor = Array.make (max n 1) 0 in
  Array.blit offs 0 cursor 0 n;
  for i = 0 to m - 1 do
    let u = src i in
    raw.(cursor.(u)) <- dst i;
    cursor.(u) <- cursor.(u) + 1
  done;
  normalize ~n offs raw

let of_edges ~n (src, dst) =
  let m = Array.length src in
  if Array.length dst <> m then
    invalid_arg "Csr.of_edges: src/dst length mismatch";
  build ~n ~m ~src:(Array.get src) ~dst:(Array.get dst)

let of_vecs ~n src dst =
  let m = Vec.length src in
  if Vec.length dst <> m then
    invalid_arg "Csr.of_vecs: src/dst length mismatch";
  build ~n ~m ~src:(Vec.get src) ~dst:(Vec.get dst)

(* A tuple set iterates in [Tuple.compare] order, lexicographic on
   pairs, without duplicates: its pairs already are the rows, in order. *)
let of_tuple_set ~n set =
  if n < 0 then invalid_arg "Csr: negative node count";
  let offs = Array.make (n + 1) 0 in
  let tgt = Array.make (Tuple.Set.cardinal set) 0 in
  let i = ref 0 in
  Tuple.Set.iter
    (fun tup ->
      match tup with
      | [| u; v |] ->
          check_endpoint n u;
          check_endpoint n v;
          offs.(u + 1) <- offs.(u + 1) + 1;
          tgt.(!i) <- v;
          incr i
      | _ -> invalid_arg "Csr.of_tuple_set: non-binary tuple")
    set;
  for u = 0 to n - 1 do
    offs.(u + 1) <- offs.(u + 1) + offs.(u)
  done;
  { n; offs; tgt }

let mem t u v =
  u >= 0 && u < t.n && v >= 0 && v < t.n
  &&
  let lo = ref t.offs.(u) and hi = ref t.offs.(u + 1) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let x = t.tgt.(mid) in
    if x = v then found := true
    else if x < v then lo := mid + 1
    else hi := mid
  done;
  !found

let iter_row t u f =
  for i = t.offs.(u) to t.offs.(u + 1) - 1 do
    f t.tgt.(i)
  done

let iter_edges t f =
  for u = 0 to t.n - 1 do
    for i = t.offs.(u) to t.offs.(u + 1) - 1 do
      f u t.tgt.(i)
    done
  done

let in_degrees t =
  let d = Array.make t.n 0 in
  Array.iter (fun v -> d.(v) <- d.(v) + 1) t.tgt;
  d

(* Counting sort by target; sources arrive in ascending order, so each
   row comes out sorted. *)
let transpose t =
  let offs = Array.make (t.n + 1) 0 in
  Array.iter (fun v -> offs.(v + 1) <- offs.(v + 1) + 1) t.tgt;
  for v = 0 to t.n - 1 do
    offs.(v + 1) <- offs.(v + 1) + offs.(v)
  done;
  let cursor = Array.sub offs 0 t.n in
  let tgt = Array.make (edge_count t) 0 in
  iter_edges t (fun u v ->
      tgt.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1);
  { n = t.n; offs; tgt }

let append a b =
  let n = a.n + b.n in
  let ma = edge_count a and mb = edge_count b in
  let offs = Array.make (n + 1) 0 in
  Array.blit a.offs 0 offs 0 (a.n + 1);
  for u = 0 to b.n do
    offs.(a.n + u) <- ma + b.offs.(u)
  done;
  let tgt = Array.make (ma + mb) 0 in
  Array.blit a.tgt 0 tgt 0 ma;
  for i = 0 to mb - 1 do
    tgt.(ma + i) <- b.tgt.(i) + a.n
  done;
  { n; offs; tgt }

let relabel t perm =
  let m = edge_count t in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let i = ref 0 in
  iter_edges t (fun u v ->
      src.(!i) <- perm.(u);
      dst.(!i) <- perm.(v);
      incr i);
  of_edges ~n:t.n (src, dst)

let equal a b =
  a.n = b.n && a.offs = b.offs && a.tgt = b.tgt
