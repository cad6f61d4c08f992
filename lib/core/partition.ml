type t = {
  groups : int array array;
  centroids : float array array;
}

let group_count t = Array.length t.groups

(* The total order every split uses: feature value by [Float.compare]
   (NaN lowest), then candidate index. Indices are distinct, so no two
   candidates tie. *)
let before f i j =
  let c = Float.compare f.(i) f.(j) in
  c < 0 || (c = 0 && i < j)

(* Dimension with the widest [max - min] over [perm.(lo .. hi-1)], NaN
   values skipped; ties go to the lowest dimension, and a range constant
   in every feature (or NaN throughout) returns None (unsplittable). *)
let widest_dim features perm lo hi =
  let best = ref (-1) and best_spread = ref 0.0 in
  Array.iteri
    (fun dim f ->
      let mn = ref infinity and mx = ref neg_infinity in
      for p = lo to hi - 1 do
        let v = f.(perm.(p)) in
        if v < !mn then mn := v;
        if v > !mx then mx := v
      done;
      let s = !mx -. !mn in
      if s > !best_spread then begin
        best := dim;
        best_spread := s
      end)
    features;
  if !best < 0 then None else Some !best

let rec log2 m = if m <= 1 then 0 else 1 + log2 (m / 2)

(* Rearrange [perm.(lo .. hi-1)] so that [perm.(k)] holds the member of
   rank [k - lo] under [before f], every member before it ranks lower and
   every member after it ranks higher. Median-of-three quickselect; after
   2·log2(m) rounds it sorts what is left of the range instead, so no
   input ordering costs more than O(m log m). *)
let select f perm lo hi k =
  let swap a b =
    let t = perm.(a) in
    perm.(a) <- perm.(b);
    perm.(b) <- t
  in
  let rounds = ref (2 * log2 (hi - lo)) in
  let lo = ref lo and hi = ref (hi - 1) in
  while !lo < !hi do
    if !rounds = 0 then begin
      let sub = Array.sub perm !lo (!hi - !lo + 1) in
      Array.sort
        (fun i j -> if i = j then 0 else if before f i j then -1 else 1)
        sub;
      Array.blit sub 0 perm !lo (Array.length sub);
      lo := !hi
    end
    else begin
      decr rounds;
      let mid = !lo + ((!hi - !lo) / 2) in
      if before f perm.(mid) perm.(!lo) then swap mid !lo;
      if before f perm.(!hi) perm.(!lo) then swap !hi !lo;
      if before f perm.(!hi) perm.(mid) then swap !hi mid;
      (* median of three now at [mid]; park it at [hi] and partition *)
      swap mid !hi;
      let pivot = perm.(!hi) and store = ref !lo in
      let pv = f.(pivot) in
      for p = !lo to !hi - 1 do
        (* [before f q pivot], inlined: this is the hot loop of a build *)
        let q = perm.(p) in
        let c = Float.compare f.(q) pv in
        if c < 0 || (c = 0 && q < pivot) then begin
          perm.(p) <- perm.(!store);
          perm.(!store) <- q;
          incr store
        end
      done;
      swap !store !hi;
      if k < !store then hi := !store - 1
      else if k > !store then lo := !store + 1
      else lo := !hi
    end
  done

let min_member perm lo hi =
  let m = ref perm.(lo) in
  for p = lo + 1 to hi - 1 do
    if perm.(p) < !m then m := perm.(p)
  done;
  !m

(* Ranges waiting to be split, largest first, ties to the smallest
   member: (size, min member, lo, hi). The min member is unique per range,
   so the order is total. *)
module Pending = Set.Make (struct
  type t = int * int * int * int

  let compare (s1, m1, _, _) (s2, m2, _, _) =
    if s1 <> s2 then Int.compare s2 s1 else Int.compare m1 m2
end)

let build ~target ~features ~n =
  if n = 0 then { groups = [||]; centroids = [||] }
  else begin
    let target = max 1 (min target n) in
    let perm = Array.init n Fun.id in
    (* [pending] and [final] together always cover [perm] with disjoint
       ranges. *)
    let pending = ref (Pending.singleton (n, 0, 0, n)) and final = ref [] in
    let count = ref 1 in
    while !count < target && not (Pending.is_empty !pending) do
      let ((_, _, lo, hi) as r) = Pending.min_elt !pending in
      pending := Pending.remove r !pending;
      match widest_dim features perm lo hi with
      | None -> final := r :: !final
      | Some dim ->
          let mid = lo + ((hi - lo) / 2) in
          select features.(dim) perm lo hi mid;
          List.iter
            (fun (lo, hi) ->
              let r = (hi - lo, min_member perm lo hi, lo, hi) in
              pending := Pending.add r !pending)
            [ (lo, mid); (mid, hi) ];
          incr count
    done;
    (* Number the ranges by smallest member, label every candidate with
       its range's number, then deal candidates out in ascending order:
       each group comes out ascending without a sort. *)
    let ranges =
      Pending.elements !pending @ !final
      |> List.sort (fun (_, m1, _, _) (_, m2, _, _) -> Int.compare m1 m2)
      |> Array.of_list
    in
    let label = Array.make n 0 and fill = Array.make (Array.length ranges) 0 in
    Array.iteri
      (fun g (_, _, lo, hi) ->
        for p = lo to hi - 1 do
          label.(perm.(p)) <- g
        done)
      ranges;
    let groups = Array.map (fun (size, _, _, _) -> Array.make size 0) ranges in
    for i = 0 to n - 1 do
      let g = label.(i) in
      groups.(g).(fill.(g)) <- i;
      fill.(g) <- fill.(g) + 1
    done;
    let d = Array.length features in
    let centroids =
      Array.map
        (fun g ->
          Array.init d (fun dim ->
              let f = features.(dim) in
              Array.fold_left (fun acc i -> acc +. f.(i)) 0.0 g
              /. float_of_int (Array.length g)))
        groups
    in
    { groups; centroids }
  end
