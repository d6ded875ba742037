(* Row [i] is not after row [j]. *)
let le (p : int array) (s : int array) i j =
  let pi = Array.unsafe_get p i and pj = Array.unsafe_get p j in
  pi < pj || (pi = pj && Array.unsafe_get s i <= Array.unsafe_get s j)

let check_lengths who p s =
  if Array.length p <> Array.length s then
    invalid_arg (Printf.sprintf "Run_merge.%s: columns of unequal length" who)

let count_runs p s =
  let n = Array.length p in
  let r = ref (min n 1) in
  for i = 1 to n - 1 do
    if not (le p s (i - 1) i) then incr r
  done;
  !r

let runs p s =
  check_lengths "runs" p s;
  count_runs p s

(* Merges the adjacent sorted runs [lo, mid) and [mid, hi) in place.
   Left-run rows not after the right run's first row are already where
   they belong (found by binary search), so only the rest of the left
   run is copied out to [tp]/[ts] and merged back from the front: the
   write position never passes the right run's next unread row, and
   right-run rows left over at the end are already in place.  Ties
   take the left run first, which keeps the sort stable.  Copies are
   plain loops: on [int array]s they compile to bare stores, where
   [Array.blit] into the major heap pays a write barrier per word. *)
let merge_runs (p : int array) (s : int array) (tp : int array) (ts : int array) lo mid hi =
  let lo =
    let l = ref lo and h = ref mid in
    while !l < !h do
      let m = (!l + !h) lsr 1 in
      if le p s m mid then l := m + 1 else h := m
    done;
    !l
  in
  let len = mid - lo in
  if len > 0 then begin
    for q = 0 to len - 1 do
      Array.unsafe_set tp q (Array.unsafe_get p (lo + q));
      Array.unsafe_set ts q (Array.unsafe_get s (lo + q))
    done;
    let i = ref 0 and j = ref mid and k = ref lo in
    while !i < len && !j < hi do
      let a = !i and b = !j in
      let pa = Array.unsafe_get tp a and pb = Array.unsafe_get p b in
      if pa < pb || (pa = pb && Array.unsafe_get ts a <= Array.unsafe_get s b) then begin
        Array.unsafe_set p !k pa;
        Array.unsafe_set s !k (Array.unsafe_get ts a);
        i := a + 1
      end
      else begin
        Array.unsafe_set p !k pb;
        Array.unsafe_set s !k (Array.unsafe_get s b);
        j := b + 1
      end;
      incr k
    done;
    for q = 0 to len - !i - 1 do
      Array.unsafe_set p (!k + q) (Array.unsafe_get tp (!i + q));
      Array.unsafe_set s (!k + q) (Array.unsafe_get ts (!i + q))
    done
  end

let sort p s =
  check_lengths "sort" p s;
  let n = Array.length p in
  let r = count_runs p s in
  if r > 1 then begin
    (* [bounds.(k)] is where run [k] starts; [bounds.(r)] is [n]. *)
    let bounds = Array.make (r + 1) n in
    let k = ref 1 in
    bounds.(0) <- 0;
    for i = 1 to n - 1 do
      if not (le p s (i - 1) i) then begin
        bounds.(!k) <- i;
        incr k
      end
    done;
    (* Scratch for the largest left run any round copies out. *)
    let tp = Array.make n 0 and ts = Array.make n 0 in
    let r = ref r in
    while !r > 1 do
      (* One round: runs 2q and 2q+1 become run q; an odd last run
         stays as it is. *)
      for q = 0 to (!r / 2) - 1 do
        merge_runs p s tp ts bounds.(2 * q) bounds.((2 * q) + 1) bounds.((2 * q) + 2)
      done;
      let merged = (!r + 1) / 2 in
      for q = 0 to merged - 1 do
        bounds.(q) <- bounds.(2 * q)
      done;
      bounds.(merged) <- n;
      r := merged
    done
  end
