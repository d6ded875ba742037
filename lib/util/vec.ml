type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let of_array a = { data = Array.copy a; len = Array.length a }
let of_list l = of_array (Array.of_list l)

(* [copy] and [grow] copy the elements with [Array.sub]/[Array.append],
   which initialise the new block.  [Array.make] and then [Array.blit]
   write each word twice, and the blit into a major-heap block pays a
   write barrier per word: that made a copy of 2,014 children twice as
   slow. *)
let copy v =
  if v.len = 0 then create ()
  else if Array.length v.data > v.len then begin
    let data = Array.sub v.data 0 (v.len + 1) in
    (* The spare slot must not keep a dropped element alive. *)
    data.(v.len) <- data.(0);
    { data; len = v.len }
  end
  else { data = Array.append v.data [| v.data.(0) |]; len = v.len }

let length v = v.len
let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  if v.len = cap then v.data <- Array.append v.data (Array.make (max 8 cap) x)

let push v x =
  grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  v.data.(v.len)

let last v = get v (v.len - 1)

let insert_at v i x =
  if i < 0 || i > v.len then invalid_arg "Vec.insert_at: index out of bounds";
  grow v x;
  Array.blit v.data i v.data (i + 1) (v.len - i);
  v.data.(i) <- x;
  v.len <- v.len + 1

let remove_at v i =
  check v i;
  let x = v.data.(i) in
  Array.blit v.data (i + 1) v.data i (v.len - i - 1);
  v.len <- v.len - 1;
  x

let remove_range v i n =
  if n < 0 || i < 0 || i + n > v.len then invalid_arg "Vec.remove_range";
  Array.blit v.data (i + n) v.data i (v.len - i - n);
  v.len <- v.len - n

let move v ~src ~dst ~len =
  if len < 0 || src < 0 || dst < 0 || src + len > v.len || dst + len > v.len then
    invalid_arg "Vec.move: range out of bounds";
  Array.blit v.data src v.data dst len

let clear v = v.len <- 0

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Vec.truncate";
  v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f init v =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) v;
  !acc

let exists p v =
  let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
  go 0

let to_list v = List.init v.len (get v)
let to_array v = Array.sub v.data 0 v.len

let lower_bound v ~compare =
  let lo = ref 0 and hi = ref v.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare v.data.(mid) < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let sort cmp v =
  let a = to_array v in
  Array.sort cmp a;
  Array.blit a 0 v.data 0 v.len
