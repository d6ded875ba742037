(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent, op id).  The benchmark opens
   spans around its own calls into each layer's public functions —
   nothing inside the program is instrumented — so the per-layer
   numbers come from outside.  When tracing is off, [span] is one
   branch and a direct call.

   Self time of a span is its duration minus the durations of its
   direct children (children never overlap: one thread, nested
   calls). *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** index of the enclosing span, or -1 *)
  op : int;  (** end-to-end operation the span belongs to *)
}

let on = ref false
let spans : span array ref = ref [||]
let count = ref 0
let open_stack = ref []
let op_id = ref 0

let now = Lxu_util.Deadline.now

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let span name f =
  if not !on then f ()
  else begin
    let parent = match !open_stack with i :: _ -> i | [] -> -1 in
    let i = push { name; start = now (); stop = nan; parent; op = !op_id } in
    open_stack := i :: !open_stack;
    let close () =
      !spans.(i).stop <- now ();
      open_stack := List.tl !open_stack
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

(* Starts a new end-to-end operation: spans opened from here on carry
   its id. *)
let next_op () = incr op_id

(* Self seconds of every span: its duration minus its children's. *)
let self_times () =
  let n = !count in
  let self = Array.init n (fun i -> !spans.(i).stop -. !spans.(i).start) in
  for i = 0 to n - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. (s.stop -. s.start)
  done;
  self

let bump tbl key (c, t, s) =
  let c0, t0, s0 = Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0.0, 0.0) in
  Hashtbl.replace tbl key (c0 + c, t0 +. t, s0 +. s)

(* Per name: (calls, total seconds, self seconds). *)
let totals () =
  let self = self_times () in
  let tbl = Hashtbl.create 32 in
  Array.iteri (fun i sf -> let s = !spans.(i) in bump tbl s.name (1, s.stop -. s.start, sf)) self;
  tbl

(* Per (root span name, span name): (calls, total seconds, self
   seconds) — where the time of each kind of top-level op goes. *)
let by_root () =
  let self = self_times () in
  let root = Array.make (Array.length self) 0 in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i sf ->
      let s = !spans.(i) in
      root.(i) <- (if s.parent < 0 then i else root.(s.parent));
      bump tbl (!spans.(root.(i)).name, s.name) (1, s.stop -. s.start, sf))
    self;
  tbl

let write path =
  let oc = open_out path in
  Printf.fprintf oc "name\tstart_s\tend_s\tparent\top\n";
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc "%s\t%.9f\t%.9f\t%d\t%d\n" s.name s.start s.stop s.parent s.op
  done;
  close_out oc
