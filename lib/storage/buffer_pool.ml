(* Buffer pool over a Page_file: pinned frames, dirty tracking, LRU
   eviction under a byte budget — an intrusive doubly-linked LRU
   (head = hot, tail = cold, one mutex) where a pin is the "may not
   evict" condition. *)

type frame = {
  f_pid : int;
  buf : bytes;  (* the page payload; stable address while resident *)
  mutable dirty : bool;
  mutable pins : int;
  mutable prev : frame option;  (* toward head *)
  mutable next : frame option;  (* toward tail *)
}

type stats = {
  lookups : int;
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  overruns : int;
  frames : int;
  dirty_frames : int;
  pinned_frames : int;
  bytes : int;
  max_bytes : int;
}

type t = {
  file : Page_file.t;
  limit : int;
  mu : Mutex.t;
  tbl : (int, frame) Hashtbl.t;
  mutable head : frame option;
  mutable tail : frame option;
  mutable bytes : int;
  mutable lookups : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable overruns : int;
}

let default_max_bytes () =
  match Sys.getenv_opt "LXU_POOL_BYTES" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some b -> b | None -> 16 * 1024 * 1024)
  | None -> 16 * 1024 * 1024

let create ?max_bytes file =
  let limit =
    match max_bytes with Some b -> max b (4 * Page_file.page_size file) | None -> default_max_bytes ()
  in
  { file; limit; mu = Mutex.create (); tbl = Hashtbl.create 256; head = None; tail = None;
    bytes = 0; lookups = 0; hits = 0; misses = 0; evictions = 0; writebacks = 0; overruns = 0 }

(* What one resident frame charges against the budget: the payload
   array (length + header word) plus the frame record, hash slot and
   LRU links, in actual heap words. *)
let frame_bytes t = Page_file.payload_bytes t.file + 8 + (8 * 8) + (3 * 8)

let unlink t f =
  (match f.prev with Some p -> p.next <- f.next | None -> t.head <- f.next);
  (match f.next with Some n -> n.prev <- f.prev | None -> t.tail <- f.prev);
  f.prev <- None;
  f.next <- None

let push_front t f =
  f.prev <- None;
  f.next <- t.head;
  (match t.head with Some h -> h.prev <- Some f | None -> t.tail <- Some f);
  t.head <- Some f

let write_back t f =
  if f.dirty then begin
    Page_file.write t.file f.f_pid f.buf;
    f.dirty <- false;
    t.writebacks <- t.writebacks + 1
  end

(* Evict cold unpinned frames until the budget holds.  Pinned frames
   are skipped; when everything resident is pinned the pool runs over
   budget rather than deadlock (pins are short-lived: a descent holds
   O(tree height) pages), and the frame just admitted counts as an
   overrun. *)
let evict_to_budget t =
  let rec loop candidate =
    if t.bytes > t.limit then
      match candidate with
      | None -> t.overruns <- t.overruns + 1
      | Some f ->
        let colder = f.prev in
        if f.pins = 0 then begin
          write_back t f;
          unlink t f;
          Hashtbl.remove t.tbl f.f_pid;
          t.bytes <- t.bytes - frame_bytes t;
          t.evictions <- t.evictions + 1
        end;
        loop colder
  in
  loop t.tail

(* [pin t pid ~read] returns the (pinned) resident frame for [pid],
   faulting it in from the page file when absent.  With [read = false]
   the frame starts zeroed instead of being read — for pages being
   written for the first time.  Raises whatever Page_file.read raises
   (Torn_page) with the pool state intact. *)
let pin t pid ~read =
  Mutex.lock t.mu;
  t.lookups <- t.lookups + 1;
  match Hashtbl.find_opt t.tbl pid with
  | Some f ->
    t.hits <- t.hits + 1;
    f.pins <- f.pins + 1;
    if t.head != Some f then begin
      unlink t f;
      push_front t f
    end;
    Mutex.unlock t.mu;
    f
  | None ->
    t.misses <- t.misses + 1;
    let f =
      { f_pid = pid; buf = Bytes.make (Page_file.payload_bytes t.file) '\000'; dirty = false;
        pins = 1; prev = None; next = None }
    in
    (if read then
       try Page_file.read t.file pid f.buf
       with e ->
         Mutex.unlock t.mu;
         raise e);
    Hashtbl.replace t.tbl pid f;
    push_front t f;
    t.bytes <- t.bytes + frame_bytes t;
    evict_to_budget t;
    Mutex.unlock t.mu;
    f

let unpin t f =
  Mutex.lock t.mu;
  if f.pins <= 0 then begin
    Mutex.unlock t.mu;
    invalid_arg "Buffer_pool.unpin: frame is not pinned"
  end;
  f.pins <- f.pins - 1;
  Mutex.unlock t.mu

let mark_dirty t f =
  Mutex.lock t.mu;
  f.dirty <- true;
  Mutex.unlock t.mu

(* Forget page [pid] without writing it back — its contents became
   irrelevant (the page was freed).  No-op when not resident. *)
let drop t pid =
  Mutex.lock t.mu;
  (match Hashtbl.find_opt t.tbl pid with
  | None -> ()
  | Some f ->
    if f.pins > 0 then begin
      Mutex.unlock t.mu;
      invalid_arg "Buffer_pool.drop: frame is pinned"
    end;
    unlink t f;
    Hashtbl.remove t.tbl pid;
    t.bytes <- t.bytes - frame_bytes t
  );
  Mutex.unlock t.mu

let stats t =
  Mutex.lock t.mu;
  let dirty = ref 0 and pinned = ref 0 in
  Hashtbl.iter
    (fun _ f ->
      if f.dirty then incr dirty;
      if f.pins > 0 then incr pinned)
    t.tbl;
  let s =
    { lookups = t.lookups; hits = t.hits; misses = t.misses; evictions = t.evictions;
      writebacks = t.writebacks; overruns = t.overruns; frames = Hashtbl.length t.tbl; dirty_frames = !dirty;
      pinned_frames = !pinned; bytes = t.bytes; max_bytes = t.limit }
  in
  Mutex.unlock t.mu;
  s
