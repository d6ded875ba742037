(* Volatile page allocator: pids from one free list or the high-water
   mark, page access through the buffer pool.  Nothing here is
   durable, so there is no header, meta page or sync. *)

let default_page_size = 8192

type stats = {
  page_size : int;
  pages : int;
  free_pages : int;
  allocs : int;
  frees : int;
  cows : int;
  pool : Buffer_pool.stats;
}

type t = {
  pf : Page_file.t;
  pool : Buffer_pool.t;
  mutable high_water : int;
  mutable free_list : int list;
  mutable allocs : int;
  mutable frees : int;
}

let payload_bytes t = Page_file.payload_bytes t.pf

let create ~device ?(page_size = default_page_size) ?pool_bytes () =
  if page_size < Page_file.min_page_size then
    invalid_arg "Page_store.create: page_size too small";
  let pf = Page_file.create ~device ~page_size in
  let pool = Buffer_pool.create ?max_bytes:pool_bytes pf in
  { pf; pool; high_water = 0; free_list = []; allocs = 0; frees = 0 }

let open_existing ~device ?pool_bytes () =
  Sim_file.truncate_to device 0;
  create ~device ?pool_bytes ()

let close t = Sim_file.close (Page_file.device t.pf)

let alloc t =
  t.allocs <- t.allocs + 1;
  match t.free_list with
  | pid :: rest ->
    t.free_list <- rest;
    pid
  | [] ->
    let pid = t.high_water in
    t.high_water <- t.high_water + 1;
    pid

let free t pid =
  t.frees <- t.frees + 1;
  Buffer_pool.drop t.pool pid;
  t.free_list <- pid :: t.free_list

(* --- page access (pin/unpin bracketed) --- *)

let pinned t pid ~read ~dirty f =
  let frame = Buffer_pool.pin t.pool pid ~read in
  if dirty then Buffer_pool.mark_dirty t.pool frame;
  Fun.protect ~finally:(fun () -> Buffer_pool.unpin t.pool frame)
    (fun () -> f frame.Buffer_pool.buf)

let with_page t pid f = pinned t pid ~read:true ~dirty:false f
let with_page_mut t pid f = pinned t pid ~read:true ~dirty:true f
let write_fresh t pid f = pinned t pid ~read:false ~dirty:true f

let stats t =
  { page_size = Page_file.page_size t.pf; pages = t.high_water;
    free_pages = List.length t.free_list; allocs = t.allocs; frees = t.frees; cows = 0;
    pool = Buffer_pool.stats t.pool }

let pool t = t.pool
