(* Shadow-paged store: copy-on-write pages under double-buffered meta.

   Pages referenced by the last durable meta are immutable this epoch;
   a mutator writes the new content to a fresh pid.  A checkpoint
   flushes dirty frames, serializes the free list into fresh chain
   pages, syncs, then publishes a new meta page (generation g lands on
   pid [1 + g mod 2]) and syncs again — so at every instant one of the
   two meta pages is a valid, CRC-clean root for recovery, and every
   page it references (tree pages, chain pages) is exactly as it was
   when that meta was written.

   Free-list discipline:
     - [reusable]: free per the durable meta — allocatable now.
       Overwriting one is safe: the durable tree doesn't reference it.
     - [pending]: freed this epoch but referenced by the durable meta
       (a COW'd or deleted tree page).  Not allocatable until the next
       checkpoint publishes a meta that no longer references it.
     - freeing a page allocated this epoch ([fresh]) returns it to
       [reusable] immediately — no durable state ever referenced it.
     - chain pages are allocated from high water (never from
       [reusable], keeping the protocol easy to audit) and the old
       chain joins the free set in the same checkpoint: once the new
       meta is durable, nothing can read the old chain again. *)

let magic = "LXPGSTR1"
let version = 1
let header_len = 20 (* magic + version u32 + page_size u32 + crc u32 *)
let default_page_size = 8192

type root_info = { mutable r_pid : int; mutable r_size : int }

type stats = {
  page_size : int;
  pages : int;  (* high-water mark, includes header + meta pages *)
  reusable_pages : int;
  pending_pages : int;
  fresh_pages : int;
  generation : int;
  ckpt_lsn : int;
  allocs : int;
  frees : int;
  cows : int;
  pool : Buffer_pool.stats;
}

type t = {
  pf : Page_file.t;
  pool : Buffer_pool.t;
  mutable gen : int;
  mutable ckpt_lsn : int;  (* -1 until the first checkpoint *)
  mutable high_water : int;
  mutable reusable : int list;
  mutable pending : int list;
  mutable chain : int list;  (* pids holding the durable free list *)
  fresh : (int, unit) Hashtbl.t;
  roots : (string, root_info) Hashtbl.t;
  mutable allocs : int;
  mutable frees : int;
}

(* --- word access into page payloads (int64 LE; pids/sizes fit) --- *)

let get_w b i = Int64.to_int (Bytes.get_int64_le b (i * 8))
let set_w b i v = Bytes.set_int64_le b (i * 8) (Int64.of_int v)

let payload_bytes t = Page_file.payload_bytes t.pf
let payload_ints t = payload_bytes t / 8
let page_size t = Page_file.page_size t.pf

(* --- raw header at byte 0 (readable before geometry is known) --- *)

let put_u32 b off v =
  Bytes.set_uint8 b off (v land 0xff);
  Bytes.set_uint8 b (off + 1) ((v lsr 8) land 0xff);
  Bytes.set_uint8 b (off + 2) ((v lsr 16) land 0xff);
  Bytes.set_uint8 b (off + 3) ((v lsr 24) land 0xff)

let get_u32 b off =
  Bytes.get_uint8 b off
  lor (Bytes.get_uint8 b (off + 1) lsl 8)
  lor (Bytes.get_uint8 b (off + 2) lsl 16)
  lor (Bytes.get_uint8 b (off + 3) lsl 24)

let write_header device ~page_size =
  let b = Bytes.create header_len in
  Bytes.blit_string magic 0 b 0 8;
  put_u32 b 8 version;
  put_u32 b 12 page_size;
  put_u32 b 16 (Crc32.bytes_sub b ~pos:0 ~len:16);
  Sim_file.write_at device ~off:0 (Bytes.to_string b)

let read_header device =
  let b = Bytes.create header_len in
  let got = Sim_file.read_at device ~off:0 b in
  if got < header_len then failwith "Page_store: short header";
  if Bytes.sub_string b 0 8 <> magic then failwith "Page_store: bad magic";
  if get_u32 b 16 <> Crc32.bytes_sub b ~pos:0 ~len:16 then
    failwith "Page_store: header crc mismatch";
  let v = get_u32 b 8 in
  if v <> version then failwith (Printf.sprintf "Page_store: version %d unsupported" v);
  get_u32 b 12

(* --- meta page (pid 1 + gen mod 2) ---
   words: 0 gen | 1 ckpt_lsn | 2 high_water | 3 chain head (-1) |
          4 free count | 5 root count; then per root 32 bytes:
          16-byte zero-padded name, pid word, size word. *)

let meta_fixed_bytes = 6 * 8
let root_entry_bytes = 32
let meta_pid ~gen = 1 + (gen land 1)

let write_meta t =
  let b = Bytes.make (payload_bytes t) '\000' in
  set_w b 0 t.gen;
  set_w b 1 t.ckpt_lsn;
  set_w b 2 t.high_water;
  (match t.chain with
  | [] -> set_w b 3 (-1)
  | head :: _ -> set_w b 3 head);
  set_w b 4 (List.length t.reusable);
  set_w b 5 (Hashtbl.length t.roots);
  let need = meta_fixed_bytes + (root_entry_bytes * Hashtbl.length t.roots) in
  if need > payload_bytes t then
    failwith (Printf.sprintf "Page_store: %d roots overflow a %d-byte meta page"
                (Hashtbl.length t.roots) (payload_bytes t));
  let off = ref meta_fixed_bytes in
  Hashtbl.iter
    (fun name r ->
      if String.length name > 16 then failwith "Page_store: root name longer than 16 bytes";
      Bytes.blit_string name 0 b !off (String.length name);
      set_w b ((!off / 8) + 2) r.r_pid;
      set_w b ((!off / 8) + 3) r.r_size;
      off := !off + root_entry_bytes)
    t.roots;
  Page_file.write t.pf (meta_pid ~gen:t.gen) b

let parse_meta b =
  let gen = get_w b 0 in
  let lsn = get_w b 1 in
  let hw = get_w b 2 in
  let chain_head = get_w b 3 in
  let nroots = get_w b 5 in
  let roots = Hashtbl.create 8 in
  for i = 0 to nroots - 1 do
    let off = meta_fixed_bytes + (i * root_entry_bytes) in
    let raw = Bytes.sub_string b off 16 in
    let name =
      match String.index_opt raw '\000' with
      | Some z -> String.sub raw 0 z
      | None -> raw
    in
    Hashtbl.replace roots name
      { r_pid = get_w b ((off / 8) + 2); r_size = get_w b ((off / 8) + 3) }
  done;
  (gen, lsn, hw, chain_head, roots)

(* --- free-list chain: [next_pid][count][pid...] per page --- *)

let chain_cap t = payload_ints t - 2

let write_chain t pids =
  (* Fresh chain pages come from high water so they can't collide with
     anything the durable meta references. *)
  let cap = chain_cap t in
  let rec go pids =
    match pids with
    | [] -> (-1, [])
    | _ ->
      let n = min cap (List.length pids) in
      let rec split i acc rest = if i = 0 then (List.rev acc, rest)
        else match rest with
          | [] -> (List.rev acc, [])
          | x :: tl -> split (i - 1) (x :: acc) tl
      in
      let here, rest = split n [] pids in
      let next_head, next_pages = go rest in
      let pid = t.high_water in
      t.high_water <- t.high_water + 1;
      let b = Bytes.make (payload_bytes t) '\000' in
      set_w b 0 next_head;
      set_w b 1 n;
      List.iteri (fun i p -> set_w b (2 + i) p) here;
      Page_file.write t.pf pid b;
      (pid, pid :: next_pages)
  in
  go pids

let read_chain t head =
  let b = Bytes.create (payload_bytes t) in
  let rec go pid pids pages =
    if pid < 0 then (pids, List.rev pages)
    else begin
      Page_file.read t.pf pid b;
      let next = get_w b 0 in
      let n = get_w b 1 in
      let pids = ref pids in
      for i = 0 to n - 1 do
        pids := get_w b (2 + i) :: !pids
      done;
      go next !pids (pid :: pages)
    end
  in
  go head [] []

(* --- lifecycle --- *)

let create ~device ?(page_size = default_page_size) ?pool_bytes () =
  if page_size < Page_file.min_page_size then
    invalid_arg "Page_store.create: page_size too small";
  let pf = Page_file.create ~device ~page_size in
  let pool = Buffer_pool.create ?max_bytes:pool_bytes pf in
  let t =
    { pf; pool; gen = 0; ckpt_lsn = -1; high_water = 3; reusable = []; pending = [];
      chain = []; fresh = Hashtbl.create 64; roots = Hashtbl.create 8; allocs = 0;
      frees = 0 }
  in
  write_header device ~page_size;
  write_meta t;
  Sim_file.sync device;
  t

let open_existing ~device ?pool_bytes () =
  let page_size = read_header device in
  let pf = Page_file.create ~device ~page_size in
  let pool = Buffer_pool.create ?max_bytes:pool_bytes pf in
  let read_meta pid =
    let b = Bytes.create (Page_file.payload_bytes pf) in
    match Page_file.read pf pid b with
    | () -> Some (parse_meta b)
    | exception Page_file.Torn_page _ -> None
  in
  let best =
    match (read_meta 1, read_meta 2) with
    | None, None -> failwith "Page_store: no valid meta page"
    | Some m, None | None, Some m -> m
    | Some ((g1, _, _, _, _) as m1), Some ((g2, _, _, _, _) as m2) ->
      if g1 >= g2 then m1 else m2
  in
  let gen, ckpt_lsn, high_water, chain_head, roots = best in
  let t =
    { pf; pool; gen; ckpt_lsn; high_water; reusable = []; pending = []; chain = [];
      fresh = Hashtbl.create 64; roots; allocs = 0; frees = 0 }
  in
  let pids, chain_pages = read_chain t chain_head in
  t.reusable <- pids;
  t.chain <- chain_pages;
  t

let close t =
  Sim_file.close (Page_file.device t.pf)

(* --- allocation / copy-on-write --- *)

let alloc t =
  t.allocs <- t.allocs + 1;
  let pid =
    match t.reusable with
    | pid :: rest ->
      t.reusable <- rest;
      pid
    | [] ->
      let pid = t.high_water in
      t.high_water <- t.high_water + 1;
      pid
  in
  Hashtbl.replace t.fresh pid ();
  pid

let is_fresh t pid = Hashtbl.mem t.fresh pid

let free t pid =
  t.frees <- t.frees + 1;
  Buffer_pool.drop t.pool pid;
  if Hashtbl.mem t.fresh pid then begin
    Hashtbl.remove t.fresh pid;
    t.reusable <- pid :: t.reusable
  end
  else t.pending <- pid :: t.pending

(* --- page access (pin/unpin bracketed) --- *)

let with_page t pid f =
  let frame = Buffer_pool.pin t.pool pid ~read:true in
  Fun.protect ~finally:(fun () -> Buffer_pool.unpin t.pool frame)
    (fun () -> f frame.Buffer_pool.buf)

let with_page_mut t pid f =
  if not (Hashtbl.mem t.fresh pid) then
    invalid_arg "Page_store.with_page_mut: page is not fresh (write a fresh copy instead)";
  let frame = Buffer_pool.pin t.pool pid ~read:true in
  Buffer_pool.mark_dirty t.pool frame;
  Fun.protect ~finally:(fun () -> Buffer_pool.unpin t.pool frame)
    (fun () -> f frame.Buffer_pool.buf)

let write_fresh t pid f =
  if not (Hashtbl.mem t.fresh pid) then
    invalid_arg "Page_store.write_fresh: page is not fresh";
  let frame = Buffer_pool.pin t.pool pid ~read:false in
  Buffer_pool.mark_dirty t.pool frame;
  Fun.protect ~finally:(fun () -> Buffer_pool.unpin t.pool frame)
    (fun () -> f frame.Buffer_pool.buf)

(* --- roots --- *)

let set_root t name ~pid ~size =
  if String.length name > 16 then invalid_arg "Page_store.set_root: name longer than 16 bytes";
  match Hashtbl.find_opt t.roots name with
  | Some r ->
    r.r_pid <- pid;
    r.r_size <- size
  | None -> Hashtbl.replace t.roots name { r_pid = pid; r_size = size }

let root t name =
  match Hashtbl.find_opt t.roots name with
  | Some r -> Some (r.r_pid, r.r_size)
  | None -> None

(* --- checkpoint --- *)

let checkpoint t ~lsn =
  (* Everything freeable once the new meta is durable: pages already
     allocatable, pages freed this epoch, and the old chain itself. *)
  let future_free = t.reusable @ t.pending @ t.chain in
  let chain_head, chain_pages = write_chain t future_free in
  ignore chain_head;
  Buffer_pool.flush_all t.pool;
  Sim_file.sync (Page_file.device t.pf);
  t.gen <- t.gen + 1;
  t.ckpt_lsn <- lsn;
  t.chain <- chain_pages;
  t.reusable <- future_free;
  t.pending <- [];
  write_meta t;
  Sim_file.sync (Page_file.device t.pf);
  Hashtbl.reset t.fresh

let checkpoint_lsn t = t.ckpt_lsn

let stats t =
  { page_size = page_size t; pages = t.high_water; reusable_pages = List.length t.reusable;
    pending_pages = List.length t.pending; fresh_pages = Hashtbl.length t.fresh;
    generation = t.gen; ckpt_lsn = t.ckpt_lsn; allocs = t.allocs; frees = t.frees;
    cows = 0; pool = Buffer_pool.stats t.pool }

let pool t = t.pool
