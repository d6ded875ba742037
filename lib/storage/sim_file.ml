type fault =
  | Truncate_tail of int
  | Bit_flip of int
  | Duplicate_tail of int

(* Memory backing: a growable byte region supporting both appends (the
   WAL) and positional writes (the page file).  [len] is the logical
   file length; [data] may be longer. *)
type mem = { mutable data : Bytes.t; mutable len : int }

(* One descriptor for appends and positional I/O alike, opened
   without [O_APPEND] (page writes land at their offsets): an append
   seeks to the end first.  Nothing is buffered in the process, so
   [close] has nothing left to write. *)
type file_backing = {
  path : string;
  fd : Unix.file_descr;
  mutable closed : bool;
}

type backing =
  | Memory of mem
  | File of file_backing

(* A buffered write: [at = None] appends, [at = Some off] lands at
   byte offset [off]. *)
type pending_write = { at : int option; data : string }

type t = {
  backing : backing;
  faults : (int, fault) Hashtbl.t;
  mutable failing : int list;  (* write indices that fail as on a full disk *)
  mutable nwrites : int;
  write_back : bool;
  (* Writes buffered in the "page cache" (write-back mode only):
     oldest first.  They reach [backing] only on {!sync} — or the
     persisted prefix of a {!crash}. *)
  mutable pending : pending_write list;  (* newest first *)
}

let in_memory ?(write_back = false) () =
  { backing = Memory { data = Bytes.create 256; len = 0 }; faults = Hashtbl.create 4;
    failing = []; nwrites = 0; write_back; pending = [] }

(* A failed system call on [path] raises [Sys_error], as a failed
   channel operation would: callers see one exception for a full disk,
   injected or real. *)
let unix path call x =
  try call x with Unix.Unix_error (e, _, _) -> raise (Sys_error (path ^ ": " ^ Unix.error_message e))

let open_path ?(append = false) ?(write_back = false) path =
  let flags = Unix.[ O_RDWR; O_CREAT ] @ if append then [] else [ Unix.O_TRUNC ] in
  let fd = unix path (Unix.openfile path flags) 0o644 in
  { backing = File { path; fd; closed = false }; faults = Hashtbl.create 4;
    failing = []; nwrites = 0; write_back; pending = [] }

let is_write_back t = t.write_back

let inject t ~nth_write fault = Hashtbl.replace t.faults nth_write fault
let fail_write t ~nth_write = t.failing <- nth_write :: t.failing

let apply_fault data = function
  | Truncate_tail n ->
    let keep = max 0 (String.length data - max 0 n) in
    String.sub data 0 keep
  | Duplicate_tail n ->
    let n = min (max 0 n) (String.length data) in
    data ^ String.sub data (String.length data - n) n
  | Bit_flip bit ->
    if String.length data = 0 then data
    else begin
      let bit = max 0 (min bit ((String.length data * 8) - 1)) in
      let b = Bytes.of_string data in
      let i = bit / 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (0x80 lsr (bit mod 8))));
      Bytes.to_string b
    end

let random_fault rng ~len =
  let len = max 1 len in
  match Lxu_workload.Rng.int rng 3 with
  | 0 -> Truncate_tail (1 + Lxu_workload.Rng.int rng len)
  | 1 -> Bit_flip (Lxu_workload.Rng.int rng (len * 8))
  | _ -> Duplicate_tail (1 + Lxu_workload.Rng.int rng len)

let mem_reserve (m : mem) n =
  if n > Bytes.length m.data then begin
    let cap = ref (max 256 (Bytes.length m.data)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let grown = Bytes.make !cap '\000' in
    Bytes.blit m.data 0 grown 0 m.len;
    m.data <- grown
  end

let mem_write_at (m : mem) ~off data =
  let n = String.length data in
  mem_reserve m (off + n);
  (* A positional write past the end leaves a zero-filled hole, as a
     sparse file would. *)
  if off > m.len then Bytes.fill m.data m.len (off - m.len) '\000';
  Bytes.blit_string data 0 m.data off n;
  if off + n > m.len then m.len <- off + n

let file_fd f =
  if f.closed then invalid_arg "Sim_file: device is closed";
  f.fd

(* [at = None] appends: the descriptor has no [O_APPEND], so seek to
   the end first. *)
let write_all f ~at data =
  let fd = file_fd f in
  let buf = Bytes.unsafe_of_string data in
  (match at with
  | None -> ignore (unix f.path (Unix.lseek fd 0) Unix.SEEK_END)
  | Some off -> ignore (unix f.path (Unix.lseek fd off) Unix.SEEK_SET));
  let rec go pos len =
    if len > 0 then begin
      let n = unix f.path (Unix.write fd buf pos) len in
      go (pos + n) (len - n)
    end
  in
  go 0 (String.length data)

let persist_at t ~at data =
  match (t.backing, at) with
  | Memory m, None -> mem_write_at m ~off:m.len data
  | Memory m, Some off -> mem_write_at m ~off data
  | File f, _ -> write_all f ~at data

let write_gen t ~at data =
  if List.mem t.nwrites t.failing then begin
    t.nwrites <- t.nwrites + 1;
    (* What a write or flush into a full file system raises. *)
    raise (Sys_error "No space left on device")
  end;
  let data =
    match Hashtbl.find_opt t.faults t.nwrites with
    | Some f -> apply_fault data f
    | None -> data
  in
  t.nwrites <- t.nwrites + 1;
  if t.write_back then begin
    (match t.backing with
    | File f when f.closed -> invalid_arg "Sim_file.write: device is closed"
    | _ -> ());
    t.pending <- { at; data } :: t.pending
  end
  else persist_at t ~at data

let write t data = write_gen t ~at:None data
let write_at t ~off data = write_gen t ~at:(Some off) data

let writes t = t.nwrites
let pending_writes t = List.length t.pending

(* Moves buffered writes into the backing (oldest first).  Does not
   fsync — the caller decides whether this is a [sync] or the lucky
   prefix of a [crash]. *)
let drain t =
  List.iter (fun w -> persist_at t ~at:w.at w.data) (List.rev t.pending);
  t.pending <- []

let sync t =
  drain t;
  match t.backing with
  | Memory _ -> ()
  | File f -> if not f.closed then unix f.path Unix.fsync f.fd

let crash ?(keep = 0) t =
  let n = List.length t.pending in
  let kept = max 0 (min keep n) in
  (* [pending] is newest first: the oldest [kept] writes survive. *)
  let survivors = ref [] and dropped = ref 0 in
  List.iteri
    (fun i w -> if n - i <= kept then survivors := w :: !survivors else incr dropped)
    t.pending;
  List.iter (fun w -> persist_at t ~at:w.at w.data) !survivors;
  t.pending <- []

let backed_size t =
  match t.backing with
  | Memory m -> m.len
  | File f -> (Unix.stat f.path).Unix.st_size

let size t =
  let backed = backed_size t in
  (* Replay the buffered writes over the backed length: appends extend
     the end, positional writes extend it only when they reach past. *)
  List.fold_left
    (fun acc w ->
      match w.at with
      | None -> acc + String.length w.data
      | Some off -> max acc (off + String.length w.data))
    backed (List.rev t.pending)

let durable_contents t =
  match t.backing with
  | Memory m -> Bytes.sub_string m.data 0 m.len
  | File f ->
    let ic = open_in_bin f.path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let contents t =
  let base = durable_contents t in
  match t.pending with
  | [] -> base
  | pending ->
    let m = { data = Bytes.of_string base; len = String.length base } in
    List.iter
      (fun w ->
        match w.at with
        | None -> mem_write_at m ~off:m.len w.data
        | Some off -> mem_write_at m ~off w.data)
      (List.rev pending);
    Bytes.sub_string m.data 0 m.len

let read_at t ~off buf =
  if off < 0 then invalid_arg "Sim_file.read_at: negative offset";
  let want = Bytes.length buf in
  let got =
    match t.backing with
    | Memory m ->
      let n = max 0 (min want (m.len - off)) in
      Bytes.blit m.data off buf 0 n;
      n
    | File f ->
      let fd = file_fd f in
      ignore (unix f.path (Unix.lseek fd off) Unix.SEEK_SET);
      let rec loop pos =
        if pos >= want then pos
        else
          match unix f.path (Unix.read fd buf pos) (want - pos) with
          | 0 -> pos
          | n -> loop (pos + n)
      in
      loop 0
  in
  (* Overlay the buffered (not yet durable) writes, oldest first: a
     read through the page cache sees them, exactly like [contents]. *)
  if t.pending = [] then got
  else begin
    let backed = backed_size t in
    let got = ref got in
    let cursor = ref backed in
    List.iter
      (fun w ->
        let woff = match w.at with None -> !cursor | Some o -> o in
        let wlen = String.length w.data in
        (match w.at with None -> cursor := !cursor + wlen | Some o -> cursor := max !cursor (o + wlen));
        (* Intersection of [woff, woff+wlen) with [off, off+want). *)
        let lo = max woff off and hi = min (woff + wlen) (off + want) in
        if hi > lo then begin
          Bytes.blit_string w.data (lo - woff) buf (lo - off) (hi - lo);
          if hi - off > !got then got := hi - off
        end)
      (List.rev t.pending);
    !got
  end

let truncate_to t n =
  drain t;
  match t.backing with
  | Memory m -> m.len <- min n m.len
  | File f ->
    let fd = file_fd f in
    unix f.path (Unix.ftruncate fd) (min n (Unix.fstat fd).Unix.st_size)

let close t =
  match t.backing with
  | Memory _ -> ()
  | File f ->
    if not f.closed then begin
      f.closed <- true;
      try Unix.close f.fd with Unix.Unix_error _ -> ()
    end

(* fsync on a directory makes renames/creates/unlinks inside it
   durable (POSIX leaves metadata ordering otherwise unspecified).
   Some filesystems reject fsync on directory fds; durability simply
   is not available there, so those errors are swallowed. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* Without the file fsync the rename can land before the data; without
   the directory fsync the rename itself can be lost — either way a
   crash could leave a file that claims state it does not hold. *)
let replace path write =
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        write oc;
        Stdlib.flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path
  with
  | () -> fsync_dir (Filename.dirname path)
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let remove_durable path =
  if Sys.file_exists path then begin
    Sys.remove path;
    fsync_dir (Filename.dirname path)
  end

let mkdir_p dir =
  let rec make d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      make (Filename.dirname d);
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  make dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
