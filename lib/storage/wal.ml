open Lxu_storage_core
type op =
  | Insert of { gp : int; text : string }
  | Remove of { gp : int; len : int }
  | Pack of { gp : int; len : int }
  | Rebuild

type header = { mode : Lxu_seglog.Update_log.mode; index_attributes : bool }

let magic = "LXUWAL1 "
let header_bytes = String.length magic + 3

let encode_header h =
  Printf.sprintf "%s%c%c\n" magic
    (match h.mode with Lxu_seglog.Update_log.Lazy_dynamic -> 'D' | Lazy_static -> 'S')
    (if h.index_attributes then '1' else '0')

(* Fixed record part: 8-byte lsn + kind + 4-byte payload length. *)
let fixed_bytes = 13

let kind_of_op = function Insert _ -> 'I' | Remove _ -> 'R' | Pack _ -> 'P' | Rebuild -> 'B'

let encode_record buf ~lsn op =
  let start = Buffer.length buf in
  Buffer.add_int64_le buf (Int64.of_int lsn);
  Buffer.add_char buf (kind_of_op op);
  let payload = Buffer.create 24 in
  (match op with
  | Insert { gp; text } ->
    Buffer.add_int64_le payload (Int64.of_int gp);
    Buffer.add_string payload text
  | Remove { gp; len } | Pack { gp; len } ->
    Buffer.add_int64_le payload (Int64.of_int gp);
    Buffer.add_int64_le payload (Int64.of_int len)
  | Rebuild -> ());
  Buffer.add_int32_le buf (Int32.of_int (Buffer.length payload));
  Buffer.add_buffer buf payload;
  let body = Buffer.sub buf start (Buffer.length buf - start) in
  Buffer.add_int32_le buf (Int32.of_int (Crc32.string body))

(* --- scanning -------------------------------------------------------- *)

type record = { lsn : int; op : op; end_off : int }

type scan_result = {
  header : header;
  records : record list;
  valid_bytes : int;
  total_bytes : int;
  corruption : string option;
}

let scan ?path bytes =
  let n = String.length bytes in
  let where off =
    match path with
    | Some p -> Printf.sprintf "%s: byte %d" p off
    | None -> Printf.sprintf "byte %d" off
  in
  let bad_header off msg =
    failwith (Printf.sprintf "not a lazyxml WAL: %s (%s)" msg (where off))
  in
  if n < header_bytes then bad_header n "truncated header";
  if String.sub bytes 0 (String.length magic) <> magic then bad_header 0 "bad magic";
  let mode =
    match bytes.[String.length magic] with
    | 'D' -> Lxu_seglog.Update_log.Lazy_dynamic
    | 'S' -> Lxu_seglog.Update_log.Lazy_static
    | c -> bad_header (String.length magic) (Printf.sprintf "unknown mode %C" c)
  in
  let index_attributes =
    match bytes.[String.length magic + 1] with
    | '1' -> true
    | '0' -> false
    | c -> bad_header (String.length magic + 1) (Printf.sprintf "bad attrs flag %C" c)
  in
  if bytes.[header_bytes - 1] <> '\n' then bad_header (header_bytes - 1) "bad header terminator";
  let header = { mode; index_attributes } in
  let records = ref [] in
  let rec loop off prev_lsn =
    if off = n then (off, None)
    else if n - off < fixed_bytes + 4 then (off, Some (Printf.sprintf "torn record header at %s" (where off)))
    else begin
      let lsn = Int64.to_int (String.get_int64_le bytes off) in
      let kind = bytes.[off + 8] in
      let plen = Int32.to_int (String.get_int32_le bytes (off + 9)) in
      if plen < 0 || off + fixed_bytes + plen + 4 > n then
        (off, Some (Printf.sprintf "torn record body at %s" (where off)))
      else begin
        let stored = Int32.to_int (String.get_int32_le bytes (off + fixed_bytes + plen)) land 0xFFFFFFFF in
        let computed = Crc32.sub bytes ~pos:off ~len:(fixed_bytes + plen) in
        if stored <> computed then
          (off, Some (Printf.sprintf "checksum mismatch at %s" (where off)))
        else if lsn <= prev_lsn then
          (off, Some (Printf.sprintf "non-monotonic lsn %d after %d at %s (duplicated tail?)" lsn prev_lsn (where off)))
        else begin
          let gp_at i = Int64.to_int (String.get_int64_le bytes i) in
          let op =
            match kind with
            | 'I' when plen >= 8 ->
              Some (Insert { gp = gp_at (off + fixed_bytes);
                             text = String.sub bytes (off + fixed_bytes + 8) (plen - 8) })
            | 'R' when plen = 16 ->
              Some (Remove { gp = gp_at (off + fixed_bytes); len = gp_at (off + fixed_bytes + 8) })
            | 'P' when plen = 16 ->
              Some (Pack { gp = gp_at (off + fixed_bytes); len = gp_at (off + fixed_bytes + 8) })
            | 'B' when plen = 0 -> Some Rebuild
            | _ -> None
          in
          match op with
          | None -> (off, Some (Printf.sprintf "malformed %C record at %s" kind (where off)))
          | Some op ->
            let end_off = off + fixed_bytes + plen + 4 in
            records := { lsn; op; end_off } :: !records;
            loop end_off lsn
        end
      end
    end
  in
  let valid_bytes, corruption = loop header_bytes 0 in
  { header; records = List.rev !records; valid_bytes; total_bytes = n; corruption }

(* --- writing --------------------------------------------------------- *)

type t = {
  device : Sim_file.t;
  buf : Buffer.t;
  mutable next : int;
  mutable pending : int;
}

let create ?(next_lsn = 1) ~device header =
  Sim_file.write device (encode_header header);
  { device; buf = Buffer.create 256; next = next_lsn; pending = 0 }

let attach ~device ~next_lsn = { device; buf = Buffer.create 256; next = next_lsn; pending = 0 }

let append t op =
  let lsn = t.next in
  encode_record t.buf ~lsn op;
  t.next <- lsn + 1;
  t.pending <- t.pending + 1;
  lsn

let next_lsn t = t.next
let buffered t = t.pending
let device t = t.device

let commit ?(sync = false) t =
  if t.pending > 0 then begin
    Sim_file.write t.device (Buffer.contents t.buf);
    Buffer.clear t.buf;
    t.pending <- 0
  end;
  if sync then Sim_file.sync t.device
