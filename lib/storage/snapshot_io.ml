let chunk = 65536

(* The trailer line [crc XXXXXXXX\n]. *)
let trailer_bytes = 13

(* --- writing ---------------------------------------------------------- *)

type writer = { oc : out_channel; wbuf : bytes; mutable wpos : int; mutable crc : int }

let writer oc = { oc; wbuf = Bytes.create chunk; wpos = 0; crc = 0 }

let flush_writer w =
  output w.oc w.wbuf 0 w.wpos;
  (* The buffer is not mutated while [update] reads it. *)
  w.crc <- Crc32.update w.crc (Bytes.unsafe_to_string w.wbuf) ~pos:0 ~len:w.wpos;
  w.wpos <- 0

let add_string w s =
  let n = String.length s in
  if n > chunk - w.wpos then flush_writer w;
  if n <= chunk then begin
    Bytes.blit_string s 0 w.wbuf w.wpos n;
    w.wpos <- w.wpos + n
  end
  else begin
    output_string w.oc s;
    w.crc <- Crc32.update w.crc s ~pos:0 ~len:n
  end

let add_char w c =
  if w.wpos = chunk then flush_writer w;
  Bytes.unsafe_set w.wbuf w.wpos c;
  w.wpos <- w.wpos + 1

(* Decimal digits of [n >= 0]; max_int has 19. *)
let digits n =
  let rec go d p = if d < 19 && n >= p then go (d + 1) (p * 10) else d in
  go 1 10

let add_int w n =
  if n = min_int then add_string w (string_of_int n)
  else begin
    (* A sign and 19 digits. *)
    if w.wpos > chunk - 20 then flush_writer w;
    if n < 0 then add_char w '-';
    let n = abs n in
    let d = digits n in
    let m = ref n in
    for i = w.wpos + d - 1 downto w.wpos do
      Bytes.unsafe_set w.wbuf i (Char.unsafe_chr (48 + (!m mod 10)));
      m := !m / 10
    done;
    w.wpos <- w.wpos + d
  end

let hex_digit = "0123456789abcdef"

let finish w =
  flush_writer w;
  (* The trailer is not part of the checksummed bytes. *)
  Bytes.blit_string "crc " 0 w.wbuf 0 4;
  for i = 0 to 7 do
    Bytes.set w.wbuf (4 + i) hex_digit.[(w.crc lsr (28 - (4 * i))) land 0xf]
  done;
  Bytes.set w.wbuf 12 '\n';
  output w.oc w.wbuf 0 trailer_bytes

(* --- reading ---------------------------------------------------------- *)

exception Malformed

(* [buf.[0, fill)] holds the file bytes from offset [base]; [pos] is
   the next unread one.  The current line is [buf.[line_start,
   line_end)], starting at file offset [line_off]; [cur] is the field
   scanner's position in it. *)
type reader = {
  ic : in_channel;
  start : int;
  mutable limit : int;
  mutable buf : bytes;
  mutable base : int;
  mutable fill : int;
  mutable pos : int;
  mutable line_off : int;
  mutable line_start : int;
  mutable line_end : int;
  mutable cur : int;
}

let reader ic =
  let start = pos_in ic in
  {
    ic;
    start;
    limit = in_channel_length ic;
    buf = Bytes.create chunk;
    base = start;
    fill = 0;
    pos = 0;
    line_off = start;
    line_start = 0;
    line_end = 0;
    cur = 0;
  }

let fail_at off fmt =
  Printf.ksprintf (fun msg -> failwith (Printf.sprintf "%s (snapshot byte %d)" msg off)) fmt

let fail r fmt = fail_at r.line_off fmt
let line_offset r = r.line_off

let offset r = r.base + r.pos
let left r = r.limit - offset r

(* Keeps the unread bytes, moved to the front, and reads more up to
   the limit; the buffer grows only for a line longer than itself.
   [false] when nothing more could be read. *)
let refill r =
  if r.pos > 0 then begin
    Bytes.blit r.buf r.pos r.buf 0 (r.fill - r.pos);
    r.base <- r.base + r.pos;
    r.fill <- r.fill - r.pos;
    r.pos <- 0
  end
  else if r.fill = Bytes.length r.buf then begin
    let bigger = Bytes.create (2 * Bytes.length r.buf) in
    Bytes.blit r.buf 0 bigger 0 r.fill;
    r.buf <- bigger
  end;
  let want = min (Bytes.length r.buf - r.fill) (r.limit - (r.base + r.fill)) in
  want > 0
  &&
  let got = input r.ic r.buf r.fill want in
  r.fill <- r.fill + got;
  got > 0

(* Repositions at file offset [at] with an empty buffer. *)
let reset r ~at =
  seek_in r.ic at;
  r.base <- at;
  r.fill <- 0;
  r.pos <- 0

let verify_trailer r =
  let at = offset r in
  let limit = r.limit - trailer_bytes in
  if limit < at then fail r "snapshot truncated (no checksum trailer)";
  seek_in r.ic limit;
  let trailer = really_input_string r.ic trailer_bytes in
  let hex = String.sub trailer 4 8 in
  if
    not
      (String.sub trailer 0 4 = "crc "
      && trailer.[12] = '\n'
      && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) hex)
  then fail r "snapshot truncated (no checksum trailer)";
  let stored = int_of_string ("0x" ^ hex) in
  seek_in r.ic r.start;
  let rec crc_to acc todo =
    if todo = 0 then acc
    else begin
      let want = min todo (Bytes.length r.buf) in
      really_input r.ic r.buf 0 want;
      (* The buffer is not mutated while [update] reads it. *)
      crc_to (Crc32.update acc (Bytes.unsafe_to_string r.buf) ~pos:0 ~len:want) (todo - want)
    end
  in
  let actual = crc_to 0 (limit - r.start) in
  if stored <> actual then
    fail r "snapshot checksum mismatch (stored %08x, computed %08x)" stored actual;
  r.limit <- limit;
  reset r ~at

let next_line r =
  (* [i] scans from [pos]; a refill moves the unread bytes to the
     front, so the scan resumes [i - pos] bytes in. *)
  let rec find i =
    if i < r.fill then if Bytes.unsafe_get r.buf i = '\n' then i else find (i + 1)
    else begin
      let scanned = i - r.pos in
      if refill r then find (r.pos + scanned) else -1
    end
  in
  let e = find r.pos in
  e >= 0
  && begin
       r.line_off <- offset r;
       r.line_start <- r.pos;
       r.line_end <- e;
       r.cur <- r.pos;
       r.pos <- e + 1;
       true
     end

let line r = Bytes.sub_string r.buf r.line_start (r.line_end - r.line_start)

let keyword r k =
  let n = String.length k in
  let s = r.line_start in
  if n > r.line_end - s then raise Malformed;
  for i = 0 to n - 1 do
    if Bytes.unsafe_get r.buf (s + i) <> String.unsafe_get k i then raise Malformed
  done;
  if s + n < r.line_end && Bytes.unsafe_get r.buf (s + n) <> ' ' then raise Malformed;
  r.cur <- s + n

(* A field starts with one space, after which [cur] points. *)
let field_start r =
  let i = r.cur in
  if i >= r.line_end || Bytes.unsafe_get r.buf i <> ' ' then raise Malformed;
  i + 1

let int r =
  let b = r.buf and e = r.line_end in
  let i = field_start r in
  let neg = i < e && Bytes.unsafe_get b i = '-' in
  let first = if neg then i + 1 else i in
  let j = ref first and n = ref 0 in
  let cap = max_int / 10 and last = max_int mod 10 in
  while
    !j < e
    &&
    match Bytes.unsafe_get b !j with
    | '0' .. '9' -> true
    | _ -> false
  do
    let d = Char.code (Bytes.unsafe_get b !j) - 48 in
    if !n >= cap && (!n > cap || d > last) then raise Malformed;
    n := (10 * !n) + d;
    incr j
  done;
  if !j = first || (!j < e && Bytes.unsafe_get b !j <> ' ') then raise Malformed;
  r.cur <- !j;
  if neg then - !n else !n

let word r =
  let i = field_start r in
  let j = ref i in
  while !j < r.line_end && Bytes.unsafe_get r.buf !j <> ' ' do
    incr j
  done;
  if !j = i then raise Malformed;
  r.cur <- !j;
  Bytes.sub_string r.buf i (!j - i)

let eol r = if r.cur <> r.line_end then raise Malformed

let block r n =
  let out = Bytes.create n in
  let got = ref 0 in
  r.line_off <- offset r;
  while !got < n do
    if r.pos = r.fill && not (refill r) then raise Malformed;
    let k = min (n - !got) (r.fill - r.pos) in
    Bytes.blit r.buf r.pos out !got k;
    r.pos <- r.pos + k;
    got := !got + k
  done;
  Bytes.unsafe_to_string out

let byte r =
  if r.pos = r.fill && not (refill r) then -1
  else begin
    let c = Bytes.get r.buf r.pos in
    r.pos <- r.pos + 1;
    Char.code c
  end
