(* Slicing-by-8 (Kounavis and Berry): [table] holds eight 256-entry
   tables back to back.  Table 0 is the classic bytewise table; table
   k advances a byte's remainder through k further zero bytes, so one
   step folds eight input bytes with eight lookups. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32: range out of bounds";
  (* The range is checked above, and the running value is kept to 32
     bits, so every unsafe read below is in bounds. *)
  let t k i = Array.unsafe_get table ((k lsl 8) lor i) in
  let byte i = Char.code (String.unsafe_get s i) in
  let crc = ref ((crc lxor 0xFFFFFFFF) land 0xFFFFFFFF) in
  let i = ref pos in
  let body_end = pos + (len land lnot 7) in
  while !i < body_end do
    let p = !i and c = !crc in
    crc :=
      t 7 ((c lxor byte p) land 0xff)
      lxor t 6 (((c lsr 8) lxor byte (p + 1)) land 0xff)
      lxor t 5 (((c lsr 16) lxor byte (p + 2)) land 0xff)
      lxor t 4 ((c lsr 24) lxor byte (p + 3))
      lxor t 3 (byte (p + 4))
      lxor t 2 (byte (p + 5))
      lxor t 1 (byte (p + 6))
      lxor t 0 (byte (p + 7));
    i := p + 8
  done;
  for p = body_end to pos + len - 1 do
    crc := t 0 ((!crc lxor byte p) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let sub s ~pos ~len = update 0 s ~pos ~len

let string s = sub s ~pos:0 ~len:(String.length s)

(* The page layer checksums mutable page buffers in place; the bytes
   are not mutated while the checksum runs, so the unsafe cast is
   sound and avoids copying a page per write. *)
let bytes_sub b ~pos ~len = sub (Bytes.unsafe_to_string b) ~pos ~len
