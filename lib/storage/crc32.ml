let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32: range out of bounds";
  let t = Lazy.force table in
  let crc = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    crc := t.((!crc lxor Char.code (String.unsafe_get s i)) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let sub s ~pos ~len = update 0 s ~pos ~len

let string s = sub s ~pos:0 ~len:(String.length s)

(* The page layer checksums mutable page buffers in place; the bytes
   are not mutated while the checksum runs, so the unsafe cast is
   sound and avoids copying a page per write. *)
let bytes_sub b ~pos ~len = sub (Bytes.unsafe_to_string b) ~pos ~len
