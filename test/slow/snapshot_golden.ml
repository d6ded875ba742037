(* Snapshot bytes on full-size stores: perfbench's XMark documents
   (2,000 and 4,000 persons, 500 balanced segments plus the
   cross-segment watch/interest inserts), built the way
   perfbench/perfbench.ml [xmark_doc] builds them.  Each store saves
   to a pinned length and trailer checksum — the bytes the format-2
   writer has always produced for it — and save . load . save is
   byte-identical. *)

open Lazy_xml
open Lxu_workload

let xmark_edits ~persons =
  let text = Xmark.generate_text ~persons ~items:(persons * 3 / 5) ~seed:42 () in
  let extra_inside marker fragment =
    let m = String.length marker in
    let points = ref [] and k = ref 0 in
    for i = 0 to String.length text - m do
      if String.sub text i m = marker then begin
        if !k mod 12 = 0 then points := (String.index_from text i '>' + 1, fragment) :: !points;
        incr k
      end
    done;
    !points
  in
  let rep n s = String.concat "" (List.init n (fun _ -> s)) in
  let extra =
    extra_inside "<watches>" (rep 16 "<watch open_auction=\"oa0\"/>")
    @ extra_inside "<profile " (rep 8 "<interest category=\"extra\"/>")
  in
  Chopper.chop ~text ~segments:500 Chopper.Balanced @ List.sort (fun a b -> compare b a) extra

let read_bytes path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let check ~persons ~length ~trailer =
  let db = Lazy_db.create () in
  List.iter (fun (gp, text) -> Lazy_db.insert db ~gp text) (xmark_edits ~persons);
  let path = Filename.temp_file "lazyxml_golden" ".snap" in
  Lazy_db.save db path;
  let saved = read_bytes path in
  let got_trailer = String.sub saved (String.length saved - 13) 13 in
  if String.length saved <> length || got_trailer <> trailer then
    failwith
      (Printf.sprintf "%d persons: saved %d bytes ending %S, pinned %d ending %S" persons
         (String.length saved) got_trailer length trailer);
  Lazy_db.save (Lazy_db.load path) path;
  let resaved = read_bytes path in
  Sys.remove path;
  if resaved <> saved then
    failwith (Printf.sprintf "%d persons: save . load . save changed the bytes" persons)

let run () =
  check ~persons:2000 ~length:2553782 ~trailer:"crc 606c5527\n";
  check ~persons:4000 ~length:5205328 ~trailer:"crc 38f94d76\n"
