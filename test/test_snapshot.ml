(* Snapshot persistence: a loaded database must behave byte-identically
   to the saved one — text, labels, queries, and subsequent updates. *)

open Lazy_xml
module Format_fuzz = Lxu_crash_harness.Format_fuzz

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("lazyxml_test_" ^ name)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let build_sample () =
  let db = Lazy_db.create ~index_attributes:true () in
  Lazy_db.insert db ~gp:0 "<lib></lib>";
  Lazy_db.insert db ~gp:5 "<book id=\"b1\"><title>t&amp;t</title></book>";
  Lazy_db.insert db ~gp:5 "<book id=\"b2\"><author>a</author></book>";
  (* A deletion, so tombstones are exercised by the snapshot. *)
  Lazy_db.remove db ~gp:19 ~len:18;
  db

let read_bytes path =
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  bytes

let test_roundtrip_state () =
  let db = build_sample () in
  (* A grandchild of the lib segment, with an indexed attribute. *)
  let text = Lazy_db.text db in
  let at = String.length text - String.length "</book></lib>" in
  check_string "splice point" "</book></lib>" (String.sub text at (String.length text - at));
  Lazy_db.insert db ~gp:at "<note k=\"v\">n</note>";
  let path = tmp "roundtrip" in
  Lazy_db.save db path;
  let saved = read_bytes path in
  let db' = Lazy_db.load path in
  Lazy_db.check db';
  check_string "text" (Lazy_db.text db) (Lazy_db.text db');
  check_int "segments" (Lazy_db.segment_count db) (Lazy_db.segment_count db');
  check_int "elements" (Lazy_db.element_count db) (Lazy_db.element_count db');
  check_bool "engine" true (Lazy_db.engine db' = Lazy_db.LD);
  (* save . load . save is byte-identical: the format is pinned. *)
  Lazy_db.save db' path;
  let resaved = read_bytes path in
  Sys.remove path;
  check_bool "re-saved bytes identical" true (saved = resaved)

let test_labels_survive () =
  (* Local labels must be preserved exactly — not reassigned by a
     reparse.  Compare raw join pairs on (sid, start) identity. *)
  let db = build_sample () in
  let log = Option.get (Lazy_db.log db) in
  let pairs, _ = Lxu_join.Lazy_join.run log ~anc:"book" ~desc:"title" () in
  let path = tmp "labels" in
  Lazy_db.save db path;
  let db' = Lazy_db.load path in
  Sys.remove path;
  let log' = Option.get (Lazy_db.log db') in
  let pairs', _ = Lxu_join.Lazy_join.run log' ~anc:"book" ~desc:"title" () in
  check_bool "identical (sid, start) pairs" true (pairs = pairs')

let test_queries_after_load () =
  let db = build_sample () in
  let path = tmp "queries" in
  Lazy_db.save db path;
  let db' = Lazy_db.load path in
  Sys.remove path;
  List.iter
    (fun (anc, desc) ->
      check_int
        (anc ^ "//" ^ desc)
        (Lazy_db.count db ~anc ~desc ())
        (Lazy_db.count db' ~anc ~desc ()))
    [ ("lib", "book"); ("book", "title"); ("book", "@id"); ("lib", "author") ]

let test_updates_after_load () =
  let db = build_sample () in
  let path = tmp "updates" in
  Lazy_db.save db path;
  let db' = Lazy_db.load path in
  Sys.remove path;
  (* Apply the same edit to both; they must stay in lockstep. *)
  let at = 5 in
  let frag = "<book id=\"b3\"/>" in
  Lazy_db.insert db ~gp:at frag;
  Lazy_db.insert db' ~gp:at frag;
  check_string "same text" (Lazy_db.text db) (Lazy_db.text db');
  check_int "same count" (Lazy_db.count db ~anc:"lib" ~desc:"book" ())
    (Lazy_db.count db' ~anc:"lib" ~desc:"book" ());
  Lazy_db.check db'

let test_ls_mode_roundtrip () =
  let db = Lazy_db.create ~engine:Lazy_db.LS () in
  Lazy_db.insert db ~gp:0 "<a><b/></a>";
  Lazy_db.insert db ~gp:3 "<b/>";
  let path = tmp "ls" in
  Lazy_db.save db path;
  let db' = Lazy_db.load path in
  Sys.remove path;
  check_bool "mode preserved" true (Lazy_db.engine db' = Lazy_db.LS);
  check_int "query works" 2 (Lazy_db.count db' ~anc:"a" ~desc:"b" ())

let test_malformed_snapshot () =
  let path = tmp "malformed" in
  let oc = open_out path in
  output_string oc "not a snapshot\n";
  close_out oc;
  check_bool "rejected" true
    (match Lazy_db.load path with exception Failure _ -> true | _ -> false);
  Sys.remove path

(* Every way a snapshot file can be damaged must surface as [Failure]
   (with the path and byte offset) — never a crash with some other
   exception, and never a silently wrong database. *)
let test_malformed_snapshot_sweep () =
  let db = build_sample () in
  let reference = Lazy_db.text db in
  let path = tmp "sweep" in
  Lazy_db.save db path;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let write s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  let attempt ~what s =
    write s;
    match Lazy_db.load path with
    | exception Failure msg ->
      check_bool
        (Printf.sprintf "%s: %S names the file" what msg)
        true
        (contains ~needle:path msg)
    | exception e ->
      Alcotest.failf "%s: raised %s, not Failure" what (Printexc.to_string e)
    | db' ->
      (* Accepting damaged input is only allowed if the damage was
         invisible (e.g. a cut inside trailing padding). *)
      check_string (what ^ ": loaded state intact") reference (Lazy_db.text db')
  in
  (* Truncations: every strict prefix, including mid-header and
     mid-segment-body cuts. *)
  for len = 0 to String.length bytes - 1 do
    attempt ~what:(Printf.sprintf "prefix %d" len) (String.sub bytes 0 len)
  done;
  (* Bad magic / corrupted header line. *)
  attempt ~what:"bad magic" ("X" ^ String.sub bytes 1 (String.length bytes - 1));
  attempt ~what:"garbage header" "LXUSNAP1 garbage\n";
  Sys.remove path

(* Hostile snapshots carry a valid checksum (a checksum only guards
   against damage, not against a writer), so each one is a saved
   payload with one line rewritten and the trailer recomputed.  The
   oracle is the sweep's: a [Failure] naming the file, or a loaded
   state that is intact. *)

(* Rewrites the [nth] line (from 0) starting with [prefix]. *)
let rewrite_line ?(nth = 0) payload ~prefix f =
  let lines = String.split_on_char '\n' payload in
  let seen = ref (-1) in
  let hit = ref false in
  let lines =
    List.map
      (fun l ->
        if String.starts_with ~prefix l then begin
          incr seen;
          if !seen = nth then begin
            hit := true;
            f l
          end
          else l
        end
        else l)
      lines
  in
  if not !hit then Alcotest.failf "no line %d starting with %S" nth prefix;
  String.concat "\n" lines

(* [seg sid parent gp len lp base orig_len n_tomb n_elems] with field
   [i] (0 = sid) replaced. *)
let set_seg_field i v l =
  match String.split_on_char ' ' l with
  | "seg" :: fields ->
    String.concat " " ("seg" :: List.mapi (fun j f -> if j = i then v else f) fields)
  | _ -> Alcotest.failf "not a seg line: %S" l

(* The sweep's oracle, then [refused]: the load must have failed. *)
let expect_refused ~what path bytes ~reference =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc;
  match Lazy_db.load path with
  | exception Failure msg ->
    check_bool (Printf.sprintf "%s: %S names the file" what msg) true (contains ~needle:path msg)
  | exception e -> Alcotest.failf "%s: raised %s, not Failure" what (Printexc.to_string e)
  | db' ->
    check_string (what ^ ": loaded state intact") reference (Lazy_db.text db');
    Alcotest.failf "%s: loaded" what

let test_hostile_snapshots () =
  let db = build_sample () in
  let reference = Lazy_db.text db in
  let payload = Format_fuzz.payload db in
  let path = tmp "hostile" in
  let attempt what p = expect_refused ~what path (Format_fuzz.seal p) ~reference in
  (* The untouched payload resealed loads: the helpers are sound. *)
  let write bytes =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc
  in
  write (Format_fuzz.seal payload);
  check_string "resealed original loads" reference (Lazy_db.text (Lazy_db.load path));
  (* Counts and lengths far beyond the file. *)
  attempt "segments 10^15"
    (rewrite_line payload ~prefix:"segments " (fun _ -> "segments 1000000000000000"));
  attempt "tags 10^15" (rewrite_line payload ~prefix:"tags " (fun _ -> "tags 1000000000000000"));
  attempt "text length 10^15"
    (rewrite_line payload ~prefix:"seg " (set_seg_field 6 "1000000000000000"));
  attempt "element count 10^15"
    (rewrite_line payload ~prefix:"seg " (set_seg_field 8 "1000000000000000"));
  attempt "tombstone count 10^15"
    (rewrite_line payload ~prefix:"seg " (set_seg_field 7 "1000000000000000"));
  (* A repeated sid: the second segment claims the first one's sid. *)
  let first_sid =
    let l = List.find (String.starts_with ~prefix:"seg ") (String.split_on_char '\n' payload) in
    List.nth (String.split_on_char ' ' l) 1
  in
  attempt "repeated sid" (rewrite_line ~nth:1 payload ~prefix:"seg " (set_seg_field 0 first_sid));
  (* Element tag ids outside the tag table. *)
  let tags =
    let l = List.find (String.starts_with ~prefix:"tags ") (String.split_on_char '\n' payload) in
    Scanf.sscanf l "tags %d" Fun.id
  in
  let set_tid v l =
    match String.split_on_char ' ' l with
    | [ "e"; a; b; c; _ ] -> String.concat " " [ "e"; a; b; c; v ]
    | _ -> Alcotest.failf "not an element line: %S" l
  in
  attempt "tid = tag count" (rewrite_line payload ~prefix:"e " (set_tid (string_of_int tags)));
  attempt "tid 10^15" (rewrite_line payload ~prefix:"e " (set_tid "1000000000000000"));
  attempt "negative tid" (rewrite_line payload ~prefix:"e " (set_tid "-1"));
  (* next_sid at or below a stored sid. *)
  attempt "next_sid 1" (rewrite_line payload ~prefix:"next_sid " (fun _ -> "next_sid 1"));
  attempt "next_sid = max sid"
    (rewrite_line payload ~prefix:"next_sid " (fun l ->
         Printf.sprintf "next_sid %d" (Scanf.sscanf l "next_sid %d" Fun.id - 1)));
  (* The previous format, checksum-less, is refused by its magic. *)
  attempt "format 1"
    (rewrite_line payload ~prefix:"LAZYXML-SNAPSHOT-" (fun _ -> "LAZYXML-SNAPSHOT-1"));
  expect_refused ~what:"format 1, no trailer" path
    (rewrite_line payload ~prefix:"LAZYXML-SNAPSHOT-" (fun _ -> "LAZYXML-SNAPSHOT-1"))
    ~reference;
  (* Elements: the first two consecutive element lines of a segment,
     [a] then [b], rewritten. *)
  let rewrite_pair f =
    let lines = Array.of_list (String.split_on_char '\n' payload) in
    let is_e l = String.starts_with ~prefix:"e " l in
    let rec first i =
      if i + 1 >= Array.length lines then Alcotest.fail "no two consecutive element lines"
      else if is_e lines.(i) && is_e lines.(i + 1) then i
      else first (i + 1)
    in
    let i = first 0 in
    let parse l = Scanf.sscanf l "e %d %d %d %d" (fun a b c d -> (a, b, c, d)) in
    let a, b = f (parse lines.(i)) (parse lines.(i + 1)) in
    let unparse (s, e, l, t) = Printf.sprintf "e %d %d %d %d" s e l t in
    lines.(i) <- unparse a;
    lines.(i + 1) <- unparse b;
    String.concat "\n" (Array.to_list lines)
  in
  attempt "element starts out of order" (rewrite_pair (fun a b -> (b, a)));
  attempt "overlapping elements"
    (rewrite_pair (fun (s, _, l, t) ((s', e', _, _) as b) ->
         if e' <= s' + 1 then Alcotest.fail "second element too short to cross";
         ((s, s' + 1, l, t), b)));
  attempt "extent past the text" (rewrite_pair (fun (s, _, l, t) b -> ((s, 1_000_000, l, t), b)));
  attempt "level off its nesting" (rewrite_pair (fun a (s, e, l, t) -> (a, (s, e, l + 1, t))));
  (* Bytes after the last segment, inside the checksummed payload. *)
  attempt "trailing garbage" (payload ^ "e 0 1 0 0\n");
  (* Fields in any spelling but the writer's: one space between
     fields, decimal ints with at most a leading '-', '\n' line ends.
     Scanf accepted trailing bytes and "+5". *)
  let e_line f = rewrite_line payload ~prefix:"e " f in
  let replace_first ~sub ~by l =
    let i =
      let rec find i = if String.sub l i (String.length sub) = sub then i else find (i + 1) in
      find 0
    in
    let rest = i + String.length sub in
    String.sub l 0 i ^ by ^ String.sub l rest (String.length l - rest)
  in
  let past_max_int = Printf.sprintf "%Lu" (Int64.succ (Int64.of_int max_int)) in
  attempt "int past max_int" (e_line (set_tid past_max_int));
  (* 2^63 + tid wraps to tid itself in unchecked 63-bit arithmetic. *)
  attempt "int wrapping onto its own value"
    (e_line (fun l ->
         let tid = List.nth (String.split_on_char ' ' l) 4 in
         set_tid (Printf.sprintf "%Lu" (Int64.add Int64.min_int (Int64.of_string tid))) l));
  attempt "count past max_int"
    (rewrite_line payload ~prefix:"seg " (set_seg_field 8 past_max_int));
  attempt "missing field" (e_line (fun l -> String.sub l 0 (String.rindex l ' ')));
  attempt "missing seg field"
    (rewrite_line payload ~prefix:"seg " (fun l -> String.sub l 0 (String.rindex l ' ')));
  attempt "extra field" (e_line (fun l -> l ^ " 0"));
  attempt "trailing bytes" (e_line (fun l -> l ^ "x"));
  attempt "trailing bytes after a word" (rewrite_line payload ~prefix:"attrs " (fun l -> l ^ "x"));
  attempt "empty field" (e_line (replace_first ~sub:" " ~by:"  "));
  attempt "lone -" (e_line (set_tid "-"));
  attempt "+5" (rewrite_line payload ~prefix:"seg " (fun l -> set_seg_field 0 ("+" ^ first_sid) l));
  attempt "tab separator" (e_line (replace_first ~sub:" " ~by:"\t"));
  attempt "CRLF line end" (e_line (fun l -> l ^ "\r"));
  attempt "CRLF after a count" (rewrite_line payload ~prefix:"segments " (fun l -> l ^ "\r"));
  (* A child's gp moved 2 bytes left, still inside its parent's own
     text: the text would print right, but [r//y] would answer y@6,
     where no <y/> starts.  A stored gp must be its place in the tree. *)
  let moved = Lazy_db.create () in
  Lazy_db.insert moved ~gp:0 "<r>abcdefghij<x/></r>";
  Lazy_db.insert moved ~gp:8 "<y/>";
  let move_gp l =
    if List.nth (String.split_on_char ' ' l) 3 <> "8" then Alcotest.failf "not y's seg line: %S" l;
    set_seg_field 2 "6" l
  in
  expect_refused ~what:"child gp moved inside its parent's text" path
    (Format_fuzz.seal (rewrite_line ~nth:1 (Format_fuzz.payload moved) ~prefix:"seg " move_gp))
    ~reference:(Lazy_db.text moved);
  Sys.remove path

(* The bytes the format-2 writer has always produced for
   [build_sample]: a writer change that moves one byte fails here, and
   loading them back proves the reader still takes them. *)
let golden_sample =
  "LAZYXML-SNAPSHOT-2\nmode LD\nattrs true\nnext_sid 4\ntags 5\nlib\nbook\n@id\ntitle\nauthor\nsegments 3\nseg 1 0 0 75 0 0 11 0 1\n<lib></lib>\ne 0 11 0 0\nseg 3 1 5 21 5 1 39 1 2\n<book id=\"b2\"><author>a</author></book>\nt 14 32\ne 0 39 1 1\ne 6 13 2 2\nseg 2 1 26 43 5 1 43 0 3\n<book id=\"b1\"><title>t&amp;t</title></book>\ne 0 43 1 1\ne 6 13 2 2\ne 14 36 2 3\ncrc 0d7b44f6\n"

let test_golden_bytes () =
  let db = build_sample () in
  let path = tmp "golden" in
  Lazy_db.save db path;
  check_string "saved bytes" golden_sample (read_bytes path);
  let oc = open_out_bin path in
  output_string oc golden_sample;
  close_out oc;
  let db' = Lazy_db.load path in
  Sys.remove path;
  check_string "golden bytes load" (Lazy_db.text db) (Lazy_db.text db');
  Lazy_db.check db'

(* The writer's ints at every digit-count boundary, negatives
   included, read back by the scanner; [min_int] is written but is
   past the scanner's range, like every magnitude above [max_int]. *)
let test_int_fields () =
  let module S = Lxu_storage_core.Snapshot_io in
  let ints =
    List.concat_map (fun p -> [ p - 1; p ]) (List.init 19 (fun k -> int_of_float (10. ** float k)))
    @ [ 0; max_int; -1; -10; -max_int ]
  in
  let path = tmp "ints" in
  let oc = open_out_bin path in
  let w = S.writer oc in
  S.add_string w "i";
  List.iter
    (fun n ->
      S.add_char w ' ';
      S.add_int w n)
    (ints @ [ min_int ]);
  S.add_char w '\n';
  S.finish w;
  close_out oc;
  let body = "i " ^ String.concat " " (List.map string_of_int (ints @ [ min_int ])) ^ "\n" in
  check_string "written as string_of_int" (Format_fuzz.seal body) (read_bytes path);
  let ic = open_in_bin path in
  let r = S.reader ic in
  S.verify_trailer r;
  check_bool "one line" true (S.next_line r);
  S.keyword r "i";
  List.iter (fun n -> check_int (string_of_int n) n (S.int r)) ints;
  check_bool "min_int refused" true
    (match S.int r with exception S.Malformed -> true | _ -> false);
  close_in ic;
  Sys.remove path

(* The checksum: a flipped byte anywhere in the file — segment text
   included, where the parser cannot see it — is refused. *)
let test_flipped_bytes () =
  let db = build_sample () in
  let reference = Lazy_db.text db in
  let path = tmp "flip" in
  Lazy_db.save db path;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let flip i mask =
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code bytes.[i] lxor mask));
    Bytes.to_string b
  in
  for i = 0 to String.length bytes - 1 do
    List.iter
      (fun mask ->
        let what = Printf.sprintf "byte %d xor %#x" i mask in
        expect_refused ~what path (flip i mask) ~reference)
      [ 0x01; 0x20; 0x80 ]
  done;
  (* The motivating case: one letter of segment text. *)
  let i =
    let rec find k = if String.sub bytes k 4 = "t&am" then k else find (k + 1) in
    find 0
  in
  expect_refused ~what:"t&amp; -> J&amp;" path
    (String.mapi (fun k c -> if k = i then 'J' else c) bytes)
    ~reference;
  Sys.remove path

let test_empty_db_roundtrip () =
  let db = Lazy_db.create () in
  let path = tmp "empty" in
  Lazy_db.save db path;
  let db' = Lazy_db.load path in
  Sys.remove path;
  check_int "no segments" 0 (Lazy_db.segment_count db');
  check_string "empty text" "" (Lazy_db.text db')

(* A quick slice of the format fuzzer (the slow tier runs 3,000):
   resealed payload mutants load into a checked store or are
   refused. *)
let test_mutated_snapshots () =
  let t = Format_fuzz.snapshots ~seed:1 ~rounds:300 in
  check_int "every mutant judged" 300 (t.accepted + t.refused);
  check_bool "most mutants refused" true (t.refused > t.accepted)

(* A quick slice of the moved-gp fuzzer (the slow tier runs 3,000). *)
let test_moved_gps () =
  check_int "every moved gp refused" 100 (Format_fuzz.moved_gps ~seed:1 ~rounds:100)

let suite =
  [
    Alcotest.test_case "roundtrip state" `Quick test_roundtrip_state;
    Alcotest.test_case "labels survive" `Quick test_labels_survive;
    Alcotest.test_case "queries after load" `Quick test_queries_after_load;
    Alcotest.test_case "updates after load" `Quick test_updates_after_load;
    Alcotest.test_case "LS mode roundtrip" `Quick test_ls_mode_roundtrip;
    Alcotest.test_case "malformed rejected" `Quick test_malformed_snapshot;
    Alcotest.test_case "malformed sweep" `Quick test_malformed_snapshot_sweep;
    Alcotest.test_case "hostile snapshots refused" `Quick test_hostile_snapshots;
    Alcotest.test_case "golden bytes" `Quick test_golden_bytes;
    Alcotest.test_case "int fields round-trip" `Quick test_int_fields;
    Alcotest.test_case "flipped bytes refused" `Quick test_flipped_bytes;
    Alcotest.test_case "empty roundtrip" `Quick test_empty_db_roundtrip;
  ]

(* Random edit schedules survive a save/load round trip: text, checks
   and query answers all preserved. *)
let prop_snapshot_roundtrip =
  let fragments =
    [| "<a/>"; "<b>text</b>"; "<c><a/><b/></c>"; "<d k=\"v\"><b/></d>" |]
  in
  let gen = QCheck2.Gen.(list_size (int_range 1 10) (pair (int_bound 1000) (int_bound 3))) in
  QCheck2.Test.make ~name:"snapshot roundtrip on random schedules" ~count:40 gen
    (fun picks ->
      let db = Lazy_db.create ~index_attributes:true () in
      let text = ref "" in
      List.iter
        (fun (pick, fi) ->
          let frag = fragments.(fi) in
          match Lxu_props.Text_model.valid_insert_points !text frag with
          | [] -> ()
          | ps ->
            let gp = List.nth ps (pick mod List.length ps) in
            Lazy_db.insert db ~gp frag;
            text := Lxu_props.Text_model.splice !text ~gp frag)
        picks;
      let path = tmp "prop" in
      Lazy_db.save db path;
      let db' = Lazy_db.load path in
      Sys.remove path;
      Lazy_db.check db';
      Lazy_db.text db' = !text
      && List.for_all
           (fun (anc, desc) ->
             Lazy_db.count db ~anc ~desc () = Lazy_db.count db' ~anc ~desc ())
           [ ("c", "a"); ("c", "b"); ("d", "b"); ("d", "@k") ])

(* The stronger roundtrip property: schedules with removes, packs and
   rebuilds, and equality over the {e full} all-pairs join output of
   the vocabulary (via the crash harness fingerprint), not just a few
   counts. *)
let prop_roundtrip_all_pairs =
  let module H = Lxu_crash_harness.Crash_harness in
  let gen = QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 20)) in
  QCheck2.Test.make ~name:"save/load preserves all-pairs join output" ~count:30 gen
    (fun (seed, target_ops) ->
      let db = Lazy_db.create ~index_attributes:true () in
      List.iter (H.apply db) (H.gen_ops ~seed ~target_ops);
      let path = tmp "prop_all_pairs" in
      Lazy_db.save db path;
      let db' = Lazy_db.load path in
      Sys.remove path;
      Lazy_db.check db';
      Lazy_db.element_count db = Lazy_db.element_count db'
      && H.fingerprint db = H.fingerprint db')

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
      QCheck_alcotest.to_alcotest prop_roundtrip_all_pairs;
      Alcotest.test_case "mutated snapshots load or are refused" `Quick test_mutated_snapshots;
      Alcotest.test_case "moved seg gps refused" `Quick test_moved_gps;
    ]
