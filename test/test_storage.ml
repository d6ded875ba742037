(* Unit tests for the storage layer: CRC32 vectors, WAL encode/scan
   roundtrips, corruption detection (torn, bit-flipped and duplicated
   tails), the group-commit buffer, and fault-injection semantics of
   Sim_file.  Whole-database crash recovery lives in test_recovery.ml
   and the @slow matrix. *)

module Crc32 = Lxu_storage.Crc32
module Sim_file = Lxu_storage.Sim_file
module Wal = Lxu_storage.Wal

let header = { Wal.mode = Lxu_seglog.Update_log.Lazy_dynamic; index_attributes = false }

let sample_ops =
  [
    Wal.Insert { gp = 0; text = "<a><b/></a>" };
    Wal.Insert { gp = 3; text = "<c>t</c>" };
    Wal.Remove { gp = 3; len = 8 };
    Wal.Pack { gp = 0; len = 11 };
    Wal.Rebuild;
  ]

(* WAL bytes holding [sample_ops], plus the device they were written
   through (so tests can also look at write counts). *)
let sample_wal () =
  let device = Sim_file.in_memory () in
  let w = Wal.create ~device header in
  List.iter (fun op -> ignore (Wal.append w op)) sample_ops;
  Wal.commit w;
  (Sim_file.contents device, device)

(* --- crc32 ------------------------------------------------------------ *)

(* Checksumming a stream piece by piece gives the checksum of the
   whole: split the check string at every point. *)
let test_crc_update () =
  let s = "123456789" in
  for k = 0 to String.length s do
    let a = String.sub s 0 k and b = String.sub s k (String.length s - k) in
    Alcotest.(check int)
      (Printf.sprintf "split at %d" k)
      0xCBF43926
      (Crc32.update (Crc32.string a) b ~pos:0 ~len:(String.length b))
  done;
  Alcotest.(check int) "update 0 = sub" (Crc32.sub s ~pos:2 ~len:5) (Crc32.update 0 s ~pos:2 ~len:5)

let test_crc_vectors () =
  (* The IEEE 802.3 check value. *)
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int)
    "sub = string on slice" (Crc32.string "234567")
    (Crc32.sub "123456789" ~pos:1 ~len:6);
  Alcotest.(check bool) "one bit changes the sum" true
    (Crc32.string "123456789" <> Crc32.string "123456799")

(* The bytewise table CRC, one lookup per byte: the reference the
   slicing-by-8 [Crc32.update] must agree with everywhere. *)
let ref_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let ref_update crc s ~pos ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := ref_table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc_differential () =
  let rng = Random.State.make [| 30 |] in
  let random_string n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  let check what expected got = Alcotest.(check int) what expected got in
  for _ = 1 to 200 do
    let s = random_string (Random.State.int rng 600) in
    check "random string" (ref_update 0 s ~pos:0 ~len:(String.length s)) (Crc32.string s)
  done;
  (* Every offset into an 8-byte step and every length up to 40: whole
     steps, tails, and ranges shorter than one step. *)
  let s = random_string 48 in
  for pos = 0 to 7 do
    for len = 0 to 40 do
      check
        (Printf.sprintf "pos %d len %d" pos len)
        (ref_update 0 s ~pos ~len) (Crc32.sub s ~pos ~len)
    done
  done;
  (* Chained updates over random cuts, each piece at its own offset. *)
  for _ = 1 to 100 do
    let s = random_string (Random.State.int rng 300) in
    let rec chain crc at =
      if at = String.length s then crc
      else begin
        let len = 1 + Random.State.int rng (String.length s - at) in
        let pad = Random.State.int rng 8 in
        let piece = random_string pad ^ String.sub s at len ^ random_string pad in
        chain (Crc32.update crc piece ~pos:pad ~len) (at + len)
      end
    in
    check "chained" (ref_update 0 s ~pos:0 ~len:(String.length s)) (chain 0 0)
  done;
  let b = Bytes.of_string (random_string 100) in
  for pos = 0 to 9 do
    check
      (Printf.sprintf "bytes_sub pos %d" pos)
      (ref_update 0 (Bytes.to_string b) ~pos ~len:(90 - pos))
      (Crc32.bytes_sub b ~pos ~len:(90 - pos))
  done;
  (* Bits above the 32 of a checksum are ignored, never used as an
     index. *)
  List.iter
    (fun crc ->
      check
        (Printf.sprintf "crc argument %d" crc)
        (Crc32.update (crc land 0xFFFFFFFF) s ~pos:0 ~len:48)
        (Crc32.update crc s ~pos:0 ~len:48))
    [ -1; min_int; max_int; (1 lsl 40) lor 5 ];
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "range %d+%d refused" pos len)
        (Invalid_argument "Crc32: range out of bounds")
        (fun () -> ignore (Crc32.sub s ~pos ~len)))
    [ (-1, 2); (0, -1); (40, 9); (49, 0); (1, max_int) ]

(* --- wal encode / scan ------------------------------------------------ *)

let test_wal_roundtrip () =
  let bytes, _ = sample_wal () in
  let r = Wal.scan bytes in
  Alcotest.(check bool) "clean" true (r.Wal.corruption = None);
  Alcotest.(check int) "all bytes valid" (String.length bytes) r.Wal.valid_bytes;
  Alcotest.(check int) "record count" (List.length sample_ops) (List.length r.Wal.records);
  Alcotest.(check (list int)) "lsns from 1"
    (List.init (List.length sample_ops) (fun i -> i + 1))
    (List.map (fun rec_ -> rec_.Wal.lsn) r.Wal.records);
  Alcotest.(check bool) "ops roundtrip" true
    (List.map (fun rec_ -> rec_.Wal.op) r.Wal.records = sample_ops);
  Alcotest.(check bool) "header roundtrips" true (r.Wal.header = header);
  let last = List.nth r.Wal.records (List.length r.Wal.records - 1) in
  Alcotest.(check int) "last end_off = file size" (String.length bytes) last.Wal.end_off

let test_wal_modes () =
  List.iter
    (fun h ->
      let device = Sim_file.in_memory () in
      let w = Wal.create ~device h in
      ignore (Wal.append w Wal.Rebuild);
      Wal.commit w;
      let r = Wal.scan (Sim_file.contents device) in
      Alcotest.(check bool) "header roundtrips" true (r.Wal.header = h))
    [
      { Wal.mode = Lxu_seglog.Update_log.Lazy_dynamic; index_attributes = true };
      { Wal.mode = Lxu_seglog.Update_log.Lazy_static; index_attributes = false };
    ]

let boundary bytes r j =
  if j = 0 then Wal.header_bytes else (List.nth r.Wal.records (j - 1)).Wal.end_off |> min (String.length bytes)

let test_torn_tail () =
  let bytes, _ = sample_wal () in
  let clean = Wal.scan bytes in
  let n = List.length clean.Wal.records in
  (* Tear the last record anywhere: every earlier record survives and
     valid_bytes points at the previous boundary. *)
  let prev = boundary bytes clean (n - 1) in
  List.iter
    (fun cut ->
      let r = Wal.scan (String.sub bytes 0 cut) in
      Alcotest.(check int) (Printf.sprintf "records at cut %d" cut) (n - 1)
        (List.length r.Wal.records);
      Alcotest.(check int) "valid prefix" prev r.Wal.valid_bytes;
      Alcotest.(check bool) "flagged" true (r.Wal.corruption <> None))
    [ prev + 1; prev + 8; String.length bytes - 1 ]

let test_bit_flip_detected () =
  let bytes, _ = sample_wal () in
  let clean = Wal.scan bytes in
  (* Flip one bit inside record 3's payload region: records 1-2
     survive, everything from record 3 on is rejected. *)
  let start2 = boundary bytes clean 2 in
  let flipped =
    Sim_file.apply_fault bytes (Sim_file.Bit_flip ((start2 + 10) * 8))
  in
  let r = Wal.scan flipped in
  Alcotest.(check int) "stops at the flipped record" 2 (List.length r.Wal.records);
  Alcotest.(check int) "valid prefix" start2 r.Wal.valid_bytes;
  Alcotest.(check bool) "flagged" true (r.Wal.corruption <> None)

let test_duplicate_tail_detected () =
  let bytes, _ = sample_wal () in
  let clean = Wal.scan bytes in
  let n = List.length clean.Wal.records in
  let tail_len = String.length bytes - boundary bytes clean (n - 1) in
  (* A re-issued final write: the duplicated record re-parses but its
     LSN is no longer increasing, so the copy is rejected. *)
  let dup = Sim_file.apply_fault bytes (Sim_file.Duplicate_tail tail_len) in
  let r = Wal.scan dup in
  Alcotest.(check int) "original records survive" n (List.length r.Wal.records);
  Alcotest.(check int) "copy is truncated" (String.length bytes) r.Wal.valid_bytes;
  Alcotest.(check bool) "flagged" true (r.Wal.corruption <> None)

let test_unknown_kind_detected () =
  let bytes, _ = sample_wal () in
  let clean = Wal.scan bytes in
  (* Corrupt record 2's kind byte and re-seal the checksum: a wrong
     CRC is not what should catch this, the kind check is. *)
  let start1 = boundary bytes clean 1 in
  let end2 = boundary bytes clean 2 in
  let b = Bytes.of_string bytes in
  Bytes.set b (start1 + 8) 'X';
  let crc = Crc32.sub (Bytes.to_string b) ~pos:start1 ~len:(end2 - start1 - 4) in
  Bytes.set_int32_le b (end2 - 4) (Int32.of_int crc);
  let r = Wal.scan (Bytes.to_string b) in
  Alcotest.(check int) "stops at the bad kind" 1 (List.length r.Wal.records);
  Alcotest.(check bool) "flagged" true (r.Wal.corruption <> None)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_bad_header_raises () =
  List.iter
    (fun bad ->
      match Wal.scan ~path:"some/wal" bad with
      | exception Failure msg ->
        Alcotest.(check bool)
          (Printf.sprintf "message %S names the path" msg)
          true
          (contains ~needle:"some/wal" msg)
      | _ -> Alcotest.fail "bad header accepted")
    [ ""; "LXUWAL1 D"; "NOTAWAL1 D0\n"; "LXUWAL1 X0\n"; "LXUWAL1 D2\n" ]

(* --- group commit ----------------------------------------------------- *)

let test_group_commit () =
  let device = Sim_file.in_memory () in
  let w = Wal.create ~device header in
  Alcotest.(check int) "header is write 0" 1 (Sim_file.writes device);
  let lsns = List.map (fun op -> Wal.append w op) sample_ops in
  Alcotest.(check (list int)) "lsns assigned at append"
    (List.init (List.length sample_ops) (fun i -> i + 1))
    lsns;
  Alcotest.(check int) "buffered" (List.length sample_ops) (Wal.buffered w);
  Alcotest.(check int) "nothing on device yet" Wal.header_bytes (Sim_file.size device);
  Wal.commit w;
  Alcotest.(check int) "one write for the whole group" 2 (Sim_file.writes device);
  Alcotest.(check int) "buffer drained" 0 (Wal.buffered w);
  Wal.commit w;
  Alcotest.(check int) "empty commit is free" 2 (Sim_file.writes device);
  let r = Wal.scan (Sim_file.contents device) in
  Alcotest.(check int) "all records present" (List.length sample_ops)
    (List.length r.Wal.records)

(* --- sim_file --------------------------------------------------------- *)

let test_apply_fault () =
  let data = "abcdefgh" in
  Alcotest.(check string) "truncate" "abcde" (Sim_file.apply_fault data (Truncate_tail 3));
  Alcotest.(check string) "truncate clamps" "" (Sim_file.apply_fault data (Truncate_tail 99));
  Alcotest.(check string) "dup" "abcdefghfgh" (Sim_file.apply_fault data (Duplicate_tail 3));
  let flipped = Sim_file.apply_fault data (Bit_flip 16) in
  Alcotest.(check int) "flip keeps length" (String.length data) (String.length flipped);
  Alcotest.(check bool) "flip changes byte 2 only" true
    (flipped.[2] <> data.[2]
    && String.sub flipped 0 2 = String.sub data 0 2
    && String.sub flipped 3 5 = String.sub data 3 5);
  Alcotest.(check string) "empty write stays empty" ""
    (Sim_file.apply_fault "" (Bit_flip 5))

let test_injection () =
  let device = Sim_file.in_memory () in
  Sim_file.inject device ~nth_write:1 (Truncate_tail 2);
  Sim_file.write device "aaaa";
  Sim_file.write device "bbbb";
  Sim_file.write device "cccc";
  Alcotest.(check string) "only write 1 torn" "aaaabbcccc" (Sim_file.contents device);
  Alcotest.(check int) "writes counted" 3 (Sim_file.writes device)

let test_file_backed () =
  Lxu_crash_harness.Crash_harness.with_dir "simfile" (fun dir ->
      let path = Filename.concat dir "device.bin" in
      let device = Sim_file.open_path path in
      Sim_file.write device "hello ";
      Sim_file.write device "world";
      Sim_file.sync device;
      Alcotest.(check string) "contents" "hello world" (Sim_file.contents device);
      Sim_file.truncate_to device 5;
      Alcotest.(check int) "truncated" 5 (Sim_file.size device);
      Sim_file.write device "!";
      Sim_file.close device;
      let device = Sim_file.open_path ~append:true path in
      Alcotest.(check string) "survives reopen" "hello!" (Sim_file.contents device);
      Sim_file.write device "?";
      Sim_file.close device;
      let ic = open_in_bin path in
      let on_disk = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "append mode appends" "hello!?" on_disk)

(* A real full disk: the write that meets it raises, and closing the
   device afterwards writes nothing, so it cannot raise again (a
   buffered channel would retry the refused bytes on close). *)
let test_full_device () =
  let device = Sim_file.open_path "/dev/full" in
  (match Sim_file.write device "a refused group" with
  | () -> Alcotest.fail "a write to /dev/full returned"
  | exception Sys_error _ -> ());
  Sim_file.close device;
  Sim_file.close device;
  Alcotest.check_raises "closed" (Invalid_argument "Sim_file: device is closed") (fun () ->
      Sim_file.write device "x")

let test_random_fault_deterministic () =
  let faults seed =
    let rng = Lxu_workload.Rng.create seed in
    List.init 20 (fun _ -> Sim_file.random_fault rng ~len:64)
  in
  Alcotest.(check bool) "same seed, same schedule" true (faults 42 = faults 42);
  Alcotest.(check bool) "some variety across seeds" true (faults 42 <> faults 43)

let suite =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc_vectors;
    Alcotest.test_case "crc32 update chains" `Quick test_crc_update;
    Alcotest.test_case "crc32 = bytewise reference" `Quick test_crc_differential;
    Alcotest.test_case "wal roundtrip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal header modes" `Quick test_wal_modes;
    Alcotest.test_case "torn tail truncates" `Quick test_torn_tail;
    Alcotest.test_case "bit flip detected" `Quick test_bit_flip_detected;
    Alcotest.test_case "duplicate tail detected" `Quick test_duplicate_tail_detected;
    Alcotest.test_case "unknown kind detected" `Quick test_unknown_kind_detected;
    Alcotest.test_case "bad header raises with path" `Quick test_bad_header_raises;
    Alcotest.test_case "group commit buffers" `Quick test_group_commit;
    Alcotest.test_case "apply_fault semantics" `Quick test_apply_fault;
    Alcotest.test_case "scheduled injection" `Quick test_injection;
    Alcotest.test_case "file-backed device" `Quick test_file_backed;
    Alcotest.test_case "full device: write raises, close writes nothing" `Quick test_full_device;
    Alcotest.test_case "random faults deterministic" `Quick test_random_fault_deterministic;
  ]
