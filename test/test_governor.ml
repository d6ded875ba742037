(* Resource governance: admission bounds, typed shedding, deadlines,
   cancellation, retry backoff — plus quick runs of the overload chaos
   harness.  Every concurrent scenario synchronizes on explicit
   latches, never on sleeps, so nothing here is timing-sensitive. *)

open Lazy_xml
module Deadline = Lxu_util.Deadline
module Rng = Lxu_workload.Rng
module H = Lxu_crash_harness.Crash_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_config =
  { Governor.max_readers = 1; max_writer_queue = 1; default_deadline_s = None }

let seeded_db gov =
  List.iter
    (fun op -> Shared_db.write (Governor.shared gov) (fun db -> H.apply db op))
    (H.gen_ops ~seed:11 ~target_ops:20)

let spin_until flag = while not (Atomic.get flag) do Domain.cpu_relax () done

(* --- admission bounds ------------------------------------------------- *)

let test_read_shed_at_bound () =
  let gov = Governor.create ~config:small_config () in
  let entered = Atomic.make false and release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Governor.read gov (fun _guard _db ->
            Atomic.set entered true;
            spin_until release))
  in
  spin_until entered;
  (* The single read slot is held: the next read sheds immediately,
     typed with the observed occupancy. *)
  (match Governor.read gov (fun _ _ -> ()) with
  | Error (Governor.Overloaded { op = `Read; in_flight = 1; limit = 1 }) -> ()
  | Error r -> Alcotest.fail ("unexpected rejection: " ^ Governor.rejection_to_string r)
  | Ok () -> Alcotest.fail "read admitted past max_readers");
  Atomic.set release true;
  (match Domain.join holder with
  | Ok () -> ()
  | Error r -> Alcotest.fail ("holder rejected: " ^ Governor.rejection_to_string r));
  (* Slot released: admission works again. *)
  (match Governor.read gov (fun _ _ -> 42) with
  | Ok n -> check_int "admitted after release" 42 n
  | Error r -> Alcotest.fail ("still shed: " ^ Governor.rejection_to_string r));
  let s = Governor.stats gov in
  check_int "admitted" 2 s.Governor.admitted_reads;
  check_int "completed" 2 s.Governor.completed_reads;
  check_int "shed overload" 1 s.Governor.rejected_overload

let test_writer_queue_bound () =
  let gov = Governor.create ~config:small_config () in
  let entered = Atomic.make false and release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Governor.write gov (fun _guard _db ->
            Atomic.set entered true;
            spin_until release))
  in
  spin_until entered;
  (match Governor.insert gov ~gp:0 "<a/>" with
  | Error (Governor.Overloaded { op = `Write; in_flight = 1; limit = 1 }) -> ()
  | Error r -> Alcotest.fail ("unexpected rejection: " ^ Governor.rejection_to_string r)
  | Ok () -> Alcotest.fail "write admitted past max_writer_queue");
  Atomic.set release true;
  ignore (Domain.join holder);
  (match Governor.insert gov ~gp:0 "<a/>" with
  | Ok () -> ()
  | Error r -> Alcotest.fail ("insert shed after release: " ^ Governor.rejection_to_string r));
  check_int "one element inserted" 1
    (Shared_db.read (Governor.shared gov) Lazy_db.element_count)

(* --- cancellation ----------------------------------------------------- *)

let test_pre_cancelled_skips_lock () =
  (* A fired token must reject before the read lock is requested: the
     write lock is held for the whole test, so a count that tried to
     acquire the read lock would block forever. *)
  let gov = Governor.create ~config:small_config () in
  seeded_db gov;
  let entered = Atomic.make false and release = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        Shared_db.write (Governor.shared gov) (fun _db ->
            Atomic.set entered true;
            spin_until release))
  in
  spin_until entered;
  let tok = Deadline.Cancel.create () in
  Deadline.Cancel.cancel ~reason:"gone" tok;
  (match
     Governor.read gov ~cancel:tok (fun guard db -> Lazy_db.count db ?guard ~anc:"a" ~desc:"b" ())
   with
  | Error (Governor.Cancelled "gone") -> ()
  | Error r -> Alcotest.fail ("unexpected rejection: " ^ Governor.rejection_to_string r)
  | Ok _ -> Alcotest.fail "cancelled count returned a result");
  (match
     Governor.read gov ~cancel:tok (fun guard db ->
         Path_query.count ?guard db (Path_query.parse_exn "//a//b"))
   with
  | Error (Governor.Cancelled "gone") -> ()
  | _ -> Alcotest.fail "cancelled path_count not rejected");
  Atomic.set release true;
  ignore (Domain.join writer);
  let s = Governor.stats gov in
  check_int "nothing admitted" 0 s.Governor.admitted_reads;
  check_int "both rejections typed" 2 s.Governor.rejected_cancel

let test_cancel_mid_read () =
  let gov = Governor.create ~config:small_config () in
  let tok = Deadline.Cancel.create () in
  let entered = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        Governor.read gov ~cancel:tok (fun guard _db ->
            Atomic.set entered true;
            while true do
              Deadline.check_opt guard
            done))
  in
  spin_until entered;
  Deadline.Cancel.cancel ~reason:"enough" tok;
  (match Domain.join reader with
  | Error (Governor.Cancelled "enough") -> ()
  | Error r -> Alcotest.fail ("unexpected rejection: " ^ Governor.rejection_to_string r)
  | Ok () -> Alcotest.fail "spinning read returned Ok");
  let s = Governor.stats gov in
  check_int "admitted then cancelled" 1 s.Governor.admitted_reads;
  check_int "not completed" 0 s.Governor.completed_reads;
  check_int "typed as cancel" 1 s.Governor.rejected_cancel

let test_failed_callback_releases_slot () =
  (* A callback that escapes with a foreign exception must re-raise,
     count in the [failed] bucket, and still release its admission
     slot — with max_readers = 1, a leaked slot would shed every
     subsequent read forever. *)
  let gov = Governor.create ~config:small_config () in
  seeded_db gov;
  (match Governor.read gov (fun _ _ -> invalid_arg "boom") with
  | exception Invalid_argument _ -> ()
  | Ok _ | Error _ -> Alcotest.fail "raising callback did not propagate");
  (* A malformed path parsed inside the callback takes the same
     escape path (Path_query.parse_exn raises Invalid_argument). *)
  (match
     Governor.read gov (fun guard db ->
         Path_query.count ?guard db (Path_query.parse_exn "not //a path"))
   with
  | exception Invalid_argument _ -> ()
  | Ok _ -> Alcotest.fail "malformed path produced a count"
  | Error r -> Alcotest.fail ("malformed path typed-rejected: " ^ Governor.rejection_to_string r));
  (match Governor.read gov (fun _ _ -> 7) with
  | Ok n -> check_int "slot released after failures" 7 n
  | Error r -> Alcotest.fail ("admission slot leaked: " ^ Governor.rejection_to_string r));
  let s = Governor.stats gov in
  check_int "admitted" 3 s.Governor.admitted_reads;
  check_int "completed" 1 s.Governor.completed_reads;
  check_int "failed" 2 s.Governor.failed;
  check_int "nothing shed" 0 s.Governor.rejected_overload

(* --- deadlines -------------------------------------------------------- *)

let test_deadline_pre_admission () =
  let gov = Governor.create ~config:small_config () in
  seeded_db gov;
  match
    Governor.read gov ~deadline_s:(-1.) (fun guard db ->
        Lazy_db.count db ?guard ~anc:"a" ~desc:"b" ())
  with
  | Error (Governor.Timed_out { after_s }) ->
    check_bool "rejected at admission" true (after_s = 0.)
  | Error r -> Alcotest.fail ("unexpected rejection: " ^ Governor.rejection_to_string r)
  | Ok _ -> Alcotest.fail "expired deadline admitted"

let test_deadline_mid_read () =
  let gov = Governor.create ~config:small_config () in
  match
    Governor.read gov ~deadline_s:0.002 (fun guard _db ->
        while true do
          Deadline.check_opt guard
        done)
  with
  | Error (Governor.Timed_out { after_s }) ->
    check_bool "measured duration" true (after_s > 0.)
  | Error r -> Alcotest.fail ("unexpected rejection: " ^ Governor.rejection_to_string r)
  | Ok () -> Alcotest.fail "spinning read outlived its deadline"

let test_default_deadline_from_config () =
  let gov =
    Governor.create
      ~config:{ small_config with Governor.default_deadline_s = Some 0.002 }
      ()
  in
  match
    Governor.read gov (fun guard _db ->
        while true do
          Deadline.check_opt guard
        done)
  with
  | Error (Governor.Timed_out _) -> ()
  | Error r -> Alcotest.fail ("unexpected rejection: " ^ Governor.rejection_to_string r)
  | Ok () -> Alcotest.fail "config default deadline not applied"

(* --- retry ------------------------------------------------------------ *)

let overloaded = Error (Governor.Overloaded { op = `Read; in_flight = 1; limit = 1 })

let test_retry_schedule () =
  let sleeps = ref [] in
  let sleep ms = sleeps := ms :: !sleeps in
  let calls = ref 0 in
  let rng = Rng.create 7 in
  (match
     Governor.retry ~attempts:4 ~base_ms:1. ~factor:2. ~max_ms:3. ~sleep ~rng (fun () ->
         incr calls;
         if !calls < 4 then overloaded else Ok !calls)
   with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "retry did not reach the succeeding attempt");
  let sleeps = List.rev !sleeps in
  check_int "one sleep per failed attempt" 3 (List.length sleeps);
  (* The exact schedule replays from the same seed: delay k is
     u * min(max_ms, base_ms * factor^(k-1)), u in [0.5, 1.0). *)
  let rng' = Rng.create 7 in
  List.iteri
    (fun i ms ->
      let cap = Float.min 3. (2. ** float_of_int i) in
      let u = 0.5 +. (float_of_int (Rng.int rng' 1_048_576) /. 2_097_152.) in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "delay %d" (i + 1)) (cap *. u) ms;
      check_bool "within [cap/2, cap)" true (ms >= cap /. 2. && ms < cap))
    sleeps

let test_retry_gives_up_and_passes_through () =
  let sleeps = ref 0 in
  let sleep _ = incr sleeps in
  let calls = ref 0 in
  (* Persistent overload: attempts exhausted, final error returned. *)
  (match
     Governor.retry ~attempts:3 ~sleep ~rng:(Rng.create 1) (fun () ->
         incr calls;
         overloaded)
   with
  | Error (Governor.Overloaded _) -> ()
  | _ -> Alcotest.fail "expected the final Overloaded");
  check_int "three attempts" 3 !calls;
  check_int "two backoffs" 2 !sleeps;
  (* Timed_out and Cancelled are never retried. *)
  let calls = ref 0 in
  (match
     Governor.retry ~attempts:5 ~sleep ~rng:(Rng.create 1) (fun () ->
         incr calls;
         (Error (Governor.Timed_out { after_s = 0. }) : (unit, Governor.rejection) result))
   with
  | Error (Governor.Timed_out _) -> ()
  | _ -> Alcotest.fail "expected Timed_out");
  check_int "no retry on Timed_out" 1 !calls

(* --- property: the gauge never exceeds the bound ---------------------- *)

let test_admission_bound_under_race () =
  (* 8 domains hammer a 3-slot governor; a high-water mark taken
     inside the callbacks must never exceed the bound. *)
  let config = { Governor.max_readers = 3; max_writer_queue = 1; default_deadline_s = None } in
  let gov = Governor.create ~config () in
  let inside = Atomic.make 0 and high = Atomic.make 0 in
  let rec bump_high () =
    let h = Atomic.get high and v = Atomic.get inside in
    if v > h && not (Atomic.compare_and_set high h v) then bump_high ()
  in
  let domains =
    Array.init 8 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 200 do
              ignore
                (Governor.read gov (fun _ _ ->
                     Atomic.incr inside;
                     bump_high ();
                     Atomic.decr inside))
            done))
  in
  Array.iter Domain.join domains;
  check_bool
    (Printf.sprintf "high-water %d <= bound 3" (Atomic.get high))
    true
    (Atomic.get high <= 3);
  let s = Governor.stats gov in
  check_int "every attempt accounted" (8 * 200)
    (s.Governor.completed_reads + s.Governor.rejected_overload)

(* --- concurrent writers ------------------------------------------------ *)

let wide_config =
  { Governor.max_readers = 1; max_writer_queue = 8; default_deadline_s = None }

let concurrent_inserts_account_exactly durability () =
  (* 4 domains hammer [insert] concurrently.  Accounting must stay
     exact: every insert admitted, completed, and visible in the
     document — a lost or double-applied insert would show up in one
     of these counts.  Durable, the WAL must replay to the same text. *)
  H.with_dir "governor_account" (fun dir ->
      let durability = if durability then `Wal dir else `None in
      let gov = Governor.create ~config:wide_config ~durability () in
      let per_domain = 25 in
      let domains =
        Array.init 4 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_domain do
                  match Governor.insert gov ~gp:0 "<a/>" with
                  | Ok () -> ()
                  | Error r -> Alcotest.fail ("insert shed: " ^ Governor.rejection_to_string r)
                done))
      in
      Array.iter Domain.join domains;
      let n = 4 * per_domain in
      let s = Governor.stats gov in
      check_int "admitted" n s.Governor.admitted_writes;
      check_int "completed" n s.Governor.completed_writes;
      check_int "failed" 0 s.Governor.failed;
      (* At most one slot per domain is ever occupied: nothing sheds
         under an 8-slot bound. *)
      check_int "no overload" 0 s.Governor.rejected_overload;
      let live =
        Shared_db.read (Governor.shared gov) (fun db ->
            check_int "every element landed" n (Lazy_db.element_count db);
            Lazy_db.check db;
            Lazy_db.text db)
      in
      if durability <> `None then begin
        Shared_db.close (Governor.shared gov);
        let db, _ = Lazy_db.recover dir in
        Alcotest.(check string) "recovered text = live text" live (Lazy_db.text db);
        check_int "recovered elements" n (Lazy_db.element_count db);
        Lazy_db.close db
      end)

let test_bad_insert_fails_only_its_caller () =
  (* One doomed insert (gp far past the end) races three good ones
     while a direct writer holds the lock, so the four pile up behind
     it.  Only the doomed caller may see the exception; the other
     three must land. *)
  let gov = Governor.create ~config:wide_config () in
  let entered = Atomic.make false and release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Shared_db.write (Governor.shared gov) (fun _db ->
            Atomic.set entered true;
            spin_until release))
  in
  spin_until entered;
  let good =
    Array.init 3 (fun _ -> Domain.spawn (fun () -> Governor.insert gov ~gp:0 "<a/>"))
  in
  let bad =
    Domain.spawn (fun () ->
        match Governor.insert gov ~gp:1_000_000 "<b/>" with
        | exception Invalid_argument _ -> `Raised
        | Ok () -> `Applied
        | Error r -> `Rejected r)
  in
  (* All four admitted (counters are atomics, safe to poll) before the
     lock frees: they are blocked on it, none has run yet. *)
  while (Governor.stats gov).Governor.admitted_writes < 4 do
    Domain.cpu_relax ()
  done;
  Atomic.set release true;
  ignore (Domain.join holder);
  Array.iter
    (fun d ->
      match Domain.join d with
      | Ok () -> ()
      | Error r -> Alcotest.fail ("good insert lost: " ^ Governor.rejection_to_string r))
    good;
  (match Domain.join bad with
  | `Raised -> ()
  | `Applied -> Alcotest.fail "out-of-range gp applied"
  | `Rejected r -> Alcotest.fail ("typed rejection instead of raise: " ^ Governor.rejection_to_string r));
  let s = Governor.stats gov in
  check_int "admitted" 4 s.Governor.admitted_writes;
  check_int "three completed" 3 s.Governor.completed_writes;
  check_int "one failed" 1 s.Governor.failed;
  Shared_db.read (Governor.shared gov) (fun db ->
      check_int "good elements only" 3 (Lazy_db.element_count db);
      Lazy_db.check db)

let test_closed_store_refuses_inserts () =
  (* Concurrent inserts on a closed durable store: every caller sees
     the exception and none of the edits is applied. *)
  H.with_dir "governor_closed" (fun dir ->
      let gov = Governor.create ~config:wide_config ~durability:(`Wal dir) () in
      (match Governor.insert gov ~gp:0 "<r></r>" with
      | Ok () -> ()
      | Error r -> Alcotest.fail ("seed insert shed: " ^ Governor.rejection_to_string r));
      Shared_db.close (Governor.shared gov);
      let entered = Atomic.make false and release = Atomic.make false in
      let holder =
        Domain.spawn (fun () ->
            Shared_db.write (Governor.shared gov) (fun _db ->
                Atomic.set entered true;
                spin_until release))
      in
      spin_until entered;
      let inserts =
        Array.init 3 (fun _ ->
            Domain.spawn (fun () ->
                match Governor.insert gov ~gp:3 "<x/>" with
                | exception _ -> `Raised
                | Ok () -> `Applied
                | Error r -> `Rejected r))
      in
      while (Governor.stats gov).Governor.admitted_writes < 4 do
        Domain.cpu_relax ()
      done;
      Atomic.set release true;
      ignore (Domain.join holder);
      Array.iter
        (fun d ->
          match Domain.join d with
          | `Raised -> ()
          | `Applied -> Alcotest.fail "insert reported success on a closed WAL"
          | `Rejected r ->
            Alcotest.fail ("typed rejection instead of raise: " ^ Governor.rejection_to_string r))
        inserts;
      check_int "three failed" 3 (Governor.stats gov).Governor.failed;
      let len = Shared_db.write (Governor.shared gov) Lazy_db.doc_length in
      check_int "no edit applied" 7 len)

let test_insert_many () =
  (* The governed batch entry point: one admission, one write, all
     edits applied under sequential-application gp semantics. *)
  let gov = Governor.create ~config:wide_config () in
  (match Governor.insert_many gov [ (0, "<a/>"); (4, "<b/>") ] with
  | Ok () -> ()
  | Error r -> Alcotest.fail ("batch shed: " ^ Governor.rejection_to_string r));
  let s = Governor.stats gov in
  check_int "one admission for the batch" 1 s.Governor.admitted_writes;
  check_int "completed" 1 s.Governor.completed_writes;
  Shared_db.read (Governor.shared gov) (fun db ->
      check_int "both edits applied" 2 (Lazy_db.element_count db);
      Lazy_db.check db)

(* --- the chaos harness, quick slice ----------------------------------- *)

let chaos seed () =
  let r = Lxu_crash_harness.Overload_harness.run_one ~seed () in
  check_bool "deadline pressure observed" true (r.Lxu_crash_harness.Overload_harness.timed_out > 0);
  check_bool "cancellations observed" true (r.Lxu_crash_harness.Overload_harness.cancelled >= 2)

let suite =
  [
    Alcotest.test_case "reads shed at the bound" `Quick test_read_shed_at_bound;
    Alcotest.test_case "writer queue bounded" `Quick test_writer_queue_bound;
    Alcotest.test_case "pre-cancelled op skips the lock" `Quick test_pre_cancelled_skips_lock;
    Alcotest.test_case "cancel lands mid-read" `Quick test_cancel_mid_read;
    Alcotest.test_case "raising callback releases its slot" `Quick
      test_failed_callback_releases_slot;
    Alcotest.test_case "expired deadline rejected at admission" `Quick test_deadline_pre_admission;
    Alcotest.test_case "deadline lands mid-read" `Quick test_deadline_mid_read;
    Alcotest.test_case "config default deadline" `Quick test_default_deadline_from_config;
    Alcotest.test_case "retry schedule is seeded jittered backoff" `Quick test_retry_schedule;
    Alcotest.test_case "retry scope" `Quick test_retry_gives_up_and_passes_through;
    Alcotest.test_case "admission bound holds under race" `Quick test_admission_bound_under_race;
    Alcotest.test_case "concurrent inserts account exactly" `Quick
      (concurrent_inserts_account_exactly false);
    Alcotest.test_case "concurrent durable inserts account exactly" `Quick
      (concurrent_inserts_account_exactly true);
    Alcotest.test_case "bad insert fails only its caller" `Quick
      test_bad_insert_fails_only_its_caller;
    Alcotest.test_case "closed store refuses every insert" `Quick
      test_closed_store_refuses_inserts;
    Alcotest.test_case "insert_many" `Quick test_insert_many;
    Alcotest.test_case "chaos LD seed 1" `Quick (chaos 1);
    Alcotest.test_case "chaos LD seed 2" `Quick (chaos 2);
  ]
