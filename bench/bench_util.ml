(* Shared helpers for the figure-reproduction harness. *)

(* Workload multiplier from LAZYXML_BENCH_SCALE (default 1): the key
   dataset sizes of figs 12-16 scale linearly with it, for runs closer
   to the paper's 100 MB datasets. *)
let scale =
  match Sys.getenv_opt "LAZYXML_BENCH_SCALE" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

(* Median wall-clock of [repeat] runs, in milliseconds. *)
let measure ?(repeat = 5) f =
  let samples =
    List.init repeat (fun _ ->
        let _, ms = time_ms f in
        ms)
    |> List.sort compare
  in
  List.nth samples (repeat / 2)

(* Best-of-[repeat]: on a shared single-core host, scheduler
   preemption can land in most samples of a window, dragging medians
   around by multiples of the true cost; the minimum is the
   reproducible compute time and treats every variant identically.
   Use for figures whose verdict is a ratio of short passes. *)
let measure_min ?(repeat = 5) f =
  List.fold_left
    (fun acc _ ->
      let _, ms = time_ms f in
      min acc ms)
    infinity
    (List.init repeat Fun.id)

(* Sizes the minor heap for measurement (64 MB): the runtime default
   (2 MB) forces minor collections mid-pass, and the promotion of live
   working state adds milliseconds of identical, variance-heavy noise
   to every variant — drowning the deltas the figures and the gate
   exist to show.  This is runtime sizing a long-lived query server
   would use anyway.  OCAMLRUNPARAM cannot override it (Gc.set wins),
   so edit here to experiment. *)
let size_heap () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 }

let header title =
  Printf.printf "\n=== %s ===\n" title

let columns widths cells =
  List.iter2 (fun w c -> Printf.printf "%-*s" w c) widths cells;
  print_newline ()

let fmt_ms ms = Printf.sprintf "%.3f" ms
let fmt_bytes b = Printf.sprintf "%d" b

let sep () = print_newline ()

(* Builds a Lazy_db from an edit schedule. *)
let load_db engine edits =
  let db = Lazy_xml.Lazy_db.create ~engine () in
  List.iter (fun (gp, frag) -> Lazy_xml.Lazy_db.insert db ~gp frag) edits;
  db

(* Builds an update log (LD or LS) from an edit schedule. *)
let load_log mode edits =
  let log = Lxu_seglog.Update_log.create ~mode () in
  List.iter (fun (gp, frag) -> ignore (Lxu_seglog.Update_log.insert log ~gp frag)) edits;
  log

(* Builds the traditional interval store from an edit schedule. *)
let load_store edits =
  let store = Lxu_baselines.Interval_store.create () in
  List.iter (fun (gp, frag) -> Lxu_baselines.Interval_store.insert store ~gp frag) edits;
  store

(* The three query timers used across figures; all measure the join
   itself, on label pairs, the way the paper does.  The LS timer
   includes the pre-query sort/rebuild that discipline defers. *)
let time_ld log ~anc ~desc =
  Lxu_seglog.Update_log.prepare_for_query log;
  measure (fun () -> ignore (Lxu_join.Lazy_join.run log ~anc ~desc ()))

let time_ls log ~anc ~desc =
  measure (fun () ->
      Lxu_seglog.Update_log.mark_stale log;
      ignore (Lxu_join.Lazy_join.run log ~anc ~desc ()))

(* STD as the paper runs it over the same store (§4): fetch every
   element of both tags from the element index, translate local labels
   to global intervals through the SB-tree, sort, then Stack-Tree-Desc.
   Reading and translating the full lists is part of the measured cost,
   exactly as reading the full element lists is for the paper's STD. *)
let time_std log ~anc ~desc =
  Lxu_seglog.Update_log.prepare_for_query log;
  measure (fun () -> ignore (Lxu_baselines.Std_baseline.run log ~anc ~desc ()))
