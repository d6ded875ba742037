(* Two ablation studies beyond the paper's figures.

   [run_joins]: the structural-join family on one workload — MPMGJN
   (merge join, [14]), Stack-Tree-Desc/-Anc ([1]), the classical join
   over the lazy store (§4's translation) and Lazy-Join.  This
   quantifies the paper's §2 narrative (stacks remove merge-join
   re-scans).  A scale row then times Lazy-Join with k child segments
   under one frame of k A-elements, the shape lazy updates build: the
   cross-segment step sweeps each frame once, so it grows linearly in
   k.  Last, Fig 14's queries on perfbench's xmark_read store, each as
   [count] and [query] and their ratio: what a result costs beyond
   counting it.

   [run_labels]: the labeling schemes of §2 under a worst-case
   insertion pattern — repeated insertion at the same point — reporting
   label storage and its growth, the space argument motivating the lazy
   approach. *)

open Lxu_seglog
open Lxu_baselines

(* A nested chain of segments, each carrying many A-elements of which
   only ONE wraps the hook where the next segments (and the D-carrying
   children) live: every frame drags inert A-elements unless Figure
   9's push filter drops them. *)
let ablation_edits ~segments ~anc_per_segment ~d_per_child =
  let buf = Buffer.create 256 in
  for _ = 2 to anc_per_segment do
    Buffer.add_string buf "<A>t</A>"
  done;
  Buffer.add_string buf "<A><c></c></A>";
  let frag = Buffer.contents buf in
  let c_interior = String.length frag - String.length "</c></A>" in
  let cross =
    let b = Buffer.create 64 in
    for _ = 1 to d_per_child do
      Buffer.add_string b "<D/>"
    done;
    Buffer.contents b
  in
  (* Chain each segment inside the previous one's <c> (so ancestors'
     hook-wrapping A-elements contain everything below: deep stacks),
     then attach one D-carrier to every segment's <c>, deepest first. *)
  let edits = ref [] in
  let c_points = Array.make segments 0 in
  let cursor = ref 0 in
  for i = 0 to segments - 1 do
    edits := (!cursor, frag) :: !edits;
    c_points.(i) <- !cursor + c_interior;
    cursor := !cursor + c_interior
  done;
  let attach =
    Array.to_list c_points |> List.sort (fun a b -> Int.compare b a)
    |> List.map (fun gp -> (gp, cross))
  in
  List.rev !edits @ attach

(* [k] hooks under one frame: a root segment of [k] disjoint
   [<A>t</A>], then one [<D/>] segment inserted into each, last first
   so every earlier gp stays put. *)
let hook_edits k =
  let unit = "<A>t</A>" in
  let root = "<r>" ^ String.concat "" (List.init k (fun _ -> unit)) ^ "</r>" in
  (0, root) :: List.init k (fun i -> (3 + (String.length unit * (k - 1 - i)) + 3, "<D/>"))

let run_joins () =
  Bench_util.header "Ablation: structural join algorithms on one workload";
  let edits = ablation_edits ~segments:150 ~anc_per_segment:20 ~d_per_child:4 in
  let log = Bench_util.load_log Update_log.Lazy_dynamic edits in
  Update_log.prepare_for_query log;
  let anc = "A" and desc = "D" in
  (* Shared global input lists for the list-based algorithms. *)
  let a = Std_baseline.global_list log ~tag:anc in
  let d = Std_baseline.global_list log ~tag:desc in
  Printf.printf
    "workload: %d segments in a chain, %d A-elements (1 hook + 19 inert per\n\
     segment), %d D-elements in leaf carriers; all joins cross-segment\n\n"
    (Update_log.segment_count log) (Array.length a) (Array.length d);
  Bench_util.columns [ 34; 12; 12 ] [ "algorithm"; "ms"; "d-scans" ];
  let row name ms scans =
    Bench_util.columns [ 34; 12; 12 ]
      [ name; Bench_util.fmt_ms ms; (match scans with None -> "-" | Some n -> string_of_int n) ]
  in
  let scans = ref 0 in
  let t_mpm =
    Bench_util.measure_settled (fun () ->
        let _, s = Mpmgjn.join ~anc:a ~desc:d () in
        scans := s.Stack_tree_desc.d_scanned)
  in
  row "MPMGJN (merge join, lists ready)" t_mpm (Some !scans);
  let t_std =
    Bench_util.measure_settled (fun () ->
        let _, s = Stack_tree_desc.join ~anc:a ~desc:d () in
        scans := s.Stack_tree_desc.d_scanned)
  in
  row "Stack-Tree-Desc (lists ready)" t_std (Some !scans);
  let t_sta =
    Bench_util.measure_settled (fun () ->
        let _, s = Stack_tree_anc.join ~anc:a ~desc:d () in
        scans := s.Stack_tree_desc.d_scanned)
  in
  row "Stack-Tree-Anc (lists ready)" t_sta (Some !scans);
  let t_base =
    Bench_util.measure_settled (fun () -> ignore (Std_baseline.run log ~anc ~desc ()))
  in
  row "classical join over lazy store" t_base None;
  row "Lazy-Join"
    (Bench_util.measure_settled (fun () -> ignore (Lxu_join.Lazy_join.query log ~anc ~desc ())))
    None;
  Printf.printf
    "\nLazy-Join scale: one segment of k disjoint A-elements, a <D/> child\n\
     segment inserted into each (k hooks under one frame, k one-pair tasks):\n\
     count against query, which also translates and writes each task's pair\n\n";
  Bench_util.columns [ 22; 10; 12; 12; 12 ] [ "k"; "pairs"; "count ms"; "query ms"; "query/count" ];
  List.iter
    (fun k ->
      let log = Bench_util.load_log Update_log.Lazy_dynamic (hook_edits k) in
      Update_log.prepare_for_query log;
      let count_ms =
        Bench_util.measure_settled (fun () -> ignore (Lxu_join.Lazy_join.count log ~anc ~desc ()))
      in
      let query_ms = Bench_util.time_ld log ~anc ~desc in
      Bench_util.columns [ 22; 10; 12; 12; 12 ]
        [
          string_of_int k;
          string_of_int (Lxu_join.Lazy_join.count log ~anc ~desc ());
          Bench_util.fmt_ms count_ms;
          Bench_util.fmt_ms query_ms;
          Printf.sprintf "%.2f" (query_ms /. count_ms);
        ])
    [ 1_000; 4_000; 16_000 ];
  Printf.printf
    "\nFig 14's queries on perfbench's xmark_read store (2,000 persons, 500\n\
     balanced segments plus 229 watch/interest segments): count against\n\
     query, the production read that also translates and writes each pair\n\n";
  let log = Bench_util.load_log Update_log.Lazy_dynamic (Fig_workload.xmark_read_edits ()) in
  Update_log.prepare_for_query log;
  Bench_util.columns [ 22; 10; 12; 12; 12 ] [ "query"; "pairs"; "count ms"; "query ms"; "query/count" ];
  List.iter
    (fun (_, anc, desc) ->
      let count_ms =
        Bench_util.measure_settled (fun () -> ignore (Lxu_join.Lazy_join.count log ~anc ~desc ()))
      in
      let query_ms = Bench_util.time_ld log ~anc ~desc in
      Bench_util.columns [ 22; 10; 12; 12; 12 ]
        [
          anc ^ "//" ^ desc;
          string_of_int (Lxu_join.Lazy_join.count log ~anc ~desc ());
          Bench_util.fmt_ms count_ms;
          Bench_util.fmt_ms query_ms;
          Printf.sprintf "%.2f" (query_ms /. count_ms);
        ])
    Lxu_workload.Xmark.queries

let run_labels () =
  Bench_util.header "Ablation: labeling scheme storage under adversarial insertion";
  Printf.printf
    "(n siblings inserted at the same point; total label bits)\n\n";
  Bench_util.columns [ 8; 12; 14 ] [ "n"; "interval"; "prime tot" ];
  List.iter
    (fun n ->
      (* Interval labels: fixed 3 machine words per element, but every
         insertion relabels (Figure 16's cost, not shown here). *)
      let interval_bits = n * 3 * 63 in
      (* PRIME: label products plus the SC table for a flat tree with
         middle insertions. *)
      let prime_bits =
        let t = Prime_label.create ~k:10 ~capacity:(n + 2) () in
        let root = Prime_label.append t ~parent:None in
        for _ = 1 to n - 1 do
          ignore (Prime_label.insert t ~parent:(Some root) ~order_pos:1)
        done;
        Prime_label.label_bits t + Prime_label.sc_bits t
      in
      Bench_util.columns [ 8; 12; 14 ]
        [ string_of_int n; string_of_int interval_bits; string_of_int prime_bits ])
    [ 50; 100; 200; 400; 800 ];
  Printf.printf
    "\nPRIME's label products and SC table grow superlinearly, while interval\n\
     labels stay at three words but pay Figure 16's relabeling on every\n\
     update.  The lazy scheme gets the best of both: interval-sized labels\n\
     that never change, at the price of the (small) update log.\n"

(* The comparison the paper defers to future work (§6): the lazy
   approach against W-BOX-style order-maintenance labeling [9], plus
   the traditional relabeling store and PRIME, under mid-document
   insertion.  Times are per inserted element; "touched" counts the
   labels each scheme rewrites. *)
let run_boxes () =
  Bench_util.header
    "Ablation: update cost per element vs the BOXes [9], traditional and PRIME";
  Bench_util.columns [ 8; 12; 12; 14; 12; 12; 14; 12; 14 ]
    [ "n"; "LD ms"; "WBOX ms"; "WBOX touch"; "BBOX ms"; "trad ms"; "trad touch"; "PRIME ms"; "PRIME recomp" ];
  List.iter
    (fun n ->
      (* LD: a document of n elements in 100 segments; insert a
         one-element segment mid-document. *)
      let ld_ms =
        let edits = Fig_workload.balanced_doc n in
        let log = Bench_util.load_log Update_log.Lazy_dynamic edits in
        let gp = Fig_workload.segment_boundary log in
        Bench_util.measure ~repeat:5 (fun () ->
            ignore (Update_log.insert log ~gp "<x/>");
            Update_log.remove log ~gp ~len:4)
      in
      (* WBOX: n elements under one root; keep inserting first children
         (the hot-spot adversary; no removals, so tag pressure is
         real). *)
      let wbox_ms, wbox_touch =
        let t = Box_store.create () in
        let root = Box_store.insert_last_child t ~parent:None in
        for _ = 1 to n - 1 do
          ignore (Box_store.insert_first_child t ~parent:(Some root))
        done;
        let before = Box_store.relabels t in
        let reps = 50 in
        let ms =
          Bench_util.measure ~repeat:3 (fun () ->
              for _ = 1 to reps do
                ignore (Box_store.insert_first_child t ~parent:(Some root))
              done)
          /. float_of_int reps
        in
        (ms, (Box_store.relabels t - before) / (3 * reps))
      in
      (* BBOX: same hot-spot insertions; nothing is ever relabelled,
         each insert is pure O(log n) tree work. *)
      let bbox_ms =
        let t = Bbox_store.create () in
        let root = Bbox_store.insert_last_child t ~parent:None in
        for _ = 1 to n - 1 do
          ignore (Bbox_store.insert_first_child t ~parent:(Some root))
        done;
        let reps = 50 in
        Bench_util.measure ~repeat:3 (fun () ->
            for _ = 1 to reps do
              ignore (Bbox_store.insert_first_child t ~parent:(Some root))
            done)
        /. float_of_int reps
      in
      (* Traditional: same shape; insert+remove one element mid-doc. *)
      let trad_ms, trad_touch =
        let store = Bench_util.load_store (Fig_workload.balanced_doc n) in
        let gp = Interval_store.doc_length store / 2 / 4 * 4 in
        let ms =
          Bench_util.measure ~repeat:5 (fun () ->
              Interval_store.insert store ~gp "<x/>";
              Interval_store.remove store ~gp ~len:4)
        in
        (ms, Interval_store.last_relabel_count store)
      in
      (* PRIME: n nodes; middle insertion (no removal support: measure
         a handful of inserts on a fresh structure). *)
      let prime_ms, prime_recomp =
        let t = Prime_label.create ~k:10 ~capacity:(n + 64) () in
        let root = Prime_label.append t ~parent:None in
        for _ = 1 to n - 1 do
          ignore (Prime_label.append t ~parent:(Some root))
        done;
        let before = Prime_label.sc_recomputations t in
        let reps = 8 in
        let _, ms =
          Bench_util.time_ms (fun () ->
              for _ = 1 to reps do
                ignore (Prime_label.insert t ~parent:(Some root) ~order_pos:(n / 2))
              done)
        in
        (ms /. float_of_int reps, (Prime_label.sc_recomputations t - before) / reps)
      in
      Bench_util.columns [ 8; 12; 12; 14; 12; 12; 14; 12; 14 ]
        [
          string_of_int n;
          Bench_util.fmt_ms ld_ms;
          Bench_util.fmt_ms wbox_ms;
          string_of_int wbox_touch;
          Bench_util.fmt_ms bbox_ms;
          Bench_util.fmt_ms trad_ms;
          string_of_int trad_touch;
          Bench_util.fmt_ms prime_ms;
          string_of_int prime_recomp;
        ])
    [ 1000; 2000; 4000; 8000 ];
  Printf.printf
    "\nLD scale: one insert+remove round trip of Figure 11's 8-tag fragment\n\
     mid-document, under one parent holding k sibling segments (median of\n\
     9 round trips, each after Gc.full_major)\n\n";
  Bench_util.columns [ 10; 12; 12 ] [ "k"; "insert ms"; "remove ms" ];
  List.iter
    (fun k ->
      let log = Bench_util.load_log Update_log.Lazy_dynamic (Fig11.schedule `Balanced k) in
      let gp = Fig_workload.segment_boundary log in
      let len = String.length Fig11.fragment in
      let rounds =
        List.init 9 (fun _ ->
            Gc.full_major ();
            let _, ins = Bench_util.time_ms (fun () -> Update_log.insert log ~gp Fig11.fragment) in
            let (), rem = Bench_util.time_ms (fun () -> Update_log.remove log ~gp ~len) in
            (ins, rem))
      in
      let median f = List.nth (List.sort compare (List.map f rounds)) 4 in
      Bench_util.columns [ 10; 12; 12 ]
        [ string_of_int k; Bench_util.fmt_ms (median fst); Bench_util.fmt_ms (median snd) ])
    [ 1_000; 4_000; 16_000 ];
  (* Query side: the containment test each scheme pays per join
     comparison.  Interval and W-BOX are integer compares; B-BOX
     reconstructs two ranks per test. *)
  Printf.printf "\ncontainment-test cost (ns per is_ancestor, n = 8000):\n";
  let n = 8000 in
  let wbox = Box_store.create () in
  let wroot = Box_store.insert_last_child wbox ~parent:None in
  let wlast = ref wroot in
  let bbox = Bbox_store.create () in
  let broot = Bbox_store.insert_last_child bbox ~parent:None in
  let blast = ref broot in
  for _ = 1 to n do
    wlast := Box_store.insert_last_child wbox ~parent:(Some !wlast);
    blast := Bbox_store.insert_last_child bbox ~parent:(Some !blast)
  done;
  let reps = 100_000 in
  let wms =
    Bench_util.measure ~repeat:3 (fun () ->
        for _ = 1 to reps do
          ignore (Box_store.is_ancestor wbox wroot !wlast)
        done)
  in
  let bms =
    Bench_util.measure ~repeat:3 (fun () ->
        for _ = 1 to reps do
          ignore (Bbox_store.is_ancestor bbox broot !blast)
        done)
  in
  Printf.printf "  W-BOX %.1f ns   B-BOX %.1f ns  (the [9] trade-off: B-BOX\n\
                \  never relabels but pays log-time comparisons)\n"
    (wms *. 1e6 /. float_of_int reps)
    (bms *. 1e6 /. float_of_int reps);
  Printf.printf
    "\nW-BOX keeps updates logarithmic where the traditional store is linear,\n\
     but its labels are mutable lookups through the structure; the lazy log\n\
     keeps immutable interval-style labels AND constant-ish update cost —\n\
     the trade-off the paper argues for.\n"
