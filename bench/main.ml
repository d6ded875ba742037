(* Reproduction harness: one entry per table/figure of the paper's
   evaluation (§5).  Run everything:

     dune exec bench/main.exe

   or a subset:

     dune exec bench/main.exe -- fig12 fig16

   Available targets: fig11a fig11b fig12 fig13 fig14 fig15 fig16
   fig17a fig17b fig17c joins labels boxes micro parallel
   recovery overload update mvcc maint plan paged.  (fig14 and fig15
   share one workload and always run together.)

   Set LAZYXML_BENCH_SCALE=k to multiply the key dataset sizes of
   figs 12-16 by k (paper-scale runs take minutes).

   --json <path> redirects the machine-readable output of figures
   that emit one ([parallel] -> BENCH_join.json, [update] ->
   BENCH_update.json, [mvcc] -> BENCH_mvcc.json, [maint] ->
   BENCH_maint.json, [plan] -> BENCH_plan.json, [paged] ->
   BENCH_paged.json) to <path>; the flag is shared wiring for the
   whole perf trajectory. *)

(* (target, runner-id, runner): fig14 and fig15 share one runner. *)
let targets : (string * string * (unit -> unit)) list =
  [
    ("fig11a", "fig11a", Fig11.run_a);
    ("fig11b", "fig11b", Fig11.run_b);
    ("fig12", "fig12", Fig12.run);
    ("fig13", "fig13", Fig13.run);
    ("fig14", "fig14_15", Fig14_15.run);
    ("fig15", "fig14_15", Fig14_15.run);
    ("fig16", "fig16", Fig16.run);
    ("fig17a", "fig17a", Fig17.run_a);
    ("fig17b", "fig17b", Fig17.run_b);
    ("fig17c", "fig17c", Fig17.run_c);
    ("joins", "joins", Ablation.run_joins);
    ("labels", "labels", Ablation.run_labels);
    ("boxes", "boxes", Ablation.run_boxes);
    ("micro", "micro", Micro.run);
    ("parallel", "parallel", Fig_parallel.run);
    ("recovery", "recovery", Fig_recovery.run);
    ("overload", "overload", Fig_overload.run);
    ("update", "update", Fig_update.run);
    ("mvcc", "mvcc", Fig_mvcc.run);
    ("maint", "maint", Fig_maint.run);
    ("plan", "plan", Fig_plan.run);
    ("paged", "paged", Fig_paged.run);
  ]

(* Strips [--json <path>] (shared by all JSON-emitting figures) from
   the argument list, recording the path in Bench_util. *)
let rec extract_json_flag = function
  | [] -> []
  | "--json" :: path :: rest ->
    Bench_util.json_path := Some path;
    extract_json_flag rest
  | "--json" :: [] ->
    prerr_endline "--json requires a path argument";
    exit 2
  | arg :: rest -> arg :: extract_json_flag rest

let () =
  (* Size the minor heap for measurement (64 MB): the runtime default
     (2 MB) forces minor collections mid-pass on every figure, and the
     promotion of live working state adds milliseconds of identical,
     variance-heavy noise to every variant — drowning the deltas the
     figures exist to show.  This is runtime sizing a long-lived query
     server would use anyway; it applies to all targets and variants
     alike.  OCAMLRUNPARAM cannot override it (Gc.set wins), so edit
     here to experiment. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let requested = extract_json_flag (List.tl (Array.to_list Sys.argv)) in
  let names = List.map (fun (n, _, _) -> n) targets in
  let unknown = List.filter (fun r -> not (List.mem r names)) requested in
  if unknown <> [] then begin
    Printf.eprintf "unknown targets: %s\navailable: %s\n"
      (String.concat " " unknown) (String.concat " " names);
    exit 2
  end;
  Printf.printf
    "Lazy XML Updates (SIGMOD 2005) -- reproduction harness\n\
     Shapes (who wins, growth, crossovers) are the comparison target;\n\
     absolute times differ from the paper's 2005-era hardware.\n";
  let to_run = match requested with [] -> names | rs -> rs in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun name ->
      let _, runner_id, f =
        List.find (fun (n, _, _) -> n = name) targets
      in
      if not (Hashtbl.mem seen runner_id) then begin
        Hashtbl.add seen runner_id ();
        f ()
      end)
    to_run;
  print_newline ()
