(* Reproduction harness: one entry per table/figure of the paper's
   evaluation (§5).  Run everything:

     dune exec bench/main.exe

   or a subset:

     dune exec bench/main.exe -- fig12 fig16

   Available targets: fig11a fig11b fig12 fig13 fig14 fig15 fig16
   fig17a fig17b fig17c joins labels boxes micro.  (fig14 and fig15
   share one workload and always run together.)

   Set LAZYXML_BENCH_SCALE=k to multiply the key dataset sizes of
   figs 12-16 by k (paper-scale runs take minutes).

   The claims beyond the paper (join throughput, paged storage,
   batched updates, MVCC reads, maintenance, path partitions) are
   measured and checked by bench/gate.exe. *)

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
  ]

let () =
  Bench_util.size_heap ();
  let requested = List.tl (Array.to_list Sys.argv) in
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
